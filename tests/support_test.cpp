//===- tests/support_test.cpp - Unit tests for src/support ----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "support/Csv.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

using namespace metaopt;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, SameSeedSameStream) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Differences = 0;
  for (int I = 0; I < 50; ++I)
    Differences += A.next() != B.next();
  EXPECT_GT(Differences, 45);
}

TEST(RngTest, StringSeedingIsDeterministic) {
  Rng A(std::string("164.gzip")), B(std::string("164.gzip"));
  EXPECT_EQ(A.next(), B.next());
  Rng C(std::string("164.gzip")), D(std::string("175.vpr"));
  EXPECT_NE(C.next(), D.next());
}

TEST(RngTest, SplitStreamIsReproducible) {
  Rng A = Rng::splitStream(0x10adedD1CEull, 17);
  Rng B = Rng::splitStream(0x10adedD1CEull, 17);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, SplitStreamMatchesLabelingIdiom) {
  // splitStream hoists the per-loop seeding idiom out of the label
  // collector; datasets labeled before the hoist must not change.
  uint64_t Seed = 0x10adedD1CEull;
  uint64_t Index = Rng::hashString("bench3/loop17");
  Rng Hoisted = Rng::splitStream(Seed, Index);
  Rng Legacy(Seed ^ Index);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Hoisted.next(), Legacy.next());
}

TEST(RngTest, SplitStreamsAreIndependent) {
  // Streams from adjacent indices must not overlap or track each other:
  // collect the first 1,000 values of 8 sibling streams and require all
  // distinct, and no positionwise agreement between any stream pair.
  constexpr int Streams = 8, Draws = 1000;
  std::vector<std::vector<uint64_t>> Values(Streams);
  std::set<uint64_t> All;
  for (int S = 0; S < Streams; ++S) {
    Rng Stream = Rng::splitStream(12345, static_cast<uint64_t>(S));
    for (int I = 0; I < Draws; ++I) {
      Values[S].push_back(Stream.next());
      All.insert(Values[S].back());
    }
  }
  EXPECT_EQ(All.size(), static_cast<size_t>(Streams * Draws));
  for (int A = 0; A < Streams; ++A)
    for (int B = A + 1; B < Streams; ++B)
      for (int I = 0; I < Draws; ++I)
        ASSERT_NE(Values[A][I], Values[B][I]);
}

TEST(RngTest, SplitStreamDistributionStaysUniform) {
  // Each split stream should still look uniform: crude mean check on
  // doubles drawn from several sibling streams.
  for (uint64_t Index : {0ull, 1ull, 2ull, 1000000007ull}) {
    Rng Stream = Rng::splitStream(99, Index);
    double Sum = 0.0;
    for (int I = 0; I < 2000; ++I)
      Sum += Stream.nextDouble();
    EXPECT_NEAR(Sum / 2000, 0.5, 0.05);
  }
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng Generator(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Generator.nextBelow(13), 13u);
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng Generator(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(Generator.nextBelow(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng Generator(11);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t Value = Generator.nextInRange(-3, 3);
    EXPECT_GE(Value, -3);
    EXPECT_LE(Value, 3);
    SawLo |= Value == -3;
    SawHi |= Value == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng Generator(3);
  for (int I = 0; I < 1000; ++I) {
    double Value = Generator.nextDouble();
    EXPECT_GE(Value, 0.0);
    EXPECT_LT(Value, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng Generator(5);
  RunningStats Stats;
  for (int I = 0; I < 20000; ++I)
    Stats.add(Generator.nextGaussian(10.0, 2.0));
  EXPECT_NEAR(Stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(Stats.stdDev(), 2.0, 0.1);
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng Generator(9);
  EXPECT_FALSE(Generator.nextBool(0.0));
  EXPECT_TRUE(Generator.nextBool(1.0));
}

TEST(RngTest, NextBoolFrequency) {
  Rng Generator(13);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += Generator.nextBool(0.25);
  EXPECT_NEAR(Hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, PickWeightedRespectsWeights) {
  Rng Generator(17);
  std::vector<double> Weights = {1.0, 0.0, 3.0};
  std::array<int, 3> Counts = {};
  for (int I = 0; I < 8000; ++I)
    ++Counts[Generator.pickWeighted(Weights)];
  EXPECT_EQ(Counts[1], 0);
  EXPECT_NEAR(static_cast<double>(Counts[2]) / Counts[0], 3.0, 0.5);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng Generator(21);
  std::vector<int> Values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Shuffled = Values;
  Generator.shuffle(Shuffled);
  std::sort(Shuffled.begin(), Shuffled.end());
  EXPECT_EQ(Shuffled, Values);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, MeanAndStdDev) {
  std::vector<double> Values = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(Values), 5.0);
  EXPECT_DOUBLE_EQ(stdDev(Values), 2.0);
}

TEST(StatisticsTest, EmptyInputsAreSafe) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(geometricMean({}), 1.0);
}

TEST(StatisticsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({5}), 5.0);
}

TEST(StatisticsTest, EvenMedianAveragesTheTwoMiddleValues) {
  // The even case must average the two middle order statistics — not
  // just return the upper one nth_element lands on.
  EXPECT_DOUBLE_EQ(median({10, 20}), 15.0);
  EXPECT_DOUBLE_EQ(median({7, 1, 9, 3, 5, 11}), 6.0);
  // Duplicates spanning the midpoint.
  EXPECT_DOUBLE_EQ(median({2, 2, 2, 8}), 2.0);
  // Unsorted input with the two middle values adjacent in magnitude.
  EXPECT_DOUBLE_EQ(median({100, -100, 4, 6, 50, -50}), 5.0);
}

TEST(StatisticsTest, MedianIsRobustToOutliers) {
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4, 1000000}), 3.0);
}

TEST(StatisticsTest, QuantileEndpointsAndMiddle) {
  std::vector<double> Values = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile(Values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(Values, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(Values, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(Values, 0.25), 20.0);
}

TEST(StatisticsTest, GeometricMean) {
  EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(StatisticsTest, ArgMinArgMaxFirstOnTies) {
  std::vector<double> Values = {3, 1, 1, 5, 5};
  EXPECT_EQ(argMin(Values), 1u);
  EXPECT_EQ(argMax(Values), 3u);
}

TEST(StatisticsTest, RunningStatsMatchesBatch) {
  std::vector<double> Values = {1.5, 2.5, -3.0, 8.0, 0.25};
  RunningStats Stats;
  for (double V : Values)
    Stats.add(V);
  EXPECT_EQ(Stats.count(), Values.size());
  EXPECT_NEAR(Stats.mean(), mean(Values), 1e-12);
  EXPECT_NEAR(Stats.stdDev(), stdDev(Values), 1e-12);
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StringUtilsTest, SplitKeepsEmptyPieces) {
  std::vector<std::string> Pieces = split("a,,b", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[1], "");
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("x", ',').size(), 1u);
}

TEST(StringUtilsTest, SplitWhitespaceDiscardsEmpty) {
  std::vector<std::string> Pieces = splitWhitespace("  a\t b  c ");
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[2], "c");
  EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(StringUtilsTest, ParseInt) {
  EXPECT_EQ(parseInt("42"), 42);
  EXPECT_EQ(parseInt("-7"), -7);
  EXPECT_EQ(parseInt(" 13 "), 13);
  EXPECT_FALSE(parseInt("4x").has_value());
  EXPECT_FALSE(parseInt("").has_value());
  EXPECT_FALSE(parseInt("1.5").has_value());
}

TEST(StringUtilsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(parseDouble("abc").has_value());
  EXPECT_FALSE(parseDouble("1.5z").has_value());
}

TEST(StringUtilsTest, FormatHelpers) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatPercent(0.053, 1), "5.3%");
  EXPECT_EQ(formatPercent(-0.02, 0), "-2%");
}

TEST(StringUtilsTest, IsIdentifier) {
  EXPECT_TRUE(isIdentifier("foo"));
  EXPECT_TRUE(isIdentifier("_x1.y"));
  EXPECT_FALSE(isIdentifier("1abc"));
  EXPECT_FALSE(isIdentifier(""));
  EXPECT_FALSE(isIdentifier("a b"));
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinterTest, RendersHeaderAndRows) {
  TablePrinter Table("Title");
  Table.addHeader({"name", "value"});
  Table.addRow({"alpha", "1.5"});
  Table.addRow({"beta", "22"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("Title"), std::string::npos);
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  EXPECT_NE(Out.find("22"), std::string::npos);
}

TEST(TablePrinterTest, NumericCellsRightAligned) {
  TablePrinter Table;
  Table.addHeader({"h1", "h2"});
  Table.addRow({"x", "5"});
  Table.addRow({"y", "123"});
  std::string Out = Table.render();
  // "5" must be padded on the left to align with "123".
  EXPECT_NE(Out.find("  5"), std::string::npos);
}

TEST(TablePrinterTest, RaggedRowsArePadded) {
  TablePrinter Table;
  Table.addHeader({"a", "b", "c"});
  Table.addRow({"one"});
  EXPECT_NO_FATAL_FAILURE({ std::string Out = Table.render(); });
}

//===----------------------------------------------------------------------===//
// Csv
//===----------------------------------------------------------------------===//

TEST(CsvTest, PlainCells) {
  CsvWriter Writer;
  Writer.addRow({"a", "b"});
  Writer.addRow({"1", "2"});
  EXPECT_EQ(Writer.str(), "a,b\n1,2\n");
}

TEST(CsvTest, QuotesSpecialCharacters) {
  CsvWriter Writer;
  Writer.addRow({"has,comma", "has\"quote", "plain"});
  EXPECT_EQ(Writer.str(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(CsvTest, WriteToFileRoundTrips) {
  CsvWriter Writer;
  Writer.addRow({"x", "y"});
  std::string Path = ::testing::TempDir() + "/metaopt_csv_test.csv";
  ASSERT_TRUE(Writer.writeToFile(Path));
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  char Buffer[64] = {};
  size_t Read = std::fread(Buffer, 1, sizeof(Buffer) - 1, File);
  std::fclose(File);
  EXPECT_EQ(std::string(Buffer, Read), "x,y\n");
}
