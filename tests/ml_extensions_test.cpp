//===- tests/ml_extensions_test.cpp - Tests for the ML extensions ---------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Covers the extensions the paper sketches: the decision-tree comparator,
// kernel ridge regression (Section 8's future work), approximate near
// neighbors via LSH (Section 5.1's scalability claim), and the confidence
// triage tool (Section 5.1's outlier-inspection idea).
//
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "core/driver/OutlierTriage.h"
#include "core/ml/DecisionTree.h"
#include "core/ml/Forest.h"
#include "core/ml/Lsh.h"
#include "core/ml/Mlp.h"
#include "core/ml/NearNeighbor.h"
#include "core/ml/Regression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

using namespace metaopt;

namespace {

/// Same synthetic dataset family as ml_test: label = 1 + (f0>0) + 2*(f1>0).
Dataset cleanDataset(size_t N, uint64_t Seed, double LabelNoise = 0.0) {
  Rng Generator(Seed);
  Dataset Data;
  for (size_t I = 0; I < N; ++I) {
    Example Ex;
    Ex.Features.fill(0.0);
    double F0 = Generator.nextGaussian();
    double F1 = Generator.nextGaussian();
    Ex.Features[0] = F0;
    Ex.Features[1] = F1;
    Ex.Features[2] = Generator.nextGaussian() * 10.0;
    Ex.Features[3] = Generator.nextGaussian() * 0.1;
    unsigned Label = 1 + (F0 > 0 ? 1 : 0) + (F1 > 0 ? 2 : 0);
    if (Generator.nextBool(LabelNoise))
      Label = 1 + static_cast<unsigned>(Generator.nextBelow(4));
    Ex.Label = Label;
    for (unsigned F = 0; F < MaxUnrollFactor; ++F)
      Ex.CyclesPerFactor[F] =
          1000.0 + 100.0 * std::abs(static_cast<int>(F + 1) -
                                    static_cast<int>(Label));
    Ex.LoopName = "loop" + std::to_string(I);
    Ex.BenchmarkName = "bench" + std::to_string(I % 5);
    Data.add(std::move(Ex));
  }
  return Data;
}

/// A regression-flavored dataset: the *value* of the label grows linearly
/// with f0, so a regressor can interpolate and extrapolate.
Dataset linearDataset(size_t N, uint64_t Seed) {
  Rng Generator(Seed);
  Dataset Data;
  for (size_t I = 0; I < N; ++I) {
    Example Ex;
    Ex.Features.fill(0.0);
    double F0 = Generator.nextDoubleInRange(-1.0, 1.0);
    Ex.Features[0] = F0;
    Ex.Features[1] = Generator.nextGaussian() * 0.01;
    // Factor rises smoothly from 2 to 7 across f0's range.
    Ex.Label = static_cast<unsigned>(
        std::clamp<long>(std::lround(4.5 + 2.5 * F0), 1, 8));
    Ex.CyclesPerFactor.fill(1000.0);
    Ex.LoopName = "lin" + std::to_string(I);
    Ex.BenchmarkName = "linbench";
    Data.add(std::move(Ex));
  }
  return Data;
}

FeatureSet firstTwoFeatures() {
  return {static_cast<FeatureId>(0), static_cast<FeatureId>(1)};
}

FeatureSet firstFourFeatures() {
  return {static_cast<FeatureId>(0), static_cast<FeatureId>(1),
          static_cast<FeatureId>(2), static_cast<FeatureId>(3)};
}

} // namespace

//===----------------------------------------------------------------------===//
// Decision tree
//===----------------------------------------------------------------------===//

TEST(DecisionTreeTest, LearnsCleanRule) {
  Dataset Train = cleanDataset(400, 50);
  Dataset Test = cleanDataset(150, 51);
  DecisionTreeClassifier Tree(firstTwoFeatures());
  Tree.train(Train);
  EXPECT_GT(Tree.accuracyOn(Test), 0.9);
  EXPECT_GT(Tree.numNodes(), 3u); // Must actually have split.
}

TEST(DecisionTreeTest, IgnoresDistractors) {
  Dataset Train = cleanDataset(400, 52);
  Dataset Test = cleanDataset(150, 53);
  DecisionTreeClassifier Tree(firstFourFeatures());
  Tree.train(Train);
  EXPECT_GT(Tree.accuracyOn(Test), 0.85);
}

TEST(DecisionTreeTest, DepthLimitRespected) {
  Dataset Train = cleanDataset(500, 54, /*LabelNoise=*/0.3);
  DecisionTreeOptions Options;
  Options.MaxDepth = 3;
  DecisionTreeClassifier Tree(firstTwoFeatures(), Options);
  Tree.train(Train);
  EXPECT_LE(Tree.depth(), 3u);
}

TEST(DecisionTreeTest, PureDataMakesOneLeaf) {
  Dataset Data;
  Rng Generator(55);
  for (int I = 0; I < 40; ++I) {
    Example Ex;
    Ex.Features.fill(0.0);
    Ex.Features[0] = Generator.nextGaussian();
    Ex.Label = 5;
    Ex.CyclesPerFactor.fill(1.0);
    Ex.LoopName = "pure" + std::to_string(I);
    Data.add(Ex);
  }
  DecisionTreeClassifier Tree(firstTwoFeatures());
  Tree.train(Data);
  EXPECT_EQ(Tree.numNodes(), 1u);
  EXPECT_EQ(Tree.predict(Data[0].Features), 5u);
}

TEST(DecisionTreeTest, MinLeafSizeStopsGrowth) {
  Dataset Train = cleanDataset(60, 56, 0.2);
  DecisionTreeOptions Small;
  Small.MinLeafSize = 1;
  DecisionTreeOptions Large;
  Large.MinLeafSize = 25;
  DecisionTreeClassifier Fine(firstTwoFeatures(), Small);
  DecisionTreeClassifier Coarse(firstTwoFeatures(), Large);
  Fine.train(Train);
  Coarse.train(Train);
  EXPECT_GT(Fine.numNodes(), Coarse.numNodes());
}

//===----------------------------------------------------------------------===//
// Random forest
//===----------------------------------------------------------------------===//

TEST(RandomForestTest, LearnsCleanRule) {
  Dataset Train = cleanDataset(400, 90);
  Dataset Test = cleanDataset(150, 91);
  RandomForestClassifier Forest(firstTwoFeatures());
  Forest.train(Train);
  EXPECT_GT(Forest.accuracyOn(Test), 0.9);
  EXPECT_EQ(Forest.numTrees(), RandomForestOptions().NumTrees);
}

TEST(RandomForestTest, BeatsASingleTreeOnNoisyData) {
  // Bagging's raison d'être: averaging over bootstrap resamples smooths
  // out label noise a single greedy tree overfits to.
  Dataset Train = cleanDataset(400, 92, /*LabelNoise=*/0.35);
  Dataset Test = cleanDataset(200, 93);
  DecisionTreeOptions Deep;
  Deep.MaxDepth = 12;
  Deep.MinLeafSize = 1;
  Deep.PurityThreshold = 1.0;
  DecisionTreeClassifier Tree(firstTwoFeatures(), Deep);
  RandomForestOptions Options;
  Options.Tree = Deep;
  RandomForestClassifier Forest(firstTwoFeatures(), Options);
  Tree.train(Train);
  Forest.train(Train);
  EXPECT_GE(Forest.accuracyOn(Test) + 1e-9, Tree.accuracyOn(Test));
}

TEST(RandomForestTest, ScoresAreVoteFractions) {
  Dataset Train = cleanDataset(300, 94);
  Dataset Queries = cleanDataset(30, 95);
  RandomForestClassifier Forest(firstTwoFeatures());
  Forest.train(Train);
  for (const Example &Ex : Queries.examples()) {
    auto Scores = Forest.scores(Ex.Features);
    double Sum = 0.0;
    for (double Score : Scores) {
      EXPECT_GE(Score, 0.0);
      Sum += Score;
    }
    EXPECT_NEAR(Sum, 1.0, 1e-12);
    // Each entry is a multiple of 1/NumTrees.
    for (double Score : Scores) {
      double Scaled = Score * Forest.numTrees();
      EXPECT_NEAR(Scaled, std::round(Scaled), 1e-9);
    }
  }
}

TEST(RandomForestTest, FeatureFractionOneUsesAllFeatures) {
  Dataset Train = cleanDataset(200, 96);
  RandomForestOptions Options;
  Options.FeatureFraction = 1.0;
  Options.NumTrees = 4;
  RandomForestClassifier Forest(firstTwoFeatures(), Options);
  Forest.train(Train);
  // With the full feature set and a strong rule, the forest must be
  // essentially as accurate as a single full tree.
  EXPECT_GT(Forest.accuracyOn(Train), 0.9);
}

//===----------------------------------------------------------------------===//
// Thread-count byte identity (the model-zoo determinism contract)
//===----------------------------------------------------------------------===//

TEST(ModelZooDeterminismTest, ForestBytesIdenticalAtOneVsManyThreads) {
  Dataset Train = cleanDataset(300, 97, /*LabelNoise=*/0.1);
  auto trainSerialized = [&](unsigned Threads) {
    ThreadPool::setGlobalThreads(Threads);
    RandomForestClassifier Forest(firstFourFeatures());
    Forest.train(Train);
    return Forest.serialize();
  };
  std::string OneThread = trainSerialized(1);
  std::string FourThreads = trainSerialized(4);
  ThreadPool::setGlobalThreads(0); // Restore the default pool.
  EXPECT_EQ(OneThread, FourThreads);
}

TEST(ModelZooDeterminismTest, MlpBytesIdenticalAtOneVsManyThreads) {
  Dataset Train = cleanDataset(300, 98, /*LabelNoise=*/0.1);
  auto trainSerialized = [&](unsigned Threads) {
    ThreadPool::setGlobalThreads(Threads);
    MlpClassifier Mlp(firstFourFeatures());
    Mlp.train(Train);
    return Mlp.serialize();
  };
  std::string OneThread = trainSerialized(1);
  std::string FourThreads = trainSerialized(4);
  ThreadPool::setGlobalThreads(0); // Restore the default pool.
  EXPECT_EQ(OneThread, FourThreads);
}

//===----------------------------------------------------------------------===//
// Kernel ridge regression
//===----------------------------------------------------------------------===//

TEST(RegressionTest, InterpolatesLinearTrend) {
  Dataset Train = linearDataset(300, 60);
  KrrUnrollRegressor Krr(firstTwoFeatures());
  Krr.train(Train);
  // Mid-range query: factor should be near 4.5.
  FeatureVector Query = {};
  Query[0] = 0.0;
  double Value = Krr.predictValue(Query);
  EXPECT_NEAR(Value, 4.5, 0.8);
  unsigned Rounded = Krr.predict(Query);
  EXPECT_GE(Rounded, 4u);
  EXPECT_LE(Rounded, 5u);
}

/// One NaN feature poisons the normalizer, so the kernel system has no
/// Cholesky factor: the fit must fail loudly in every build mode, fresh
/// or over an earlier fit, and a later good fit must train as if fresh.
TEST(RegressionTest, FailedFactorizationThrowsOnAFreshFitAndARefit) {
  Dataset Poisoned = linearDataset(50, 63);
  Example Bad = Poisoned[25];
  Bad.Features[0] = std::nan("");
  Poisoned.add(Bad);
  KrrUnrollRegressor Fresh(firstTwoFeatures());
  EXPECT_THROW(Fresh.train(Poisoned), std::runtime_error);

  Dataset Good = linearDataset(200, 64);
  KrrUnrollRegressor Refit(firstTwoFeatures());
  Refit.train(Good);
  EXPECT_THROW(Refit.train(Poisoned), std::runtime_error);
  Refit.train(Good);
  KrrUnrollRegressor Reference(firstTwoFeatures());
  Reference.train(Good);
  FeatureVector Query = {};
  Query[0] = 0.3;
  double Expected = Reference.predictValue(Query);
  double Actual = Refit.predictValue(Query);
  EXPECT_EQ(std::memcmp(&Actual, &Expected, sizeof(double)), 0);
}

TEST(RegressionTest, PredictionsOrderedAlongTrend) {
  Dataset Train = linearDataset(300, 61);
  KrrUnrollRegressor Krr(firstTwoFeatures());
  Krr.train(Train);
  FeatureVector Low = {}, High = {};
  Low[0] = -0.9;
  High[0] = 0.9;
  EXPECT_LT(Krr.predictValue(Low), Krr.predictValue(High));
}

TEST(RegressionTest, PredictClampedToFactorRange) {
  Dataset Train = linearDataset(300, 62);
  KrrUnrollRegressor Krr(firstTwoFeatures());
  Krr.train(Train);
  FeatureVector Extreme = {};
  Extreme[0] = 5.0; // Far outside the training range.
  unsigned Factor = Krr.predict(Extreme);
  EXPECT_GE(Factor, 1u);
  EXPECT_LE(Factor, MaxUnrollFactor);
}

TEST(RegressionTest, RawValueCanLeaveLabelRange) {
  // The capability Section 8 wants: with a steep trend and an
  // extrapolating query, the raw value escapes [1, 8].
  Dataset Data;
  Rng Generator(63);
  for (int I = 0; I < 200; ++I) {
    Example Ex;
    Ex.Features.fill(0.0);
    double F0 = Generator.nextDoubleInRange(0.8, 1.0);
    Ex.Features[0] = F0;
    Ex.Label = 8;
    Ex.CyclesPerFactor.fill(1.0);
    Ex.LoopName = "edge" + std::to_string(I);
    Data.add(Ex);
  }
  // A second cluster at low factors to give the trend slope.
  for (int I = 0; I < 200; ++I) {
    Example Ex;
    Ex.Features.fill(0.0);
    Ex.Features[0] = Generator.nextDoubleInRange(-1.0, -0.8);
    Ex.Label = 1;
    Ex.CyclesPerFactor.fill(1.0);
    Ex.LoopName = "low" + std::to_string(I);
    Data.add(Ex);
  }
  KrrOptions Options;
  Options.Gamma = 100.0;
  KrrUnrollRegressor Krr(firstTwoFeatures(), Options);
  Krr.train(Data);
  FeatureVector Beyond = {};
  Beyond[0] = 1.15; // Further than any training point.
  // The raw value may exceed 8 (no hard requirement on magnitude, but it
  // must at least reach the top cluster's value).
  EXPECT_GT(Krr.predictValue(Beyond), 7.0);
  EXPECT_EQ(Krr.predict(Beyond), 8u);
}

TEST(RegressionTest, LooValuesCloseToTargetsOnCleanData) {
  Dataset Train = linearDataset(200, 64);
  KrrUnrollRegressor Krr(firstTwoFeatures());
  Krr.train(Train);
  std::vector<double> Loo = Krr.looValues();
  ASSERT_EQ(Loo.size(), Train.size());
  double ErrorSum = 0.0;
  for (size_t I = 0; I < Train.size(); ++I)
    ErrorSum += std::abs(Loo[I] - Train[I].Label);
  EXPECT_LT(ErrorSum / Train.size(), 0.75);
}

//===----------------------------------------------------------------------===//
// LSH near neighbors
//===----------------------------------------------------------------------===//

TEST(LshTest, MatchesExactNnOnCleanData) {
  Dataset Train = cleanDataset(600, 70);
  Dataset Test = cleanDataset(200, 71);
  NearNeighborClassifier Exact(firstTwoFeatures(), 0.3);
  LshNearNeighborClassifier Approx(firstTwoFeatures());
  Exact.train(Train);
  Approx.train(Train);
  size_t Agree = 0;
  for (const Example &Ex : Test.examples())
    Agree += Exact.predict(Ex.Features) == Approx.predict(Ex.Features);
  EXPECT_GT(static_cast<double>(Agree) / Test.size(), 0.9);
}

TEST(LshTest, ScansFarFewerCandidates) {
  Dataset Train = cleanDataset(2000, 72);
  LshNearNeighborClassifier Approx(firstFourFeatures());
  Approx.train(Train);
  size_t Total = 0;
  Dataset Queries = cleanDataset(50, 73);
  for (const Example &Ex : Queries.examples()) {
    Approx.predict(Ex.Features);
    Total += Approx.lastCandidateCount();
  }
  double MeanCandidates = static_cast<double>(Total) / Queries.size();
  // The sublinear claim: way below the database size on average.
  EXPECT_LT(MeanCandidates, 0.5 * Approx.databaseSize());
}

TEST(LshTest, FallsBackWhenBucketsEmpty) {
  // One-point database: any query must still answer via the fallback.
  Dataset Tiny = cleanDataset(1, 74);
  LshNearNeighborClassifier Approx(firstTwoFeatures());
  Approx.train(Tiny);
  FeatureVector Far = {};
  Far[0] = 100.0;
  Far[1] = -100.0;
  EXPECT_EQ(Approx.predict(Far), Tiny[0].Label);
}

TEST(LshTest, DeterministicForFixedSeed) {
  Dataset Train = cleanDataset(300, 75);
  LshNearNeighborClassifier A(firstTwoFeatures());
  LshNearNeighborClassifier B(firstTwoFeatures());
  A.train(Train);
  B.train(Train);
  Dataset Queries = cleanDataset(50, 76);
  for (const Example &Ex : Queries.examples())
    EXPECT_EQ(A.predict(Ex.Features), B.predict(Ex.Features));
}

TEST(LshTest, MoreTablesImproveAgreementWithExact) {
  Dataset Train = cleanDataset(800, 77, /*LabelNoise=*/0.1);
  Dataset Test = cleanDataset(300, 78, 0.1);
  NearNeighborClassifier Exact(firstFourFeatures(), 0.3);
  Exact.train(Train);
  auto Agreement = [&](unsigned Tables) {
    LshOptions Options;
    Options.NumTables = Tables;
    LshNearNeighborClassifier Approx(firstFourFeatures(), Options);
    Approx.train(Train);
    size_t Agree = 0;
    for (const Example &Ex : Test.examples())
      Agree += Exact.predict(Ex.Features) == Approx.predict(Ex.Features);
    return static_cast<double>(Agree) / Test.size();
  };
  EXPECT_GE(Agreement(12) + 0.02, Agreement(1));
}

//===----------------------------------------------------------------------===//
// Outlier triage
//===----------------------------------------------------------------------===//

TEST(OutlierTriageTest, CleanDataHasFewOutliers) {
  Dataset Data = cleanDataset(400, 80);
  TriageReport Report = triageOutliers(Data, firstTwoFeatures());
  EXPECT_LT(static_cast<double>(Report.Outliers.size()) /
                Report.TotalExamples,
            0.25);
  EXPECT_GT(Report.ConfidentAccuracy, 0.9);
}

TEST(OutlierTriageTest, NoisyExamplesGetFlagged) {
  // Plant contradictory twins: identical features, conflicting labels.
  Dataset Data = cleanDataset(300, 81);
  Rng Generator(82);
  for (int I = 0; I < 30; ++I) {
    Example Ex;
    Ex.Features.fill(0.0);
    Ex.Features[0] = 0.001 * Generator.nextGaussian();
    Ex.Features[1] = 0.001 * Generator.nextGaussian();
    Ex.Label = 1 + static_cast<unsigned>(Generator.nextBelow(8));
    Ex.CyclesPerFactor.fill(1000.0);
    Ex.LoopName = "conflicted" + std::to_string(I);
    Ex.BenchmarkName = "noisy";
    Data.add(Ex);
  }
  TriageReport Report = triageOutliers(Data, firstTwoFeatures());
  // A good share of the planted conflicts must be flagged.
  size_t FlaggedConflicts = 0;
  for (const OutlierRecord &Record : Report.Outliers)
    FlaggedConflicts += Record.BenchmarkName == "noisy";
  EXPECT_GT(FlaggedConflicts, 10u);
  // And flagged examples must predict worse than confident ones.
  EXPECT_GT(Report.ConfidentAccuracy, Report.OutlierAccuracy);
}

TEST(OutlierTriageTest, SortedByConfidence) {
  Dataset Data = cleanDataset(300, 83, /*LabelNoise=*/0.25);
  TriageReport Report = triageOutliers(Data, firstTwoFeatures());
  for (size_t I = 1; I < Report.Outliers.size(); ++I)
    EXPECT_LE(Report.Outliers[I - 1].Confidence,
              Report.Outliers[I].Confidence + 1e-12);
}

TEST(OutlierTriageTest, ThresholdControlsVolume) {
  Dataset Data = cleanDataset(300, 84, 0.2);
  TriageOptions Strict;
  Strict.ConfidenceThreshold = 0.9;
  TriageOptions Lenient;
  Lenient.ConfidenceThreshold = 0.2;
  TriageReport Many = triageOutliers(Data, firstTwoFeatures(), Strict);
  TriageReport Few = triageOutliers(Data, firstTwoFeatures(), Lenient);
  EXPECT_GE(Many.Outliers.size(), Few.Outliers.size());
}

TEST(OutlierTriageTest, RecordsCarryCostInformation) {
  Dataset Data = cleanDataset(200, 85, 0.3);
  TriageReport Report = triageOutliers(Data, firstTwoFeatures());
  for (const OutlierRecord &Record : Report.Outliers) {
    EXPECT_GE(Record.MispredictCost, 1.0 - 1e-12);
    EXPECT_GE(Record.Label, 1u);
    EXPECT_LE(Record.Label, MaxUnrollFactor);
    EXPECT_FALSE(Record.LoopName.empty());
  }
}
