//===- core/ml/Dataset.cpp ------------------------------------------------===//

#include "core/ml/Dataset.h"

#include "support/Csv.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace metaopt;

std::vector<FeatureVector> Dataset::featureMatrix() const {
  std::vector<FeatureVector> Matrix;
  Matrix.reserve(Examples.size());
  for (const Example &Ex : Examples)
    Matrix.push_back(Ex.Features);
  return Matrix;
}

std::array<size_t, MaxUnrollFactor> Dataset::labelHistogram() const {
  std::array<size_t, MaxUnrollFactor> Counts = {};
  for (const Example &Ex : Examples) {
    assert(Ex.Label >= 1 && Ex.Label <= MaxUnrollFactor &&
           "label out of range");
    ++Counts[Ex.Label - 1];
  }
  return Counts;
}

Dataset Dataset::excludingBenchmark(const std::string &BenchmarkName) const {
  Dataset Result;
  for (const Example &Ex : Examples)
    if (Ex.BenchmarkName != BenchmarkName)
      Result.add(Ex);
  return Result;
}

Dataset Dataset::withoutExample(size_t Index) const {
  assert(Index < Examples.size() && "example index out of range");
  Dataset Result;
  for (size_t I = 0; I < Examples.size(); ++I)
    if (I != Index)
      Result.add(Examples[I]);
  return Result;
}

Dataset Dataset::subsample(size_t MaxSize, Rng &Generator) const {
  if (Examples.size() <= MaxSize)
    return *this;
  std::vector<size_t> Indices(Examples.size());
  std::iota(Indices.begin(), Indices.end(), 0);
  Generator.shuffle(Indices);
  Indices.resize(MaxSize);
  std::sort(Indices.begin(), Indices.end()); // Keep a stable order.
  Dataset Result;
  for (size_t Index : Indices)
    Result.add(Examples[Index]);
  return Result;
}

std::string Dataset::toCsv() const {
  CsvWriter Writer;
  std::vector<std::string> Header = {"benchmark", "loop", "label"};
  for (unsigned F = 1; F <= MaxUnrollFactor; ++F)
    Header.push_back("cycles_u" + std::to_string(F));
  for (unsigned I = 0; I < NumFeatures; ++I)
    Header.push_back(featureName(static_cast<FeatureId>(I)));
  Writer.addRow(Header);

  for (const Example &Ex : Examples) {
    std::vector<std::string> Row = {Ex.BenchmarkName, Ex.LoopName,
                                    std::to_string(Ex.Label)};
    for (double Cycles : Ex.CyclesPerFactor)
      Row.push_back(formatDouble(Cycles, 3));
    for (double Value : Ex.Features)
      Row.push_back(formatDouble(Value, 6));
    Writer.addRow(Row);
  }
  return Writer.str();
}

std::array<unsigned, MaxUnrollFactor>
metaopt::factorRanks(const Example &Ex) {
  std::array<unsigned, MaxUnrollFactor> Order;
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    if (Ex.CyclesPerFactor[A] != Ex.CyclesPerFactor[B])
      return Ex.CyclesPerFactor[A] < Ex.CyclesPerFactor[B];
    return A < B;
  });
  std::array<unsigned, MaxUnrollFactor> Ranks = {};
  for (unsigned Rank = 0; Rank < MaxUnrollFactor; ++Rank)
    Ranks[Order[Rank]] = Rank;
  return Ranks;
}
