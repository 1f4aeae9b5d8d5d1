//===- core/ml/Dataset.h - Labeled training data ----------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The labeled dataset: one example per usable loop, holding its 41-entry
/// feature vector, the empirically best unroll factor (the label), the
/// median measured cycles at every factor (for rank/cost analysis and the
/// oracle), and provenance. Serializes to CSV in the shape of the raw loop
/// data the paper released.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_DATASET_H
#define METAOPT_CORE_ML_DATASET_H

#include "core/features/FeatureCatalog.h"
#include "ir/Loop.h"
#include "support/Rng.h"

#include <array>
#include <string>
#include <vector>

namespace metaopt {

/// One labeled loop.
struct Example {
  FeatureVector Features = {};
  /// Best unroll factor, 1..MaxUnrollFactor.
  unsigned Label = 1;
  /// Median measured cycles at factor f (index f-1).
  std::array<double, MaxUnrollFactor> CyclesPerFactor = {};
  std::string LoopName;
  std::string BenchmarkName;
};

/// A bag of examples with provenance-aware splitting helpers.
class Dataset {
public:
  Dataset() = default;

  void add(Example Ex) { Examples.push_back(std::move(Ex)); }
  size_t size() const { return Examples.size(); }
  bool empty() const { return Examples.empty(); }
  const Example &operator[](size_t Index) const { return Examples[Index]; }
  const std::vector<Example> &examples() const { return Examples; }

  /// All raw feature vectors (e.g. for fitting a Normalizer).
  std::vector<FeatureVector> featureMatrix() const;

  /// Histogram of labels: Counts[f-1] = number of examples labeled f.
  std::array<size_t, MaxUnrollFactor> labelHistogram() const;

  /// Examples not originating from \p BenchmarkName — the paper's
  /// leave-one-benchmark-out protocol for the speedup experiments.
  Dataset excludingBenchmark(const std::string &BenchmarkName) const;

  /// A copy with all but one example; for brute-force LOOCV in tests.
  Dataset withoutExample(size_t Index) const;

  /// Deterministic random subsample of at most \p MaxSize examples.
  Dataset subsample(size_t MaxSize, Rng &Generator) const;

  /// Serializes to CSV (header + one row per example). Tests and benches
  /// compare these bytes as the dataset's determinism digest.
  std::string toCsv() const;

private:
  std::vector<Example> Examples;
};

/// Ranks the factors of an example from best (rank 0) to worst by measured
/// cycles. RankOf[f-1] gives the rank of factor f.
std::array<unsigned, MaxUnrollFactor>
factorRanks(const Example &Ex);

} // namespace metaopt

#endif // METAOPT_CORE_ML_DATASET_H
