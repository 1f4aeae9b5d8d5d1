//===- core/ml/Lsh.h - Approximate near neighbors via LSH -------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locality-sensitive hashing for the near neighbor database. Section 5.1
/// claims scalability: "advances in the area of approximate near neighbor
/// lookup permit fast access (sublinear in the size of the database) to
/// databases on the order of hundreds of thousands of examples, so we
/// expect the NN method to scale well with database size [10]."
///
/// This implements the random-hyperplane flavor: each of T tables hashes a
/// point to a B-bit signature of hyperplane sides; a query scans only the
/// points sharing its bucket in any table (falling back to a linear scan
/// when every bucket is empty), then votes within the radius exactly like
/// the exact classifier. bench/microbench_classifiers measures the
/// speedup; tests assert accuracy parity on the real corpus.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_LSH_H
#define METAOPT_CORE_ML_LSH_H

#include "core/ml/Classifier.h"

#include <map>

namespace metaopt {

/// LSH structure parameters.
struct LshOptions {
  unsigned NumTables = 8;  ///< Independent hash tables (recall knob).
  unsigned NumBits = 10;   ///< Hyperplanes per table (selectivity knob).
  double Radius = 0.3;     ///< Same RMS-normalized vote radius as exact NN.
  uint64_t Seed = 0x15aac1a55;
};

/// Approximate near-neighbor classifier over hyperplane LSH buckets.
class LshNearNeighborClassifier : public Classifier {
public:
  explicit LshNearNeighborClassifier(FeatureSet Features,
                                     LshOptions Options = {});

  std::string name() const override;
  void train(const Dataset &Train) override;
  unsigned predict(const FeatureVector &Features) const override;

  /// Candidate points examined by the last predict() call; the sublinear
  /// claim is that this stays far below the database size.
  size_t lastCandidateCount() const { return LastCandidates; }

  size_t databaseSize() const { return Points.size(); }

private:
  uint64_t signatureFor(unsigned Table,
                        const std::vector<double> &Point) const;

  /// Draws the hyperplanes from Options.Seed and buckets Points.
  void rebuildTables();

  FeatureSet Features;
  LshOptions Options;
  Normalizer Norm;
  std::vector<std::vector<double>> Points;
  std::vector<unsigned> Labels;
  /// Hyperplanes[table][bit] is a D-vector; sign of the dot product gives
  /// the bit.
  std::vector<std::vector<std::vector<double>>> Hyperplanes;
  /// Buckets[table]: signature -> point indices.
  std::vector<std::map<uint64_t, std::vector<uint32_t>>> Buckets;
  mutable size_t LastCandidates = 0;
};

} // namespace metaopt

#endif // METAOPT_CORE_ML_LSH_H
