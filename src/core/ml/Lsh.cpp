//===- core/ml/Lsh.cpp ----------------------------------------------------===//

#include "core/ml/Lsh.h"

#include "linalg/Matrix.h"
#include "support/Rng.h"

#include <cassert>
#include <algorithm>
#include <limits>

using namespace metaopt;

LshNearNeighborClassifier::LshNearNeighborClassifier(FeatureSet FeaturesIn,
                                                     LshOptions OptionsIn)
    : Features(std::move(FeaturesIn)), Options(OptionsIn) {
  assert(!Features.empty() && "feature set must not be empty");
  assert(Options.NumTables >= 1 && Options.NumBits >= 1 &&
         Options.NumBits <= 63 && "degenerate LSH shape");
  assert(Options.Radius > 0.0 && "radius must be positive");
}

std::string LshNearNeighborClassifier::name() const { return "lsh-nn"; }

uint64_t LshNearNeighborClassifier::signatureFor(
    unsigned Table, const std::vector<double> &Point) const {
  uint64_t Signature = 0;
  for (unsigned Bit = 0; Bit < Options.NumBits; ++Bit) {
    double Dot = dotProduct(Hyperplanes[Table][Bit], Point);
    Signature = (Signature << 1) | (Dot >= 0.0 ? 1u : 0u);
  }
  return Signature;
}

void LshNearNeighborClassifier::rebuildTables() {
  // Random hyperplanes through the (z-scored) origin.
  Rng Generator(Options.Seed);
  size_t Dims = Features.size();
  Hyperplanes.assign(Options.NumTables, {});
  for (unsigned Table = 0; Table < Options.NumTables; ++Table) {
    Hyperplanes[Table].resize(Options.NumBits);
    for (unsigned Bit = 0; Bit < Options.NumBits; ++Bit) {
      std::vector<double> Normal(Dims);
      for (double &Coord : Normal)
        Coord = Generator.nextGaussian();
      Hyperplanes[Table][Bit] = std::move(Normal);
    }
  }

  Buckets.assign(Options.NumTables, {});
  for (uint32_t Index = 0; Index < Points.size(); ++Index)
    for (unsigned Table = 0; Table < Options.NumTables; ++Table)
      Buckets[Table][signatureFor(Table, Points[Index])].push_back(Index);
}

void LshNearNeighborClassifier::train(const Dataset &Train) {
  Norm.fit(Train.featureMatrix(), Features);
  Points.clear();
  Labels.clear();
  Points.reserve(Train.size());
  Labels.reserve(Train.size());
  for (const Example &Ex : Train.examples()) {
    Points.push_back(Norm.apply(Ex.Features));
    Labels.push_back(Ex.Label);
  }
  rebuildTables();
}

unsigned LshNearNeighborClassifier::predict(
    const FeatureVector &FeaturesIn) const {
  assert(!Points.empty() && "classifier queried before training");
  std::vector<double> Query = Norm.apply(FeaturesIn);

  // Union of the query's buckets across tables (vector + sort/unique is
  // far cheaper than a tree set for the candidate counts involved).
  std::vector<uint32_t> Candidates;
  for (unsigned Table = 0; Table < Options.NumTables; ++Table) {
    auto It = Buckets[Table].find(signatureFor(Table, Query));
    if (It == Buckets[Table].end())
      continue;
    Candidates.insert(Candidates.end(), It->second.begin(),
                      It->second.end());
  }
  std::sort(Candidates.begin(), Candidates.end());
  Candidates.erase(std::unique(Candidates.begin(), Candidates.end()),
                   Candidates.end());

  // Pathological miss: fall back to the exact linear scan.
  bool Approximate = !Candidates.empty();
  LastCandidates = Approximate ? Candidates.size() : Points.size();

  double RadiusSquared = Options.Radius * Options.Radius *
                         static_cast<double>(Query.size());
  std::array<unsigned, MaxUnrollFactor> Votes = {};
  unsigned NeighborCount = 0;
  uint32_t NearestIndex = 0;
  double NearestDistance = std::numeric_limits<double>::infinity();

  auto Consider = [&](uint32_t Index) {
    double DistanceSquared = squaredDistance(Query, Points[Index]);
    if (DistanceSquared < NearestDistance) {
      NearestDistance = DistanceSquared;
      NearestIndex = Index;
    }
    if (DistanceSquared <= RadiusSquared) {
      ++NeighborCount;
      ++Votes[Labels[Index] - 1];
    }
  };
  if (Approximate) {
    for (uint32_t Index : Candidates)
      Consider(Index);
  } else {
    for (uint32_t Index = 0; Index < Points.size(); ++Index)
      Consider(Index);
  }

  if (NeighborCount == 0)
    return Labels[NearestIndex];
  unsigned Best = 0;
  for (unsigned Class = 1; Class < MaxUnrollFactor; ++Class)
    if (Votes[Class] > Votes[Best])
      Best = Class;
  return Best + 1;
}
