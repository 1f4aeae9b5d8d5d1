//===- core/ml/FeatureSelection.cpp ---------------------------------------===//

#include "core/ml/FeatureSelection.h"

#include "concurrency/Parallel.h"
#include "core/ml/NearNeighbor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

using namespace metaopt;

/// Discretizes a feature column into equal-frequency bins; returns the bin
/// index of every example. Repeated values land in one bin.
static std::vector<int> equalFrequencyBins(const std::vector<double> &Column,
                                           int Bins) {
  size_t N = Column.size();
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    if (Column[A] != Column[B])
      return Column[A] < Column[B];
    return A < B;
  });
  std::vector<int> BinOf(N, 0);
  // Walk the sorted order assigning bins, keeping ties together.
  int CurrentBin = 0;
  size_t PerBin = (N + Bins - 1) / Bins;
  size_t InBin = 0;
  for (size_t Position = 0; Position < N; ++Position) {
    if (InBin >= PerBin && Position > 0 &&
        Column[Order[Position]] != Column[Order[Position - 1]] &&
        CurrentBin + 1 < Bins) {
      ++CurrentBin;
      InBin = 0;
    }
    BinOf[Order[Position]] = CurrentBin;
    ++InBin;
  }
  return BinOf;
}

double metaopt::mutualInformationScore(const Dataset &Data,
                                       FeatureId Feature, int Bins) {
  assert(Bins >= 2 && "need at least two bins");
  if (Data.empty())
    return 0.0;
  size_t N = Data.size();
  std::vector<double> Column(N);
  unsigned Index = static_cast<unsigned>(Feature);
  for (size_t I = 0; I < N; ++I)
    Column[I] = Data[I].Features[Index];
  std::vector<int> BinOf = equalFrequencyBins(Column, Bins);

  // Joint and marginal counts over (bin, label).
  std::map<std::pair<int, unsigned>, double> Joint;
  std::map<int, double> BinMarginal;
  std::array<double, MaxUnrollFactor> LabelMarginal = {};
  for (size_t I = 0; I < N; ++I) {
    unsigned Label = Data[I].Label;
    Joint[{BinOf[I], Label}] += 1.0;
    BinMarginal[BinOf[I]] += 1.0;
    LabelMarginal[Label - 1] += 1.0;
  }

  double Information = 0.0;
  double Total = static_cast<double>(N);
  for (const auto &[Key, Count] : Joint) {
    double Pxy = Count / Total;
    double Px = BinMarginal[Key.first] / Total;
    double Py = LabelMarginal[Key.second - 1] / Total;
    Information += Pxy * std::log2(Pxy / (Px * Py));
  }
  return Information;
}

std::vector<std::pair<FeatureId, double>>
metaopt::rankByMutualInformation(const Dataset &Data, int Bins) {
  std::vector<std::pair<FeatureId, double>> Scores;
  Scores.reserve(NumFeatures);
  for (unsigned I = 0; I < NumFeatures; ++I) {
    FeatureId Id = static_cast<FeatureId>(I);
    Scores.emplace_back(Id, mutualInformationScore(Data, Id, Bins));
  }
  std::sort(Scores.begin(), Scores.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return static_cast<unsigned>(A.first) < static_cast<unsigned>(B.first);
  });
  return Scores;
}

std::vector<GreedyStep>
metaopt::greedyFeatureSelection(const Dataset &Data,
                                const TrainErrorFn &Error,
                                unsigned MaxFeatures) {
  assert(MaxFeatures >= 1 && MaxFeatures <= NumFeatures &&
         "feature budget out of range");
  std::vector<GreedyStep> Steps;
  FeatureSet Chosen;
  std::vector<bool> Used(NumFeatures, false);

  for (unsigned Step = 0; Step < MaxFeatures; ++Step) {
    // Score every candidate in parallel (each retrains its own
    // classifier), then pick the winner serially in feature order —
    // identical tie-breaking to the serial scan.
    std::vector<double> Errors =
        parallelMap<double>(NumFeatures, [&](size_t Candidate) {
          if (Used[Candidate])
            return 2.0; // Sentinel above any real error rate.
          FeatureSet Trial = Chosen;
          Trial.push_back(static_cast<FeatureId>(Candidate));
          return Error(Trial, Data);
        });
    double BestError = 2.0;
    unsigned BestFeature = NumFeatures;
    for (unsigned Candidate = 0; Candidate < NumFeatures; ++Candidate) {
      if (Used[Candidate])
        continue;
      if (Errors[Candidate] < BestError) {
        BestError = Errors[Candidate];
        BestFeature = Candidate;
      }
    }
    assert(BestFeature < NumFeatures && "no candidate evaluated");
    Used[BestFeature] = true;
    Chosen.push_back(static_cast<FeatureId>(BestFeature));
    Steps.push_back({static_cast<FeatureId>(BestFeature), BestError});
  }
  return Steps;
}

double metaopt::nearNeighborTrainError(const FeatureSet &Features,
                                       const Dataset &Data) {
  if (Data.empty())
    return 1.0;
  // A tiny radius forces the single-nearest-neighbor fallback, which is
  // the modified algorithm the paper uses for greedy selection.
  NearNeighborClassifier Classifier(Features, /*Radius=*/1e-9);
  Classifier.train(Data);
  size_t Wrong = 0;
  for (size_t I = 0; I < Data.size(); ++I)
    if (Classifier.predictExcluding(I) != Data[I].Label)
      ++Wrong;
  return static_cast<double>(Wrong) / Data.size();
}

TrainErrorFn metaopt::trainingError(ClassifierFactory Factory) {
  return [Factory = std::move(Factory)](const FeatureSet &Features,
                                        const Dataset &Data) {
    if (Data.empty())
      return 1.0;
    std::unique_ptr<Classifier> Fresh = Factory(Features);
    Fresh->train(Data);
    return 1.0 - Fresh->accuracyOn(Data);
  };
}
