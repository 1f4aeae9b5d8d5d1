//===- core/ml/FeatureSelection.h - MIS and greedy selection ----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two feature-selection methods of Section 7: the mutual information
/// score I(f; u) between a (binned) feature and the optimal unroll factor
/// (Table 3), and greedy forward selection that repeatedly adds the feature
/// minimizing a classifier's training error (Table 4).
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_FEATURESELECTION_H
#define METAOPT_CORE_ML_FEATURESELECTION_H

#include "core/ml/Classifier.h"

#include <functional>
#include <utility>

namespace metaopt {

/// I(f; u) in bits. Continuous features are discretized into \p Bins
/// equal-frequency bins before the probability mass functions are
/// estimated ("We bin the values of continuous features", §7.1).
double mutualInformationScore(const Dataset &Data, FeatureId Feature,
                              int Bins = 10);

/// All features ranked by MIS, best first.
std::vector<std::pair<FeatureId, double>>
rankByMutualInformation(const Dataset &Data, int Bins = 10);

/// Training-set error of a classifier restricted to a feature subset;
/// pluggable so every Table 4 column reuses one greedy loop. Candidate
/// features are scored concurrently on the global thread pool, so the
/// callable must be safe to invoke from several threads at once
/// (training a fresh classifier per call, as nearNeighborTrainError and
/// trainingError do, satisfies this).
using TrainErrorFn =
    std::function<double(const FeatureSet &Features, const Dataset &Data)>;

/// One greedy step: the feature added and the resulting training error.
struct GreedyStep {
  FeatureId Feature;
  double TrainError;
};

/// Greedy forward selection: starts empty, repeatedly adds the feature
/// whose addition minimizes the training error, for \p MaxFeatures steps.
std::vector<GreedyStep> greedyFeatureSelection(const Dataset &Data,
                                               const TrainErrorFn &Error,
                                               unsigned MaxFeatures);

/// Table 4's NN column: leave-self-out 1-nearest-neighbor training error
/// ("we modified the algorithm so that it looks for the single closest
/// point in the database").
double nearNeighborTrainError(const FeatureSet &Features,
                              const Dataset &Data);

/// Training-set error of a fresh model from \p Factory, retrained per
/// call (so safe under the concurrent candidate scan): Table 4's SVM
/// column and the model-zoo columns.
TrainErrorFn trainingError(ClassifierFactory Factory);

} // namespace metaopt

#endif // METAOPT_CORE_ML_FEATURESELECTION_H
