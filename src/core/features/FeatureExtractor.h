//===- core/features/FeatureExtractor.h - Loop -> features ------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the 41-entry feature vector of a loop by running the analyses
/// in src/analysis (dependence graph, critical path, computations,
/// liveness, recurrence MII) and counting instruction properties. This is
/// the "feature extraction tool" the paper instruments ORC with.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_FEATURES_FEATUREEXTRACTOR_H
#define METAOPT_CORE_FEATURES_FEATUREEXTRACTOR_H

#include "core/features/FeatureCatalog.h"
#include "ir/Loop.h"

namespace metaopt {

/// Extracts all 41 features of \p L. The loop must be well-formed. The
/// loop-control tail is excluded from the counts, matching a compiler that
/// measures the loop "payload".
FeatureVector extractFeatures(const Loop &L);

} // namespace metaopt

#endif // METAOPT_CORE_FEATURES_FEATUREEXTRACTOR_H
