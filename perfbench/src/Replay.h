//===- perfbench/src/Replay.h - Traced per-layer replays --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers. Each replay calls the layers'
/// public entry points one at a time on the workload's own inputs, with a
/// span around every call, and reports self time per call. Traced passes
/// of the labeling and request replays alternate with untraced ones; the
/// median excess of a traced pass over the mean of the untraced passes on
/// either side is reported as the tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Harness.h"
#include "LoadGen.h"

#include "core/ml/Classifier.h"
#include "core/ml/Dataset.h"

#include <memory>

namespace perfbench {

using ModelMap = std::map<std::string, std::unique_ptr<metaopt::Classifier>>;

/// The models requests replay against: the NN loaded from the served
/// bundle at \p BundlePath, and the other four families fitted on
/// \p ServingData, the served NN's training set.
ModelMap servingModels(const std::string &BundlePath,
                       const metaopt::Dataset &ServingData, Report &Out);

/// Replays the labeling and request paths and reports their per-call
/// layer costs plus trace.overhead_pct.
void replayLayers(const RunConfig &Cfg,
                  const std::vector<metaopt::Benchmark> &Corpus,
                  const std::vector<PoolEntry> &Pool, const ModelMap &Models,
                  Tracer &T, Report &Out);

/// Times the Cholesky factorization the SVM fit performs on \p Train.
void replayLinalg(const metaopt::Dataset &Train, Tracer &T, Report &Out);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
