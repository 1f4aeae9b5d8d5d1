//===- core/driver/Pipeline.h - End-to-end orchestration --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-stop orchestration used by the examples and the benchmark
/// harnesses: builds the corpus, collects labels for the SWP-off and
/// SWP-on configurations, and hands out the reduced feature set. Each
/// dataset is labeled once per Pipeline and kept in memory; labels are
/// reused across processes only through the persistent tier of the
/// simulation cache (cache/SimCache.h), when one is configured.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_DRIVER_PIPELINE_H
#define METAOPT_CORE_DRIVER_PIPELINE_H

#include "core/driver/LabelCollector.h"

#include <optional>

namespace metaopt {

/// Pipeline configuration.
struct PipelineOptions {
  CorpusOptions Corpus;
  MachineConfig Machine = itanium2Config();
  MeasurementProtocol Protocol;
};

/// Lazily materializes the corpus and the labeled datasets.
class Pipeline {
public:
  explicit Pipeline(PipelineOptions Options = {});

  /// The 72-benchmark corpus (built on first use).
  const std::vector<Benchmark> &corpus();

  /// The labeled dataset for the given configuration. The first call
  /// labels the whole corpus through collectLabels(); later calls return
  /// the same object.
  const Dataset &dataset(bool EnableSwp);

  /// Labeling options used for the given configuration.
  LabelingOptions labelingOptions(bool EnableSwp) const;

  const PipelineOptions &options() const { return Options; }

private:
  PipelineOptions Options;
  std::optional<std::vector<Benchmark>> Corpus;
  std::optional<Dataset> DataNoSwp, DataSwp;
};

} // namespace metaopt

#endif // METAOPT_CORE_DRIVER_PIPELINE_H
