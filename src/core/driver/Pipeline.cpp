//===- core/driver/Pipeline.cpp -------------------------------------------===//

#include "core/driver/Pipeline.h"

using namespace metaopt;

Pipeline::Pipeline(PipelineOptions OptionsIn)
    : Options(std::move(OptionsIn)) {}

const std::vector<Benchmark> &Pipeline::corpus() {
  if (!Corpus)
    Corpus = buildCorpus(Options.Corpus);
  return *Corpus;
}

LabelingOptions Pipeline::labelingOptions(bool EnableSwp) const {
  LabelingOptions Labeling;
  Labeling.EnableSwp = EnableSwp;
  Labeling.Machine = Options.Machine;
  Labeling.Protocol = Options.Protocol;
  return Labeling;
}

const Dataset &Pipeline::dataset(bool EnableSwp) {
  std::optional<Dataset> &Slot = EnableSwp ? DataSwp : DataNoSwp;
  if (!Slot)
    Slot = collectLabels(corpus(), labelingOptions(EnableSwp));
  return *Slot;
}
