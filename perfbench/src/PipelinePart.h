//===- perfbench/src/PipelinePart.h - corpus -> label -> train --*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reproduction path as the benchmark times it: cold labeling with SWP
/// off and on (each with a fresh private SimCache), a warm re-label from
/// those caches, fits of the five classifier families on a fixed-size
/// sample of the SWP-off dataset with a publish/reload of each as a
/// bundle, a second cold labeling, and the Figure 4 speedup protocol. All
/// calls go through the libraries' public entry points; nothing reads or
/// writes the on-disk label or sim caches.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINEPART_H
#define PERFBENCH_PIPELINEPART_H

#include "Harness.h"

#include "core/ml/Classifier.h"
#include "core/ml/Dataset.h"

#include <functional>
#include <memory>

namespace perfbench {

/// A classifier family the pipeline fits and publishes.
struct Family {
  std::string Name;
  std::function<std::unique_ptr<metaopt::Classifier>(
      const metaopt::FeatureSet &)>
      Make;
};

/// nn, svm, decision-tree, mlp, random-forest.
const std::vector<Family> &families();

class PipelinePart {
public:
  PipelinePart(const RunConfig &Cfg, Report &Out, Tracer &T);

  /// One set-up repetition: builds the workload's corpus and labels it
  /// once with SWP off (the first cold sweep of the process is bimodal, so
  /// it happens here, outside the timed iterations). Returns the seconds
  /// the sweep took.
  double setupOnce();

  /// Labels the workload's ServingCorpus with SWP off, fits the NN on it
  /// and publishes the bundle the daemons serve to \p Path. The dataset
  /// is kept (servingDataset()).
  void publishServingBundle(const std::string &Path);

  /// One timed iteration of the reproduction path.
  void iteration();

  /// Runs the correctness gates that need reference work (the unpruned,
  /// uncached labeling) and reports the part's metrics.
  void finish();

  const std::vector<metaopt::Benchmark> &corpus() const { return Corpus; }
  /// The sample of the SWP-off dataset the first timed iteration fitted
  /// the five families on.
  const metaopt::Dataset &trainingSet() const { return FirstTrain; }
  /// The served NN's training data.
  const metaopt::Dataset &servingDataset() const { return ServingData; }

private:
  const RunConfig &Cfg;
  Report &Out;
  Tracer &T;

  std::vector<metaopt::Benchmark> Corpus;
  std::string CorpusPrint;
  size_t ExamplesNoSwp = 0;
  metaopt::Dataset FirstTrain;
  std::string FirstCsv[2];
  double FirstMeanNn = 0, FirstMeanSvm = 0;
  metaopt::Dataset ServingData;

  std::vector<double> BuildMs;
  std::vector<double> LabelRate, RelabelRate, TrainS, EvaluateS;
  std::map<std::string, std::vector<double>> FitS;
  std::vector<double> BundleWriteMs, BundleLoadMs;
  std::vector<double> LabelUtil;
  uint64_t Classes = 0, SimsPruned = 0, BodyShared = 0;
  uint64_t CacheHits = 0, CacheMisses = 0, CacheInserts = 0;
  int Iterations = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PIPELINEPART_H
