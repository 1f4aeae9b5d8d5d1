//===- bench/ablation_context.cpp - Hidden program context ----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Why does no classifier reach 100%? Because the best unroll factor
// depends on program context the 38 *static* features cannot see: the
// loop's effective i-cache share, the registers the enclosing function
// leaves it, its data-cache behaviour. The paper hits the same wall at
// 65% ("we assume that the optimal unroll factor of a particular loop
// does not depend on [context]...").
//
// This ablation quantifies the wall in our substrate: relabeling the
// corpus with all program context pinned to one fixed value removes the
// hidden variance, and LOOCV accuracy rises sharply - evidence that the
// residual error is context, not the learners.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/driver/LabelCollector.h"
#include "core/ml/CrossValidation.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "ablation_context", "Ablation: hidden program context",
      "accuracy with real vs pinned per-loop context");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  CorpusOptions CorpusOpts;
  if (Args.has("quick")) {
    CorpusOpts.MinLoopsPerBenchmark = 6;
    CorpusOpts.MaxLoopsPerBenchmark = 10;
  } else {
    CorpusOpts.MinLoopsPerBenchmark = 12;
    CorpusOpts.MaxLoopsPerBenchmark = 18;
  }
  std::vector<Benchmark> Corpus = buildCorpus(CorpusOpts);
  LabelingOptions Labeling;
  FeatureSet Features = paperReducedFeatureSet();

  auto Evaluate = [&](const std::vector<Benchmark> &Suite) {
    Dataset Data = collectLabels(Suite, Labeling);
    NearNeighborClassifier Nn(Features, 0.3);
    double Accuracy = predictionAccuracy(Data, loocvPredictions(Nn, Data));
    return std::make_pair(Data.size(), Accuracy);
  };

  auto [RealSize, RealAccuracy] = Evaluate(Corpus);

  // Pin every loop's program context to one fixed environment.
  std::vector<Benchmark> Pinned = Corpus;
  SimContext Fixed; // The default context.
  for (Benchmark &Bench : Pinned)
    for (CorpusLoop &Entry : Bench.Loops)
      Entry.Ctx = Fixed;
  auto [PinnedSize, PinnedAccuracy] = Evaluate(Pinned);

  TablePrinter Table("Context vs accuracy (NN, LOOCV)");
  Table.addHeader({"corpus", "usable loops", "accuracy"});
  Table.addRow({"real per-loop context", std::to_string(RealSize),
                formatPercent(RealAccuracy, 1)});
  Table.addRow({"pinned (identical) context", std::to_string(PinnedSize),
                formatPercent(PinnedAccuracy, 1)});
  Table.print();

  std::printf("\nShape checks:\n");
  printComparison("removing hidden context raises accuracy",
                  "context caps the 65% ceiling",
                  PinnedAccuracy > RealAccuracy + 0.05 ? "yes" : "no");
  return 0;
}
