//===- examples/feature_selection_tour.cpp - Section 7 walkthrough --------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Walks through both feature-selection methods of Section 7 on a corpus
// slice: the mutual information score of every feature (Table 3) and
// greedy forward selection under the NN and SVM classifiers (Table 4),
// then shows how a reduced feature set affects LOOCV accuracy.
//
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "core/driver/Pipeline.h"
#include "core/ml/CrossValidation.h"
#include "core/ml/FeatureSelection.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args("feature_selection_tour",
                 "Section 7's feature selection on a corpus slice: mutual "
                 "information\nscores and greedy forward selection under NN "
                 "and SVM.");
  Args.flag("full", "the whole corpus (default: a slice)");
  Args.intOption("bins", "n", "equal-frequency bins per feature", 10, 2,
                 std::numeric_limits<int>::max());
  Args.intOption("steps", "n", "greedy selection steps", 5, 1, NumFeatures);
  Args.intOption("threads", "n",
                 "parallelism (1 = serial; default: METAOPT_THREADS, else "
                 "hardware concurrency)",
                 std::nullopt, 1, ThreadPool::MaxThreads);
  if (std::optional<int> Exit = Args.parse(Argc, Argv))
    return *Exit;
  bool Full = Args.has("full");
  int Bins = static_cast<int>(Args.getInt("bins"));
  unsigned Steps = static_cast<unsigned>(Args.getInt("steps"));
  if (Args.has("threads"))
    ThreadPool::setGlobalThreads(
        static_cast<unsigned>(Args.getInt("threads")));

  PipelineOptions Options;
  if (!Full) {
    Options.Corpus.MinLoopsPerBenchmark = 6;
    Options.Corpus.MaxLoopsPerBenchmark = 10;
  }
  Pipeline Pipe(Options);
  const Dataset &Data = Pipe.dataset(/*EnableSwp=*/false);
  std::printf("Labeled loops: %zu\n\n", Data.size());

  // Mutual information ranking (Table 3).
  auto Ranked = rankByMutualInformation(Data, Bins);
  TablePrinter MisTable("Features by mutual information score");
  MisTable.addHeader({"rank", "feature", "MIS (bits)"});
  for (size_t R = 0; R < 10 && R < Ranked.size(); ++R)
    MisTable.addRow({std::to_string(R + 1), featureName(Ranked[R].first),
                     formatDouble(Ranked[R].second, 3)});
  MisTable.print();

  // Greedy forward selection (Table 4). The SVM column retrains an
  // LS-SVM per candidate, so it runs on a subsample.
  Rng Subsampler(11);
  Dataset Small = Data.subsample(400, Subsampler);

  std::printf("\nGreedy selection, 1-NN training error (leave-self-out):\n");
  auto NnSteps = greedyFeatureSelection(Data, nearNeighborTrainError,
                                        Steps);
  for (size_t I = 0; I < NnSteps.size(); ++I)
    std::printf("  %zu. %-24s error %.3f\n", I + 1,
                featureName(NnSteps[I].Feature), NnSteps[I].TrainError);

  std::printf("\nGreedy selection, LS-SVM training error (on %zu "
              "examples):\n",
              Small.size());
  auto SvmSteps = greedyFeatureSelection(
      Small, trainingError([](const FeatureSet &F) {
        return std::make_unique<SvmClassifier>(F);
      }),
      Steps);
  for (size_t I = 0; I < SvmSteps.size(); ++I)
    std::printf("  %zu. %-24s error %.3f\n", I + 1,
                featureName(SvmSteps[I].Feature), SvmSteps[I].TrainError);

  // Reduced vs full feature set, LOOCV (the paper's point: "using a well
  // chosen subset of features improves classification accuracy").
  NearNeighborClassifier NnFull(fullFeatureSet());
  NearNeighborClassifier NnReduced(paperReducedFeatureSet());
  double FullAcc = predictionAccuracy(Data, loocvPredictions(NnFull, Data));
  double ReducedAcc =
      predictionAccuracy(Data, loocvPredictions(NnReduced, Data));
  std::printf("\nNN LOOCV accuracy: full %u features %.1f%%, reduced set "
              "%.1f%%\n", NumFeatures,
              FullAcc * 100.0, ReducedAcc * 100.0);
  return 0;
}
