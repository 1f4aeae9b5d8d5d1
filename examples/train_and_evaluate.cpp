//===- examples/train_and_evaluate.cpp - The paper's full pipeline --------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Runs the paper end to end: build the corpus, label every loop
// empirically, train the NN and SVM classifiers, report LOOCV accuracy
// (Table 2 style) and a few whole-benchmark speedups (Figure 4 style).
// Without --full it runs on a slice of the corpus.
//
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "core/driver/Pipeline.h"
#include "core/driver/SpeedupEvaluator.h"
#include "core/ml/CrossValidation.h"
#include "core/ml/Evaluation.h"
#include "heuristics/OrcLikeHeuristic.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args("train_and_evaluate",
                 "Runs the paper end to end: label the corpus, train the NN "
                 "and SVM\nclassifiers, report LOOCV accuracy and "
                 "whole-benchmark speedups.");
  Args.flag("full", "the whole 72-benchmark corpus (default: a slice)");
  Args.flag("swp", "enable the software pipelining configuration");
  Args.numberOption("radius", "r", "NN radius", 0.3);
  Args.intOption("threads", "n",
                 "parallelism for labeling/evaluation (1 = serial; "
                 "default: METAOPT_THREADS, else hardware concurrency)",
                 std::nullopt, 1, ThreadPool::MaxThreads);
  if (std::optional<int> Exit = Args.parse(Argc, Argv))
    return *Exit;
  bool Full = Args.has("full");
  bool EnableSwp = Args.has("swp");
  double Radius = Args.getDouble("radius");
  if (Args.has("threads"))
    ThreadPool::setGlobalThreads(
        static_cast<unsigned>(Args.getInt("threads")));

  PipelineOptions Options;
  if (!Full) {
    // A slice of the corpus: fewer loops per benchmark, same diversity.
    Options.Corpus.MinLoopsPerBenchmark = 6;
    Options.Corpus.MaxLoopsPerBenchmark = 10;
  }
  Pipeline Pipe(Options);

  std::printf("Building the corpus and labeling loops (u=1..8, 30 noisy "
              "trials each)...\n");
  const Dataset &Data = Pipe.dataset(EnableSwp);
  std::printf("Usable labeled loops: %zu (SWP %s)\n\n", Data.size(),
              EnableSwp ? "enabled" : "disabled");

  // Label histogram (Figure 3).
  auto Histogram = Data.labelHistogram();
  std::printf("Optimal unroll factor distribution:\n");
  for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
    double Share = Data.empty()
                       ? 0.0
                       : static_cast<double>(Histogram[F - 1]) / Data.size();
    std::printf("  u=%u: %5.1f%% %s\n", F, Share * 100.0,
                std::string(static_cast<size_t>(Share * 60), '#').c_str());
  }

  // LOOCV accuracy for both classifiers + the ORC baseline (Table 2).
  FeatureSet Features = paperReducedFeatureSet();
  NearNeighborClassifier Nn(Features, Radius);
  std::vector<unsigned> NnPred = loocvPredictions(Nn, Data);

  Rng Subsampler(1);
  Dataset SvmData = Data.subsample(Full ? 1500 : Data.size(), Subsampler);
  SvmClassifier Svm(Features);
  std::vector<unsigned> SvmPred = loocvPredictions(Svm, SvmData);

  MachineModel Machine(Pipe.options().Machine);
  OrcLikeHeuristic Orc(Machine, EnableSwp);
  std::vector<unsigned> OrcPred;
  OrcPred.reserve(Data.size());
  for (const Benchmark &Bench : Pipe.corpus())
    for (const CorpusLoop &Entry : Bench.Loops)
      for (const Example &Ex : Data.examples())
        if (Ex.LoopName == Entry.TheLoop.name())
          OrcPred.push_back(Orc.chooseFactor(Entry.TheLoop));

  RankDistribution NnRank = rankDistribution(Data, NnPred);
  RankDistribution SvmRank = rankDistribution(SvmData, SvmPred);
  RankDistribution OrcRank = rankDistribution(Data, OrcPred);

  TablePrinter Table("Prediction quality (LOOCV)");
  Table.addHeader({"rank of chosen factor", "NN", "SVM", "ORC"});
  static const char *RankNames[] = {
      "optimal", "second-best", "third-best",  "fourth-best",
      "fifth-best", "sixth-best", "seventh-best", "worst"};
  for (unsigned R = 0; R < MaxUnrollFactor; ++R)
    Table.addRow({RankNames[R], formatDouble(NnRank.Fraction[R], 2),
                  formatDouble(SvmRank.Fraction[R], 2),
                  formatDouble(OrcRank.Fraction[R], 2)});
  std::printf("\n");
  Table.print();
  std::printf("\nNN optimal-or-second: %.0f%%   SVM optimal-or-second: "
              "%.0f%%\n\n",
              NnRank.topTwoAccuracy() * 100.0,
              SvmRank.topTwoAccuracy() * 100.0);

  // A few whole-benchmark speedups (Figure 4/5 protocol).
  std::vector<std::string> EvalNames;
  const std::vector<std::string> &AllSpec = spec2000BenchmarkNames();
  size_t Count = Full ? AllSpec.size() : 6;
  EvalNames.assign(AllSpec.begin(), AllSpec.begin() + Count);

  SpeedupOptions SpeedupOpts;
  SpeedupOpts.Labeling = Pipe.labelingOptions(EnableSwp);
  SpeedupOpts.NnRadius = Radius;
  SpeedupReport Report = evaluateSpeedups(Pipe.corpus(), EvalNames, Data,
                                          Features, SpeedupOpts);

  TablePrinter Speedups("Whole-benchmark speedup over the ORC-like "
                        "heuristic");
  Speedups.addHeader({"benchmark", "NN", "SVM", "oracle"});
  for (const SpeedupRow &Row : Report.Rows)
    Speedups.addRow({Row.Benchmark, formatPercent(Row.NnVsOrc),
                     formatPercent(Row.SvmVsOrc),
                     formatPercent(Row.OracleVsOrc)});
  Speedups.addRow({"(mean)", formatPercent(Report.MeanNn),
                   formatPercent(Report.MeanSvm),
                   formatPercent(Report.MeanOracle)});
  Speedups.print();
  return 0;
}
