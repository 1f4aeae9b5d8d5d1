//===- bench/table2_accuracy.cpp - Regenerates Table 2 --------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Table 2: "Accuracy of predictions for the nearest neighbors algorithm,
// an SVM, and ORC's heuristic", with the mispredict-cost column. Software
// pipelining disabled; leave-one-out cross-validation over the full
// labeled corpus.
//
// Paper values (SWP off):
//   rank        NN    SVM   ORC   Cost
//   optimal     0.62  0.65  0.16  1x
//   2nd best    0.13  0.14  0.21  1.07x
//   3rd         0.09  0.06  0.21  1.15x
//   4th         0.06  0.06  0.13  1.20x
//   5th         0.03  0.02  0.16  1.31x
//   6th         0.03  0.03  0.04  1.34x
//   7th         0.02  0.02  0.05  1.65x
//   worst       0.02  0.02  0.04  1.77x
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/CrossValidation.h"
#include "core/ml/Evaluation.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "table2_accuracy", "Table 2",
      "prediction accuracy: NN vs SVM vs ORC heuristic (LOOCV, SWP disabled)");
  Args.numberOption("radius", "r", "near-neighbor radius", 0.3);
  Args.intOption("svm-cap", "n",
                 "SVM subsample cap (default: the whole dataset)",
                 std::nullopt, 1);
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Data = Pipe->dataset(/*EnableSwp=*/false);
  std::printf("labeled loops: %zu\n\n", Data.size());

  FeatureSet Features = paperReducedFeatureSet();

  NearNeighborClassifier Nn(Features, Args.getDouble("radius"));
  std::vector<unsigned> NnPred = loocvPredictions(Nn, Data);

  // Full-dataset SVM LOOCV via the exact closed-form shortcut; one O(n^3)
  // factorization total (~40s at n~2700). --svm-cap subsamples.
  Rng Subsampler(1);
  size_t Cap = Args.has("svm-cap")
                   ? static_cast<size_t>(Args.getInt("svm-cap"))
                   : Data.size();
  Dataset SvmData = Data.subsample(Cap, Subsampler);
  SvmClassifier Svm(Features);
  std::vector<unsigned> SvmPred = loocvPredictions(Svm, SvmData);

  MachineModel Machine(Pipe->options().Machine);
  OrcLikeHeuristic Orc(Machine, /*SwpMode=*/false);
  auto Index = indexCorpusLoops(Pipe->corpus());
  std::vector<unsigned> OrcPred = orcPredictions(Data, Index, Orc);

  RankDistribution NnRank = rankDistribution(Data, NnPred);
  RankDistribution SvmRank = rankDistribution(SvmData, SvmPred);
  RankDistribution OrcRank = rankDistribution(Data, OrcPred);
  auto Cost = costByRank(Data);

  static const char *RankNames[] = {
      "Optimal unroll factor",      "Second-best unroll factor",
      "Third-best unroll factor",   "Fourth-best unroll factor",
      "Fifth-best unroll factor",   "Sixth-best unroll factor",
      "Seventh-best unroll factor", "Worst unroll factor"};

  TablePrinter Table("Prediction Correctness");
  Table.addHeader({"Prediction", "NN", "SVM", "ORC", "Cost"});
  for (unsigned R = 0; R < MaxUnrollFactor; ++R)
    Table.addRow({RankNames[R], formatDouble(NnRank.Fraction[R], 2),
                  formatDouble(SvmRank.Fraction[R], 2),
                  formatDouble(OrcRank.Fraction[R], 2),
                  formatDouble(Cost[R], 2) + "x"});
  Table.print();

  std::printf("\nHeadline comparisons:\n");
  printComparison("SVM predicts the optimal factor", "65%",
                  formatPercent(SvmRank.accuracy(), 0));
  printComparison("SVM optimal-or-second-best", "79%",
                  formatPercent(SvmRank.topTwoAccuracy(), 0));
  printComparison("NN predicts the optimal factor", "62%",
                  formatPercent(NnRank.accuracy(), 0));
  printComparison("ORC heuristic optimal", "16%",
                  formatPercent(OrcRank.accuracy(), 0));
  printComparison("cost of the worst factor", "1.77x",
                  formatDouble(Cost[MaxUnrollFactor - 1], 2) + "x");
  printComparison("mean cost: SVM choices", "~1.07x within 7% (top-2)",
                  formatDouble(meanCostOfPredictions(SvmData, SvmPred), 3) +
                      "x");
  printComparison("mean cost: ORC choices", "(not reported)",
                  formatDouble(meanCostOfPredictions(Data, OrcPred), 3) +
                      "x");

  std::printf("\n%s",
              renderConfusionMatrix(confusionMatrix(SvmData, SvmPred))
                  .c_str());
  return 0;
}
