//===- bench/ablation_classifiers.cpp - Learning algorithm shoot-out ------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// "There are many different classification techniques that one could
// choose to employ" (Section 4.6). This ablation runs the full menu on
// the same data: every row of classifierFamilies() - the paper's NN and
// LS-SVM (one-vs-rest and random ECOC), the decision tree its related
// work favors (Monsifrot et al., Calder et al.), LSH-approximate NN (the
// Section 5.1 scalability route), kernel ridge regression (the Section 8
// future-work extension), the model zoo's MLP and random forest - and two
// trivial baselines for calibration.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Statistics.h"

#include "core/ml/Evaluation.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace metaopt;

int main(int Argc, char **Argv) {
  CommandLine Args(Argc, Argv);
  printBenchHeader("Ablation: learning algorithms",
                   "every classifier family on the same data and "
                   "features");

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Full = Pipe->dataset(/*EnableSwp=*/false);
  Rng Subsampler(17);
  Dataset Data = Full.subsample(
      static_cast<size_t>(Args.getInt("cap", 1000)), Subsampler);
  std::printf("evaluating on %zu loops (LOOCV)\n\n", Data.size());
  FeatureSet Features = paperReducedFeatureSet();

  TablePrinter Table("Classifier comparison (LOOCV)");
  Table.addHeader({"classifier", "optimal", "top-2", "mean cost"});
  auto AddRow = [&](const std::string &Label,
                    const std::vector<unsigned> &Pred) {
    RankDistribution Rank = rankDistribution(Data, Pred);
    Table.addRow({Label, formatPercent(Rank.accuracy(), 1),
                  formatPercent(Rank.topTwoAccuracy(), 1),
                  formatDouble(meanCostOfPredictions(Data, Pred), 3) +
                      "x"});
    return Rank.accuracy();
  };

  // Every family with its own LOOCV strategy: closed form for NN, the
  // LS-SVMs and kernel ridge regression, brute-force retraining for the
  // rest.
  std::map<std::string, double> Accuracy;
  for (const ClassifierFamily &Family : classifierFamilies())
    Accuracy[Family.Name] =
        AddRow(Family.BenchLabel, Family.Loocv(Features, Data));

  // Trivial baselines for calibration.
  auto Histogram = Data.labelHistogram();
  unsigned Majority = 1 + static_cast<unsigned>(argMax(
      std::vector<double>(Histogram.begin(), Histogram.end())));
  double MajorityAccuracy =
      AddRow("always-" + std::to_string(Majority) + " (majority class)",
             std::vector<unsigned>(Data.size(), Majority));
  AddRow("always-1 (never unroll)", std::vector<unsigned>(Data.size(), 1));
  Table.print();

  std::printf("\nShape checks:\n");
  double PaperBest = std::max(Accuracy.at("near-neighbor"), Accuracy.at("svm"));
  printComparison("paper's learners competitive with the tree",
                  "NN/SVM chosen for a reason",
                  PaperBest + 0.03 >= Accuracy.at("decision-tree") ? "yes"
                                                                   : "no");
  printComparison(
      "LSH close to exact NN", "approximate lookup works (Sec. 5.1)",
      std::abs(Accuracy.at("lsh-nn") - Accuracy.at("near-neighbor")) < 0.05
          ? "yes"
          : "no");
  // Kernel ridge regression is the one regressor; it gets its own line.
  double WorstClassifier = 1.0;
  for (const auto &[Name, Value] : Accuracy)
    if (Name != "krr-regression")
      WorstClassifier = std::min(WorstClassifier, Value);
  printComparison("every classifier beats the majority baseline", "yes",
                  WorstClassifier > MajorityAccuracy ? "yes" : "no");
  printComparison("§8 regression beats the majority baseline", "no",
                  Accuracy.at("krr-regression") > MajorityAccuracy ? "yes"
                                                                   : "no");
  return 0;
}
