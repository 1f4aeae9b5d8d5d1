//===- bench/ablation_svm_params.cpp - LS-SVM hyperparameter sweep --------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// The paper tuned its SVM with the LS-SVMlab toolkit's defaults ("almost
// no time went into tweaking the machine learning algorithms"). This
// ablation sweeps the two LS-SVM hyperparameters - the regularization
// gamma and the RBF width sigma^2 (per normalized dimension) - to show
// the working point sits on a broad plateau, i.e. the result does not
// hinge on careful tuning.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/CrossValidation.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "ablation_svm_params", "Ablation: LS-SVM hyperparameters",
      "LOOCV accuracy over (gamma, sigma^2/dim)");
  Args.intOption("svm-cap", "n", "subsample cap", 1000, 1);
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  Rng Subsampler(5);
  Dataset Data = Pipe->dataset(/*EnableSwp=*/false)
                     .subsample(static_cast<size_t>(Args.getInt("svm-cap")),
                                Subsampler);
  std::printf("evaluating on %zu loops\n\n", Data.size());
  FeatureSet Features = paperReducedFeatureSet();

  const double Gammas[] = {1.0, 10.0, 100.0};
  const double Sigmas[] = {0.3, 1.0, 3.0};

  TablePrinter Table("Accuracy over the hyperparameter grid");
  Table.addHeader({"gamma \\ sigma^2/dim", "0.3", "1.0", "3.0"});
  double Best = 0.0, Worst = 1.0, AtDefault = 0.0;
  for (double Gamma : Gammas) {
    std::vector<std::string> Row = {formatDouble(Gamma, 0)};
    for (double Sigma : Sigmas) {
      SvmOptions Options;
      Options.Gamma = Gamma;
      Options.SigmaSquaredPerDim = Sigma;
      SvmClassifier Svm(Features, Options);
      double Accuracy =
          predictionAccuracy(Data, loocvPredictions(Svm, Data));
      Row.push_back(formatPercent(Accuracy, 1));
      Best = std::max(Best, Accuracy);
      Worst = std::min(Worst, Accuracy);
      if (Gamma == 10.0 && Sigma == 1.0)
        AtDefault = Accuracy;
    }
    Table.addRow(Row);
  }
  Table.print();

  std::printf("\nShape checks:\n");
  printComparison("defaults (gamma=10, sigma^2/dim=1) near the best",
                  "\"almost no tweaking\"",
                  Best - AtDefault < 0.04 ? "yes" : "no");
  printComparison("plateau width (best - worst on grid)", "small",
                  formatPercent(Best - Worst, 1));
  return 0;
}
