//===- bench/ablation_nn_radius.cpp - NN radius sweep ---------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Section 5.1: "For all NN experiments we use a radius of 0.3, the value
// of which was determined experimentally." This ablation reruns that
// experiment: LOOCV accuracy as a function of the (RMS-normalized)
// radius, including the 1-NN limit (radius ~ 0).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/CrossValidation.h"
#include "core/ml/Evaluation.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "ablation_nn_radius", "Ablation: NN radius",
      "LOOCV accuracy vs near-neighbor radius");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Data = Pipe->dataset(/*EnableSwp=*/false);
  FeatureSet Features = paperReducedFeatureSet();

  TablePrinter Table("Radius sweep");
  Table.addHeader({"radius", "LOOCV accuracy", "top-2 accuracy"});
  double Best = 0.0, BestRadius = 0.0, AtDefault = 0.0;
  for (double Radius :
       {1e-6, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7, 1.0, 2.0}) {
    NearNeighborClassifier Nn(Features, Radius);
    std::vector<unsigned> Pred = loocvPredictions(Nn, Data);
    double Accuracy = predictionAccuracy(Data, Pred);
    RankDistribution Rank = rankDistribution(Data, Pred);
    Table.addRow({formatDouble(Radius, 2), formatPercent(Accuracy, 1),
                  formatPercent(Rank.topTwoAccuracy(), 1)});
    if (Accuracy > Best) {
      Best = Accuracy;
      BestRadius = Radius;
    }
    if (Radius == 0.3)
      AtDefault = Accuracy;
  }
  Table.print();

  std::printf("\nShape checks:\n");
  printComparison("paper's working point", "radius 0.3",
                  "best at " + formatDouble(BestRadius, 2));
  printComparison("0.3 close to the sweep's best", "yes",
                  Best - AtDefault < 0.03 ? "yes" : "no");
  return 0;
}
