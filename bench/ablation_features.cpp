//===- bench/ablation_features.cpp - Feature subset ablation --------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Section 7: "using a well chosen subset of features improves
// classification accuracy" and "whenever possible, it is preferable to
// use a small number of features". This ablation compares LOOCV accuracy
// for: the full 41 features, the paper-style reduced union, the MIS top-k
// sets, and single features.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/CrossValidation.h"
#include "core/ml/FeatureSelection.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "ablation_features", "Ablation: feature subsets",
      "LOOCV accuracy vs feature set (NN classifier)");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Data = Pipe->dataset(/*EnableSwp=*/false);

  auto Evaluate = [&](const FeatureSet &Features) {
    NearNeighborClassifier Nn(Features, 0.3);
    return predictionAccuracy(Data, loocvPredictions(Nn, Data));
  };

  auto Mis = rankByMutualInformation(Data);
  auto MisTop = [&](size_t K) {
    FeatureSet Set;
    for (size_t I = 0; I < K; ++I)
      Set.push_back(Mis[I].first);
    return Set;
  };

  TablePrinter Table("Feature subsets");
  Table.addHeader({"feature set", "#features", "NN LOOCV accuracy"});
  double FullAccuracy = Evaluate(fullFeatureSet());
  Table.addRow({"all features", std::to_string(NumFeatures),
                formatPercent(FullAccuracy, 1)});
  double ReducedAccuracy = Evaluate(paperReducedFeatureSet());
  Table.addRow({"paper-style reduced union",
                std::to_string(paperReducedFeatureSet().size()),
                formatPercent(ReducedAccuracy, 1)});
  for (size_t K : {3u, 5u, 8u, 12u, 20u})
    Table.addRow({"MIS top-" + std::to_string(K), std::to_string(K),
                  formatPercent(Evaluate(MisTop(K)), 1)});
  Table.addRow({"single best MIS feature", "1",
                formatPercent(Evaluate(MisTop(1)), 1)});
  Table.print();

  std::printf("\nShape checks:\n");
  printComparison("well-chosen subset >= all 41 features",
                  "yes (the paper's point)",
                  ReducedAccuracy + 0.02 >= FullAccuracy ? "yes" : "no");
  printComparison("one feature is not enough", "yes",
                  Evaluate(MisTop(1)) < ReducedAccuracy ? "yes" : "no");
  return 0;
}
