//===- bench/ablation_validation.cpp - Methodology cross-checks -----------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Section 4.2 picks LOOCV because "there are other methods available for
// estimating a classifier's accuracy, but LOOCV is particularly appealing
// when the size of the training set is small". This bench runs the other
// method (10-fold CV) and shows the estimates agree; it also breaks the
// accuracy down by source suite and language (the corpus spans three
// languages and six suites, Section 4.6) and prints the confusion matrix
// behind Table 2's rank buckets.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/CrossValidation.h"
#include "core/ml/Evaluation.h"

#include <map>

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "ablation_validation", "Ablation: validation methodology",
      "LOOCV vs 10-fold, per-suite breakdown, confusion matrix");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Data = Pipe->dataset(/*EnableSwp=*/false);
  FeatureSet Features = paperReducedFeatureSet();

  // LOOCV vs 10-fold on the same NN classifier.
  NearNeighborClassifier Nn(Features, 0.3);
  std::vector<unsigned> Loocv = loocvPredictions(Nn, Data);
  ClassifierFactory Factory = [](const FeatureSet &F) {
    return std::make_unique<NearNeighborClassifier>(F, 0.3);
  };
  std::vector<unsigned> KFold =
      kFoldPredictions(Factory, Features, Data, 10);

  double LoocvAccuracy = predictionAccuracy(Data, Loocv);
  double KFoldAccuracy = predictionAccuracy(Data, KFold);
  std::printf("NN accuracy: LOOCV %.1f%%   10-fold %.1f%%\n\n",
              LoocvAccuracy * 100.0, KFoldAccuracy * 100.0);

  // Per-suite and per-language breakdown.
  std::map<std::string, std::pair<size_t, size_t>> BySuite; // correct/total
  std::map<std::string, std::pair<size_t, size_t>> ByLang;
  std::map<std::string, const Benchmark *> BenchByName;
  for (const Benchmark &Bench : Pipe->corpus())
    BenchByName[Bench.Name] = &Bench;
  for (size_t I = 0; I < Data.size(); ++I) {
    const Benchmark *Bench = BenchByName.at(Data[I].BenchmarkName);
    bool Correct = Loocv[I] == Data[I].Label;
    auto &Suite = BySuite[Bench->Suite];
    ++Suite.second;
    Suite.first += Correct;
    auto &Lang = ByLang[sourceLanguageName(Bench->Lang)];
    ++Lang.second;
    Lang.first += Correct;
  }

  TablePrinter Suites("NN LOOCV accuracy by source suite");
  Suites.addHeader({"suite", "loops", "accuracy"});
  for (const auto &[Suite, Counts] : BySuite)
    Suites.addRow({Suite, std::to_string(Counts.second),
                   formatPercent(static_cast<double>(Counts.first) /
                                     Counts.second,
                                 1)});
  Suites.print();
  std::printf("\n");

  TablePrinter Langs("NN LOOCV accuracy by language");
  Langs.addHeader({"language", "loops", "accuracy"});
  for (const auto &[Lang, Counts] : ByLang)
    Langs.addRow({Lang, std::to_string(Counts.second),
                  formatPercent(static_cast<double>(Counts.first) /
                                    Counts.second,
                                1)});
  Langs.print();
  std::printf("\n");

  std::printf("%s\n",
              renderConfusionMatrix(confusionMatrix(Data, Loocv)).c_str());

  std::printf("Shape checks:\n");
  printComparison("LOOCV and 10-fold estimates agree",
                  "\"other methods available\" (Sec. 4.2)",
                  std::abs(LoocvAccuracy - KFoldAccuracy) < 0.03 ? "yes"
                                                                 : "no");
  printComparison("every suite contributes usable loops", "72 benchmarks",
                  std::to_string(BySuite.size()) + " suites");
  return 0;
}
