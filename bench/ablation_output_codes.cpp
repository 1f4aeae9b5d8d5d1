//===- bench/ablation_output_codes.cpp - Output code ablation -------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Section 5.2: the paper transforms the 8-class problem into binary
// problems with identity output codes, decoding by Hamming distance, and
// notes that "error correcting codewords can provide better results by
// using more bits than necessary ... but for simplicity we do not use
// such encodings." This ablation tries exactly those variants.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/CrossValidation.h"
#include "core/ml/Evaluation.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "ablation_output_codes", "Ablation: output codes",
      "one-vs-rest vs error-correcting codes, Hamming vs loss decoding "
      "(LS-SVM)");
  Args.intOption("svm-cap", "n", "subsample cap", 1200, 1);
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  Rng Subsampler(3);
  Dataset Data = Pipe->dataset(/*EnableSwp=*/false)
                     .subsample(static_cast<size_t>(Args.getInt("svm-cap")),
                                Subsampler);
  std::printf("evaluating on %zu loops\n\n", Data.size());
  FeatureSet Features = paperReducedFeatureSet();

  struct Variant {
    const char *Name;
    SvmOptions Options;
  };
  std::vector<Variant> Variants;
  {
    SvmOptions Base;
    Variants.push_back({"one-vs-rest, Hamming (paper)", Base});
    SvmOptions Loss = Base;
    Loss.Decode = SvmOptions::Decoding::Loss;
    Variants.push_back({"one-vs-rest, loss decoding", Loss});
    SvmOptions Ecoc = Base;
    Ecoc.CodeKind = SvmOptions::Code::RandomEcoc;
    Ecoc.EcocBits = 15;
    Variants.push_back({"random ECOC 15 bits, Hamming", Ecoc});
    SvmOptions EcocLoss = Ecoc;
    EcocLoss.Decode = SvmOptions::Decoding::Loss;
    Variants.push_back({"random ECOC 15 bits, loss", EcocLoss});
    SvmOptions Ecoc31 = Ecoc;
    Ecoc31.EcocBits = 31;
    Variants.push_back({"random ECOC 31 bits, Hamming", Ecoc31});
  }

  TablePrinter Table("Output code variants (LOOCV)");
  Table.addHeader({"variant", "bits", "accuracy", "top-2"});
  double PaperVariant = 0.0, BestEcoc = 0.0;
  for (const Variant &V : Variants) {
    SvmClassifier Svm(Features, V.Options);
    std::vector<unsigned> Pred = loocvPredictions(Svm, Data);
    double Accuracy = predictionAccuracy(Data, Pred);
    RankDistribution Rank = rankDistribution(Data, Pred);
    unsigned Bits = V.Options.CodeKind == SvmOptions::Code::OneVsRest
                        ? MaxUnrollFactor
                        : V.Options.EcocBits;
    Table.addRow({V.Name, std::to_string(Bits),
                  formatPercent(Accuracy, 1),
                  formatPercent(Rank.topTwoAccuracy(), 1)});
    if (V.Options.CodeKind == SvmOptions::Code::OneVsRest &&
        V.Options.Decode == SvmOptions::Decoding::Hamming)
      PaperVariant = Accuracy;
    if (V.Options.CodeKind == SvmOptions::Code::RandomEcoc)
      BestEcoc = std::max(BestEcoc, Accuracy);
  }
  Table.print();

  std::printf("\nShape checks:\n");
  printComparison("ECOC competitive with or better than one-vs-rest",
                  "\"can provide better results\"",
                  BestEcoc + 0.02 >= PaperVariant ? "yes" : "no");
  return 0;
}
