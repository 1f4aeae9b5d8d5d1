//===- bench/ablation_retune.cpp - Architecture retuning ablation ---------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Section 4.5: "quickly retuning the unrolling heuristic to match
// architectural changes will be trivial. We will simply have to collect a
// new labeled dataset ... and then we can apply the learning algorithm of
// our choice. Contrast this with the tedious, manual retuning efforts
// currently employed today."
//
// This ablation swaps the Itanium-2-like machine for a deliberately
// different VLIW (narrower issue, slower cache, fewer registers),
// relabels, retrains - and shows the retrained classifier beats both the
// stale classifier (trained for the old machine) and the hand-written
// heuristic, which nobody retuned.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/CrossValidation.h"
#include "core/ml/Evaluation.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "ablation_retune", "Ablation: retuning to a new architecture",
      "relabel + retrain vs stale model vs untouched hand-written heuristic");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  PipelineOptions OldOptions;
  PipelineOptions NewOptions;
  NewOptions.Machine = altVliwConfig();
  if (Args.has("quick")) {
    for (PipelineOptions *O : {&OldOptions, &NewOptions}) {
      O->Corpus.MinLoopsPerBenchmark = 6;
      O->Corpus.MaxLoopsPerBenchmark = 10;
    }
  }
  Pipeline OldPipe(OldOptions);
  Pipeline NewPipe(NewOptions);

  const Dataset &OldData = OldPipe.dataset(false);
  const Dataset &NewData = NewPipe.dataset(false);
  std::printf("itanium2 labels: %zu loops; altvliw labels: %zu loops\n",
              OldData.size(), NewData.size());

  // Label drift: the same loop often wants a different factor on the new
  // machine - the reason retuning matters at all.
  std::map<std::string, unsigned> OldLabel;
  for (const Example &Ex : OldData.examples())
    OldLabel[Ex.LoopName] = Ex.Label;
  size_t Matched = 0, Drifted = 0;
  for (const Example &Ex : NewData.examples()) {
    auto It = OldLabel.find(Ex.LoopName);
    if (It == OldLabel.end())
      continue;
    ++Matched;
    Drifted += Ex.Label != It->second;
  }
  std::printf("label drift across machines: %.1f%% of %zu shared loops\n\n",
              Matched ? 100.0 * Drifted / Matched : 0.0, Matched);

  FeatureSet Features = paperReducedFeatureSet();

  // Retrained: NN trained and LOOCV-evaluated on the new machine's labels.
  NearNeighborClassifier Retrained(Features, 0.3);
  std::vector<unsigned> RetrainedPred =
      loocvPredictions(Retrained, NewData);

  // Stale: trained on the old machine's labels, asked about the new ones.
  NearNeighborClassifier Stale(Features, 0.3);
  Stale.train(OldData);
  std::vector<unsigned> StalePred;
  for (const Example &Ex : NewData.examples())
    StalePred.push_back(Stale.predict(Ex.Features));

  // The hand-written heuristic, which nobody rewrote for the new machine
  // (its code still reasons like an Itanium 2 compiler would).
  MachineModel NewMachine(NewOptions.Machine);
  OrcLikeHeuristic Orc(NewMachine, false);
  auto Index = indexCorpusLoops(NewPipe.corpus());
  std::vector<unsigned> OrcPred = orcPredictions(NewData, Index, Orc);

  TablePrinter Table("Accuracy on the new machine's labels");
  Table.addHeader({"policy", "optimal", "top-2", "mean cost"});
  auto AddRow = [&](const char *Name, const std::vector<unsigned> &Pred) {
    RankDistribution Rank = rankDistribution(NewData, Pred);
    Table.addRow({Name, formatPercent(Rank.accuracy(), 1),
                  formatPercent(Rank.topTwoAccuracy(), 1),
                  formatDouble(meanCostOfPredictions(NewData, Pred), 3) +
                      "x"});
    return Rank.accuracy();
  };
  double RetrainedAccuracy = AddRow("NN retrained (relabel + train)",
                                    RetrainedPred);
  double StaleAccuracy = AddRow("NN stale (itanium2 training)", StalePred);
  double OrcAccuracy = AddRow("orc-like heuristic (untouched)", OrcPred);
  Table.print();

  std::printf("\nShape checks:\n");
  printComparison("retrained beats the stale model",
                  "\"retuning will be trivial\"",
                  RetrainedAccuracy > StaleAccuracy ? "yes" : "no");
  printComparison("retrained beats the untouched hand heuristic", "yes",
                  RetrainedAccuracy > OrcAccuracy ? "yes" : "no");
  return 0;
}
