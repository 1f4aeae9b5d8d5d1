//===- bench/table_generalization.cpp - Synthetic-to-real gap -------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// The paper trains and evaluates on loops drawn from one benchmark
// population; this repo's training corpus is synthetic. The obvious
// question - do models trained on the generated corpus transfer to loops
// lifted from real code? - is answered here: every classifier is trained
// on the synthetic pipeline dataset and then evaluated, without any
// retraining, on the committed kernel corpus under corpus/imported/
// (ingested through src/import). Each imported kernel is labeled with the
// same empirical protocol as the training set (measure at factors 1..8,
// median of 30 noisy trials, argmin), so "accuracy" means the same thing
// on both sides of the table. The in-distribution LOOCV accuracy is
// printed beside the imported-corpus accuracy; the difference is the
// synthetic-to-real generalization gap.
//
// Rows are printed as a table and also written to BENCH_generalization.json
// at the repo root (one JSON object per line), tagged with the imported
// corpus fingerprint so a result row can never be confused with a run
// against a different kernel set.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/features/FeatureExtractor.h"
#include "core/ml/Evaluation.h"
#include "import/ImportedCorpus.h"

#include <algorithm>
#include <map>

using namespace metaopt;

namespace {

/// Label of the never-unroll calibration row.
const char *const NeverUnroll = "always-1 (never unroll)";

/// Destination for the BENCH_generalization.json copy of every JSON row.
BenchJsonWriter *RowSink = nullptr;

void emitRow(const std::string &Row) {
  if (RowSink)
    RowSink->row(Row);
}

/// Lowercase hex of the 128-bit corpus fingerprint (Hi then Lo, matching
/// serve's bundle manifests).
std::string hexOf(const Fingerprint &Print) {
  char Buffer[33];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx%016llx",
                static_cast<unsigned long long>(Print.Hi),
                static_cast<unsigned long long>(Print.Lo));
  return Buffer;
}

/// Mean speedup over u=1 actually realized by following \p Preds:
/// cycles(u=1) / cycles(predicted factor), averaged over the eval set.
double realizedSpeedup(const Dataset &Data,
                       const std::vector<unsigned> &Preds) {
  if (Data.empty())
    return 1.0;
  double Sum = 0.0;
  for (size_t I = 0; I < Data.size(); ++I) {
    const Example &Ex = Data[I];
    Sum += Ex.CyclesPerFactor[0] / Ex.CyclesPerFactor[Preds[I] - 1];
  }
  return Sum / static_cast<double>(Data.size());
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "table_generalization", "Generalization gap",
      "train on the synthetic corpus, evaluate on imported real-code kernels");
  Args.intOption("cap", "n", "training subsample cap", 1000, 1);
  Args.stringOption("imported", "dir", "imported kernel corpus",
                    METAOPT_IMPORTED_CORPUS_DIR);
  Args.flag("labels", "print each kernel's measured oracle label");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  BenchJsonWriter Json("generalization");
  RowSink = &Json;

  // Training side: the standard synthetic pipeline dataset (SWP off),
  // subsampled exactly like the classifier ablation so the LOOCV columns
  // are comparable across benches.
  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Full = Pipe->dataset(/*EnableSwp=*/false);
  Rng Subsampler(17);
  Dataset Train = Full.subsample(
      static_cast<size_t>(Args.getInt("cap")), Subsampler);
  FeatureSet Features = paperReducedFeatureSet();

  // Eval side: the committed kernel corpus, ingested through src/import
  // and labeled with the training protocol. The paper's usability filters
  // (50k-cycle noise floor, 1.05x sensitivity) are *reported*, not
  // applied: the imported set is small and fixed, and a deployed
  // predictor does not get to skip insensitive loops either.
  std::string ImportedDir = Args.getString("imported");
  ImportedCorpus Kernels = loadImportedCorpus(ImportedDir);
  if (!Kernels.succeeded() || Kernels.Loops.empty()) {
    std::printf("FAILED to load imported corpus from %s:\n%s\n",
                ImportedDir.c_str(), Kernels.Report.renderText().c_str());
    return 1;
  }
  Benchmark Imported = toBenchmark(Kernels);
  std::string CorpusHex = hexOf(importedCorpusFingerprint(Kernels));

  LabelingOptions Options;
  MachineModel Machine(Options.Machine);
  Dataset Eval;
  size_t WouldPassFilters = 0;
  for (const CorpusLoop &Entry : Imported.Loops) {
    std::array<double, MaxUnrollFactor> Medians =
        measureLoopAtAllFactors(Imported, Entry, Machine, Options);
    Example Ex;
    Ex.Features = extractFeatures(Entry.TheLoop);
    Ex.CyclesPerFactor = Medians;
    Ex.LoopName = Entry.TheLoop.name();
    Ex.BenchmarkName = Imported.Name;
    double Sum = 0.0, BestCycles = Medians[0];
    for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
      Sum += Medians[F - 1];
      if (Medians[F - 1] < BestCycles) {
        BestCycles = Medians[F - 1];
        Ex.Label = F;
      }
    }
    if (isReliablyMeasurable(BestCycles, Options.Protocol) &&
        BestCycles * Options.MinBestVsAverage <= Sum / MaxUnrollFactor)
      ++WouldPassFilters;
    Eval.add(std::move(Ex));
  }

  // --labels: dump each kernel's measured oracle label (the corpus is
  // curated for label diversity; this is how you check it).
  if (Args.has("labels")) {
    std::printf("per-kernel oracle labels:\n");
    for (size_t I = 0; I < Eval.size(); ++I)
      std::printf("  %-24s u=%u\n", Eval.examples()[I].LoopName.c_str(),
                  Eval.examples()[I].Label);
    std::printf("\n");
  }

  auto Histogram = Eval.labelHistogram();
  std::printf("training loops (synthetic): %zu   imported kernels: %zu "
              "(%zu would pass the paper's usability filters)\n",
              Train.size(), Eval.size(), WouldPassFilters);
  std::printf("imported label histogram (u=1..8):");
  for (size_t Count : Histogram)
    std::printf(" %zu", Count);
  std::printf("\nimported corpus fingerprint: %s\n\n", CorpusHex.c_str());
  {
    char Row[512];
    std::snprintf(Row, sizeof(Row),
                  "{\"experiment\": \"generalization_corpus\", "
                  "\"synthetic_loops\": %zu, \"imported_loops\": %zu, "
                  "\"imported_pass_filters\": %zu, "
                  "\"imported_fingerprint\": \"%s\"}",
                  Train.size(), Eval.size(), WouldPassFilters,
                  CorpusHex.c_str());
    emitRow(Row);
  }

  // Every classifier: LOOCV accuracy in-distribution, then accuracy /
  // top-2 / mean cost / realized speedup on the imported kernels without
  // retraining. The gap column is LOOCV minus imported accuracy.
  TablePrinter Table("Synthetic-train / imported-eval (generalization)");
  Table.addHeader({"classifier", "loocv", "imported", "top-2", "mean cost",
                   "speedup", "gap"});
  std::map<std::string, double> ImportedAccuracies;
  auto AddRow = [&](const std::string &Name,
                    const std::vector<unsigned> &LoocvPred,
                    const std::vector<unsigned> &EvalPred) {
    // Calibration rows (oracle, always-1) have no LOOCV side; their
    // loocv/gap columns print as "-" and serialize as null.
    bool HasLoocv = !LoocvPred.empty();
    double Loocv =
        HasLoocv ? rankDistribution(Train, LoocvPred).accuracy() : 0.0;
    RankDistribution Rank = rankDistribution(Eval, EvalPred);
    double Cost = meanCostOfPredictions(Eval, EvalPred);
    double Speedup = realizedSpeedup(Eval, EvalPred);
    double Gap = Loocv - Rank.accuracy();
    Table.addRow({Name, HasLoocv ? formatPercent(Loocv, 1) : "-",
                  formatPercent(Rank.accuracy(), 1),
                  formatPercent(Rank.topTwoAccuracy(), 1),
                  formatDouble(Cost, 3) + "x",
                  formatDouble(Speedup, 3) + "x",
                  HasLoocv ? formatPercent(Gap, 1) : "-"});
    ImportedAccuracies[Name] = Rank.accuracy();
    char LoocvJson[32], GapJson[32];
    if (HasLoocv) {
      std::snprintf(LoocvJson, sizeof(LoocvJson), "%.4f", Loocv);
      std::snprintf(GapJson, sizeof(GapJson), "%.4f", Gap);
    } else {
      std::snprintf(LoocvJson, sizeof(LoocvJson), "null");
      std::snprintf(GapJson, sizeof(GapJson), "null");
    }
    char Row[512];
    std::snprintf(Row, sizeof(Row),
                  "{\"experiment\": \"generalization\", "
                  "\"classifier\": \"%s\", \"loocv_accuracy\": %s, "
                  "\"imported_accuracy\": %.4f, \"imported_top2\": %.4f, "
                  "\"imported_mean_cost\": %.4f, "
                  "\"imported_speedup\": %.4f, \"gap\": %s, "
                  "\"imported_fingerprint\": \"%s\"}",
                  Name.c_str(), LoocvJson, Rank.accuracy(),
                  Rank.topTwoAccuracy(), Cost, Speedup, GapJson,
                  CorpusHex.c_str());
    emitRow(Row);
  };
  auto PredictAll = [&](const Classifier &Model) {
    std::vector<unsigned> Preds;
    Preds.reserve(Eval.size());
    for (const Example &Ex : Eval.examples())
      Preds.push_back(Model.predict(Ex.Features));
    return Preds;
  };

  // Every family, each with its own LOOCV strategy (closed form for NN,
  // the LS-SVMs and kernel ridge regression, brute-force retraining for
  // the rest), then one model trained on the whole synthetic set.
  for (const ClassifierFamily &Family : classifierFamilies()) {
    std::vector<unsigned> Loocv = Family.Loocv(Features, Train);
    std::unique_ptr<Classifier> Model = Family.Make(Features);
    Model->train(Train);
    AddRow(Family.BenchLabel, Loocv, PredictAll(*Model));
  }

  // Calibration rows: the oracle (predict the measured label - upper
  // bound on realized speedup) and the never-unroll baseline.
  {
    std::vector<unsigned> Oracle;
    for (const Example &Ex : Eval.examples())
      Oracle.push_back(Ex.Label);
    AddRow("oracle (upper bound)", {}, Oracle);
    AddRow(NeverUnroll, {}, std::vector<unsigned>(Eval.size(), 1));
  }
  Table.print();

  std::printf("\nShape checks:\n");
  double BestImported = 0.0;
  for (const ClassifierFamily &Family : classifierFamilies())
    BestImported =
        std::max(BestImported, ImportedAccuracies.at(Family.BenchLabel));
  double OracleSpeedup = realizedSpeedup(Eval, [&] {
    std::vector<unsigned> Oracle;
    for (const Example &Ex : Eval.examples())
      Oracle.push_back(Ex.Label);
    return Oracle;
  }());
  printComparison("some learner transfers to real-code kernels",
                  "beats never-unroll on accuracy",
                  BestImported > ImportedAccuracies.at(NeverUnroll) ? "yes"
                                                                    : "no");
  printComparison("unrolling pays off on the imported set",
                  "oracle speedup > 1.0x",
                  formatDouble(OracleSpeedup, 3) + "x");
  std::string Error;
  if (!Json.flush(&Error)) {
    std::fprintf(stderr, "table_generalization: %s\n", Error.c_str());
    return 1;
  }
  return 0;
}
