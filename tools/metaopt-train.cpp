//===- tools/metaopt-train.cpp - Train and publish model bundles ----------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The training half of the serving story (docs/SERVING.md): runs the
/// standard pipeline (corpus -> labeling -> training -> cross-validation)
/// and publishes the result as a model bundle (serve/ModelBundle.h) that
/// metaopt-serve loads in a fresh process. Also doubles as the bundle
/// inspector: --inspect validates a bundle file and prints its
/// provenance, exit 0 when a serving daemon would accept it.
///
//===----------------------------------------------------------------------===//

#include "cache/SimCache.h"
#include "concurrency/ThreadPool.h"
#include "core/driver/Pipeline.h"
#include "core/ml/CrossValidation.h"
#include "serve/ModelBundle.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <memory>

using namespace metaopt;

namespace {

int inspectBundle(const std::string &Path) {
  ModelBundleInfo Info = inspectBundleFile(Path);
  if (!Info.Valid) {
    std::printf("%s: REJECTED: %s\n", Path.c_str(), Info.Error.c_str());
    return 1;
  }
  const BundleProvenance &Prov = Info.Provenance;
  std::printf("%s: ok (format v%llu)\n", Path.c_str(),
              static_cast<unsigned long long>(Info.Version));
  std::printf("  classifier          %s (%zu-byte blob)\n",
              Prov.ClassifierName.c_str(), Info.ClassifierBytes);
  std::printf("  created by          %s\n", Prov.CreatedBy.c_str());
  std::printf("  machine             %s, swp=%s\n",
              Prov.MachineName.c_str(), Prov.EnableSwp ? "on" : "off");
  std::printf("  features            %zu selected\n", Info.FeatureCount);
  std::printf("  corpus              seed %llu, fingerprint %s\n",
              static_cast<unsigned long long>(Prov.CorpusSeed),
              Prov.CorpusFingerprint.c_str());
  std::printf("  training examples   %llu\n",
              static_cast<unsigned long long>(Prov.TrainingExamples));
  if (Prov.CvAccuracy >= 0)
    std::printf("  cv accuracy         %.1f%% (%s)\n",
                100.0 * Prov.CvAccuracy, Prov.CvMethod.c_str());
  else
    std::printf("  cv accuracy         not measured\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("metaopt-train",
                "Trains an unroll-factor classifier on the built-in "
                "corpus and publishes\nit as a model bundle for "
                "metaopt-serve (docs/SERVING.md).");
  Cli.stringOption("out", "bundle.bin",
                   "where to publish the bundle (required)");
  Cli.stringOption("classifier", servableClassifierSpellings("|"),
                   "classifier to train",
                   classifierFamilies().front().spelling());
  Cli.flag("swp", "label with software pipelining enabled (Figure 5)");
  Cli.stringOption("features", "paper|full",
                   "feature subset (paper is the reduced Section 6 set)",
                   "paper");
  Cli.stringOption("cv", "loocv|none",
                   "cross-validation recorded in the provenance", "loocv");
  Cli.intOption("corpus-min", "n",
                "min loops per benchmark (the full corpus uses 30)", 6, 1,
                std::numeric_limits<int>::max());
  Cli.intOption("corpus-max", "n",
                "max loops per benchmark (the full corpus uses 55)", 10, 1,
                std::numeric_limits<int>::max());
  Cli.stringOption("cache-dir", "dir",
                   "persist the simulation cache under <dir>; a rerun "
                   "replays its simulations (default: METAOPT_CACHE_DIR, "
                   "else memory only)");
  Cli.intOption("threads", "n",
                "worker threads (default: METAOPT_THREADS, else hardware "
                "concurrency)",
                std::nullopt, 1, ThreadPool::MaxThreads);
  Cli.flag("inspect", "validate and describe an existing bundle file");
  Cli.positionalHelp("[<bundle.bin>]", "bundle file to --inspect");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;

  if (Cli.has("inspect")) {
    if (Cli.positional().empty()) {
      std::fprintf(stderr,
                   "metaopt-train: --inspect requires a bundle file\n");
      return 2;
    }
    return inspectBundle(Cli.positional().front());
  }

  std::string OutPath = Cli.getString("out");
  if (OutPath.empty()) {
    std::fprintf(stderr, "metaopt-train: --out=<bundle.bin> is required\n%s",
                 Cli.usage().c_str());
    return 2;
  }
  const ClassifierFamily *Family =
      findClassifierFamily(Cli.getString("classifier"));
  if (!Family || !Family->servable()) {
    std::fprintf(stderr, "metaopt-train: --classifier must be one of %s\n",
                 servableClassifierSpellings(", ").c_str());
    return 2;
  }
  std::string FeaturesName = Cli.getString("features");
  if (FeaturesName != "paper" && FeaturesName != "full") {
    std::fprintf(stderr,
                 "metaopt-train: --features must be 'paper' or 'full'\n");
    return 2;
  }
  std::string CvName = Cli.getString("cv");
  if (CvName != "loocv" && CvName != "none") {
    std::fprintf(stderr, "metaopt-train: --cv must be 'loocv' or 'none'\n");
    return 2;
  }
  if (Cli.has("threads"))
    ThreadPool::setGlobalThreads(
        static_cast<unsigned>(Cli.getInt("threads")));
  bool EnableSwp = Cli.has("swp");

  PipelineOptions Options;
  Options.Corpus.MinLoopsPerBenchmark =
      static_cast<int>(Cli.getInt("corpus-min"));
  Options.Corpus.MaxLoopsPerBenchmark =
      static_cast<int>(Cli.getInt("corpus-max"));
  if (Options.Corpus.MaxLoopsPerBenchmark <
      Options.Corpus.MinLoopsPerBenchmark) {
    std::fprintf(stderr,
                 "metaopt-train: --corpus-max is below --corpus-min\n");
    return 2;
  }
  if (Cli.has("cache-dir")) {
    SimCacheConfig Cache;
    Cache.PersistentDir = Cli.getString("cache-dir");
    SimCache::configureGlobal(Cache);
  }

  Pipeline Pipe(Options);
  std::fprintf(stderr, "metaopt-train: labeling the corpus (swp=%s)...\n",
               EnableSwp ? "on" : "off");
  const Dataset &Train = Pipe.dataset(EnableSwp);
  if (Train.size() == 0) {
    std::fprintf(stderr, "metaopt-train: the labeled dataset is empty\n");
    return 1;
  }
  std::fprintf(stderr, "metaopt-train: %zu labeled loops\n", Train.size());

  FeatureSet Features = FeaturesName == "full" ? fullFeatureSet()
                                               : paperReducedFeatureSet();

  ModelBundle Bundle;
  std::unique_ptr<Classifier> Trained = Family->Make(Features);
  Trained->train(Train);
  if (CvName == "loocv")
    Bundle.Provenance.CvAccuracy =
        predictionAccuracy(Train, Family->Loocv(Features, Train));
  Bundle.Provenance.CvMethod = CvName;

  Bundle.Provenance.ClassifierName = Trained->name();
  Bundle.Provenance.CreatedBy =
      std::string("metaopt-train ") + metaoptVersion();
  Bundle.Provenance.MachineName = Pipe.options().Machine.Name;
  Bundle.Provenance.EnableSwp = EnableSwp;
  Bundle.Provenance.CorpusSeed = Pipe.options().Corpus.Seed;
  Bundle.Provenance.CorpusFingerprint =
      fingerprintHex(corpusFingerprint(Pipe.corpus()));
  Bundle.Provenance.TrainingExamples = Train.size();
  Bundle.Features = Features;
  Bundle.ClassifierBlob = Trained->serialize();

  std::string Error;
  if (!saveBundleFile(Bundle, OutPath, &Error)) {
    std::fprintf(stderr, "metaopt-train: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "metaopt-train: published %s\n", OutPath.c_str());
  return inspectBundle(OutPath) == 0 ? 0 : 1;
}
