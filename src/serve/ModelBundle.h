//===- serve/ModelBundle.h - Versioned trained-model artifacts --*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model bundle: the unit of deployment between training
/// (tools/metaopt-train) and serving (serve/PredictionService.h). A bundle
/// packages everything a fresh process needs to reproduce a trained
/// classifier's predictions bit-exactly — the serialized classifier (which
/// embeds its fitted normalizer), the feature-catalog schema and selected
/// feature subset it was trained over, and training provenance (corpus
/// fingerprint, seed, machine model, cross-validation accuracy).
///
/// The on-disk container borrows the simulation cache's hardening
/// discipline (cache/SimCache.h): magic bytes, a format version, a payload
/// checksum over every byte after the header, and crash-safe publication
/// through support/FileIO.h. A corrupt, truncated, or version-mismatched bundle is
/// rejected wholesale with a reason — the serving daemon refuses to start
/// on a bad artifact rather than predicting from half a model.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SERVE_MODELBUNDLE_H
#define METAOPT_SERVE_MODELBUNDLE_H

#include "support/Fingerprint.h"
#include "core/ml/Classifier.h"
#include "corpus/BenchmarkSuite.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace metaopt {

/// On-disk bundle format version; bump on any layout change. Readers
/// reject other versions wholesale (no migration paths — retrain instead,
/// training is cheap relative to debugging a half-migrated model).
constexpr uint64_t ModelBundleFileVersion = 1;

/// Where a bundle came from: enough to audit a serving deployment ("which
/// corpus, which seed, how good was it in CV?") and to refuse obviously
/// foreign artifacts. All fields are informational except ClassifierName,
/// which selects the deserialization loader.
struct BundleProvenance {
  std::string ClassifierName;   ///< Classifier::name() of the model.
  std::string CreatedBy;        ///< Producing tool and version.
  std::string MachineName;      ///< MachineConfig::Name trained against.
  bool EnableSwp = false;       ///< Labeling configuration (Fig. 4 vs 5).
  uint64_t CorpusSeed = 0;      ///< CorpusOptions::Seed of the corpus.
  std::string CorpusFingerprint; ///< corpusFingerprint() as 32 hex chars.
  uint64_t TrainingExamples = 0; ///< Labeled loops in the training set.
  std::string CvMethod;         ///< "loocv", "10-fold", or "none".
  double CvAccuracy = -1.0;     ///< Fraction correct; negative = not run.
};

/// One trained model plus everything needed to use and audit it.
struct ModelBundle {
  BundleProvenance Provenance;
  /// The ordered feature subset the classifier reads (the bundle also
  /// records the full catalog schema so a reader with a different catalog
  /// rejects the artifact instead of silently permuting features).
  FeatureSet Features;
  /// Classifier::serialize() text; embeds the fitted normalizer.
  std::string ClassifierBlob;

  /// Restores the trained classifier from ClassifierBlob through the
  /// loaders of classifierFamilies(). Null when no loader accepts the
  /// blob.
  std::unique_ptr<Classifier> instantiate() const;
};

/// Validation summary of a bundle file, for `metaopt-train --inspect` and
/// error reporting. Valid=false carries the rejection reason.
struct ModelBundleInfo {
  bool Valid = false;
  std::string Error;
  uint64_t Version = 0;
  uint64_t PayloadBytes = 0;
  BundleProvenance Provenance; ///< Populated only when Valid.
  size_t FeatureCount = 0;
  size_t ClassifierBytes = 0;
};

/// Renders the complete container (header + checksummed payload).
std::string serializeBundle(const ModelBundle &Bundle);

/// Parses a container produced by serializeBundle(). On rejection returns
/// std::nullopt and, when \p Error is non-null, the reason.
std::optional<ModelBundle> parseBundle(const std::string &Content,
                                       std::string *Error = nullptr);

/// Publishes \p Bundle to \p Path with support/FileIO.h publishFile (a
/// temp file unique to the process and call, fsynced and renamed over
/// \p Path): readers concurrently loading the file, and concurrent
/// publishers, see the old complete bundle or a new one, never a torn
/// write.
bool saveBundleFile(const ModelBundle &Bundle, const std::string &Path,
                    std::string *Error = nullptr);

/// Reads and parses a bundle file; std::nullopt (with reason) on any
/// missing, corrupt, truncated, or version-mismatched file.
std::optional<ModelBundle> loadBundleFile(const std::string &Path,
                                          std::string *Error = nullptr);

/// Validates a bundle file and describes it without instantiating the
/// classifier.
ModelBundleInfo inspectBundleFile(const std::string &Path);

/// Content fingerprint of a training corpus: every benchmark's identity
/// and every loop's canonical text plus simulation context. Two corpora
/// with equal fingerprints yield identical training sets, so a bundle's
/// CorpusFingerprint pins exactly what the model saw.
Fingerprint corpusFingerprint(const std::vector<Benchmark> &Corpus);

/// Renders a Fingerprint as 32 lowercase hex characters (Hi then Lo).
std::string fingerprintHex(const Fingerprint &Print);

/// Content checksum of a bundle: the fingerprint of its canonical
/// serialization, as 32 hex characters. Because serializeBundle() is
/// deterministic, two bundles have equal checksums exactly when they are
/// byte-identical artifacts — this is the revision tag the worker's
/// health endpoint reports and the hot-reload watcher compares.
std::string bundleChecksumHex(const ModelBundle &Bundle);

} // namespace metaopt

#endif // METAOPT_SERVE_MODELBUNDLE_H
