//===- core/ml/Classifier.h - Multi-class classifier interface --*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface shared by the learned multi-class classifiers, and the
/// table of classifier families. A classifier owns its feature subset and
/// normalizer: train() fits them on the training set, and predict() maps
/// a raw NumFeatures-entry (41) feature vector to an unroll factor.
///
/// classifierFamilies() is the single list of families. Each row names a
/// family and carries its factory, its LOOCV strategy and, for servable
/// families, the loader that restores a serialize() blob. Training tools,
/// benches, the fuzz bundle oracle and model bundles (serve/ModelBundle.h)
/// all iterate this table, so adding a family is one row plus the
/// family's own sources.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_CLASSIFIER_H
#define METAOPT_CORE_ML_CLASSIFIER_H

#include "core/features/Normalizer.h"
#include "core/ml/Dataset.h"

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace metaopt {

/// A trainable unroll-factor classifier.
class Classifier {
public:
  virtual ~Classifier();

  virtual std::string name() const = 0;

  /// Fits the classifier (including its normalizer) on \p Train.
  virtual void train(const Dataset &Train) = 0;

  /// Predicts an unroll factor in 1..MaxUnrollFactor for a raw feature
  /// vector. Must only be called after train().
  virtual unsigned predict(const FeatureVector &Features) const = 0;

  /// Per-factor preference scores (index f-1; higher = more preferred).
  /// The argmax always equals predict(). The default implementation is
  /// the one-hot vector of predict(); classifiers with a native notion of
  /// confidence (NN vote fractions, SVM codeword agreement) override it.
  virtual std::array<double, MaxUnrollFactor>
  scores(const FeatureVector &Features) const;

  /// Serializes the trained model to a self-describing text blob whose
  /// first token identifies the format. Must only be called after
  /// train(); the family's loader restores a predict-equivalent instance.
  /// Bench-only families keep the default empty blob, which model bundles
  /// reject.
  virtual std::string serialize() const { return ""; }

  /// Fraction of \p Data classified correctly (prediction == label).
  double accuracyOn(const Dataset &Data) const;
};

/// Creates fresh untrained classifiers; used by cross-validation and
/// greedy feature selection, which retrain many times.
using ClassifierFactory =
    std::function<std::unique_ptr<Classifier>(const FeatureSet &)>;

//===----------------------------------------------------------------------===//
// Classifier families
//===----------------------------------------------------------------------===//

/// One classifier family: how to build, cross-validate and restore it.
struct ClassifierFamily {
  /// Classifier::name() of the models Make() builds.
  const char *Name;
  /// A second --classifier spelling, or null.
  const char *Alias;
  /// Row label in the bench tables and BENCH_generalization.json.
  const char *BenchLabel;
  /// A fresh untrained model with the family's default options.
  std::unique_ptr<Classifier> (*Make)(const FeatureSet &Features);
  /// Leave-one-out predictions over \p Data, one per example: the
  /// closed-form path where the family has one, bruteForceLoocv
  /// otherwise.
  std::vector<unsigned> (*Loocv)(const FeatureSet &Features,
                                 const Dataset &Data);
  /// Restores a serialize() blob, null when the blob is not this
  /// family's format. Null for bench-only families, which are never
  /// published or served.
  std::unique_ptr<Classifier> (*Load)(const std::string &Text);

  bool servable() const { return Load != nullptr; }
  /// The --classifier spelling tools list: the alias when there is one.
  const char *spelling() const { return Alias ? Alias : Name; }
};

/// Every family, in bench-table order: the paper's two learners first.
/// The first row is the tools' default classifier.
std::span<const ClassifierFamily> classifierFamilies();

/// The family whose name or alias is \p Name, or null.
const ClassifierFamily *findClassifierFamily(const std::string &Name);

/// The servable families' spellings joined by \p Separator, for usage
/// and error messages.
std::string servableClassifierSpellings(const std::string &Separator);

/// Restores a serialized classifier, trying the loader of the family
/// named \p Name first when non-empty, then every loader. Blobs are
/// self-describing, so a loader only accepts its own format. Returns null
/// when no loader accepts \p Text.
std::unique_ptr<Classifier>
deserializeClassifier(const std::string &Text,
                      const std::string &Name = "");

/// Parses an embedded Normalizer::serialize() block starting at
/// \p Lines[Index] and, on success, advances \p Index past it — the
/// shared piece of every classifier's deserialize(). std::nullopt (with
/// \p Index untouched) on a malformed block.
std::optional<Normalizer>
parseNormalizerBlock(const std::vector<std::string> &Lines, size_t &Index);

} // namespace metaopt

#endif // METAOPT_CORE_ML_CLASSIFIER_H
