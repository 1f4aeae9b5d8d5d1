//===- core/ml/Classifier.cpp ---------------------------------------------===//

#include "core/ml/Classifier.h"

#include "core/ml/CrossValidation.h"
#include "core/ml/DecisionTree.h"
#include "core/ml/Forest.h"
#include "core/ml/Lsh.h"
#include "core/ml/Mlp.h"
#include "core/ml/NearNeighbor.h"
#include "core/ml/OutputCode.h"
#include "core/ml/Regression.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace metaopt;

Classifier::~Classifier() = default;

std::array<double, MaxUnrollFactor>
Classifier::scores(const FeatureVector &Features) const {
  std::array<double, MaxUnrollFactor> Scores = {};
  Scores[predict(Features) - 1] = 1.0;
  return Scores;
}

double Classifier::accuracyOn(const Dataset &Data) const {
  if (Data.empty())
    return 0.0;
  size_t Correct = 0;
  for (const Example &Ex : Data.examples())
    if (predict(Ex.Features) == Ex.Label)
      ++Correct;
  return static_cast<double>(Correct) / Data.size();
}

//===----------------------------------------------------------------------===//
// Classifier families
//===----------------------------------------------------------------------===//

namespace {

template <typename T>
std::unique_ptr<Classifier> make(const FeatureSet &Features) {
  return std::make_unique<T>(Features);
}

std::unique_ptr<Classifier> makeSvmEcoc(const FeatureSet &Features) {
  SvmOptions Options;
  Options.CodeKind = SvmOptions::Code::RandomEcoc;
  return std::make_unique<SvmClassifier>(Features, Options);
}

/// Closed-form LOOCV through the family's own loocvPredictions overload.
template <typename T, auto MakeFn>
std::vector<unsigned> closedFormLoocv(const FeatureSet &Features,
                                      const Dataset &Data) {
  std::unique_ptr<Classifier> Model = MakeFn(Features);
  return loocvPredictions(static_cast<T &>(*Model), Data);
}

template <auto MakeFn>
std::vector<unsigned> bruteForce(const FeatureSet &Features,
                                 const Dataset &Data) {
  return bruteForceLoocv(MakeFn, Features, Data);
}

/// Kernel ridge regression: exact leave-one-out values, rounded and
/// clamped to factors like predict().
std::vector<unsigned> roundedRegressionLoocv(const FeatureSet &Features,
                                             const Dataset &Data) {
  KrrUnrollRegressor Krr(Features);
  Krr.train(Data);
  std::vector<unsigned> Predictions;
  for (double Value : Krr.looValues())
    Predictions.push_back(static_cast<unsigned>(
        std::clamp<long>(std::lround(Value), 1, MaxUnrollFactor)));
  return Predictions;
}

template <typename T>
std::unique_ptr<Classifier> load(const std::string &Text) {
  if (auto Model = T::deserialize(Text))
    return std::make_unique<T>(std::move(*Model));
  return nullptr;
}

const ClassifierFamily Families[] = {
    {"near-neighbor", "nn", "near-neighbor (paper)",
     make<NearNeighborClassifier>,
     closedFormLoocv<NearNeighborClassifier, make<NearNeighborClassifier>>,
     load<NearNeighborClassifier>},
    {"svm", nullptr, "LS-SVM one-vs-rest (paper)", make<SvmClassifier>,
     closedFormLoocv<SvmClassifier, make<SvmClassifier>>,
     load<SvmClassifier>},
    // The SVM loader restores ECOC blobs too (the code kind is part of
    // the format), but only one-vs-rest is published.
    {"svm-ecoc", nullptr, "LS-SVM random ECOC", makeSvmEcoc,
     closedFormLoocv<SvmClassifier, makeSvmEcoc>, nullptr},
    {"decision-tree", nullptr, "decision tree (CART)",
     make<DecisionTreeClassifier>, bruteForce<make<DecisionTreeClassifier>>,
     load<DecisionTreeClassifier>},
    {"lsh-nn", nullptr, "LSH approximate NN",
     make<LshNearNeighborClassifier>,
     bruteForce<make<LshNearNeighborClassifier>>, nullptr},
    {"krr-regression", nullptr, "kernel ridge regression (Sec. 8)",
     make<KrrUnrollRegressor>, roundedRegressionLoocv, nullptr},
    {"mlp", nullptr, "MLP (model zoo)", make<MlpClassifier>,
     bruteForce<make<MlpClassifier>>, load<MlpClassifier>},
    {"random-forest", nullptr, "random forest (model zoo)",
     make<RandomForestClassifier>, bruteForce<make<RandomForestClassifier>>,
     load<RandomForestClassifier>},
};

} // namespace

std::span<const ClassifierFamily> metaopt::classifierFamilies() {
  return Families;
}

const ClassifierFamily *
metaopt::findClassifierFamily(const std::string &Name) {
  for (const ClassifierFamily &Family : Families)
    if (Name == Family.Name || (Family.Alias && Name == Family.Alias))
      return &Family;
  return nullptr;
}

std::string
metaopt::servableClassifierSpellings(const std::string &Separator) {
  std::string Joined;
  for (const ClassifierFamily &Family : Families)
    if (Family.servable())
      Joined += (Joined.empty() ? "" : Separator) + Family.spelling();
  return Joined;
}

std::unique_ptr<Classifier>
metaopt::deserializeClassifier(const std::string &Text,
                               const std::string &Name) {
  if (const ClassifierFamily *Preferred = findClassifierFamily(Name))
    if (Preferred->Load)
      if (std::unique_ptr<Classifier> Loaded = Preferred->Load(Text))
        return Loaded;
  for (const ClassifierFamily &Family : Families)
    if (Family.Load)
      if (std::unique_ptr<Classifier> Loaded = Family.Load(Text))
        return Loaded;
  return nullptr;
}

std::optional<Normalizer>
metaopt::parseNormalizerBlock(const std::vector<std::string> &Lines,
                              size_t &Index) {
  if (Index >= Lines.size())
    return std::nullopt;
  std::vector<std::string> Header = splitWhitespace(Lines[Index]);
  if (Header.size() != 3 || Header[0] != "normalizer")
    return std::nullopt;
  auto Dims = parseInt(Header[2]);
  if (!Dims || *Dims < 1)
    return std::nullopt;
  size_t End = Index + 1 + static_cast<size_t>(*Dims);
  if (Lines.size() < End)
    return std::nullopt;
  std::string Block;
  for (size_t I = Index; I < End; ++I)
    Block += Lines[I] + "\n";
  std::optional<Normalizer> Norm = Normalizer::deserialize(Block);
  if (Norm)
    Index = End;
  return Norm;
}
