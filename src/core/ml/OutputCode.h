//===- core/ml/OutputCode.h - Multi-class via output codes ------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-class classification from binary LS-SVMs via output codes (§5.2):
/// each class gets a codeword, one binary classifier is trained per code
/// bit, and a query is assigned the class whose codeword is closest (in
/// Hamming distance) to the concatenated binary predictions. The paper
/// uses the identity code (one-vs-rest) "for simplicity"; error-correcting
/// random codes are available as the extension the paper mentions, and an
/// ablation bench compares them.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_OUTPUTCODE_H
#define METAOPT_CORE_ML_OUTPUTCODE_H

#include "core/ml/Classifier.h"
#include "core/ml/LsSvm.h"

#include <optional>

namespace metaopt {

/// Configuration of the output-code LS-SVM classifier.
struct SvmOptions {
  /// LS-SVM regularization (larger = fit the training data harder).
  double Gamma = 10.0;
  /// RBF width: sigma^2 = SigmaSquaredPerDim * dimension, so the default
  /// kernel sees normalized distances regardless of the subset size.
  double SigmaSquaredPerDim = 1.0;
  /// Codeword decoding: plain Hamming on prediction signs (the paper's
  /// description) or margin-weighted loss decoding.
  enum class Decoding { Hamming, Loss };
  Decoding Decode = Decoding::Hamming;
  /// Code matrix: identity (one-vs-rest) or random error-correcting bits.
  enum class Code { OneVsRest, RandomEcoc };
  Code CodeKind = Code::OneVsRest;
  /// Bits for RandomEcoc codes.
  unsigned EcocBits = 15;
  uint64_t EcocSeed = 1;
};

/// The paper's "SVM": binary LS-SVMs composed with output codes.
class SvmClassifier : public Classifier {
public:
  explicit SvmClassifier(FeatureSet Features, SvmOptions Options = {});

  std::string name() const override;
  /// Throws std::runtime_error when the kernel system has no Cholesky
  /// factor (a non-finite feature), leaving the classifier untrained.
  void train(const Dataset &Train) override;
  unsigned predict(const FeatureVector &Features) const override;

  /// Per-class codeword-agreement scores (the decoding objective the
  /// prediction maximizes), shifted so the best class scores 1.0.
  std::array<double, MaxUnrollFactor>
  scores(const FeatureVector &Features) const override;

  /// Exact leave-one-out predictions for every training example, using the
  /// closed-form LS-SVM LOO identity per binary subproblem. Only valid
  /// after train(); triggers a one-time O(n^3) inverse.
  std::vector<unsigned> loocvPredictions();

  const SvmOptions &options() const { return Options; }

  /// Serializes the trained machines (kernel width, code matrix,
  /// normalizer, support points, dual weights). deserialize() restores a
  /// predict-equivalent classifier; the leave-one-out fast path is not
  /// preserved (it needs the training factorization).
  std::string serialize() const override;
  static std::optional<SvmClassifier> deserialize(const std::string &Text);

private:
  std::array<double, MaxUnrollFactor>
  decodingScores(const std::vector<double> &Decisions) const;
  unsigned decode(const std::vector<double> &Decisions) const;

  FeatureSet Features;
  SvmOptions Options;
  Normalizer Norm;
  std::vector<std::vector<double>> Points;
  /// CodeMatrix[class][bit] in {-1, +1}.
  std::vector<std::vector<int>> CodeMatrix;
  /// Per-bit label vectors (cached for LOOCV) and trained machines.
  std::vector<std::vector<double>> BitLabels;
  std::vector<LsSvmBinary> Machines;
  std::optional<LsSvmSolver> Solver;
  std::optional<RbfKernel> Kernel;
};

} // namespace metaopt

#endif // METAOPT_CORE_ML_OUTPUTCODE_H
