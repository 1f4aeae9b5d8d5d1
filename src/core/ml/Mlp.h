//===- core/ml/Mlp.h - Multi-layer perceptron classifier --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fully-connected network over the normalized feature vectors:
/// 1-2 ReLU hidden layers and a softmax over the MaxUnrollFactor classes,
/// trained by minibatch Adam on the cross-entropy loss with L2 weight
/// decay. The modern baseline the ROADMAP's model-zoo item asks for
/// (Balamane/Taklit/Baghdadi's DNN unroll-factor estimator, PAPERS.md).
///
/// Training is deliberately serial and seeded: weight init and the
/// per-epoch example shuffle each draw from Rng::splitStream(Seed, ...),
/// so two trainings from the same seed produce byte-identical serialized
/// models at any --threads setting. One forward/backward pass over flat
/// per-fit buffers serves training, the loss and gradient surface and
/// scores().
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_MLP_H
#define METAOPT_CORE_ML_MLP_H

#include "core/ml/Classifier.h"
#include "linalg/Matrix.h"

#include <cstdint>
#include <optional>

namespace metaopt {

/// Architecture and optimizer settings. The defaults are sized for the
/// ~1000-loop labeled corpus: one hidden layer keeps a full LOOCV sweep
/// (N retrainings) tractable while clearing the near-neighbor baseline.
struct MlpOptions {
  /// Hidden layer widths, input to output order; 1 or 2 entries.
  std::vector<unsigned> HiddenSizes = {24};
  /// Adam epochs. 0 still fits the normalizer and initializes weights
  /// (the gradient-check tests rely on that).
  unsigned Epochs = 60;
  unsigned BatchSize = 32;
  double LearningRate = 5e-3;
  double Beta1 = 0.9;
  double Beta2 = 0.999;
  double Epsilon = 1e-8;
  /// L2 penalty on weights (not biases).
  double WeightDecay = 1e-4;
  /// Base seed for init and shuffling; fixed default so train() is
  /// deterministic out of the box.
  uint64_t Seed = 0x2005c60;
};

/// Feed-forward softmax classifier over the (normalized) feature subset.
class MlpClassifier : public Classifier {
public:
  explicit MlpClassifier(FeatureSet Features, MlpOptions Options = {});

  std::string name() const override;
  void train(const Dataset &Train) override;
  unsigned predict(const FeatureVector &Features) const override;
  std::array<double, MaxUnrollFactor>
  scores(const FeatureVector &Features) const override;

  /// Serializes options, normalizer, and every layer's weights/biases
  /// bit-exactly (%.17g), with a trailing FNV-1a checksum line so a
  /// truncated or tampered blob is rejected on load.
  std::string serialize() const override;

  /// Restores a serialized model. On failure returns std::nullopt and,
  /// when \p Error is non-null, stores a one-line diagnostic (truncation,
  /// checksum mismatch, bad layer shape, ...).
  static std::optional<MlpClassifier>
  deserialize(const std::string &Text, std::string *Error = nullptr);

  //===--------------------------------------------------------------------===//
  // Test surface (finite-difference gradient checks in tests/mlp_test.cpp)
  //===--------------------------------------------------------------------===//

  /// All weights and biases flattened layer by layer (weights row-major,
  /// then biases). Must only be called after train().
  std::vector<double> parameters() const;

  /// Overwrites the flattened parameters; size must match parameters().
  void setParameters(const std::vector<double> &Flat);

  /// Mean cross-entropy + L2 penalty over \p Data (the exact training
  /// objective, full batch).
  double lossOn(const Dataset &Data) const;

  /// Analytic gradient of lossOn() w.r.t. parameters(), same layout.
  std::vector<double> lossGradient(const Dataset &Data) const;

  /// Number of weight layers (hidden layers + output layer).
  size_t numLayers() const { return Weights.size(); }

private:
  /// Flat scratch for one pass over a batch of up to a fixed number of
  /// rows: each layer's input, the softmax probabilities and, for a
  /// backward pass, the deltas and every layer's gradients. Defined in
  /// Mlp.cpp; train() allocates one per fit.
  struct Workspace;

  /// The normalized examples of \p Data as one full batch, with their
  /// labels in \p Labels.
  Workspace fullBatch(const Dataset &Data, std::vector<unsigned> &Labels,
                      bool WithGradients) const;

  /// Forward pass over the first \p Rows rows of the workspace's batch:
  /// every hidden layer's ReLU activations, then the softmax.
  void forward(Workspace &Ws, size_t Rows) const;

  /// Backward pass after forward(): the gradient of the mean
  /// cross-entropy plus the L2 penalty, for every layer.
  void backward(Workspace &Ws, size_t Rows, const unsigned *Labels) const;

  void initializeWeights();

  FeatureSet Features;
  MlpOptions Options;
  Normalizer Norm;
  /// Weights[l] is (fan-out x fan-in); Biases[l] has fan-out entries.
  std::vector<Matrix> Weights;
  std::vector<std::vector<double>> Biases;
};

} // namespace metaopt

#endif // METAOPT_CORE_ML_MLP_H
