//===- core/ml/Mlp.cpp ----------------------------------------------------===//

#include "core/ml/Mlp.h"

#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace metaopt;

MlpClassifier::MlpClassifier(FeatureSet FeaturesIn, MlpOptions OptionsIn)
    : Features(std::move(FeaturesIn)), Options(std::move(OptionsIn)) {
  assert(!Features.empty() && "feature set must not be empty");
  assert(!Options.HiddenSizes.empty() && Options.HiddenSizes.size() <= 2 &&
         "1 or 2 hidden layers");
  assert(Options.BatchSize >= 1 && "degenerate batch size");
}

std::string MlpClassifier::name() const { return "mlp"; }

namespace {

/// Parses an unsigned 64-bit decimal with no trailing garbage (seeds can
/// exceed int64, so parseInt() is not enough).
std::optional<uint64_t> parseU64(const std::string &Str) {
  if (Str.empty() || Str[0] == '-')
    return std::nullopt;
  char *End = nullptr;
  errno = 0;
  uint64_t Value = std::strtoull(Str.c_str(), &End, 10);
  if (errno != 0 || End != Str.c_str() + Str.size())
    return std::nullopt;
  return Value;
}

/// Parses a 64-bit hex word (the checksum line payload).
std::optional<uint64_t> parseHex64(const std::string &Str) {
  if (Str.empty())
    return std::nullopt;
  char *End = nullptr;
  errno = 0;
  uint64_t Value = std::strtoull(Str.c_str(), &End, 16);
  if (errno != 0 || End != Str.c_str() + Str.size())
    return std::nullopt;
  return Value;
}

void fail(std::string *Error, const char *Message) {
  if (Error)
    *Error = Message;
}

} // namespace

void MlpClassifier::initializeWeights() {
  // He-normal init sized by fan-in; one dedicated stream (index 0) so the
  // epoch shuffles (indices 1..Epochs) never perturb it.
  Rng Init = Rng::splitStream(Options.Seed, 0);
  std::vector<unsigned> Sizes;
  Sizes.push_back(static_cast<unsigned>(Norm.dimension()));
  for (unsigned Hidden : Options.HiddenSizes)
    Sizes.push_back(Hidden);
  Sizes.push_back(MaxUnrollFactor);

  Weights.clear();
  Biases.clear();
  for (size_t Layer = 0; Layer + 1 < Sizes.size(); ++Layer) {
    unsigned FanIn = Sizes[Layer];
    unsigned FanOut = Sizes[Layer + 1];
    double StdDev = std::sqrt(2.0 / FanIn);
    Matrix W(FanOut, FanIn);
    for (size_t Row = 0; Row < FanOut; ++Row)
      for (size_t Col = 0; Col < FanIn; ++Col)
        W.at(Row, Col) = Init.nextGaussian(0.0, StdDev);
    Weights.push_back(std::move(W));
    Biases.emplace_back(FanOut, 0.0);
  }
}

struct MlpClassifier::Workspace {
  /// Acts[L] is the input of layer L, Rows x fan-in: the batch itself for
  /// L = 0, the ReLU activations of layer L - 1 after that.
  std::vector<std::vector<double>> Acts;
  /// Rows x MaxUnrollFactor softmax probabilities.
  std::vector<double> Probs;
  /// dLoss/dZ of the layer being differentiated and of the one below it,
  /// Rows x the widest layer.
  std::vector<double> Delta, Upstream;
  /// Gradients in the shapes of Weights and Biases.
  std::vector<std::vector<double>> WeightGrads, BiasGrads;

  Workspace(const std::vector<Matrix> &Weights, size_t Capacity,
            bool WithGradients) {
    size_t Widest = 0;
    for (const Matrix &W : Weights) {
      Acts.emplace_back(Capacity * W.cols());
      Widest = std::max({Widest, W.rows(), W.cols()});
    }
    Probs.resize(Capacity * MaxUnrollFactor);
    if (!WithGradients)
      return;
    Delta.resize(Capacity * Widest);
    Upstream.resize(Capacity * Widest);
    for (const Matrix &W : Weights) {
      WeightGrads.emplace_back(W.rows() * W.cols());
      BiasGrads.emplace_back(W.rows());
    }
  }
};

namespace {

/// One Rows x Cols tile of product(), its sums held in registers.
template <size_t Rows, size_t Cols>
void productTile(const double *A, size_t AI, size_t AT, const double *B,
                 size_t BT, size_t BK, size_t Depth, double *Out,
                 size_t OutStride) {
  double Sum[Rows][Cols] = {};
  for (size_t T = 0; T < Depth; ++T) {
    double BValue[Cols];
    for (size_t K = 0; K < Cols; ++K)
      BValue[K] = B[T * BT + K * BK];
    for (size_t I = 0; I < Rows; ++I) {
      double AValue = A[I * AI + T * AT];
      for (size_t K = 0; K < Cols; ++K)
        Sum[I][K] += AValue * BValue[K];
    }
  }
  for (size_t I = 0; I < Rows; ++I)
    for (size_t K = 0; K < Cols; ++K)
      Out[I * OutStride + K] = Sum[I][K];
}

/// \p Rows rows of product(), in tiles of 4, 2 and 1 columns.
template <size_t Rows>
void productRows(const double *A, size_t AI, size_t AT, const double *B,
                 size_t BT, size_t BK, size_t Cols, size_t Depth,
                 double *Out) {
  size_t K = 0;
  for (; K + 4 <= Cols; K += 4)
    productTile<Rows, 4>(A, AI, AT, B + K * BK, BT, BK, Depth, Out + K, Cols);
  if (K + 2 <= Cols) {
    productTile<Rows, 2>(A, AI, AT, B + K * BK, BT, BK, Depth, Out + K, Cols);
    K += 2;
  }
  if (K < Cols)
    productTile<Rows, 1>(A, AI, AT, B + K * BK, BT, BK, Depth, Out + K, Cols);
}

/// Out[I][K] (Rows x Cols, row-major) = the sum over T < Depth of
/// A[I * AI + T * AT] * B[T * BT + K * BK]: one sum per entry, from +0.0,
/// one multiply and one add per T in increasing T; the strides pick which
/// of the MLP's three products (X Wᵀ forward, Δᵀ X for the weight
/// gradient, Δ W for the upstream delta) this is. 2 x 4 tiles keep eight
/// independent sums in registers.
///
/// The sums are dense, where the Matrix::multiply this replaced skipped
/// every term whose left factor was ±0. For finite values the bits are the
/// same: every accumulator starts at +0.0, and in round-to-nearest a sum
/// is −0 only when both addends are −0, so an accumulator is never −0,
/// and adding the ±0 that a skipped term would give leaves it unchanged.
void product(const double *A, size_t AI, size_t AT, const double *B,
             size_t BT, size_t BK, size_t Rows, size_t Cols, size_t Depth,
             double *Out) {
  for (size_t I = 0; I < Rows; I += 2) {
    if (I + 2 <= Rows)
      productRows<2>(A + I * AI, AI, AT, B, BT, BK, Cols, Depth,
                     Out + I * Cols);
    else
      productRows<1>(A + I * AI, AI, AT, B, BT, BK, Cols, Depth,
                     Out + I * Cols);
  }
}

} // namespace

void MlpClassifier::forward(Workspace &Ws, size_t Rows) const {
  for (size_t Layer = 0; Layer < Weights.size(); ++Layer) {
    bool IsLast = Layer + 1 == Weights.size();
    size_t FanIn = Weights[Layer].cols(), FanOut = Weights[Layer].rows();
    double *Z = IsLast ? Ws.Probs.data() : Ws.Acts[Layer + 1].data();
    // Z = X Wᵀ: entry (row, out) sums X[row][k] * W[out][k] over k.
    product(Ws.Acts[Layer].data(), FanIn, 1, Weights[Layer].rowPtr(0), 1,
            FanIn, Rows, FanOut, FanIn, Z);
    const double *Bias = Biases[Layer].data();
    for (size_t Row = 0; Row < Rows; ++Row) {
      double *RowPtr = Z + Row * FanOut;
      for (size_t Col = 0; Col < FanOut; ++Col)
        RowPtr[Col] += Bias[Col];
      if (!IsLast) {
        for (size_t Col = 0; Col < FanOut; ++Col)
          RowPtr[Col] = std::max(0.0, RowPtr[Col]);
        continue;
      }
      // Row-wise stable softmax.
      double Max = RowPtr[0];
      for (size_t Col = 1; Col < FanOut; ++Col)
        Max = std::max(Max, RowPtr[Col]);
      double Sum = 0.0;
      for (size_t Col = 0; Col < FanOut; ++Col) {
        RowPtr[Col] = std::exp(RowPtr[Col] - Max);
        Sum += RowPtr[Col];
      }
      for (size_t Col = 0; Col < FanOut; ++Col)
        RowPtr[Col] /= Sum;
    }
  }
}

void MlpClassifier::backward(Workspace &Ws, size_t Rows,
                             const unsigned *Labels) const {
  // dLoss/dZ for the softmax layer is (P - onehot) / batch.
  double *Delta = Ws.Delta.data();
  std::copy_n(Ws.Probs.data(), Rows * MaxUnrollFactor, Delta);
  for (size_t Row = 0; Row < Rows; ++Row) {
    double *RowPtr = Delta + Row * MaxUnrollFactor;
    RowPtr[Labels[Row] - 1] -= 1.0;
    for (size_t Col = 0; Col < MaxUnrollFactor; ++Col)
      RowPtr[Col] /= Rows;
  }
  for (size_t Layer = Weights.size(); Layer-- > 0;) {
    const Matrix &W = Weights[Layer];
    size_t FanIn = W.cols(), FanOut = W.rows();
    const double *In = Ws.Acts[Layer].data();
    // Weight gradient Δᵀ X, entry (out, k) summing Δ[row][out] *
    // X[row][k] over rows, plus the decay term.
    double *Grad = Ws.WeightGrads[Layer].data();
    product(Delta, 1, FanOut, In, FanIn, 1, FanOut, FanIn, Rows, Grad);
    for (size_t Out = 0; Out < FanOut; ++Out) {
      double *GradRow = Grad + Out * FanIn;
      const double *WRow = W.rowPtr(Out);
      for (size_t Col = 0; Col < FanIn; ++Col)
        GradRow[Col] += Options.WeightDecay * WRow[Col];
    }
    double *BiasGrad = Ws.BiasGrads[Layer].data();
    std::fill_n(BiasGrad, FanOut, 0.0);
    for (size_t Row = 0; Row < Rows; ++Row) {
      const double *RowPtr = Delta + Row * FanOut;
      for (size_t Col = 0; Col < FanOut; ++Col)
        BiasGrad[Col] += RowPtr[Col];
    }
    if (Layer == 0)
      break;
    // Propagate through the weights (Δ W, entry (row, k) summing
    // Δ[row][out] * W[out][k] over outputs), then gate by the ReLU mask
    // of this layer's input (In > 0 iff the previous layer's Z was > 0).
    double *Up = Ws.Upstream.data();
    product(Delta, FanOut, 1, W.rowPtr(0), FanIn, 1, Rows, FanIn, FanOut, Up);
    for (size_t I = 0; I < Rows * FanIn; ++I)
      if (In[I] <= 0.0)
        Up[I] = 0.0;
    std::swap(Ws.Delta, Ws.Upstream);
    Delta = Ws.Delta.data();
  }
}

MlpClassifier::Workspace
MlpClassifier::fullBatch(const Dataset &Data, std::vector<unsigned> &Labels,
                         bool WithGradients) const {
  assert(!Data.empty() && "the loss needs at least one example");
  Workspace Ws(Weights, Data.size(), WithGradients);
  Labels.clear();
  double *Row = Ws.Acts[0].data();
  for (const Example &Ex : Data.examples()) {
    std::vector<double> Point = Norm.apply(Ex.Features);
    Row = std::copy(Point.begin(), Point.end(), Row);
    Labels.push_back(Ex.Label);
  }
  return Ws;
}

void MlpClassifier::train(const Dataset &Train) {
  assert(!Train.empty() && "cannot train on an empty dataset");
  Norm.fit(Train.featureMatrix(), Features);
  initializeWeights();

  size_t Dim = Norm.dimension();
  Matrix Points(Train.size(), Dim);
  std::vector<unsigned> Labels;
  Labels.reserve(Train.size());
  for (size_t I = 0; I < Train.size(); ++I) {
    std::vector<double> Point = Norm.apply(Train[I].Features);
    std::copy(Point.begin(), Point.end(), Points.rowPtr(I));
    Labels.push_back(Train[I].Label);
  }

  size_t BatchSize = std::min<size_t>(Options.BatchSize, Train.size());
  Workspace Ws(Weights, BatchSize, /*WithGradients=*/true);
  std::vector<unsigned> BatchLabels(BatchSize);
  size_t NumParams = 0;
  for (size_t Layer = 0; Layer < Weights.size(); ++Layer)
    NumParams += Ws.WeightGrads[Layer].size() + Ws.BiasGrads[Layer].size();
  std::vector<double> FirstMoment(NumParams, 0.0);
  std::vector<double> SecondMoment(NumParams, 0.0);
  uint64_t Step = 0;

  std::vector<uint32_t> Order(Train.size());
  for (uint32_t I = 0; I < Order.size(); ++I)
    Order[I] = I;

  for (unsigned Epoch = 0; Epoch < Options.Epochs; ++Epoch) {
    // One decorrelated stream per epoch keyed by the stable epoch index:
    // the visit order never depends on thread count or prior epochs.
    Rng Shuffler = Rng::splitStream(Options.Seed, 1 + Epoch);
    Shuffler.shuffle(Order);
    for (size_t Begin = 0; Begin < Order.size(); Begin += BatchSize) {
      size_t Rows = std::min(Order.size() - Begin, BatchSize);
      double *BatchRow = Ws.Acts[0].data();
      for (size_t I = 0; I < Rows; ++I) {
        const double *Point = Points.rowPtr(Order[Begin + I]);
        BatchRow = std::copy(Point, Point + Dim, BatchRow);
        BatchLabels[I] = Labels[Order[Begin + I]];
      }
      forward(Ws, Rows);
      backward(Ws, Rows, BatchLabels.data());

      // One Adam step with bias correction, in place, with the moments
      // laid out in parameters() order.
      ++Step;
      double Correction1 = 1.0 - std::pow(Options.Beta1, double(Step));
      double Correction2 = 1.0 - std::pow(Options.Beta2, double(Step));
      double *M = FirstMoment.data();
      double *V = SecondMoment.data();
      auto adamStep = [&](double *Params, const std::vector<double> &Grads) {
        for (size_t I = 0; I < Grads.size(); ++I) {
          double Gradient = Grads[I];
          M[I] = Options.Beta1 * M[I] + (1.0 - Options.Beta1) * Gradient;
          V[I] = Options.Beta2 * V[I] +
                 (1.0 - Options.Beta2) * Gradient * Gradient;
          double MHat = M[I] / Correction1;
          double VHat = V[I] / Correction2;
          Params[I] -=
              Options.LearningRate * MHat / (std::sqrt(VHat) + Options.Epsilon);
        }
        M += Grads.size();
        V += Grads.size();
      };
      for (size_t Layer = 0; Layer < Weights.size(); ++Layer) {
        adamStep(Weights[Layer].rowPtr(0), Ws.WeightGrads[Layer]);
        adamStep(Biases[Layer].data(), Ws.BiasGrads[Layer]);
      }
    }
  }
}

std::array<double, MaxUnrollFactor>
MlpClassifier::scores(const FeatureVector &FeaturesIn) const {
  assert(!Weights.empty() && "classifier queried before training");
  Workspace Ws(Weights, 1, /*WithGradients=*/false);
  std::vector<double> Query = Norm.apply(FeaturesIn);
  std::copy(Query.begin(), Query.end(), Ws.Acts[0].begin());
  forward(Ws, 1);
  std::array<double, MaxUnrollFactor> Scores = {};
  std::copy_n(Ws.Probs.begin(), MaxUnrollFactor, Scores.begin());
  return Scores;
}

unsigned MlpClassifier::predict(const FeatureVector &FeaturesIn) const {
  std::array<double, MaxUnrollFactor> Scores = scores(FeaturesIn);
  // Strict comparison: ties resolve to the lowest (safest) factor.
  unsigned Best = 0;
  for (unsigned Class = 1; Class < MaxUnrollFactor; ++Class)
    if (Scores[Class] > Scores[Best])
      Best = Class;
  return Best + 1;
}

std::vector<double> MlpClassifier::parameters() const {
  assert(!Weights.empty() && "parameters() requires initialized weights");
  std::vector<double> Flat;
  for (size_t Layer = 0; Layer < Weights.size(); ++Layer) {
    const Matrix &W = Weights[Layer];
    for (size_t Row = 0; Row < W.rows(); ++Row) {
      const double *RowPtr = W.rowPtr(Row);
      Flat.insert(Flat.end(), RowPtr, RowPtr + W.cols());
    }
    Flat.insert(Flat.end(), Biases[Layer].begin(), Biases[Layer].end());
  }
  return Flat;
}

void MlpClassifier::setParameters(const std::vector<double> &Flat) {
  size_t Offset = 0;
  for (size_t Layer = 0; Layer < Weights.size(); ++Layer) {
    Matrix &W = Weights[Layer];
    for (size_t Row = 0; Row < W.rows(); ++Row) {
      assert(Offset + W.cols() <= Flat.size() && "parameter vector too short");
      std::copy(Flat.begin() + Offset, Flat.begin() + Offset + W.cols(),
                W.rowPtr(Row));
      Offset += W.cols();
    }
    assert(Offset + Biases[Layer].size() <= Flat.size());
    std::copy(Flat.begin() + Offset,
              Flat.begin() + Offset + Biases[Layer].size(),
              Biases[Layer].begin());
    Offset += Biases[Layer].size();
  }
  assert(Offset == Flat.size() && "parameter vector size mismatch");
}

double MlpClassifier::lossOn(const Dataset &Data) const {
  assert(!Weights.empty() && "lossOn() requires initialized weights");
  std::vector<unsigned> Labels;
  Workspace Ws = fullBatch(Data, Labels, /*WithGradients=*/false);
  size_t Rows = Labels.size();
  forward(Ws, Rows);
  double Loss = 0.0;
  for (size_t Row = 0; Row < Rows; ++Row)
    Loss -= std::log(std::max(
        Ws.Probs[Row * MaxUnrollFactor + Labels[Row] - 1], 1e-300));
  Loss /= Rows;
  for (const Matrix &W : Weights) {
    double SumSquares = 0.0;
    for (size_t Row = 0; Row < W.rows(); ++Row) {
      const double *RowPtr = W.rowPtr(Row);
      for (size_t Col = 0; Col < W.cols(); ++Col)
        SumSquares += RowPtr[Col] * RowPtr[Col];
    }
    Loss += 0.5 * Options.WeightDecay * SumSquares;
  }
  return Loss;
}

std::vector<double> MlpClassifier::lossGradient(const Dataset &Data) const {
  assert(!Weights.empty() && "lossGradient() requires initialized weights");
  std::vector<unsigned> Labels;
  Workspace Ws = fullBatch(Data, Labels, /*WithGradients=*/true);
  forward(Ws, Labels.size());
  backward(Ws, Labels.size(), Labels.data());
  std::vector<double> Flat;
  for (size_t Layer = 0; Layer < Weights.size(); ++Layer) {
    Flat.insert(Flat.end(), Ws.WeightGrads[Layer].begin(),
                Ws.WeightGrads[Layer].end());
    Flat.insert(Flat.end(), Ws.BiasGrads[Layer].begin(),
                Ws.BiasGrads[Layer].end());
  }
  return Flat;
}

std::string MlpClassifier::serialize() const {
  assert(!Weights.empty() && "serialize() requires a trained classifier");
  char Buffer[256];
  std::string Out = "mlp-model 1\n";
  std::snprintf(Buffer, sizeof(Buffer),
                "options %u %u %.17g %.17g %.17g %.17g %.17g %llu\n",
                Options.Epochs, Options.BatchSize, Options.LearningRate,
                Options.Beta1, Options.Beta2, Options.Epsilon,
                Options.WeightDecay,
                static_cast<unsigned long long>(Options.Seed));
  Out += Buffer;
  Out += Norm.serialize();
  Out += "layers " + std::to_string(Weights.size()) + "\n";
  for (size_t Layer = 0; Layer < Weights.size(); ++Layer) {
    const Matrix &W = Weights[Layer];
    Out += "layer " + std::to_string(Layer) + " " + std::to_string(W.rows()) +
           " " + std::to_string(W.cols()) + "\n";
    for (size_t Row = 0; Row < W.rows(); ++Row) {
      const double *RowPtr = W.rowPtr(Row);
      for (size_t Col = 0; Col < W.cols(); ++Col) {
        std::snprintf(Buffer, sizeof(Buffer), "%s%.17g",
                      Col == 0 ? "" : " ", RowPtr[Col]);
        Out += Buffer;
      }
      Out += "\n";
    }
    Out += "bias";
    for (double Bias : Biases[Layer]) {
      std::snprintf(Buffer, sizeof(Buffer), " %.17g", Bias);
      Out += Buffer;
    }
    Out += "\n";
  }
  // The checksum covers every preceding byte, so truncation or a flipped
  // digit anywhere above is caught at load time.
  std::snprintf(Buffer, sizeof(Buffer), "checksum %016llx\n",
                static_cast<unsigned long long>(Rng::hashString(Out)));
  Out += Buffer;
  return Out;
}

std::optional<MlpClassifier>
MlpClassifier::deserialize(const std::string &Text, std::string *Error) {
  size_t ChecksumPos = Text.rfind("\nchecksum ");
  if (ChecksumPos == std::string::npos) {
    fail(Error, "mlp: missing checksum line (truncated model?)");
    return std::nullopt;
  }
  std::string Body = Text.substr(0, ChecksumPos + 1);
  std::vector<std::string> TailParts =
      splitWhitespace(Text.substr(ChecksumPos + 1));
  std::optional<uint64_t> Stored =
      TailParts.size() == 2 ? parseHex64(TailParts[1]) : std::nullopt;
  if (!Stored) {
    fail(Error, "mlp: malformed checksum line");
    return std::nullopt;
  }
  if (*Stored != Rng::hashString(Body)) {
    fail(Error, "mlp: checksum mismatch (corrupt or tampered model)");
    return std::nullopt;
  }

  std::vector<std::string> Lines = split(Body, '\n');
  if (Lines.size() < 4 || trim(Lines[0]) != "mlp-model 1") {
    fail(Error, "mlp: unrecognized header");
    return std::nullopt;
  }
  std::vector<std::string> Opts = splitWhitespace(Lines[1]);
  if (Opts.size() != 9 || Opts[0] != "options") {
    fail(Error, "mlp: malformed options line");
    return std::nullopt;
  }
  auto Epochs = parseInt(Opts[1]);
  auto BatchSize = parseInt(Opts[2]);
  auto LearningRate = parseDouble(Opts[3]);
  auto Beta1 = parseDouble(Opts[4]);
  auto Beta2 = parseDouble(Opts[5]);
  auto Epsilon = parseDouble(Opts[6]);
  auto WeightDecay = parseDouble(Opts[7]);
  auto Seed = parseU64(Opts[8]);
  if (!Epochs || !BatchSize || !LearningRate || !Beta1 || !Beta2 ||
      !Epsilon || !WeightDecay || !Seed || *Epochs < 0 || *BatchSize < 1) {
    fail(Error, "mlp: malformed options line");
    return std::nullopt;
  }

  size_t Index = 2;
  std::optional<Normalizer> Norm = parseNormalizerBlock(Lines, Index);
  if (!Norm) {
    fail(Error, "mlp: malformed normalizer block");
    return std::nullopt;
  }
  if (Lines.size() <= Index) {
    fail(Error, "mlp: truncated model (missing layers header)");
    return std::nullopt;
  }
  std::vector<std::string> LayersHeader = splitWhitespace(Lines[Index]);
  ++Index;
  if (LayersHeader.size() != 2 || LayersHeader[0] != "layers") {
    fail(Error, "mlp: malformed layers header");
    return std::nullopt;
  }
  auto NumLayers = parseInt(LayersHeader[1]);
  // 1-2 hidden layers plus the softmax layer.
  if (!NumLayers || *NumLayers < 2 || *NumLayers > 3) {
    fail(Error, "mlp: bad layer count");
    return std::nullopt;
  }

  std::vector<Matrix> Weights;
  std::vector<std::vector<double>> Biases;
  size_t PreviousOut = Norm->dimension();
  for (int64_t Layer = 0; Layer < *NumLayers; ++Layer) {
    if (Lines.size() <= Index) {
      fail(Error, "mlp: truncated model (missing layer header)");
      return std::nullopt;
    }
    std::vector<std::string> Shape = splitWhitespace(Lines[Index]);
    ++Index;
    if (Shape.size() != 4 || Shape[0] != "layer") {
      fail(Error, "mlp: malformed layer header");
      return std::nullopt;
    }
    auto LayerIndex = parseInt(Shape[1]);
    auto FanOut = parseInt(Shape[2]);
    auto FanIn = parseInt(Shape[3]);
    if (!LayerIndex || !FanOut || !FanIn || *LayerIndex != Layer) {
      fail(Error, "mlp: malformed layer header");
      return std::nullopt;
    }
    bool IsLast = Layer + 1 == *NumLayers;
    if (*FanIn < 1 || *FanOut < 1 ||
        static_cast<size_t>(*FanIn) != PreviousOut ||
        (IsLast &&
         *FanOut != static_cast<int64_t>(MaxUnrollFactor))) {
      fail(Error, "mlp: bad layer shape");
      return std::nullopt;
    }
    Matrix W(static_cast<size_t>(*FanOut), static_cast<size_t>(*FanIn));
    for (int64_t Row = 0; Row < *FanOut; ++Row) {
      if (Lines.size() <= Index) {
        fail(Error, "mlp: truncated model (missing weight row)");
        return std::nullopt;
      }
      std::vector<std::string> Values = splitWhitespace(Lines[Index]);
      ++Index;
      if (Values.size() != static_cast<size_t>(*FanIn)) {
        fail(Error, "mlp: bad layer shape (weight row width)");
        return std::nullopt;
      }
      for (int64_t Col = 0; Col < *FanIn; ++Col) {
        auto Value = parseDouble(Values[Col]);
        if (!Value) {
          fail(Error, "mlp: malformed weight value");
          return std::nullopt;
        }
        W.at(static_cast<size_t>(Row), static_cast<size_t>(Col)) = *Value;
      }
    }
    if (Lines.size() <= Index) {
      fail(Error, "mlp: truncated model (missing bias line)");
      return std::nullopt;
    }
    std::vector<std::string> BiasParts = splitWhitespace(Lines[Index]);
    ++Index;
    if (BiasParts.size() != static_cast<size_t>(*FanOut) + 1 ||
        BiasParts[0] != "bias") {
      fail(Error, "mlp: bad layer shape (bias width)");
      return std::nullopt;
    }
    std::vector<double> Bias;
    for (size_t I = 1; I < BiasParts.size(); ++I) {
      auto Value = parseDouble(BiasParts[I]);
      if (!Value) {
        fail(Error, "mlp: malformed bias value");
        return std::nullopt;
      }
      Bias.push_back(*Value);
    }
    PreviousOut = static_cast<size_t>(*FanOut);
    Weights.push_back(std::move(W));
    Biases.push_back(std::move(Bias));
  }

  MlpOptions Options;
  Options.HiddenSizes.clear();
  for (size_t Layer = 0; Layer + 1 < Weights.size(); ++Layer)
    Options.HiddenSizes.push_back(static_cast<unsigned>(Weights[Layer].rows()));
  Options.Epochs = static_cast<unsigned>(*Epochs);
  Options.BatchSize = static_cast<unsigned>(*BatchSize);
  Options.LearningRate = *LearningRate;
  Options.Beta1 = *Beta1;
  Options.Beta2 = *Beta2;
  Options.Epsilon = *Epsilon;
  Options.WeightDecay = *WeightDecay;
  Options.Seed = *Seed;

  MlpClassifier Result(Norm->featureSet(), Options);
  Result.Norm = std::move(*Norm);
  Result.Weights = std::move(Weights);
  Result.Biases = std::move(Biases);
  return Result;
}
