//===- core/ml/OutputCode.cpp ---------------------------------------------===//

#include "core/ml/OutputCode.h"

#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cmath>
#include <stdexcept>

using namespace metaopt;

SvmClassifier::SvmClassifier(FeatureSet FeaturesIn, SvmOptions OptionsIn)
    : Features(std::move(FeaturesIn)), Options(OptionsIn) {
  assert(!Features.empty() && "feature set must not be empty");
}

std::string SvmClassifier::name() const {
  return Options.CodeKind == SvmOptions::Code::OneVsRest ? "svm"
                                                         : "svm-ecoc";
}

/// Builds the code matrix: identity (one-vs-rest) or random bits with
/// distinct rows and informative columns.
static std::vector<std::vector<int>> buildCodeMatrix(
    const SvmOptions &Options) {
  std::vector<std::vector<int>> Code(MaxUnrollFactor);
  if (Options.CodeKind == SvmOptions::Code::OneVsRest) {
    for (unsigned Class = 0; Class < MaxUnrollFactor; ++Class) {
      Code[Class].assign(MaxUnrollFactor, -1);
      Code[Class][Class] = 1;
    }
    return Code;
  }
  Rng Generator(Options.EcocSeed);
  for (;;) {
    for (unsigned Class = 0; Class < MaxUnrollFactor; ++Class) {
      Code[Class].assign(Options.EcocBits, -1);
      for (unsigned Bit = 0; Bit < Options.EcocBits; ++Bit)
        Code[Class][Bit] = Generator.nextBool(0.5) ? 1 : -1;
    }
    // Reject degenerate draws: identical rows or constant columns.
    bool Ok = true;
    for (unsigned A = 0; A < MaxUnrollFactor && Ok; ++A)
      for (unsigned B = A + 1; B < MaxUnrollFactor && Ok; ++B)
        if (Code[A] == Code[B])
          Ok = false;
    for (unsigned Bit = 0; Bit < Options.EcocBits && Ok; ++Bit) {
      int Sum = 0;
      for (unsigned Class = 0; Class < MaxUnrollFactor; ++Class)
        Sum += Code[Class][Bit];
      if (Sum == static_cast<int>(MaxUnrollFactor) ||
          Sum == -static_cast<int>(MaxUnrollFactor))
        Ok = false;
    }
    if (Ok)
      return Code;
  }
}

void SvmClassifier::train(const Dataset &Train) {
  assert(!Train.empty() && "cannot train on an empty dataset");
  Norm.fit(Train.featureMatrix(), Features);
  Points.clear();
  Points.reserve(Train.size());
  for (const Example &Ex : Train.examples())
    Points.push_back(Norm.apply(Ex.Features));

  CodeMatrix = buildCodeMatrix(Options);
  size_t NumBits = CodeMatrix[0].size();
  BitLabels.assign(NumBits, std::vector<double>(Train.size()));
  for (size_t I = 0; I < Train.size(); ++I) {
    unsigned Class = Train[I].Label - 1;
    for (size_t Bit = 0; Bit < NumBits; ++Bit)
      BitLabels[Bit][I] = CodeMatrix[Class][Bit];
  }

  // Every code bit's machine comes out of the factorization's one solve.
  Kernel.emplace(Options.SigmaSquaredPerDim *
                 static_cast<double>(Features.size()));
  Solver = LsSvmSolver::create(Points, *Kernel, Options.Gamma, BitLabels,
                               &Machines);
  if (!Solver) {
    // No machine of an earlier fit may outlive its points.
    Points.clear();
    Machines.clear();
    throw std::runtime_error(
        "svm: the kernel system is not positive definite (non-finite "
        "features?)");
  }
}

std::array<double, MaxUnrollFactor>
SvmClassifier::decodingScores(const std::vector<double> &Decisions) const {
  size_t NumBits = Decisions.size();
  std::array<double, MaxUnrollFactor> Scores = {};
  for (unsigned Class = 0; Class < MaxUnrollFactor; ++Class) {
    double Score = 0.0;
    for (size_t Bit = 0; Bit < NumBits; ++Bit) {
      double Target = CodeMatrix[Class][Bit];
      if (Options.Decode == SvmOptions::Decoding::Hamming) {
        // Matching signs score a point; margin breaks ties (scaled small
        // so it never overrides a Hamming difference).
        double Sign = Decisions[Bit] >= 0.0 ? 1.0 : -1.0;
        Score += (Sign == Target ? 1.0 : 0.0);
        Score += 1e-6 * Target * Decisions[Bit];
      } else {
        // Loss-based decoding: hinge-style margin agreement.
        Score -= std::max(0.0, 1.0 - Target * Decisions[Bit]);
      }
    }
    Scores[Class] = Score;
  }
  return Scores;
}

unsigned SvmClassifier::decode(const std::vector<double> &Decisions) const {
  std::array<double, MaxUnrollFactor> Scores = decodingScores(Decisions);
  unsigned BestClass = 0;
  for (unsigned Class = 1; Class < MaxUnrollFactor; ++Class)
    if (Scores[Class] > Scores[BestClass])
      BestClass = Class;
  return BestClass + 1;
}

unsigned SvmClassifier::predict(const FeatureVector &FeaturesIn) const {
  assert(!Machines.empty() && "classifier queried before training");
  std::vector<double> Query = Norm.apply(FeaturesIn);
  std::vector<double> KernelValues = kernelVector(*Kernel, Points, Query);
  std::vector<double> Decisions;
  Decisions.reserve(Machines.size());
  for (const LsSvmBinary &Machine : Machines)
    Decisions.push_back(Machine.decision(KernelValues));
  return decode(Decisions);
}

std::array<double, MaxUnrollFactor>
SvmClassifier::scores(const FeatureVector &FeaturesIn) const {
  assert(!Machines.empty() && "classifier queried before training");
  std::vector<double> Query = Norm.apply(FeaturesIn);
  std::vector<double> KernelValues = kernelVector(*Kernel, Points, Query);
  std::vector<double> Decisions;
  Decisions.reserve(Machines.size());
  for (const LsSvmBinary &Machine : Machines)
    Decisions.push_back(Machine.decision(KernelValues));
  std::array<double, MaxUnrollFactor> Scores = decodingScores(Decisions);
  // Shift so the winning class scores exactly 1.0; relative gaps between
  // classes (the decoding objective) are preserved.
  double Best = *std::max_element(Scores.begin(), Scores.end());
  for (double &Score : Scores)
    Score += 1.0 - Best;
  return Scores;
}

std::vector<unsigned> SvmClassifier::loocvPredictions() {
  assert(Solver && !Machines.empty() &&
         "classifier must be trained before LOOCV");
  size_t N = Points.size();
  std::vector<std::vector<double>> LooPerBit;
  LooPerBit.reserve(Machines.size());
  for (size_t Bit = 0; Bit < Machines.size(); ++Bit)
    LooPerBit.push_back(Solver->looDecisions(BitLabels[Bit],
                                             Machines[Bit]));
  std::vector<unsigned> Predictions(N);
  std::vector<double> Decisions(Machines.size());
  for (size_t I = 0; I < N; ++I) {
    for (size_t Bit = 0; Bit < Machines.size(); ++Bit)
      Decisions[Bit] = LooPerBit[Bit][I];
    Predictions[I] = decode(Decisions);
  }
  return Predictions;
}

std::string SvmClassifier::serialize() const {
  assert(!Machines.empty() && "serialize() requires a trained classifier");
  char Buffer[64];
  std::string Out = "svm-model 1\n";
  std::snprintf(Buffer, sizeof(Buffer), "kernel %.17g\n",
                Kernel->sigmaSquared());
  Out += Buffer;
  Out += std::string("decode ") +
         (Options.Decode == SvmOptions::Decoding::Hamming ? "hamming"
                                                          : "loss") +
         "\n";
  Out += "code " + std::to_string(CodeMatrix.size()) + " " +
         std::to_string(CodeMatrix[0].size()) + "\n";
  for (const std::vector<int> &Row : CodeMatrix) {
    for (size_t Bit = 0; Bit < Row.size(); ++Bit)
      Out += (Bit ? " " : "") + std::to_string(Row[Bit]);
    Out += '\n';
  }
  Out += Norm.serialize();
  Out += "points " + std::to_string(Points.size()) + " " +
         std::to_string(Points[0].size()) + "\n";
  for (const std::vector<double> &Point : Points) {
    for (size_t D = 0; D < Point.size(); ++D) {
      std::snprintf(Buffer, sizeof(Buffer), D ? " %.17g" : "%.17g",
                    Point[D]);
      Out += Buffer;
    }
    Out += '\n';
  }
  Out += "machines " + std::to_string(Machines.size()) + "\n";
  for (const LsSvmBinary &Machine : Machines) {
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", Machine.Bias);
    Out += Buffer;
    for (double Alpha : Machine.Alpha) {
      std::snprintf(Buffer, sizeof(Buffer), " %.17g", Alpha);
      Out += Buffer;
    }
    Out += '\n';
  }
  return Out;
}

std::optional<SvmClassifier>
SvmClassifier::deserialize(const std::string &Text) {
  std::vector<std::string> Lines = split(Text, '\n');
  size_t Cursor = 0;
  auto Next = [&]() -> std::vector<std::string> {
    if (Cursor >= Lines.size())
      return {};
    return splitWhitespace(Lines[Cursor++]);
  };

  if (Cursor >= Lines.size() || trim(Lines[Cursor++]) != "svm-model 1")
    return std::nullopt;
  std::vector<std::string> KernelLine = Next();
  if (KernelLine.size() != 2 || KernelLine[0] != "kernel")
    return std::nullopt;
  auto SigmaSquared = parseDouble(KernelLine[1]);
  if (!SigmaSquared || *SigmaSquared <= 0.0)
    return std::nullopt;
  std::vector<std::string> DecodeLine = Next();
  if (DecodeLine.size() != 2 || DecodeLine[0] != "decode")
    return std::nullopt;

  std::vector<std::string> CodeHeader = Next();
  if (CodeHeader.size() != 3 || CodeHeader[0] != "code")
    return std::nullopt;
  auto Rows = parseInt(CodeHeader[1]);
  auto Bits = parseInt(CodeHeader[2]);
  if (!Rows || !Bits || *Rows != static_cast<int64_t>(MaxUnrollFactor) ||
      *Bits < 1)
    return std::nullopt;
  std::vector<std::vector<int>> Code;
  for (int64_t Row = 0; Row < *Rows; ++Row) {
    std::vector<std::string> Parts = Next();
    if (Parts.size() != static_cast<size_t>(*Bits))
      return std::nullopt;
    std::vector<int> CodeRow;
    for (const std::string &Part : Parts) {
      auto Value = parseInt(Part);
      if (!Value || (*Value != 1 && *Value != -1))
        return std::nullopt;
      CodeRow.push_back(static_cast<int>(*Value));
    }
    Code.push_back(std::move(CodeRow));
  }

  // The normalizer block: header names its own length.
  if (Cursor >= Lines.size())
    return std::nullopt;
  std::vector<std::string> NormHeader = splitWhitespace(Lines[Cursor]);
  if (NormHeader.size() != 3 || NormHeader[0] != "normalizer")
    return std::nullopt;
  auto NormDims = parseInt(NormHeader[2]);
  if (!NormDims || *NormDims < 1 ||
      Lines.size() < Cursor + 1 + static_cast<size_t>(*NormDims))
    return std::nullopt;
  std::string NormBlock;
  for (size_t I = Cursor; I < Cursor + 1 + static_cast<size_t>(*NormDims);
       ++I)
    NormBlock += Lines[I] + "\n";
  Cursor += 1 + static_cast<size_t>(*NormDims);
  std::optional<Normalizer> Norm = Normalizer::deserialize(NormBlock);
  if (!Norm)
    return std::nullopt;

  std::vector<std::string> PointsHeader = Next();
  if (PointsHeader.size() != 3 || PointsHeader[0] != "points")
    return std::nullopt;
  auto NumPoints = parseInt(PointsHeader[1]);
  auto Dims = parseInt(PointsHeader[2]);
  if (!NumPoints || !Dims || *NumPoints < 1 ||
      *Dims != static_cast<int64_t>(Norm->dimension()))
    return std::nullopt;
  std::vector<std::vector<double>> Points;
  for (int64_t I = 0; I < *NumPoints; ++I) {
    std::vector<std::string> Parts = Next();
    if (Parts.size() != static_cast<size_t>(*Dims))
      return std::nullopt;
    std::vector<double> Point;
    for (const std::string &Part : Parts) {
      auto Coord = parseDouble(Part);
      if (!Coord)
        return std::nullopt;
      Point.push_back(*Coord);
    }
    Points.push_back(std::move(Point));
  }

  std::vector<std::string> MachinesHeader = Next();
  if (MachinesHeader.size() != 2 || MachinesHeader[0] != "machines")
    return std::nullopt;
  auto NumMachines = parseInt(MachinesHeader[1]);
  if (!NumMachines || *NumMachines != *Bits)
    return std::nullopt;
  std::vector<LsSvmBinary> Machines;
  for (int64_t M = 0; M < *NumMachines; ++M) {
    std::vector<std::string> Parts = Next();
    if (Parts.size() != 1 + static_cast<size_t>(*NumPoints))
      return std::nullopt;
    LsSvmBinary Machine;
    auto Bias = parseDouble(Parts[0]);
    if (!Bias)
      return std::nullopt;
    Machine.Bias = *Bias;
    for (int64_t I = 0; I < *NumPoints; ++I) {
      auto Alpha = parseDouble(Parts[1 + I]);
      if (!Alpha)
        return std::nullopt;
      Machine.Alpha.push_back(*Alpha);
    }
    Machines.push_back(std::move(Machine));
  }

  SvmOptions Options;
  Options.Decode = DecodeLine[1] == "loss" ? SvmOptions::Decoding::Loss
                                           : SvmOptions::Decoding::Hamming;
  Options.CodeKind = static_cast<size_t>(*Bits) == MaxUnrollFactor
                         ? SvmOptions::Code::OneVsRest
                         : SvmOptions::Code::RandomEcoc;
  Options.EcocBits = static_cast<unsigned>(*Bits);
  SvmClassifier Result(Norm->featureSet(), Options);
  Result.Norm = std::move(*Norm);
  Result.Points = std::move(Points);
  Result.CodeMatrix = std::move(Code);
  Result.Machines = std::move(Machines);
  Result.Kernel.emplace(*SigmaSquared);
  return Result;
}
