//===- core/ml/DecisionTree.cpp -------------------------------------------===//

#include "core/ml/DecisionTree.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace metaopt;

DecisionTreeClassifier::DecisionTreeClassifier(FeatureSet FeaturesIn,
                                               DecisionTreeOptions OptionsIn)
    : Features(std::move(FeaturesIn)), Options(OptionsIn) {
  assert(!Features.empty() && "feature set must not be empty");
  assert(Options.MaxDepth >= 1 && Options.MinLeafSize >= 1 &&
         "degenerate growth limits");
}

std::string DecisionTreeClassifier::name() const { return "decision-tree"; }

namespace {

unsigned majority(const std::array<unsigned, MaxUnrollFactor> &Counts) {
  unsigned Best = 0;
  for (unsigned Class = 1; Class < MaxUnrollFactor; ++Class)
    if (Counts[Class] > Counts[Best])
      Best = Class;
  return Best + 1;
}

double purity(const std::array<unsigned, MaxUnrollFactor> &Counts,
              size_t Total) {
  unsigned Max = 0;
  for (unsigned Count : Counts)
    Max = std::max(Max, Count);
  return Total ? static_cast<double>(Max) / Total : 1.0;
}

/// Gini impurity of a count vector.
double gini(const std::array<unsigned, MaxUnrollFactor> &Counts,
            double Total) {
  if (Total <= 0.0)
    return 0.0;
  double SumSquares = 0.0;
  for (unsigned Count : Counts) {
    double P = Count / Total;
    SumSquares += P * P;
  }
  return 1.0 - SumSquares;
}

} // namespace

/// The split search sweeps each dimension's examples in (value, index)
/// order. Sorting every dimension once per tree and then partitioning the
/// sorted lists stably into the children gives each node exactly the
/// order a sort of its own examples would: a stable partition keeps the
/// relative order, and (value, index) is a total order on distinct
/// indices (a forest's bootstrap copies are distinct examples).
struct DecisionTreeClassifier::Grower {
  size_t NumPoints = 0;
  size_t Dims = 0;
  /// Values[Dim * NumPoints + I]: dimension Dim of example I.
  std::vector<double> Values;
  std::vector<unsigned> Labels;
  /// Sorted[Dim * NumPoints + P]: the example at position P of dimension
  /// Dim's list; a node owns the same position range in every list.
  std::vector<uint32_t> Sorted;
  /// Per example: does the split being applied send it left?
  std::vector<char> GoesLeft;
  /// Holds a list's right-hand examples during a partition.
  std::vector<uint32_t> Scratch;

  const double *column(size_t Dim) const { return &Values[Dim * NumPoints]; }
  uint32_t *list(size_t Dim) { return &Sorted[Dim * NumPoints]; }
};

int32_t DecisionTreeClassifier::grow(Grower &G, size_t Begin, size_t End,
                                     unsigned Depth) {
  size_t Size = End - Begin;
  Node Current;
  Current.Depth = Depth;
  std::array<unsigned, MaxUnrollFactor> Counts = {};
  for (size_t Position = Begin; Position < End; ++Position)
    ++Counts[G.Labels[G.list(0)[Position]] - 1];
  Current.Label = majority(Counts);

  bool MustStop = Depth >= Options.MaxDepth ||
                  Size < 2 * Options.MinLeafSize ||
                  purity(Counts, Size) >= Options.PurityThreshold;

  unsigned BestDim = 0;
  double BestThreshold = 0.0;
  double BestImpurity = 1e300;
  if (!MustStop) {
    for (unsigned Dim = 0; Dim < G.Dims; ++Dim) {
      const uint32_t *Sorted = G.list(Dim) + Begin;
      const double *Column = G.column(Dim);
      // Sweep split positions, maintaining left/right counts.
      std::array<unsigned, MaxUnrollFactor> LeftCounts = {};
      std::array<unsigned, MaxUnrollFactor> RightCounts = Counts;
      for (size_t Position = 0; Position + 1 < Size; ++Position) {
        unsigned Class = G.Labels[Sorted[Position]] - 1;
        ++LeftCounts[Class];
        --RightCounts[Class];
        double Here = Column[Sorted[Position]];
        double Next = Column[Sorted[Position + 1]];
        if (Here == Next)
          continue; // Cannot split between equal values.
        size_t LeftSize = Position + 1;
        size_t RightSize = Size - LeftSize;
        if (LeftSize < Options.MinLeafSize ||
            RightSize < Options.MinLeafSize)
          continue;
        double Weighted =
            (LeftSize * gini(LeftCounts, LeftSize) +
             RightSize * gini(RightCounts, RightSize)) /
            Size;
        if (Weighted < BestImpurity) {
          BestImpurity = Weighted;
          BestDim = Dim;
          BestThreshold = 0.5 * (Here + Next);
        }
      }
    }
    // Require an actual improvement over the parent.
    if (BestImpurity >= gini(Counts, Size) - 1e-12)
      MustStop = true;
  }

  int32_t Self = static_cast<int32_t>(Nodes.size());
  Nodes.push_back(Current);
  if (MustStop)
    return Self;

  const double *SplitColumn = G.column(BestDim);
  size_t LeftSize = 0;
  for (size_t Position = Begin; Position < End; ++Position) {
    uint32_t Index = G.list(0)[Position];
    G.GoesLeft[Index] = SplitColumn[Index] <= BestThreshold;
    LeftSize += G.GoesLeft[Index];
  }
  assert(LeftSize > 0 && LeftSize < Size && "split produced an empty side");
  for (unsigned Dim = 0; Dim < G.Dims; ++Dim) {
    uint32_t *List = G.list(Dim);
    size_t Left = Begin, Right = 0;
    for (size_t Position = Begin; Position < End; ++Position) {
      uint32_t Index = List[Position];
      if (G.GoesLeft[Index])
        List[Left++] = Index;
      else
        G.Scratch[Right++] = Index;
    }
    std::copy_n(G.Scratch.begin(), Right, List + Left);
  }

  Nodes[Self].IsLeaf = false;
  Nodes[Self].SplitDim = BestDim;
  Nodes[Self].Threshold = BestThreshold;
  int32_t Left = grow(G, Begin, Begin + LeftSize, Depth + 1);
  Nodes[Self].Left = Left;
  int32_t Right = grow(G, Begin + LeftSize, End, Depth + 1);
  Nodes[Self].Right = Right;
  return Self;
}

void DecisionTreeClassifier::train(const Dataset &Train) {
  assert(!Train.empty() && "cannot train on an empty dataset");
  Norm.fit(Train.featureMatrix(), Features);
  Grower G;
  G.NumPoints = Train.size();
  G.Dims = Norm.dimension();
  G.Values.resize(G.Dims * G.NumPoints);
  G.Labels.reserve(G.NumPoints);
  for (size_t I = 0; I < G.NumPoints; ++I) {
    std::vector<double> Point = Norm.apply(Train[I].Features);
    for (size_t Dim = 0; Dim < G.Dims; ++Dim)
      G.Values[Dim * G.NumPoints + I] = Point[Dim];
    G.Labels.push_back(Train[I].Label);
  }
  G.Sorted.resize(G.Dims * G.NumPoints);
  for (size_t Dim = 0; Dim < G.Dims; ++Dim) {
    uint32_t *List = G.list(Dim);
    for (uint32_t I = 0; I < G.NumPoints; ++I)
      List[I] = I;
    const double *Column = G.column(Dim);
    std::sort(List, List + G.NumPoints, [&](uint32_t A, uint32_t B) {
      if (Column[A] != Column[B])
        return Column[A] < Column[B];
      return A < B;
    });
  }
  G.GoesLeft.resize(G.NumPoints);
  G.Scratch.resize(G.NumPoints);
  Nodes.clear();
  Root = grow(G, 0, G.NumPoints, 0);
}

unsigned DecisionTreeClassifier::predict(
    const FeatureVector &FeaturesIn) const {
  assert(Root >= 0 && "classifier queried before training");
  std::vector<double> Query = Norm.apply(FeaturesIn);
  int32_t NodeIndex = Root;
  for (;;) {
    const Node &Current = Nodes[NodeIndex];
    if (Current.IsLeaf)
      return Current.Label;
    NodeIndex = Query[Current.SplitDim] <= Current.Threshold
                    ? Current.Left
                    : Current.Right;
  }
}

unsigned DecisionTreeClassifier::depth() const {
  unsigned Max = 0;
  for (const Node &Current : Nodes)
    Max = std::max(Max, Current.Depth);
  return Max;
}

std::string DecisionTreeClassifier::serialize() const {
  assert(Root >= 0 && "serialize() requires a trained classifier");
  char Buffer[64];
  std::string Out = "dtree-model 1\n";
  std::snprintf(Buffer, sizeof(Buffer), "limits %u %u %.17g\n",
                Options.MaxDepth, Options.MinLeafSize,
                Options.PurityThreshold);
  Out += Buffer;
  Out += Norm.serialize();
  Out += "nodes " + std::to_string(Nodes.size()) + " root " +
         std::to_string(Root) + "\n";
  for (const Node &Current : Nodes) {
    std::snprintf(Buffer, sizeof(Buffer), "%d %u %u %.17g %d %d %u\n",
                  Current.IsLeaf ? 1 : 0, Current.Label, Current.SplitDim,
                  Current.Threshold, Current.Left, Current.Right,
                  Current.Depth);
    Out += Buffer;
  }
  return Out;
}

std::optional<DecisionTreeClassifier>
DecisionTreeClassifier::deserialize(const std::string &Text) {
  std::vector<std::string> Lines = split(Text, '\n');
  if (Lines.size() < 4 || trim(Lines[0]) != "dtree-model 1")
    return std::nullopt;
  std::vector<std::string> Limits = splitWhitespace(Lines[1]);
  if (Limits.size() != 4 || Limits[0] != "limits")
    return std::nullopt;
  auto MaxDepth = parseInt(Limits[1]);
  auto MinLeafSize = parseInt(Limits[2]);
  auto PurityThreshold = parseDouble(Limits[3]);
  if (!MaxDepth || !MinLeafSize || !PurityThreshold || *MaxDepth < 1 ||
      *MinLeafSize < 1)
    return std::nullopt;

  size_t Index = 2;
  std::optional<Normalizer> Norm = parseNormalizerBlock(Lines, Index);
  if (!Norm || Lines.size() <= Index)
    return std::nullopt;

  std::vector<std::string> NodesHeader = splitWhitespace(Lines[Index]);
  if (NodesHeader.size() != 4 || NodesHeader[0] != "nodes" ||
      NodesHeader[2] != "root")
    return std::nullopt;
  auto NumNodes = parseInt(NodesHeader[1]);
  auto Root = parseInt(NodesHeader[3]);
  if (!NumNodes || !Root || *NumNodes < 1 || *Root < 0 ||
      *Root >= *NumNodes ||
      Lines.size() < Index + 1 + static_cast<size_t>(*NumNodes))
    return std::nullopt;

  DecisionTreeOptions Options;
  Options.MaxDepth = static_cast<unsigned>(*MaxDepth);
  Options.MinLeafSize = static_cast<unsigned>(*MinLeafSize);
  Options.PurityThreshold = *PurityThreshold;
  DecisionTreeClassifier Result(Norm->featureSet(), Options);
  int64_t Dims = static_cast<int64_t>(Norm->dimension());
  Result.Norm = std::move(*Norm);
  Result.Root = static_cast<int32_t>(*Root);
  for (int64_t I = 0; I < *NumNodes; ++I) {
    std::vector<std::string> Parts =
        splitWhitespace(Lines[Index + 1 + I]);
    if (Parts.size() != 7)
      return std::nullopt;
    auto IsLeaf = parseInt(Parts[0]);
    auto Label = parseInt(Parts[1]);
    auto SplitDim = parseInt(Parts[2]);
    auto Threshold = parseDouble(Parts[3]);
    auto Left = parseInt(Parts[4]);
    auto Right = parseInt(Parts[5]);
    auto Depth = parseInt(Parts[6]);
    if (!IsLeaf || !Label || !SplitDim || !Threshold || !Left || !Right ||
        !Depth)
      return std::nullopt;
    if ((*IsLeaf != 0 && *IsLeaf != 1) || *Label < 1 ||
        *Label > static_cast<int64_t>(MaxUnrollFactor) || *Depth < 0)
      return std::nullopt;
    Node Current;
    Current.IsLeaf = *IsLeaf == 1;
    Current.Label = static_cast<unsigned>(*Label);
    Current.Depth = static_cast<unsigned>(*Depth);
    if (Current.IsLeaf) {
      // Leaves carry no split; reject stray child links so a tampered
      // blob cannot smuggle in dangling indices.
      if (*Left != -1 || *Right != -1)
        return std::nullopt;
    } else {
      if (*SplitDim < 0 || *SplitDim >= Dims || *Left < 0 ||
          *Left >= *NumNodes || *Right < 0 || *Right >= *NumNodes)
        return std::nullopt;
      Current.SplitDim = static_cast<unsigned>(*SplitDim);
      Current.Threshold = *Threshold;
      Current.Left = static_cast<int32_t>(*Left);
      Current.Right = static_cast<int32_t>(*Right);
    }
    Result.Nodes.push_back(Current);
  }
  // Depth must strictly increase along child links; this rules out
  // cycles, so predict()'s walk always terminates.
  for (const Node &Current : Result.Nodes)
    if (!Current.IsLeaf &&
        (Result.Nodes[Current.Left].Depth != Current.Depth + 1 ||
         Result.Nodes[Current.Right].Depth != Current.Depth + 1))
      return std::nullopt;
  return Result;
}
