//===- tests/analysis_test.cpp - Unit tests for src/analysis --------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "analysis/CriticalPath.h"
#include "analysis/DependenceGraph.h"
#include "analysis/Latency.h"
#include "analysis/Liveness.h"
#include "analysis/Recurrence.h"
#include "ir/LoopBuilder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace metaopt;

namespace {

bool hasEdge(const DependenceGraph &DG, uint32_t Src, uint32_t Dst,
             DepKind Kind, uint32_t Distance) {
  for (const DepEdge &Edge : DG.edges())
    if (Edge.Src == Src && Edge.Dst == Dst && Edge.Kind == Kind &&
        Edge.Distance == Distance)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Register dependences
//===----------------------------------------------------------------------===//

TEST(DependenceGraphTest, IntraIterationFlow) {
  LoopBuilder B("flow", SourceLanguage::C, 1, 16);
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8}); // node 0
  RegId Y = B.fadd(X, X);                                  // node 1
  B.store(Y, {1, 8, 0, false, 8});                         // node 2
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_TRUE(hasEdge(DG, 0, 1, DepKind::Data, 0));
  EXPECT_TRUE(hasEdge(DG, 1, 2, DepKind::Data, 0));
}

TEST(DependenceGraphTest, PhiCreatesCarriedDataEdge) {
  LoopBuilder B("red", SourceLanguage::C, 1, 16);
  RegId Acc = B.phi(RegClass::Float, "acc");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8}); // node 0
  RegId Next = B.fadd(Acc, X);                             // node 1
  B.setPhiRecur(Acc, Next);
  Loop L = B.finalize();
  DependenceGraph DG(L);
  // fadd (node 1) produces the value its own next-iteration copy reads.
  EXPECT_TRUE(hasEdge(DG, 1, 1, DepKind::Data, 1));
}

TEST(DependenceGraphTest, PredicateIsADependence) {
  LoopBuilder B("guard", SourceLanguage::C, 1, 16);
  RegId T = B.liveIn(RegClass::Float, "t");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8}); // node 0
  RegId C = B.fcmp(X, T);                                  // node 1
  B.setPredicate(C);
  B.store(X, {1, 8, 0, false, 8}); // node 2 (guarded).
  B.clearPredicate();
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_TRUE(hasEdge(DG, 1, 2, DepKind::Data, 0));
}

//===----------------------------------------------------------------------===//
// Memory dependences
//===----------------------------------------------------------------------===//

TEST(DependenceGraphTest, SameAddressStoreLoad) {
  LoopBuilder B("mem", SourceLanguage::C, 1, 16);
  RegId V = B.load(RegClass::Float, {0, 8, 0, false, 8}); // node 0
  B.store(V, {1, 8, 0, false, 8});                         // node 1
  RegId W = B.load(RegClass::Float, {1, 8, 0, false, 8}); // node 2
  B.store(W, {2, 8, 0, false, 8});                         // node 3
  Loop L = B.finalize();
  DependenceGraph DG(L);
  // Store @1 then load @1, same address: intra-iteration dependence.
  EXPECT_TRUE(hasEdge(DG, 1, 2, DepKind::Memory, 0));
  // Distinct base symbols never conflict.
  EXPECT_FALSE(hasEdge(DG, 0, 1, DepKind::Memory, 0));
}

TEST(DependenceGraphTest, CarriedDistanceFromOffsets) {
  // store y[i] (offset 0); load y[i-1] (offset -8): the load at iteration
  // i+1 reads what the store wrote at iteration i -> distance 1.
  LoopBuilder B("iir", SourceLanguage::C, 1, 16);
  RegId Prev = B.load(RegClass::Float, {1, 8, -8, false, 8}); // node 0
  RegId Next = B.fadd(Prev, Prev);                             // node 1
  B.store(Next, {1, 8, 0, false, 8});                          // node 2
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_TRUE(hasEdge(DG, 2, 0, DepKind::Memory, 1));
  EXPECT_EQ(DG.minCarriedMemoryDistance(), 1u);
}

TEST(DependenceGraphTest, LargerCarriedDistance) {
  LoopBuilder B("lag4", SourceLanguage::C, 1, 64);
  RegId Prev = B.load(RegClass::Float, {1, 8, -32, false, 8});
  B.store(B.fadd(Prev, Prev), {1, 8, 0, false, 8});
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_EQ(DG.minCarriedMemoryDistance(), 4u);
}

TEST(DependenceGraphTest, InterleavedStreamsDoNotConflict) {
  // Even and odd elements of one array: offsets differ by 8 with stride
  // 16 and size 8; never the same address.
  LoopBuilder B("evenodd", SourceLanguage::C, 1, 64);
  RegId E = B.load(RegClass::Float, {0, 16, 0, false, 8});
  B.store(E, {0, 16, 8, false, 8});
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_EQ(DG.numMemoryDeps(), 0u);
}

TEST(DependenceGraphTest, IndirectIsConservative) {
  LoopBuilder B("hist", SourceLanguage::C, 1, 64);
  RegId Index = B.load(RegClass::Int, {0, 4, 0, false, 4});
  RegId Count = B.load(RegClass::Int, {1, 0, 0, true, 8}, Index); // node 1
  RegId One = B.iconst(1);
  RegId Sum = B.iadd(Count, One);
  B.store(Sum, {1, 0, 0, true, 8}, Index); // node 4
  Loop L = B.finalize();
  DependenceGraph DG(L);
  // Conservative: load-store same-iteration ordering and carried reverse.
  EXPECT_TRUE(hasEdge(DG, 1, 4, DepKind::Memory, 0));
  EXPECT_TRUE(hasEdge(DG, 4, 1, DepKind::Memory, 1));
}

TEST(DependenceGraphTest, TwoLoadsNeverConflict) {
  LoopBuilder B("loads", SourceLanguage::C, 1, 64);
  RegId A = B.load(RegClass::Float, {0, 8, 0, false, 8});
  RegId C = B.load(RegClass::Float, {0, 8, -8, false, 8});
  B.store(B.fadd(A, C), {1, 8, 0, false, 8});
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_FALSE(hasEdge(DG, 0, 1, DepKind::Memory, 0));
  EXPECT_FALSE(hasEdge(DG, 1, 0, DepKind::Memory, 1));
}

//===----------------------------------------------------------------------===//
// Control dependences
//===----------------------------------------------------------------------===//

TEST(DependenceGraphTest, ExitOrdersSideEffects) {
  LoopBuilder B("exits", SourceLanguage::C, 1, 64);
  RegId V = B.load(RegClass::Int, {0, 4, 0, false, 4}); // node 0
  RegId Lim = B.liveIn(RegClass::Int, "lim");
  RegId C = B.icmp(V, Lim); // node 1
  B.exitIf(C, 0.01);        // node 2
  B.store(V, {1, 4, 0, false, 4}); // node 3
  Loop L = B.finalize();
  DependenceGraph DG(L);
  // The store after the exit must not move above it (not speculatable).
  bool Found = false;
  for (const DepEdge &Edge : DG.edges())
    if (Edge.Src == 2 && Edge.Dst == 3 && Edge.Kind == DepKind::Control &&
        !Edge.Speculatable)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(DependenceGraphTest, PureOpsAfterExitAreSpeculatable) {
  LoopBuilder B("spec", SourceLanguage::C, 1, 64);
  RegId V = B.load(RegClass::Int, {0, 4, 0, false, 4});
  RegId Lim = B.liveIn(RegClass::Int, "lim");
  B.exitIf(B.icmp(V, Lim), 0.01); // node 2
  RegId W = B.iadd(V, V);          // node 3 (pure).
  B.store(W, {1, 4, 0, false, 4});
  Loop L = B.finalize();
  DependenceGraph DG(L);
  bool FoundSpeculatable = false;
  for (const DepEdge &Edge : DG.edges())
    if (Edge.Src == 2 && Edge.Dst == 3 && Edge.Kind == DepKind::Control)
      FoundSpeculatable = Edge.Speculatable;
  EXPECT_TRUE(FoundSpeculatable);
}

TEST(DependenceGraphTest, CallSerializesAcrossIterations) {
  LoopBuilder B("call", SourceLanguage::C, 1, 64);
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  B.call({X}); // node 1
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_TRUE(hasEdge(DG, 1, 1, DepKind::Control, 1));
}

//===----------------------------------------------------------------------===//
// Critical path and computations
//===----------------------------------------------------------------------===//

TEST(CriticalPathTest, ChainLatenciesAdd) {
  LoopBuilder B("chain", SourceLanguage::C, 1, 16);
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  RegId M = B.fmul(X, X);
  RegId A = B.fadd(M, X);
  B.store(A, {1, 8, 0, false, 8});
  Loop L = B.finalize();
  DependenceGraph DG(L);
  // load(3) -> fmul(4) -> fadd(4) -> store(1): at least 12 cycles.
  int Path = criticalPathLatency(L, DG);
  EXPECT_GE(Path, defaultLatency(Opcode::Load) +
                      defaultLatency(Opcode::FMul) +
                      defaultLatency(Opcode::FAdd));
}

TEST(CriticalPathTest, IndependentStreamsAreParallelComputations) {
  LoopBuilder B("par", SourceLanguage::C, 1, 16);
  for (int Stream = 0; Stream < 3; ++Stream) {
    RegId X = B.load(RegClass::Float,
                     {static_cast<int32_t>(2 * Stream), 8, 0, false, 8});
    B.store(B.fadd(X, X),
            {static_cast<int32_t>(2 * Stream + 1), 8, 0, false, 8});
  }
  Loop L = B.finalize();
  DependenceGraph DG(L);
  ComputationInfo Info = analyzeComputations(L, DG);
  EXPECT_EQ(Info.NumComputations, 3u);
  EXPECT_GT(Info.MaxHeight, 0);
  EXPECT_GT(Info.AvgHeight, 0.0);
}

TEST(CriticalPathTest, FanInCountsDataPredecessors) {
  LoopBuilder B("fan", SourceLanguage::C, 1, 16);
  RegId A = B.load(RegClass::Float, {0, 8, 0, false, 8});
  RegId C = B.load(RegClass::Float, {1, 8, 0, false, 8});
  RegId D = B.load(RegClass::Float, {2, 8, 0, false, 8});
  RegId F = B.fma(A, C, D); // Three data inputs.
  B.store(F, {3, 8, 0, false, 8});
  Loop L = B.finalize();
  DependenceGraph DG(L);
  ComputationInfo Info = analyzeComputations(L, DG);
  EXPECT_GE(Info.MaxFanIn, 3);
}

TEST(CriticalPathTest, MemoryHeightTracksMemoryChains) {
  LoopBuilder B("memchain", SourceLanguage::C, 1, 16);
  RegId V = B.load(RegClass::Float, {0, 8, 0, false, 8});
  B.store(V, {1, 8, 0, false, 8});
  RegId W = B.load(RegClass::Float, {1, 8, 0, false, 8}); // Depends on store.
  B.store(W, {2, 8, 0, false, 8});
  Loop L = B.finalize();
  DependenceGraph DG(L);
  ComputationInfo Info = analyzeComputations(L, DG);
  EXPECT_GT(Info.MaxMemoryHeight, defaultLatency(Opcode::Load));
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

TEST(LivenessTest, CountsLiveInsOnce) {
  LoopBuilder B("livein", SourceLanguage::C, 1, 16);
  RegId Alpha = B.liveIn(RegClass::Float, "alpha");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  B.store(B.fma(Alpha, X, X), {1, 8, 0, false, 8});
  Loop L = B.finalize();
  LivenessInfo Info = analyzeLiveness(L);
  EXPECT_EQ(Info.NumLiveIn, 1u);
  EXPECT_GE(Info.MaxLiveFloat, 1u);
}

TEST(LivenessTest, PhiRecurLivesAcrossBackedge) {
  LoopBuilder B("red", SourceLanguage::C, 1, 16);
  RegId Acc = B.phi(RegClass::Float, "acc");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  B.setPhiRecur(Acc, B.fadd(Acc, X));
  Loop L = B.finalize();
  LivenessInfo Info = analyzeLiveness(L);
  EXPECT_EQ(Info.NumAcrossBack, 1u);
}

TEST(LivenessTest, MoreConcurrentValuesRaiseMaxLive) {
  auto Build = [](int Streams) {
    LoopBuilder B("width", SourceLanguage::C, 1, 16);
    std::vector<RegId> Loaded;
    for (int S = 0; S < Streams; ++S)
      Loaded.push_back(B.load(RegClass::Float,
                              {static_cast<int32_t>(S), 8, 0, false, 8}));
    // Sum everything at the end so all values stay live.
    RegId Sum = Loaded[0];
    for (int S = 1; S < Streams; ++S)
      Sum = B.fadd(Sum, Loaded[S]);
    B.store(Sum, {100, 8, 0, false, 8});
    return B.finalize();
  };
  LivenessInfo Narrow = analyzeLiveness(Build(2));
  LivenessInfo Wide = analyzeLiveness(Build(8));
  EXPECT_GT(Wide.MaxLiveFloat, Narrow.MaxLiveFloat);
}

TEST(LivenessTest, HonorsCustomOrder) {
  // Ordering all loads first raises peak pressure versus load-use pairs.
  LoopBuilder B("order", SourceLanguage::C, 1, 16);
  RegId A = B.load(RegClass::Float, {0, 8, 0, false, 8}); // 0
  B.store(A, {1, 8, 0, false, 8});                         // 1
  RegId C = B.load(RegClass::Float, {2, 8, 0, false, 8}); // 2
  B.store(C, {3, 8, 0, false, 8});                         // 3
  Loop L = B.finalize();
  size_t N = L.body().size();
  std::vector<uint32_t> Interleaved = {0, 2, 1, 3};
  for (uint32_t I = 4; I < N; ++I)
    Interleaved.push_back(I);
  LivenessInfo Paired = analyzeLiveness(L);
  LivenessInfo Bunched = analyzeLiveness(L, Interleaved);
  EXPECT_GE(Bunched.MaxLiveFloat, Paired.MaxLiveFloat);
}

/// Every LivenessInfo field on a hand-traced body. Registers (body
/// positions 0-7, the last three the builder's loop-control tail):
///
///   acc   phi dest, live [0, 3] (last read by the fma)         float
///   x     load @0,  live [0, 3]                                float
///   k     iconst @1, never read: live [1, 1]                   int
///   gate  fcmp @2,  guards the fma: live [2, 3]                pred
///   next  fma @3,   recurs into acc: live [3, 8) to the end    float
///   alpha read live-in: NumLiveIn, not per-position pressure
///   unused, acc.init: unread live-ins, not counted
///   iv, iv.next, iv.cond: loop control, excluded
///
/// Per-position totals 2 3 3 4 1 1 1 1 -> peak 4, mean 16 / 8.
TEST(LivenessTest, HandTracedAllFields) {
  LoopBuilder B("trace", SourceLanguage::C, 1, 16);
  RegId Acc = B.phi(RegClass::Float, "acc");
  RegId Alpha = B.liveIn(RegClass::Float, "alpha");
  B.liveIn(RegClass::Int, "unused");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8}); // 0
  B.iconst(3);                                             // 1
  RegId Gate = B.fcmp(X, Alpha);                          // 2
  B.setPredicate(Gate);
  RegId Next = B.fma(Alpha, X, Acc); // 3
  B.clearPredicate();
  B.setPhiRecur(Acc, Next);
  B.store(Next, {1, 8, 0, false, 8}); // 4
  Loop L = B.finalize();              // 5-7: iv_add, iv_cmp, back_br
  ASSERT_EQ(L.body().size(), 8u);

  LivenessInfo Info = analyzeLiveness(L);
  EXPECT_EQ(Info.MaxLiveInt, 1u);
  EXPECT_EQ(Info.MaxLiveFloat, 3u);
  EXPECT_EQ(Info.MaxLivePred, 1u);
  EXPECT_EQ(Info.MaxLiveTotal, 4u);
  EXPECT_EQ(Info.AvgLiveTotal, 2.0);
  EXPECT_EQ(Info.NumLiveIn, 1u);
  EXPECT_EQ(Info.NumAcrossBack, 1u);

  // A custom order: load, fcmp, fma, store, iconst, control tail. The
  // fma's operands now die at position 2, where next is born, and k moves
  // after the store: totals 2 3 4 1 2 1 1 1, mean 15 / 8.
  LivenessInfo Moved = analyzeLiveness(L, {0, 2, 3, 4, 1, 5, 6, 7});
  EXPECT_EQ(Moved.MaxLiveInt, 1u);
  EXPECT_EQ(Moved.MaxLiveFloat, 3u);
  EXPECT_EQ(Moved.MaxLivePred, 1u);
  EXPECT_EQ(Moved.MaxLiveTotal, 4u);
  EXPECT_EQ(Moved.AvgLiveTotal, 1.875);
  EXPECT_EQ(Moved.NumLiveIn, 1u);
  EXPECT_EQ(Moved.NumAcrossBack, 1u);
}

//===----------------------------------------------------------------------===//
// Recurrence MII
//===----------------------------------------------------------------------===//

TEST(RecurrenceTest, NoRecurrenceGivesOne) {
  LoopBuilder B("stream", SourceLanguage::C, 1, 16);
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  B.store(X, {1, 8, 0, false, 8});
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_DOUBLE_EQ(recurrenceMII(L, DG), 1.0);
}

TEST(RecurrenceTest, AccumulatorBoundByOpLatency) {
  LoopBuilder B("acc", SourceLanguage::C, 1, 16);
  RegId Acc = B.phi(RegClass::Float, "acc");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  B.setPhiRecur(Acc, B.fadd(Acc, X));
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_GE(recurrenceMII(L, DG), double(defaultLatency(Opcode::FAdd)));
}

TEST(RecurrenceTest, LongerChainsRaiseMii) {
  auto Build = [](int ChainLength) {
    LoopBuilder B("chain", SourceLanguage::C, 1, 16);
    RegId Acc = B.phi(RegClass::Float, "acc");
    RegId Value = Acc;
    for (int I = 0; I < ChainLength; ++I)
      Value = B.fadd(Value, Value);
    B.setPhiRecur(Acc, Value);
    return B.finalize();
  };
  Loop Short = Build(1);
  Loop Long = Build(3);
  DependenceGraph DgShort(Short), DgLong(Long);
  EXPECT_GT(recurrenceMII(Long, DgLong), recurrenceMII(Short, DgShort));
}

TEST(RecurrenceTest, MemoryCarriedDistanceDividesLatency) {
  // Distance-4 memory recurrence: latency spread over 4 iterations.
  LoopBuilder B("lag", SourceLanguage::C, 1, 64);
  RegId Prev = B.load(RegClass::Float, {1, 8, -32, false, 8});
  B.store(B.fadd(Prev, Prev), {1, 8, 0, false, 8});
  Loop LagFour = B.finalize();

  LoopBuilder B1("lag1", SourceLanguage::C, 1, 64);
  RegId Prev1 = B1.load(RegClass::Float, {1, 8, -8, false, 8});
  B1.store(B1.fadd(Prev1, Prev1), {1, 8, 0, false, 8});
  Loop LagOne = B1.finalize();

  DependenceGraph Dg4(LagFour), Dg1(LagOne);
  EXPECT_LT(recurrenceMII(LagFour, Dg4), recurrenceMII(LagOne, Dg1));
}

TEST(RecurrenceTest, CustomLatencyFunctionUsed) {
  LoopBuilder B("acc", SourceLanguage::C, 1, 16);
  RegId Acc = B.phi(RegClass::Float, "acc");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  B.setPhiRecur(Acc, B.fadd(Acc, X));
  Loop L = B.finalize();
  DependenceGraph DG(L);
  double Slow = recurrenceMII(L, DG, [](Opcode) { return 10; });
  double Fast = recurrenceMII(L, DG, [](Opcode) { return 1; });
  EXPECT_GT(Slow, Fast);
}
