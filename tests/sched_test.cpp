//===- tests/sched_test.cpp - Unit tests for src/sched --------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "corpus/LoopGenerators.h"
#include "ir/LoopBuilder.h"
#include "machine/Machine.h"
#include "sched/ListScheduler.h"
#include "sched/ModuloScheduler.h"
#include "transform/Unroller.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

using namespace metaopt;

namespace {

Loop makeDaxpy(int Streams = 1) {
  LoopBuilder B("daxpy", SourceLanguage::C, 1, 1024);
  RegId Alpha = B.liveIn(RegClass::Float, "alpha");
  for (int S = 0; S < Streams; ++S) {
    MemRef X{static_cast<int32_t>(2 * S), 8, 0, false, 8};
    MemRef Y{static_cast<int32_t>(2 * S + 1), 8, 0, false, 8};
    RegId Xv = B.load(RegClass::Float, X);
    RegId Yv = B.load(RegClass::Float, Y);
    B.store(B.fma(Alpha, Xv, Yv), Y);
  }
  return B.finalize();
}

/// Checks the fundamental schedule legality properties: every instruction
/// placed once; data/memory dependences separated by at least the
/// scheduler's delay; resources never oversubscribed.
void expectValidSchedule(const Loop &L, const DependenceGraph &DG,
                         const Schedule &Sched, const MachineModel &M) {
  size_t N = L.body().size();
  ASSERT_EQ(Sched.CycleOf.size(), N);
  ASSERT_EQ(Sched.Order.size(), N);

  // Every index appears exactly once in the order.
  std::vector<bool> Seen(N, false);
  for (uint32_t Node : Sched.Order) {
    ASSERT_LT(Node, N);
    EXPECT_FALSE(Seen[Node]);
    Seen[Node] = true;
  }

  // Dependences: producer strictly precedes consumer unless control-kind
  // (same-cycle allowed) or speculatable.
  for (const DepEdge &Edge : DG.edges()) {
    if (Edge.Distance != 0 || Edge.Speculatable)
      continue;
    uint32_t SrcCycle = Sched.CycleOf[Edge.Src];
    uint32_t DstCycle = Sched.CycleOf[Edge.Dst];
    if (Edge.Kind == DepKind::Control)
      EXPECT_LE(SrcCycle, DstCycle);
    else
      EXPECT_LT(SrcCycle, DstCycle)
          << "edge " << Edge.Src << "->" << Edge.Dst;
  }

  // Per-cycle issue width (IvAdd/IvCmp are free; see ListScheduler).
  std::map<uint32_t, int> PerCycle;
  for (uint32_t Node = 0; Node < N; ++Node) {
    Opcode Op = L.body()[Node].Op;
    if (Op == Opcode::IvAdd || Op == Opcode::IvCmp)
      continue;
    ++PerCycle[Sched.CycleOf[Node]];
  }
  for (const auto &[Cycle, Count] : PerCycle)
    EXPECT_LE(Count, M.issueWidth()) << "cycle " << Cycle;

  // Length covers the last issue.
  uint32_t Last = 0;
  for (uint32_t Node = 0; Node < N; ++Node)
    Last = std::max(Last, Sched.CycleOf[Node]);
  EXPECT_EQ(Sched.Length, Last + 1);
}

} // namespace

//===----------------------------------------------------------------------===//
// List scheduler
//===----------------------------------------------------------------------===//

TEST(ListSchedulerTest, ValidScheduleForDaxpy) {
  MachineModel M(itanium2Config());
  Loop L = makeDaxpy();
  DependenceGraph DG(L);
  Schedule Sched = listSchedule(L, DG, M);
  expectValidSchedule(L, DG, Sched, M);
}

TEST(ListSchedulerTest, BackedgeIssuesLast) {
  MachineModel M(itanium2Config());
  Loop L = makeDaxpy(3);
  DependenceGraph DG(L);
  Schedule Sched = listSchedule(L, DG, M);
  uint32_t BrCycle = Sched.CycleOf[L.body().size() - 1];
  for (size_t Node = 0; Node < L.body().size(); ++Node)
    EXPECT_LE(Sched.CycleOf[Node], BrCycle);
}

TEST(ListSchedulerTest, WiderBodiesScheduleDenser) {
  MachineModel M(itanium2Config());
  // Per-iteration cycles must shrink when the payload is replicated
  // (that is the whole point of unrolling on a wide machine).
  Loop L = makeDaxpy(1);
  DependenceGraph DG1(L);
  Schedule S1 = listSchedule(L, DG1, M);
  Loop U = unrollLoop(L, 8);
  DependenceGraph DG8(U);
  Schedule S8 = listSchedule(U, DG8, M);
  EXPECT_LT(static_cast<double>(S8.Length) / 8.0,
            static_cast<double>(S1.Length));
}

TEST(ListSchedulerTest, ResourceBoundLoopHitsIssueLimit) {
  MachineModel M(itanium2Config());
  // 12 independent fp adds on 2 FP units: at least 6 cycles.
  LoopBuilder B("fp", SourceLanguage::C, 1, 64);
  RegId X = B.liveIn(RegClass::Float, "x");
  for (int I = 0; I < 12; ++I)
    B.fadd(X, X);
  Loop L = B.finalize();
  DependenceGraph DG(L);
  Schedule Sched = listSchedule(L, DG, M);
  EXPECT_GE(Sched.Length, 6u);
}

TEST(ListSchedulerTest, StoreAfterExitNotHoisted) {
  MachineModel M(itanium2Config());
  LoopBuilder B("exit", SourceLanguage::C, 1, 64);
  RegId V = B.load(RegClass::Int, {0, 4, 0, false, 4});
  RegId Lim = B.liveIn(RegClass::Int, "lim");
  B.exitIf(B.icmp(V, Lim), 0.01);
  B.store(V, {1, 4, 0, false, 4});
  Loop L = B.finalize();
  DependenceGraph DG(L);
  Schedule Sched = listSchedule(L, DG, M);
  uint32_t ExitIdx = 2, StoreIdx = 3;
  ASSERT_EQ(L.body()[ExitIdx].Op, Opcode::ExitIf);
  ASSERT_TRUE(L.body()[StoreIdx].isStore());
  EXPECT_LE(Sched.CycleOf[ExitIdx], Sched.CycleOf[StoreIdx]);
}

/// Exact issue cycles on a hand-traced body (idiv latency 16, icmp 1):
///
///   0 q  = idiv a, lim     cycle 0
///   1 q2 = idiv q, lim     cycle 16  (waits out q; cycles 1-15 are empty
///                                     and skipped in one jump)
///   2 c  = icmp q2, lim    cycle 32  (another empty stretch)
///   3 exit_if c            cycle 33
///   4 store q2             cycle 34  (enforced delay-0 control edge from
///                                     the exit: it becomes ready during
///                                     cycle 33, so it issues one later)
///   5 iv_add               cycle 34  (same delay-0 edge from the exit)
///   6 iv_cmp               cycle 35
///   7 back_br              cycle 36
TEST(ListSchedulerTest, HandTracedCycles) {
  MachineModel M(itanium2Config());
  LoopBuilder B("trace", SourceLanguage::C, 1, 64);
  RegId A = B.liveIn(RegClass::Int, "a");
  RegId Lim = B.liveIn(RegClass::Int, "lim");
  RegId Q2 = B.idiv(B.idiv(A, Lim), Lim);
  B.exitIf(B.icmp(Q2, Lim), 0.01);
  B.store(Q2, {0, 4, 0, false, 4});
  Loop L = B.finalize();
  ASSERT_EQ(L.body().size(), 8u);
  ASSERT_EQ(L.body()[3].Op, Opcode::ExitIf);

  DependenceGraph DG(L);
  Schedule Sched = listSchedule(L, DG, M);
  EXPECT_EQ(Sched.CycleOf,
            (std::vector<uint32_t>{0, 16, 32, 33, 34, 34, 35, 36}));
  EXPECT_EQ(Sched.Order,
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(Sched.Length, 37u);
}

/// Property sweep: schedules of every generator family at several factors
/// are valid.
class ScheduleAllKinds : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleAllKinds, ValidAcrossFactors) {
  MachineModel M(itanium2Config());
  LoopKind Kind = static_cast<LoopKind>(GetParam());
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    Rng Generator(Seed * 31 + GetParam());
    LoopGenParams Params;
    Params.Name = "sched";
    Params.TripCount = 128;
    Params.RuntimeTripCount = 128;
    Loop L = generateLoop(Kind, Params, Generator);
    for (unsigned Factor : {1u, 4u, 8u}) {
      Loop U = unrollLoop(L, Factor);
      DependenceGraph DG(U);
      Schedule Sched = listSchedule(U, DG, M);
      expectValidSchedule(U, DG, Sched, M);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScheduleAllKinds,
                         ::testing::Range(0,
                                          static_cast<int>(NumLoopKinds)));

//===----------------------------------------------------------------------===//
// Modulo scheduler
//===----------------------------------------------------------------------===//

TEST(ModuloSchedulerTest, RejectsExitsAndCalls) {
  MachineModel M(itanium2Config());
  LoopBuilder B("exit", SourceLanguage::C, 1, 64);
  RegId V = B.load(RegClass::Int, {0, 4, 0, false, 4});
  RegId Lim = B.liveIn(RegClass::Int, "lim");
  B.exitIf(B.icmp(V, Lim), 0.01);
  Loop L = B.finalize();
  DependenceGraph DG(L);
  EXPECT_FALSE(moduloSchedule(L, DG, M).Pipelined);

  LoopBuilder B2("call", SourceLanguage::C, 1, 64);
  RegId X = B2.load(RegClass::Float, {0, 8, 0, false, 8});
  B2.call({X});
  Loop L2 = B2.finalize();
  DependenceGraph DG2(L2);
  EXPECT_FALSE(moduloSchedule(L2, DG2, M).Pipelined);
}

TEST(ModuloSchedulerTest, IiAtLeastBounds) {
  MachineModel M(itanium2Config());
  Loop L = makeDaxpy(2);
  DependenceGraph DG(L);
  SwpResult Swp = moduloSchedule(L, DG, M);
  ASSERT_TRUE(Swp.Pipelined);
  EXPECT_GE(Swp.II, Swp.ResMII);
  EXPECT_GE(Swp.II + 1e-9, Swp.RecMII);
  EXPECT_GE(Swp.StageCount, 1);
}

TEST(ModuloSchedulerTest, StreamingLoopReachesResourceBound) {
  MachineModel M(itanium2Config());
  Loop L = makeDaxpy(4); // 12 mem ops + 4 fma: mem-bound, 3 cycles.
  DependenceGraph DG(L);
  SwpResult Swp = moduloSchedule(L, DG, M);
  ASSERT_TRUE(Swp.Pipelined);
  EXPECT_EQ(Swp.II, Swp.ResMII);
}

TEST(ModuloSchedulerTest, RecurrenceBoundLoop) {
  MachineModel M(itanium2Config());
  LoopBuilder B("iir", SourceLanguage::C, 1, 256);
  RegId A = B.liveIn(RegClass::Float, "a");
  RegId Y = B.phi(RegClass::Float, "y");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  B.setPhiRecur(Y, B.fma(A, Y, X));
  Loop L = B.finalize();
  DependenceGraph DG(L);
  SwpResult Swp = moduloSchedule(L, DG, M);
  ASSERT_TRUE(Swp.Pipelined);
  // Bound by the fma latency on the y -> y cycle.
  EXPECT_GE(Swp.II, M.latency(Opcode::FMA));
}

TEST(ModuloSchedulerTest, UnrollingEnablesFractionalII) {
  // The paper's SWP story: II(u)/u can beat II(1) when II(1) has
  // fractional slack.
  MachineModel M(itanium2Config());
  Loop L = makeDaxpy(1); // 3 mem ops -> ResMII 0.75 -> II=1 at u=1? No:
                          // ceil(0.75)=1, already integral; use 2 streams.
  Loop L2 = makeDaxpy(2); // 6 mem ops -> 1.5 -> II 2 at u=1, 3 at u=2.
  DependenceGraph DG1(L2);
  SwpResult S1 = moduloSchedule(L2, DG1, M);
  Loop U2 = unrollLoop(L2, 2);
  DependenceGraph DG2(U2);
  SwpResult S2 = moduloSchedule(U2, DG2, M);
  ASSERT_TRUE(S1.Pipelined && S2.Pipelined);
  EXPECT_LT(static_cast<double>(S2.II) / 2.0,
            static_cast<double>(S1.II) + 1e-9);
}

TEST(ModuloSchedulerTest, TightRegisterBudgetRaisesIiOrSpills) {
  MachineModel M(itanium2Config());
  Loop U = unrollLoop(makeDaxpy(3), 8);
  DependenceGraph DG(U);
  SwpResult Ample = moduloSchedule(U, DG, M);
  RegBudget Tight{6, 6};
  SwpResult Constrained = moduloSchedule(U, DG, M, Tight);
  ASSERT_TRUE(Ample.Pipelined && Constrained.Pipelined);
  EXPECT_TRUE(Constrained.II > Ample.II ||
              Constrained.SpillsPerIteration > Ample.SpillsPerIteration);
}

TEST(ModuloSchedulerTest, ResourceMiiForLoopCountsPools) {
  MachineModel M(itanium2Config());
  Loop L = makeDaxpy(4);
  // 8 loads + 4 stores on 4 M units -> at least 3.0.
  EXPECT_GE(resourceMIIForLoop(L, M), 3.0);
}
