//===- sched/ListScheduler.cpp --------------------------------------------===//

#include "sched/ListScheduler.h"

#include "sched/ScheduleValidate.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

using namespace metaopt;

// The latency/delay/enforcement model lives in sched/ScheduleValidate.cpp
// (schedEffectiveLatencies, schedEdgeDelay, schedEdgeEnforced) so that
// validateListSchedule re-derives the same constraints independently of
// this scheduler's bookkeeping.

namespace {

/// Per-cycle resource bookkeeping.
class ResourceTable {
public:
  explicit ResourceTable(const MachineModel &Machine) : Machine(Machine) {}

  /// Tries to issue \p Instr in the current cycle; returns false when
  /// the required unit pool or the issue width is exhausted.
  bool tryIssue(const Instruction &Instr) {
    // Folded loop control and paired wide-load halves are free.
    if (!occupiesIssueSlot(Instr))
      return true;
    Opcode Op = Instr.Op;
    if (Issued >= Machine.issueWidth())
      return false;
    UnitKind Primary = Machine.unitFor(Op);
    if (take(Primary)) {
      ++Issued;
      return true;
    }
    // A-type integer operations may fall over to a free memory slot.
    if (Primary == UnitKind::Int && Machine.canUseMemUnit(Op) &&
        take(UnitKind::Mem)) {
      ++Issued;
      return true;
    }
    return false;
  }

  void nextCycle() {
    Used.fill(0);
    Issued = 0;
  }

private:
  bool take(UnitKind Kind) {
    unsigned Index = static_cast<unsigned>(Kind);
    if (Used[Index] >= Machine.unitCount(Kind))
      return false;
    ++Used[Index];
    return true;
  }

  const MachineModel &Machine;
  std::array<int, NumUnitKinds> Used = {};
  int Issued = 0;
};

} // namespace

// Cycle-driven list scheduling. Each cycle offers the nodes whose
// enforced predecessors have all issued and whose operands are ready, in
// priority order (height descending, body index ascending), and issues
// every one the resource table accepts. The priority is a strict total
// order that never changes, so one statically sorted order scanned per
// cycle visits each cycle's candidates in issue order without rebuilding
// and re-sorting a candidate list. Two invariants make that scan equal to
// collecting the cycle's candidates up front and then issuing them:
//
//  - Cycle-start snapshot: a node is a candidate only if its last enforced
//    predecessor issued in an *earlier* cycle. ReadyFrom[Dst] = Cycle + 1,
//    stamped when the count reaches zero mid-cycle, defers such a node to
//    the next cycle; without it, the successor of a delay-0 enforced edge
//    would issue in the same cycle as its predecessor.
//
//  - No mid-cycle constraint changes for eligible nodes: if a node is
//    eligible this cycle, all its enforced predecessors issued before the
//    cycle began, so no issue during the scan can raise its
//    EarliestCycle. Checking eligibility at visit time is therefore the
//    same as checking at cycle start.
Schedule metaopt::listSchedule(const Loop &L, const DependenceGraph &DG,
                               const MachineModel &Machine) {
  size_t N = DG.numNodes();
  Schedule Result;
  Result.CycleOf.assign(N, 0);
  if (N == 0)
    return Result;

  auto Enforced = [&](const DepEdge &Edge) {
    return schedEdgeEnforced(L, Edge);
  };

  std::vector<int> EffectiveLatency = schedEffectiveLatencies(L, DG, Machine);

  // Priority: longest latency-weighted path to any sink over enforced
  // edges ("height"). Computed backwards in body order (a reverse
  // topological order of the distance-0 subgraph).
  std::vector<int> Height(N, 0);
  for (uint32_t Node = static_cast<uint32_t>(N); Node-- > 0;) {
    Height[Node] = EffectiveLatency[Node];
    for (uint32_t EdgeIdx : DG.successors(Node)) {
      const DepEdge &Edge = DG.edge(EdgeIdx);
      if (!Enforced(Edge))
        continue;
      int Delay = schedEdgeDelay(Edge, L, EffectiveLatency);
      Height[Node] = std::max(Height[Node], Delay + Height[Edge.Dst]);
    }
  }
  std::vector<uint32_t> Prio(N);
  std::iota(Prio.begin(), Prio.end(), 0);
  std::sort(Prio.begin(), Prio.end(), [&](uint32_t A, uint32_t B) {
    if (Height[A] != Height[B])
      return Height[A] > Height[B];
    return A < B;
  });

  // Remaining enforced predecessor counts and earliest-issue constraints.
  std::vector<int> PredsLeft(N, 0);
  for (const DepEdge &Edge : DG.edges())
    if (Enforced(Edge))
      ++PredsLeft[Edge.Dst];
  std::vector<uint32_t> EarliestCycle(N, 0);
  std::vector<uint32_t> ReadyFrom(N, 0);
  std::vector<char> Done(N, 0);

  ResourceTable Resources(Machine);
  size_t Scheduled = 0;
  uint32_t Cycle = 0;
  // Guard against livelock; any body schedules in far fewer cycles.
  uint32_t CycleCap = static_cast<uint32_t>(64 * N + 1024);
  constexpr uint32_t Never = std::numeric_limits<uint32_t>::max();

  // Two scan reductions, neither of which can change an issue decision:
  //  - Issued nodes are stably compacted out of the priority order; the
  //    surviving nodes are visited in the same relative order.
  //  - A cycle in which no node passed the dependence/readiness checks
  //    changed no state (tryIssue was never reached), so Cycle jumps
  //    straight to the earliest ReadyFrom/EarliestCycle constraint among
  //    dependence-free nodes instead of re-scanning every empty cycle.
  size_t Active = N;
  while (Scheduled < N && Cycle < CycleCap) {
    bool AnyEligible = false;
    bool AnyIssued = false;
    uint32_t NextReady = Never;
    for (size_t PI = 0; PI < Active; ++PI) {
      uint32_t Node = Prio[PI];
      if (Done[Node] || PredsLeft[Node] != 0)
        continue;
      uint32_t ReadyAt = std::max(ReadyFrom[Node], EarliestCycle[Node]);
      if (ReadyAt > Cycle) {
        NextReady = std::min(NextReady, ReadyAt);
        continue;
      }
      AnyEligible = true;
      if (!Resources.tryIssue(L.body()[Node]))
        continue;
      Done[Node] = 1;
      Result.CycleOf[Node] = Cycle;
      AnyIssued = true;
      ++Scheduled;
      for (uint32_t EdgeIdx : DG.successors(Node)) {
        const DepEdge &Edge = DG.edge(EdgeIdx);
        if (!Enforced(Edge))
          continue;
        uint32_t SuccReady =
            Cycle +
            static_cast<uint32_t>(schedEdgeDelay(Edge, L, EffectiveLatency));
        EarliestCycle[Edge.Dst] = std::max(EarliestCycle[Edge.Dst], SuccReady);
        if (--PredsLeft[Edge.Dst] == 0)
          ReadyFrom[Edge.Dst] = Cycle + 1;
      }
    }
    if (AnyIssued) {
      size_t Kept = 0;
      for (size_t PI = 0; PI < Active; ++PI)
        if (!Done[Prio[PI]])
          Prio[Kept++] = Prio[PI];
      Active = Kept;
    }
    Resources.nextCycle();
    if (!AnyEligible && NextReady != Never && NextReady > Cycle + 1)
      Cycle = NextReady;
    else
      ++Cycle;
  }
  assert(Scheduled == N && "list scheduler failed to place all operations");

  Result.Order.resize(N);
  std::iota(Result.Order.begin(), Result.Order.end(), 0);
  std::sort(Result.Order.begin(), Result.Order.end(),
            [&](uint32_t A, uint32_t B) {
              if (Result.CycleOf[A] != Result.CycleOf[B])
                return Result.CycleOf[A] < Result.CycleOf[B];
              return A < B;
            });
  uint32_t LastCycle = 0;
  for (uint32_t Node = 0; Node < N; ++Node)
    LastCycle = std::max(LastCycle, Result.CycleOf[Node]);
  Result.Length = LastCycle + 1;
  return Result;
}
