//===- sched/ListScheduler.cpp --------------------------------------------===//

#include "sched/ListScheduler.h"

#include "sched/ScheduleValidate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <span>

using namespace metaopt;

// The latency/delay/enforcement model lives in sched/ScheduleValidate.h
// (schedEffectiveLatencies, schedEdgeDelay, schedEdgeEnforced) so that
// validateListSchedule re-derives the same constraints independently of
// this scheduler's bookkeeping.

namespace {

/// How one instruction occupies the machine: not at all (folded loop
/// control, paired wide-load halves), or one issue slot on its primary
/// unit pool, where A-type integer operations may fall over to a free
/// memory slot. Derived once per node.
struct IssueClass {
  bool Free = false;
  UnitKind Primary = UnitKind::Int;
  bool MemFallback = false;
};

IssueClass classify(const MachineModel &Machine, const Instruction &Instr) {
  IssueClass C;
  C.Free = !occupiesIssueSlot(Instr);
  C.Primary = Machine.unitFor(Instr.Op);
  C.MemFallback =
      C.Primary == UnitKind::Int && Machine.canUseMemUnit(Instr.Op);
  return C;
}

/// Per-cycle resource bookkeeping.
class ResourceTable {
public:
  explicit ResourceTable(const MachineModel &Machine)
      : Width(Machine.issueWidth()) {
    for (unsigned Kind = 0; Kind < NumUnitKinds; ++Kind)
      Capacity[Kind] = Machine.unitCount(static_cast<UnitKind>(Kind));
  }

  /// Tries to issue an instruction of class \p C in the current cycle;
  /// returns false when the required unit pool or the issue width is
  /// exhausted.
  bool tryIssue(const IssueClass &C) {
    if (C.Free)
      return true;
    if (Issued >= Width)
      return false;
    if (take(C.Primary) || (C.MemFallback && take(UnitKind::Mem))) {
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
    if (Used[Index] >= Capacity[Index])
      return false;
    ++Used[Index];
    return true;
  }

  int Width;
  std::array<int, NumUnitKinds> Capacity = {};
  std::array<int, NumUnitKinds> Used = {};
  int Issued = 0;
};

} // namespace

// Cycle-driven list scheduling. Each cycle offers the nodes whose
// enforced predecessors issued in an earlier cycle and whose operands are
// ready, in priority order (height descending, body index ascending), and
// issues every one the resource table accepts. An issue can never make
// another node eligible in the same cycle: its successors wait at least
// until the next cycle (even across a delay-0 edge), and a node eligible
// this cycle has no predecessor left to issue. So one scan of the cycle's
// eligible nodes equals collecting them up front and then issuing them.
//
// The work is linear in the graph plus the eligible nodes scanned:
//  - Each node's enforced successors and their delays are derived once.
//  - The priority is a strict total order that never changes, so nodes
//    carry their rank in it and the eligible set is a bitmap over ranks:
//    scanning its set bits visits the candidates in priority order.
//  - When a node's last enforced predecessor issues at cycle C, its
//    earliest cycle R is final, and C < R <= C + MaxDelay. It waits in a
//    ring of MaxDelay + 1 pending bitmaps, slot R mod size, which joins
//    the eligible set when cycle R begins. Scans therefore touch only
//    nodes that are eligible now; nodes waiting on a predecessor or on
//    latency are never visited.
//  - A cycle with no eligible node changes no state, so Cycle jumps
//    straight to the next non-empty pending slot.
//  - Both orders are counting sorts: the priority by height (heights are
//    small non-negative cycle counts), the issue order by cycle.
Schedule metaopt::listSchedule(const Loop &L, const DependenceGraph &DG,
                               const MachineModel &Machine) {
  size_t N = DG.numNodes();
  Schedule Result;
  Result.CycleOf.assign(N, 0);
  if (N == 0)
    return Result;

  std::vector<int> EffectiveLatency = schedEffectiveLatencies(L, DG, Machine);

  struct Successor {
    uint32_t Node;
    int Delay;
  };
  struct NodeState {
    uint32_t SuccEnd = 0; ///< Successors[previous node's SuccEnd, SuccEnd).
    IssueClass Issue;
    int Height = 0;
    uint32_t Rank = 0;          ///< Position in the priority order.
    int PredsLeft = 0;          ///< Enforced predecessors not yet issued.
    uint32_t EarliestCycle = 0; ///< Latest issue cycle + delay over them.
  };
  std::vector<NodeState> Nodes(N);
  std::vector<Successor> Successors;
  Successors.reserve(DG.edges().size());
  int MaxDelay = 1;
  for (uint32_t Node = 0; Node < N; ++Node) {
    Nodes[Node].Issue = classify(Machine, L.body()[Node]);
    for (uint32_t EdgeIdx : DG.successors(Node)) {
      const DepEdge &Edge = DG.edge(EdgeIdx);
      if (!schedEdgeEnforced(L, Edge))
        continue;
      int Delay = schedEdgeDelay(Edge, L, EffectiveLatency);
      assert(Delay >= 0 && "latencies and delays are non-negative");
      Successors.push_back({Edge.Dst, Delay});
      MaxDelay = std::max(MaxDelay, Delay);
      ++Nodes[Edge.Dst].PredsLeft;
    }
    Nodes[Node].SuccEnd = static_cast<uint32_t>(Successors.size());
  }
  auto SuccessorsOf = [&](uint32_t Node) {
    const Successor *Begin =
        Successors.data() + (Node ? Nodes[Node - 1].SuccEnd : 0);
    return std::span<const Successor>(Begin,
                                      Successors.data() + Nodes[Node].SuccEnd);
  };

  // Priority: longest latency-weighted path to any sink over enforced
  // edges ("height"). Computed backwards in body order (a reverse
  // topological order of the distance-0 subgraph).
  int MaxHeight = 0;
  for (uint32_t Node = static_cast<uint32_t>(N); Node-- > 0;) {
    int Height = EffectiveLatency[Node];
    for (const Successor &S : SuccessorsOf(Node))
      Height = std::max(Height, S.Delay + Nodes[S.Node].Height);
    Nodes[Node].Height = Height;
    MaxHeight = std::max(MaxHeight, Height);
  }
  // Counting sort by height descending; placing nodes in index order
  // keeps ties in ascending index order.
  std::vector<uint32_t> Prio(N);
  {
    std::vector<uint32_t> Start(static_cast<size_t>(MaxHeight) + 2, 0);
    for (const NodeState &S : Nodes)
      ++Start[static_cast<size_t>(MaxHeight - S.Height) + 1];
    for (size_t H = 1; H < Start.size(); ++H)
      Start[H] += Start[H - 1];
    for (uint32_t Node = 0; Node < N; ++Node) {
      size_t Bucket = static_cast<size_t>(MaxHeight - Nodes[Node].Height);
      uint32_t Rank = Start[Bucket]++;
      Prio[Rank] = Node;
      Nodes[Node].Rank = Rank;
    }
  }

  // Rank bitmaps: the eligible set, then the pending ring's slots.
  size_t Words = (N + 63) / 64;
  size_t Slots = static_cast<size_t>(MaxDelay) + 1;
  std::vector<uint64_t> Bitmaps((1 + Slots) * Words, 0);
  uint64_t *Eligible = Bitmaps.data();
  auto PendingSlot = [&](uint32_t Cycle) {
    return Bitmaps.data() + (1 + Cycle % Slots) * Words;
  };
  auto Set = [&](uint64_t *Bitmap, uint32_t Node) {
    uint32_t Rank = Nodes[Node].Rank;
    Bitmap[Rank / 64] |= uint64_t(1) << (Rank % 64);
  };
  for (uint32_t Node = 0; Node < N; ++Node)
    if (Nodes[Node].PredsLeft == 0)
      Set(Eligible, Node);
  size_t NumPending = 0;

  ResourceTable Resources(Machine);
  size_t Scheduled = 0;
  uint32_t Cycle = 0;
  // Guard against livelock; any body schedules in far fewer cycles.
  uint32_t CycleCap = static_cast<uint32_t>(64 * N + 1024);
  uint32_t LastCycle = 0;

  while (Scheduled < N && Cycle < CycleCap) {
    bool AnyEligible = false;
    uint64_t *Arriving = PendingSlot(Cycle);
    for (size_t Word = 0; Word < Words; ++Word) {
      NumPending -= static_cast<size_t>(std::popcount(Arriving[Word]));
      Eligible[Word] |= Arriving[Word];
      Arriving[Word] = 0;
      AnyEligible |= Eligible[Word] != 0;
    }
    for (size_t Word = 0; Word < Words; ++Word) {
      for (uint64_t Bits = Eligible[Word]; Bits != 0; Bits &= Bits - 1) {
        unsigned Bit = static_cast<unsigned>(std::countr_zero(Bits));
        uint32_t Node = Prio[Word * 64 + Bit];
        if (!Resources.tryIssue(Nodes[Node].Issue))
          continue;
        Eligible[Word] &= ~(uint64_t(1) << Bit);
        Result.CycleOf[Node] = Cycle;
        LastCycle = Cycle;
        ++Scheduled;
        for (const Successor &Succ : SuccessorsOf(Node)) {
          NodeState &D = Nodes[Succ.Node];
          uint32_t SuccReady = Cycle + static_cast<uint32_t>(Succ.Delay);
          D.EarliestCycle = std::max(D.EarliestCycle, SuccReady);
          if (--D.PredsLeft == 0) {
            Set(PendingSlot(std::max(Cycle + 1, D.EarliestCycle)),
                Succ.Node);
            ++NumPending;
          }
        }
      }
    }
    Resources.nextCycle();
    ++Cycle;
    if (!AnyEligible && NumPending != 0) {
      // Nothing could issue: skip to the next cycle a node arrives in.
      auto Empty = [&](const uint64_t *Slot) {
        for (size_t Word = 0; Word < Words; ++Word)
          if (Slot[Word] != 0)
            return false;
        return true;
      };
      while (Empty(PendingSlot(Cycle)))
        ++Cycle;
    }
  }
  assert(Scheduled == N && "list scheduler failed to place all operations");

  // Issue order: counting sort by cycle, body index ascending within one.
  std::vector<uint32_t> Start(static_cast<size_t>(LastCycle) + 2, 0);
  for (uint32_t C : Result.CycleOf)
    ++Start[C + 1];
  for (size_t C = 1; C < Start.size(); ++C)
    Start[C] += Start[C - 1];
  Result.Order.resize(N);
  for (uint32_t Node = 0; Node < N; ++Node)
    Result.Order[Start[Result.CycleOf[Node]]++] = Node;
  Result.Length = LastCycle + 1;
  return Result;
}
