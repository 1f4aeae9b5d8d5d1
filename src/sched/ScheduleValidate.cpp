//===- sched/ScheduleValidate.cpp -----------------------------------------===//

#include "sched/ScheduleValidate.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace metaopt;

std::vector<int> metaopt::schedEffectiveLatencies(const Loop &L,
                                                  const DependenceGraph &DG,
                                                  const MachineModel &Machine) {
  size_t N = DG.numNodes();
  std::vector<int> Latency(N);
  bool SawExit = false;
  for (uint32_t Node = 0; Node < N; ++Node) {
    const Instruction &Instr = L.body()[Node];
    Latency[Node] = Machine.latency(Instr.Op);
    if (Instr.Op == Opcode::ExitIf)
      SawExit = true;
    if (!Instr.isLoad() || Instr.Mem.Indirect)
      continue;
    // Hoisting a load across an earlier (replicated) early exit would be
    // control speculation with recovery cost; the code generator declines,
    // so such loads keep their full latency. This is one of the paper's
    // listed drawbacks of unrolling loops with internal control flow.
    if (SawExit)
      continue;
    bool FedByCarriedStore = false;
    for (uint32_t EdgeIdx : DG.predecessors(Node)) {
      const DepEdge &Edge = DG.edge(EdgeIdx);
      if (Edge.Kind == DepKind::Memory && Edge.Distance >= 1)
        FedByCarriedStore = true;
    }
    if (!FedByCarriedStore)
      Latency[Node] = 1; // Rotated/pipelined load.
  }
  return Latency;
}

namespace {

std::string fmt(const char *Format, long A, long B = 0, long C = 0,
                long D = 0) {
  char Buffer[256];
  std::snprintf(Buffer, sizeof(Buffer), Format, A, B, C, D);
  return Buffer;
}

} // namespace

std::vector<std::string>
metaopt::validateListSchedule(const Loop &L, const DependenceGraph &DG,
                              const MachineModel &Machine,
                              const Schedule &Sched) {
  std::vector<std::string> Errors;
  size_t N = DG.numNodes();

  if (Sched.CycleOf.size() != N || Sched.Order.size() != N) {
    Errors.push_back(fmt("schedule covers %ld/%ld body instructions",
                         static_cast<long>(Sched.Order.size()),
                         static_cast<long>(N)));
    return Errors; // Everything below indexes by body position.
  }
  if (N == 0)
    return Errors;

  // Order must be the identity permutation re-sorted by (cycle, index).
  std::vector<bool> Seen(N, false);
  for (uint32_t Node : Sched.Order) {
    if (Node >= N || Seen[Node]) {
      Errors.push_back(fmt("issue order is not a permutation (node %ld)",
                           static_cast<long>(Node)));
      return Errors;
    }
    Seen[Node] = true;
  }
  for (size_t Pos = 1; Pos < N; ++Pos) {
    uint32_t Prev = Sched.Order[Pos - 1], Cur = Sched.Order[Pos];
    bool Sorted = Sched.CycleOf[Prev] < Sched.CycleOf[Cur] ||
                  (Sched.CycleOf[Prev] == Sched.CycleOf[Cur] && Prev < Cur);
    if (!Sorted)
      Errors.push_back(fmt("issue order not sorted by (cycle, index) at "
                           "position %ld: node %ld then node %ld",
                           static_cast<long>(Pos), static_cast<long>(Prev),
                           static_cast<long>(Cur)));
  }

  // Dependence timing over every enforced edge.
  std::vector<int> EffectiveLatency = schedEffectiveLatencies(L, DG, Machine);
  for (const DepEdge &Edge : DG.edges()) {
    if (!schedEdgeEnforced(L, Edge))
      continue;
    uint32_t Earliest =
        Sched.CycleOf[Edge.Src] +
        static_cast<uint32_t>(schedEdgeDelay(Edge, L, EffectiveLatency));
    if (Sched.CycleOf[Edge.Dst] < Earliest)
      Errors.push_back(
          fmt("node %ld at cycle %ld violates edge from node %ld "
              "(earliest legal cycle %ld)",
              static_cast<long>(Edge.Dst),
              static_cast<long>(Sched.CycleOf[Edge.Dst]),
              static_cast<long>(Edge.Src), static_cast<long>(Earliest)));
  }

  // Per-cycle resource feasibility. The scheduler assigns units greedily,
  // but legality only needs *an* assignment to exist: the non-overflowable
  // integer operations must fit the I pool, whatever overflows the I pool
  // must fit in the M pool next to the memory operations, and each other
  // pool must hold its own. Folded instructions are free.
  std::map<uint32_t, std::vector<uint32_t>> ByCycle;
  for (uint32_t Node = 0; Node < N; ++Node)
    if (occupiesIssueSlot(L.body()[Node]))
      ByCycle[Sched.CycleOf[Node]].push_back(Node);

  for (const auto &[Cycle, Nodes] : ByCycle) {
    if (static_cast<int>(Nodes.size()) > Machine.issueWidth())
      Errors.push_back(fmt("cycle %ld issues %ld ops, issue width is %ld",
                           static_cast<long>(Cycle),
                           static_cast<long>(Nodes.size()),
                           static_cast<long>(Machine.issueWidth())));
    std::array<int, NumUnitKinds> Count = {};
    int IntOverflowable = 0;
    for (uint32_t Node : Nodes) {
      Opcode Op = L.body()[Node].Op;
      UnitKind Primary = Machine.unitFor(Op);
      ++Count[static_cast<unsigned>(Primary)];
      if (Primary == UnitKind::Int && Machine.canUseMemUnit(Op))
        ++IntOverflowable;
    }
    int IntOps = Count[static_cast<unsigned>(UnitKind::Int)];
    int MemOps = Count[static_cast<unsigned>(UnitKind::Mem)];
    int IntFixed = IntOps - IntOverflowable;
    int Spill = std::max(0, IntOps - Machine.unitCount(UnitKind::Int));
    if (IntFixed > Machine.unitCount(UnitKind::Int))
      Errors.push_back(fmt("cycle %ld needs %ld I-only slots, pool has %ld",
                           static_cast<long>(Cycle),
                           static_cast<long>(IntFixed),
                           static_cast<long>(Machine.unitCount(UnitKind::Int))));
    if (MemOps + Spill > Machine.unitCount(UnitKind::Mem))
      Errors.push_back(
          fmt("cycle %ld needs %ld M slots (%ld memory + %ld overflow), "
              "pool has %ld",
              static_cast<long>(Cycle), static_cast<long>(MemOps + Spill),
              static_cast<long>(MemOps), static_cast<long>(Spill)) +
          fmt(" (pool %ld)",
              static_cast<long>(Machine.unitCount(UnitKind::Mem))));
    for (UnitKind Kind : {UnitKind::Fp, UnitKind::Br}) {
      int Ops = Count[static_cast<unsigned>(Kind)];
      if (Ops > Machine.unitCount(Kind))
        Errors.push_back(fmt("cycle %ld needs %ld slots in pool %ld, has %ld",
                             static_cast<long>(Cycle), static_cast<long>(Ops),
                             static_cast<long>(Kind),
                             static_cast<long>(Machine.unitCount(Kind))));
    }
  }

  // The backedge branch closes the iteration: it issues in the final cycle
  // and Length counts through it.
  uint32_t LastCycle = 0;
  for (uint32_t Node = 0; Node < N; ++Node)
    LastCycle = std::max(LastCycle, Sched.CycleOf[Node]);
  uint32_t BackBrNode = static_cast<uint32_t>(N - 1);
  if (L.body()[BackBrNode].Op == Opcode::BackBr &&
      Sched.CycleOf[BackBrNode] != LastCycle)
    Errors.push_back(fmt("backedge branch at cycle %ld, last cycle is %ld",
                         static_cast<long>(Sched.CycleOf[BackBrNode]),
                         static_cast<long>(LastCycle)));
  if (Sched.Length != LastCycle + 1)
    Errors.push_back(fmt("Length is %ld, last cycle + 1 is %ld",
                         static_cast<long>(Sched.Length),
                         static_cast<long>(LastCycle + 1)));
  return Errors;
}
