//===- sched/ModuloScheduler.cpp ------------------------------------------===//

#include "sched/ModuloScheduler.h"

#include "analysis/Recurrence.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

using namespace metaopt;

double metaopt::resourceMIIForLoop(const Loop &L,
                                   const MachineModel &Machine) {
  int Total = 0;
  std::array<int, NumUnitKinds> Count = {};
  int FlexibleInt = 0; // A-type ops that can also use a memory slot.
  for (const Instruction &Instr : L.body()) {
    // Folded loop control and paired wide-load halves are free.
    if (!occupiesIssueSlot(Instr))
      continue;
    ++Total;
    UnitKind Kind = Machine.unitFor(Instr.Op);
    ++Count[static_cast<unsigned>(Kind)];
    if (Kind == UnitKind::Int && Machine.canUseMemUnit(Instr.Op))
      ++FlexibleInt;
  }

  double MII = static_cast<double>(Total) / Machine.issueWidth();
  auto Bound = [&](double Ops, int Units) {
    if (Units > 0)
      MII = std::max(MII, Ops / Units);
  };
  Bound(Count[static_cast<unsigned>(UnitKind::Fp)],
        Machine.unitCount(UnitKind::Fp));
  Bound(Count[static_cast<unsigned>(UnitKind::Br)],
        Machine.unitCount(UnitKind::Br));
  Bound(Count[static_cast<unsigned>(UnitKind::Mem)],
        Machine.unitCount(UnitKind::Mem));
  // Inflexible integer ops need I slots; the flexible ones share I+M with
  // the memory operations.
  int IntOps = Count[static_cast<unsigned>(UnitKind::Int)];
  Bound(IntOps - FlexibleInt, Machine.unitCount(UnitKind::Int));
  Bound(IntOps + Count[static_cast<unsigned>(UnitKind::Mem)],
        Machine.unitCount(UnitKind::Int) + Machine.unitCount(UnitKind::Mem));
  // Deliberately unclamped: fractional values below 1.0 carry the "wasted
  // issue slots" signal the unroll heuristics act on; schedulers take the
  // ceiling themselves.
  return MII;
}

SwpResult metaopt::moduloSchedule(const Loop &L, const DependenceGraph &DG,
                                  const MachineModel &Machine,
                                  const RegBudget &Budget) {
  SwpResult Result;

  // Production pipeliners reject loops with internal control transfers.
  for (const Instruction &Instr : L.body()) {
    if (Instr.Op == Opcode::ExitIf || Instr.isCall()) {
      Result.Pipelined = false;
      return Result;
    }
  }

  Result.ResMII = static_cast<int>(
      std::ceil(resourceMIIForLoop(L, Machine) - 1e-9));
  Result.RecMII = recurrenceMII(
      L, DG, [&Machine](Opcode Op) { return Machine.latency(Op); });
  int MinII = std::max(Result.ResMII,
                       static_cast<int>(std::ceil(Result.RecMII - 1e-9)));
  MinII = std::max(MinII, 1);

  // ASAP start times over intra-iteration dependences (machine latencies);
  // body order is a topological order of the distance-0 subgraph.
  size_t N = DG.numNodes();
  std::vector<int> Start(N, 0);
  int Makespan = 1;
  for (uint32_t Node = 0; Node < N; ++Node) {
    for (uint32_t EdgeIdx : DG.predecessors(Node)) {
      const DepEdge &Edge = DG.edge(EdgeIdx);
      if (Edge.Distance != 0)
        continue;
      int Delay = 0;
      switch (Edge.Kind) {
      case DepKind::Data:
        Delay = Machine.latency(L.body()[Edge.Src].Op);
        break;
      case DepKind::Memory:
        Delay = 1;
        break;
      case DepKind::Control:
        Delay = 0;
        break;
      }
      Start[Node] = std::max(Start[Node], Start[Edge.Src] + Delay);
    }
    Makespan = std::max(Makespan,
                        Start[Node] + Machine.latency(L.body()[Node].Op));
  }

  // Value lifetimes: from definition to last intra-iteration use (at least
  // the producer latency); recurrence sources stay live into the next
  // iteration, adding II cycles, which is accounted inside the pressure
  // loop below since it depends on II.
  std::vector<char> Recurs(L.numRegs(), 0);
  for (const PhiNode &Phi : L.phis())
    if (Phi.Recur < Recurs.size())
      Recurs[Phi.Recur] = 1;

  struct Lifetime {
    int Cycles = 0;
    bool CrossesIteration = false;
    RegClass RC = RegClass::Int;
  };
  std::vector<Lifetime> Lifetimes;
  Lifetimes.reserve(N);
  for (uint32_t Node = 0; Node < N; ++Node) {
    const Instruction &Instr = L.body()[Node];
    if (!Instr.hasDest())
      continue;
    int DefStart = Start[Node];
    int LastUse = DefStart + Machine.latency(Instr.Op);
    for (uint32_t EdgeIdx : DG.successors(Node)) {
      const DepEdge &Edge = DG.edge(EdgeIdx);
      if (Edge.Kind != DepKind::Data || Edge.Distance != 0)
        continue;
      LastUse = std::max(LastUse, Start[Edge.Dst]);
    }
    Lifetime Life;
    Life.Cycles = LastUse - DefStart;
    Life.CrossesIteration = Recurs[Instr.Dest] != 0;
    Life.RC = L.regClass(Instr.Dest);
    Lifetimes.push_back(Life);
  }

  // Register-pressure-driven II selection: in a modulo schedule the mean
  // number of live values of a class is (sum of lifetimes) / II. Bump II
  // until the pressure fits or the bump budget (2x) is exhausted; any
  // residue spills.
  int II = MinII;
  int MaxII = std::max(MinII * 2, MinII + 4);
  unsigned Spills = 0;
  for (;; ++II) {
    double IntPressure = 0.0, FloatPressure = 0.0;
    for (const Lifetime &Life : Lifetimes) {
      double Cycles = Life.Cycles + (Life.CrossesIteration ? II : 0);
      double Pressure = Cycles / II;
      if (Life.RC == RegClass::Int)
        IntPressure += Pressure;
      else if (Life.RC == RegClass::Float)
        FloatPressure += Pressure;
    }
    double IntOver =
        IntPressure - std::min(Machine.config().IntRegs, Budget.IntRegs);
    double FloatOver =
        FloatPressure - std::min(Machine.config().FloatRegs, Budget.FpRegs);
    if ((IntOver <= 0.0 && FloatOver <= 0.0) || II >= MaxII) {
      Spills = static_cast<unsigned>(std::ceil(std::max(0.0, IntOver)) +
                                     std::ceil(std::max(0.0, FloatOver)));
      break;
    }
  }

  Result.Pipelined = true;
  Result.II = II;
  Result.StageCount = std::max(1, (Makespan + II - 1) / II);
  Result.SpillsPerIteration = Spills;
  return Result;
}
