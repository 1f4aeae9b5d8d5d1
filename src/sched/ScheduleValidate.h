//===- sched/ScheduleValidate.h - Schedule legality checking ----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent legality checking for acyclic (list) schedules, plus the
/// shared latency/delay model the list scheduler plans with. Factoring the
/// model out of ListScheduler.cpp lets a validator re-derive every timing
/// constraint from the dependence graph and check a Schedule against it
/// without trusting the scheduler's own bookkeeping — which is what the
/// differential fuzzer (fuzz/Oracles.h) and sched_test lean on. The
/// modulo-schedule counterpart is validateModuloSchedule
/// (sched/IterativeModulo.h).
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SCHED_SCHEDULEVALIDATE_H
#define METAOPT_SCHED_SCHEDULEVALIDATE_H

#include "analysis/DependenceGraph.h"
#include "ir/Loop.h"
#include "machine/Machine.h"
#include "sched/Schedule.h"

#include <string>
#include <vector>

namespace metaopt {

/// Per-node latencies as the code generator sees them: direct loads not
/// behind an exit and not fed by a carried store are rotated (latency 1),
/// everything else keeps its machine latency.
std::vector<int> schedEffectiveLatencies(const Loop &L,
                                         const DependenceGraph &DG,
                                         const MachineModel &Machine);

/// Scheduling delay of \p Edge: data dependences wait out the producer's
/// effective latency (one cycle into a store's data operand), memory
/// ordering needs one cycle, control ordering allows same-cycle issue.
/// Inline: the list scheduler asks once per edge.
inline int schedEdgeDelay(const DepEdge &Edge, const Loop &L,
                          const std::vector<int> &EffectiveLatency) {
  switch (Edge.Kind) {
  case DepKind::Data: {
    const Instruction &Dst = L.body()[Edge.Dst];
    if (Dst.isStore() && !Dst.Operands.empty() &&
        L.body()[Edge.Src].Dest == Dst.Operands[0])
      return 1; // Store buffer absorbs the producer's remaining latency.
    return EffectiveLatency[Edge.Src];
  }
  case DepKind::Memory:
    return 1;
  case DepKind::Control:
    return 0;
  }
  return 0;
}

/// True when the list scheduler must honor \p Edge: every distance-0 edge
/// except speculatable control edges, which are re-enforced only into the
/// backedge branch (the loop cannot branch back before its work issued).
inline bool schedEdgeEnforced(const Loop &L, const DepEdge &Edge) {
  if (Edge.Distance != 0)
    return false; // Cross-iteration constraints are the simulator's job.
  if (!Edge.Speculatable)
    return true;
  return L.body()[Edge.Dst].Op == Opcode::BackBr;
}

/// Checks \p Sched against every constraint listSchedule promises:
/// complete placement, deterministic issue order, enforced-edge timing,
/// per-cycle issue width and unit-pool feasibility (including the
/// Int-to-Mem overflow for A-type operations), folded instructions issuing
/// for free, the backedge branch issuing last, and Length consistency.
/// Returns human-readable violations; empty means legal.
std::vector<std::string> validateListSchedule(const Loop &L,
                                              const DependenceGraph &DG,
                                              const MachineModel &Machine,
                                              const Schedule &Sched);

} // namespace metaopt

#endif // METAOPT_SCHED_SCHEDULEVALIDATE_H
