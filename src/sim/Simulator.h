//===- sim/Simulator.h - Loop execution cost model ---------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate that stands in for the paper's 1.3 GHz Itanium 2:
/// given a loop and an unroll factor it "compiles" (unroll + schedule) and
/// computes a cycle count for the whole loop execution, modeling the
/// effects that make unroll-factor selection nontrivial:
///
///  - ILP extraction by the list scheduler / software pipeliner,
///  - cross-iteration stalls from loop-carried recurrences,
///  - register pressure -> spill code,
///  - i-cache pressure from code expansion (each loop owns only an
///    effective share of L1I, provided by the per-loop SimContext),
///  - replicated early-exit branches and their speculation limits,
///  - epilogue (remainder) iterations and unknown-trip-count overhead.
///
/// The result is deterministic; measurement noise is layered on top by
/// sim/Measurement.h exactly as the paper's instrumentation protocol does.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SIM_SIMULATOR_H
#define METAOPT_SIM_SIMULATOR_H

#include "ir/Loop.h"
#include "machine/Machine.h"
#include "sched/Schedule.h"

namespace metaopt {

/// Program-context parameters attached to each loop by the corpus: how the
/// surrounding program shares the machine with this loop.
struct SimContext {
  /// Effective L1I bytes this loop can occupy before it starts missing
  /// (the rest of the cache serves the surrounding program).
  int EffectiveIcacheBytes = 8 * 1024;
  /// L1D miss probability per memory operation and the visible fraction of
  /// the miss latency (the rest overlaps with execution).
  double DcacheMissRate = 0.02;
  int DcacheMissCycles = 12;
  double DcacheVisibleFraction = 0.5;
  /// Registers actually available to this loop: the enclosing function's
  /// live values and the register stack engine consume the rest of the
  /// files. Capped by the machine's own budget.
  int IntRegBudget = 48;
  int FpRegBudget = 48;
};

/// Outcome of one "compile and run" of a loop at a given unroll factor.
struct SimResult {
  double Cycles = 0.0;        ///< Total cycles for the whole execution.
  double CyclesPerIteration = 0.0; ///< Per *original* iteration, steady state.
  bool UsedSwp = false;       ///< Software pipelining succeeded.
  int II = 0;                 ///< Steady-state II when UsedSwp.
  unsigned SpillPairs = 0;    ///< Spill store+reload pairs per body.
  uint32_t ScheduleLength = 0; ///< List-schedule length (SWP off path).
  int CodeBytes = 0;          ///< Unrolled body code size.

  /// Field-wise (bit-exact for the doubles) equality; the simulation
  /// cache's correctness tests compare cached against fresh results.
  friend bool operator==(const SimResult &, const SimResult &) = default;
};

/// Compiles \p L at unroll factor \p Factor for \p Machine and returns the
/// modeled execution cost over the loop's runtime trip count: the
/// compileLoopSim + evaluatePlan pair of sim/SimCompile.h, for one factor.
/// Throws std::invalid_argument for a factor outside [1, MaxUnrollFactor]
/// and std::domain_error when the loop has no concrete runtime trip count.
SimResult simulateLoop(const Loop &L, unsigned Factor,
                       const MachineModel &Machine, const SimContext &Ctx,
                       bool EnableSwp);

} // namespace metaopt

#endif // METAOPT_SIM_SIMULATOR_H
