//===- sim/SimCompile.h - Compile once, evaluate per context ----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator split into a context-independent *compile* step and a
/// cheap per-context *evaluate* step; simulateLoop() (sim/Simulator.h) is
/// the two run back to back for one factor.
///
/// Simulating a loop at a factor runs: unroll -> symbolic analysis ->
/// memory optimization -> dependence graph -> list schedule -> liveness ->
/// cost model. Of those, only the final cost arithmetic reads the
/// SimContext (cache shares, d-cache rates, register budgets); everything
/// upstream depends on the loop structure, the factor, and the machine
/// alone. The labeling sweep exploits that twice:
///
///  1. compileLoopSim() runs the structure-dependent pipeline ONCE per
///     (loop, machine, swp) for all eight factors and bakes the results
///     into a LoopSimPlan of plain numbers. evaluatePlan() then produces
///     the SimResult for any SimContext with a handful of floating-point
///     operations — so one sim-equivalence class
///     (analysis/symbolic/Canonical.h) compiles one plan and evaluates it
///     under every member's own context, byte-identically to simulating
///     each member from scratch.
///
///  2. Different classes (and different factors of one class) frequently
///     unroll to structurally identical post-memopt bodies — the unrolled
///     body of a loop is independent of its trip metadata. The
///     SimBodyStatsCache shares the schedule/liveness work across them,
///     keyed by the trip-stripped canonical structure
///     (hashCanonicalSimStructure), which is sound because nothing
///     downstream of the memory optimizer reads trip counts.
///
/// The exception is software pipelining: moduloSchedule() reads the
/// context's register budgets while scheduling, so SWP attempts run at
/// compile time under the provided context and the resulting plan is only
/// valid for contexts with the same (IntRegBudget, FpRegBudget) pair. The
/// labeling pruner folds the budgets into the class key when SWP is
/// enabled (core/driver/LabelCollector.cpp).
///
/// There is one list scheduler (sched/ListScheduler.h), one liveness pass
/// (analysis/Liveness.h) and one copy of each cost term
/// (sim/Simulator.cpp), shared by simulateLoop and the plans. Their
/// independent checks are the golden digests in tests/sim_golden_test.cpp,
/// validateListSchedule (sched/ScheduleValidate.h), and the fuzzer's
/// scheduler and static-claims oracles.
///
/// See docs/PERF.md for the design rationale and measurements.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SIM_SIMCOMPILE_H
#define METAOPT_SIM_SIMCOMPILE_H

#include "ir/Loop.h"
#include "sim/Simulator.h"
#include "support/Fingerprint.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace metaopt {

/// Everything the cost model reads about one scheduled body that does not
/// depend on the SimContext. Captured once per unique post-memopt body
/// structure; the Ctx-dependent terms (spills against the budget, i-cache
/// overflow against the effective share, d-cache stall rates) are applied
/// at evaluate time.
struct SimBodyStats {
  /// Steady-state cycles per body execution before Ctx terms: the
  /// recurrence-constrained iteration interval of the list schedule.
  double Interval = 0.0;
  /// Schedule length in cycles (SimResult::ScheduleLength).
  uint32_t Length = 0;
  /// Peak register pressure per class over the scheduled order.
  unsigned MaxLiveInt = 0;
  unsigned MaxLiveFloat = 0;
  /// Body size feeding codeBytes(); size_t to mirror body().size().
  size_t BodyOps = 0;
  /// Loads that pay their own d-cache access (unpaired).
  unsigned UnpairedLoads = 0;
  /// Sum of ExitIf taken-probabilities in body order (the FP addition
  /// order is part of the pinned results) and their count.
  double ExitProbSum = 0.0;
  unsigned ExitCount = 0;
};

/// Compiled form of one unroll factor of one loop.
struct CompiledFactor {
  /// Stats of the unrolled, memory-optimized main body. When Pipelined,
  /// only BodyOps and UnpairedLoads are meaningful (the SWP cost model
  /// replaces the list schedule and ignores allocatable pressure).
  SimBodyStats Main;
  bool Pipelined = false;
  int II = 0;
  int StageCount = 0;
  unsigned SwpSpills = 0;
};

/// Context-independent compilation of one loop at every unroll factor —
/// everything evaluatePlan() needs to produce simulateLoop()'s result for
/// an arbitrary SimContext (same register budgets required when Swp).
struct LoopSimPlan {
  /// For diagnostics: evaluatePlan throws the same exceptions, with the
  /// same loop name, as simulateLoop would.
  std::string LoopName;
  int64_t Trip = 0;
  bool HasKnownTrip = false;
  /// Whether SWP was attempted at compile time; evaluate must be queried
  /// with the same flag the plan was compiled with.
  bool Swp = false;
  std::array<CompiledFactor, MaxUnrollFactor> Factors;
  /// Epilogue body stats, shared by every factor with Trip % F > 0: the
  /// leftover iterations run the same memopt(L) body at every factor, so
  /// the plan computes it once.
  bool HasEpilogue = false;
  SimBodyStats Epilogue;
};

/// Thread-safe structural cache of SimBodyStats, keyed by the
/// trip-stripped canonical body structure. Shared across loops, classes,
/// and factors within one process; one machine model per instance (the
/// key deliberately excludes the machine — callers own that contract,
/// mirroring SimCache's one-global-config usage).
class SimBodyStatsCache {
public:
  std::optional<SimBodyStats> lookup(const Fingerprint &Key) const;
  /// First writer wins (all writers of one key carry identical stats).
  void insert(const Fingerprint &Key, const SimBodyStats &Stats);

  size_t size() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  /// Lookups answered by a body an earlier lookup computed: lookups minus
  /// unique bodies. Two workers that miss one key at the same time both
  /// compute the body, which moves hits() but not shared(), so shared()
  /// is the same at every thread count.
  uint64_t shared() const;

private:
  struct Hash {
    size_t operator()(const Fingerprint &Key) const {
      return static_cast<size_t>(Key.Lo);
    }
  };
  mutable std::mutex Mutex;
  std::unordered_map<Fingerprint, SimBodyStats, Hash> Map;
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Misses{0};
};

/// Runs the structure-dependent half of the simulator for every factor in
/// [1, MaxUnrollFactor]: unroll, memory-optimize, schedule (modulo when
/// \p EnableSwp, against \p Ctx's register budgets), measure liveness.
/// \p Cache, when non-null, shares body stats across structurally
/// identical post-memopt bodies. Throws std::domain_error exactly as
/// simulateLoop does when the loop has no concrete runtime trip count.
LoopSimPlan compileLoopSim(const Loop &L, const MachineModel &Machine,
                           const SimContext &Ctx, bool EnableSwp,
                           SimBodyStatsCache *Cache = nullptr);

/// Applies the cost model to a compiled plan: byte-identical to
/// simulateLoop(L, Factor, Machine, Ctx, EnableSwp) for the loop the plan
/// was compiled from, any \p Ctx (same register budgets when the plan was
/// compiled with SWP), and the same \p Machine. Throws
/// std::invalid_argument on an out-of-range factor, as simulateLoop does.
SimResult evaluatePlan(const LoopSimPlan &Plan, unsigned Factor,
                       const MachineModel &Machine, const SimContext &Ctx);

} // namespace metaopt

#endif // METAOPT_SIM_SIMCOMPILE_H
