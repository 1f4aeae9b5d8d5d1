//===- sim/Simulator.cpp --------------------------------------------------===//
//
// The simulator: compileLoopSim() runs the context-independent pipeline
// (unroll -> symbolic analysis -> memory optimization -> schedule ->
// liveness) per factor, and evaluatePlan() applies the cost model under a
// SimContext. simulateLoop() compiles just the requested factor (plus the
// epilogue body when the trip count leaves one) and evaluates it, so the
// whole cost model below exists exactly once. tests/sim_golden_test.cpp
// pins every result bit for bit.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Liveness.h"
#include "analysis/symbolic/Canonical.h"
#include "analysis/symbolic/StrideInterval.h"
#include "sched/ListScheduler.h"
#include "sched/ModuloScheduler.h"
#include "sim/SimCompile.h"
#include "transform/MemoryOpt.h"
#include "transform/Unroller.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace metaopt;

namespace {

//===----------------------------------------------------------------------===//
// Cost-model terms
//===----------------------------------------------------------------------===//

/// Code-layout tax of non-power-of-two unroll factors: bundle padding,
/// modulo-variable-expansion copies, and remainder-loop structure all tile
/// evenly only for power-of-two bodies (the paper observes that "non-power
/// of two unroll factors are rarely optimal"). Charged per unrolled
/// iteration; bench/ablation_align_tax quantifies its effect.
double alignmentTax(unsigned Factor) {
  bool PowerOfTwo = (Factor & (Factor - 1)) == 0;
  return PowerOfTwo ? 0.0 : 1.4;
}

/// Cost of one steady-state execution of a list-scheduled body, including
/// cross-iteration recurrence stalls: consecutive iterations issue
/// back-to-back, but a loop-carried dependence u -> v (distance d) forces
/// iteration spacing of at least (cycle(u) + latency(u) - cycle(v)) / d.
double listScheduledIterationCycles(const Loop &L, const DependenceGraph &DG,
                                    const Schedule &Sched,
                                    const MachineModel &Machine) {
  double Interval = Sched.Length;
  for (const DepEdge &Edge : DG.edges()) {
    if (Edge.Distance == 0)
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
      // Serialization across iterations (calls) waits out the operation.
      Delay = Machine.latency(L.body()[Edge.Src].Op);
      break;
    }
    double Needed =
        (static_cast<double>(Sched.CycleOf[Edge.Src]) + Delay -
         Sched.CycleOf[Edge.Dst]) /
        Edge.Distance;
    Interval = std::max(Interval, Needed);
  }
  return Interval;
}

/// Per-iteration penalty for a body whose code no longer fits in the
/// loop's effective share of the instruction cache.
double icachePenaltyPerIteration(int CodeBytes, const MachineModel &Machine,
                                 const SimContext &Ctx) {
  int Effective = std::min(Ctx.EffectiveIcacheBytes,
                           Machine.config().L1ICapacityBytes);
  if (CodeBytes <= Effective)
    return 0.0;
  int OverflowLines = (CodeBytes - Effective +
                       Machine.config().L1ILineBytes - 1) /
                      Machine.config().L1ILineBytes;
  return static_cast<double>(OverflowLines) *
         Machine.config().L1IMissCycles;
}

/// Expected visible d-cache stall cycles per body execution. The second
/// half of a merged wide load shares its partner's cache access, so only
/// unpaired loads count.
double dcacheStallPerIteration(unsigned UnpairedLoads,
                               const SimContext &Ctx) {
  return UnpairedLoads * Ctx.DcacheMissRate * Ctx.DcacheMissCycles *
         Ctx.DcacheVisibleFraction;
}

/// Expected mispredict cost per body execution from replicated early
/// exits: the rare taken exit flushes the pipe, and every replicated
/// side-exit branch also occupies branch-predictor capacity that the rest
/// of the program wants (a fixed per-branch tax).
double exitPenaltyPerIteration(double Probability, unsigned Exits,
                               const MachineModel &Machine) {
  return Probability * Machine.config().MispredictPenalty + 0.15 * Exits;
}

unsigned unpairedLoads(const Loop &L) {
  unsigned Loads = 0;
  for (const Instruction &Instr : L.body())
    if (Instr.isLoad() && !Instr.Paired)
      ++Loads;
  return Loads;
}

//===----------------------------------------------------------------------===//
// Compile: schedule + liveness + static body counts, cached across
// structurally identical bodies.
//===----------------------------------------------------------------------===//

SimBodyStats computeBodyStatsUncached(const Loop &L,
                                      const MachineModel &Machine) {
  SimBodyStats Stats;
  Stats.BodyOps = L.body().size();
  Stats.UnpairedLoads = unpairedLoads(L);
  for (const Instruction &Instr : L.body()) {
    if (Instr.Op == Opcode::ExitIf) {
      Stats.ExitProbSum += Instr.TakenProb;
      ++Stats.ExitCount;
    }
  }
  DependenceGraph DG(L);
  Schedule Sched = listSchedule(L, DG, Machine);
  Stats.Length = Sched.Length;
  Stats.Interval = listScheduledIterationCycles(L, DG, Sched, Machine);
  LivenessInfo Live = analyzeLiveness(L, Sched.Order);
  Stats.MaxLiveInt = Live.MaxLiveInt;
  Stats.MaxLiveFloat = Live.MaxLiveFloat;
  return Stats;
}

SimBodyStats computeBodyStats(const Loop &L, const MachineModel &Machine,
                              SimBodyStatsCache *Cache) {
  if (!Cache)
    return computeBodyStatsUncached(L, Machine);
  FingerprintHasher H;
  H.str("metaopt-simbody-stats-key-v1");
  hashCanonicalSimStructure(H, L);
  Fingerprint Key = H.digest();
  if (std::optional<SimBodyStats> Found = Cache->lookup(Key))
    return *Found;
  SimBodyStats Stats = computeBodyStatsUncached(L, Machine);
  Cache->insert(Key, Stats);
  return Stats;
}

/// \p L after the memory cleanups unrolling enables (Section 3 of the
/// paper): store-to-load forwarding, redundant load elimination, wide-load
/// pairing across the copies. The symbolic analysis lets the pass act on
/// proven guard facts and same-iteration disjointness instead of its
/// conservative bail-outs (analysis/symbolic).
Loop memoryOptimized(Loop L) {
  SymbolicAnalysis Symbolic(L);
  optimizeMemory(L, &Symbolic);
  return L;
}

/// The structure-dependent half of one factor: the software pipeliner
/// when enabled (it reads \p Ctx's register budgets), otherwise the list
/// schedule of the unrolled, memory-optimized body.
CompiledFactor compileFactor(const Loop &L, unsigned Factor,
                             const MachineModel &Machine,
                             const SimContext &Ctx, bool EnableSwp,
                             SimBodyStatsCache *Cache) {
  Loop Unrolled = memoryOptimized(unrollLoop(L, Factor));
  CompiledFactor CF;
  if (EnableSwp) {
    DependenceGraph DG(Unrolled);
    RegBudget Budget{Ctx.IntRegBudget, Ctx.FpRegBudget};
    SwpResult Swp = moduloSchedule(Unrolled, DG, Machine, Budget);
    if (Swp.Pipelined) {
      CF.Pipelined = true;
      CF.II = Swp.II;
      CF.StageCount = Swp.StageCount;
      CF.SwpSpills = Swp.SpillsPerIteration;
      CF.Main.BodyOps = Unrolled.body().size();
      CF.Main.UnpairedLoads = unpairedLoads(Unrolled);
      return CF;
    }
  }
  CF.Main = computeBodyStats(Unrolled, Machine, Cache);
  return CF;
}

/// The epilogue runs the N mod U leftover iterations on the *original*
/// body (never software pipelined - it is short by construction), so one
/// body serves every factor that leaves a remainder.
SimBodyStats compileEpilogue(const Loop &L, const MachineModel &Machine,
                             SimBodyStatsCache *Cache) {
  return computeBodyStats(memoryOptimized(L), Machine, Cache);
}

//===----------------------------------------------------------------------===//
// Evaluate: the SimContext-dependent cost arithmetic.
//===----------------------------------------------------------------------===//

struct EvaluatedBody {
  double PerIteration = 0.0;
  unsigned Spills = 0;
  int CodeBytes = 0;
};

/// Full cost of one execution of a list-scheduled body: spill pairs once
/// the body's live values exceed the register budget (machine file capped
/// by the loop's program context), and the per-iteration cycles.
EvaluatedBody evaluateBodyCost(const SimBodyStats &Stats,
                               const MachineModel &Machine,
                               const SimContext &Ctx) {
  unsigned IntBudget = static_cast<unsigned>(
      std::min(Machine.config().IntRegs, Ctx.IntRegBudget));
  unsigned FpBudget = static_cast<unsigned>(
      std::min(Machine.config().FloatRegs, Ctx.FpRegBudget));
  EvaluatedBody Cost;
  if (Stats.MaxLiveInt > IntBudget)
    Cost.Spills += Stats.MaxLiveInt - IntBudget;
  if (Stats.MaxLiveFloat > FpBudget)
    Cost.Spills += Stats.MaxLiveFloat - FpBudget;
  Cost.CodeBytes = Machine.codeBytes(
      static_cast<int>(Stats.BodyOps + 2 * Cost.Spills));
  Cost.PerIteration =
      Stats.Interval +
      Cost.Spills * Machine.config().SpillCycles +
      icachePenaltyPerIteration(Cost.CodeBytes, Machine, Ctx) +
      dcacheStallPerIteration(Stats.UnpairedLoads, Ctx) +
      exitPenaltyPerIteration(Stats.ExitProbSum, Stats.ExitCount, Machine);
  return Cost;
}

// Real diagnostics, not asserts: callers feed policy outputs and corpus
// data straight into the simulator, and the default build is Release
// (NDEBUG), where an assert would compile out and let a bad factor
// corrupt the unroller or a negative trip count poison every cycle count
// downstream.

void checkFactor(unsigned Factor, const std::string &LoopName) {
  if (Factor < 1 || Factor > MaxUnrollFactor)
    throw std::invalid_argument(
        "simulateLoop: unroll factor " + std::to_string(Factor) +
        " for loop '" + LoopName + "' is outside [1, " +
        std::to_string(MaxUnrollFactor) + "]");
}

/// An empty plan for \p L; throws when the loop has no concrete runtime
/// trip count.
LoopSimPlan planFor(const Loop &L, bool EnableSwp) {
  int64_t Trip = L.runtimeTripCount();
  if (Trip < 0)
    throw std::domain_error("simulateLoop: loop '" + L.name() +
                            "' has no concrete runtime trip count");
  LoopSimPlan Plan;
  Plan.LoopName = L.name();
  Plan.Trip = Trip;
  Plan.HasKnownTrip = L.hasKnownTripCount();
  Plan.Swp = EnableSwp;
  return Plan;
}

} // namespace

//===----------------------------------------------------------------------===//
// SimBodyStatsCache
//===----------------------------------------------------------------------===//

std::optional<SimBodyStats>
SimBodyStatsCache::lookup(const Fingerprint &Key) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  return It->second;
}

void SimBodyStatsCache::insert(const Fingerprint &Key,
                               const SimBodyStats &Stats) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Map.emplace(Key, Stats);
}

size_t SimBodyStatsCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Map.size();
}

uint64_t SimBodyStatsCache::shared() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return hits() + misses() - Map.size();
}

//===----------------------------------------------------------------------===//
// compileLoopSim / evaluatePlan / simulateLoop
//===----------------------------------------------------------------------===//

LoopSimPlan metaopt::compileLoopSim(const Loop &L,
                                    const MachineModel &Machine,
                                    const SimContext &Ctx, bool EnableSwp,
                                    SimBodyStatsCache *Cache) {
  LoopSimPlan Plan = planFor(L, EnableSwp);
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
    Plan.Factors[Factor - 1] =
        compileFactor(L, Factor, Machine, Ctx, EnableSwp, Cache);
  // Factor 1 never has an epilogue (Trip % 1 == 0).
  for (unsigned Factor = 2; Factor <= MaxUnrollFactor; ++Factor) {
    if (unrolledTripInfo(Plan.Trip, Factor).EpilogueIterations > 0) {
      Plan.HasEpilogue = true;
      Plan.Epilogue = compileEpilogue(L, Machine, Cache);
      break;
    }
  }
  return Plan;
}

SimResult metaopt::evaluatePlan(const LoopSimPlan &Plan, unsigned Factor,
                                const MachineModel &Machine,
                                const SimContext &Ctx) {
  checkFactor(Factor, Plan.LoopName);
  UnrolledTripInfo TripInfo = unrolledTripInfo(Plan.Trip, Factor);
  const CompiledFactor &CF = Plan.Factors[Factor - 1];

  SimResult Result;
  double MainCycles = 0.0;

  if (CF.Pipelined) {
    Result.UsedSwp = true;
    Result.II = CF.II;
    Result.SpillPairs = CF.SwpSpills;
    Result.CodeBytes = Machine.codeBytes(
        static_cast<int>(CF.Main.BodyOps + 2 * CF.SwpSpills));
    double PerIteration =
        CF.II + CF.SwpSpills * Machine.config().SpillCycles +
        icachePenaltyPerIteration(Result.CodeBytes, Machine, Ctx) +
        dcacheStallPerIteration(CF.Main.UnpairedLoads, Ctx) +
        alignmentTax(Factor);
    MainCycles = PerIteration * TripInfo.MainIterations +
                 static_cast<double>(CF.StageCount - 1) * CF.II * 2.0;
    Result.CyclesPerIteration = PerIteration / Factor;
  } else {
    EvaluatedBody Cost = evaluateBodyCost(CF.Main, Machine, Ctx);
    Result.SpillPairs = Cost.Spills;
    Result.ScheduleLength = CF.Main.Length;
    Result.CodeBytes = Cost.CodeBytes;
    double PerIteration = Cost.PerIteration + alignmentTax(Factor);
    MainCycles = PerIteration * TripInfo.MainIterations;
    Result.CyclesPerIteration = PerIteration / Factor;
  }

  // Epilogue: entering it costs a mispredicted backedge plus setup, which
  // is what makes factors that divide the trip count preferable.
  double EpilogueCycles = 0.0;
  if (TripInfo.EpilogueIterations > 0) {
    assert(Plan.HasEpilogue && "plan compiled without its epilogue");
    EvaluatedBody Epilogue = evaluateBodyCost(Plan.Epilogue, Machine, Ctx);
    EpilogueCycles = Epilogue.PerIteration * TripInfo.EpilogueIterations +
                     Machine.config().MispredictPenalty + 2.0;
  }

  // Fixed overheads: loop setup, plus a trip-count check and a mispredict
  // risk when unrolling a loop whose trip count is unknown at compile time
  // (the runtime must select between the unrolled and rolled versions).
  double Overhead = 10.0;
  if (Factor > 1 && !Plan.HasKnownTrip)
    Overhead += 10.0 + Machine.config().MispredictPenalty;
  // Final exit mispredicts once per execution.
  Overhead += Machine.config().MispredictPenalty;
  // Cold-entry refill: each entry touches the loop's code, and part of it
  // was evicted since the last entry (more of it the smaller this loop's
  // effective cache share). Code expansion multiplies this cost, which is
  // what makes unrolling short-trip, frequently re-entered loops a loss.
  double ColdFraction = std::clamp(
      64.0 / std::max(1, Ctx.EffectiveIcacheBytes), 0.01, 0.5);
  Overhead += static_cast<double>(Result.CodeBytes) /
              Machine.config().L1ILineBytes *
              Machine.config().L1IMissCycles * ColdFraction;

  Result.Cycles = MainCycles + EpilogueCycles + Overhead;
  return Result;
}

SimResult metaopt::simulateLoop(const Loop &L, unsigned Factor,
                                const MachineModel &Machine,
                                const SimContext &Ctx, bool EnableSwp) {
  checkFactor(Factor, L.name());
  LoopSimPlan Plan = planFor(L, EnableSwp);
  Plan.Factors[Factor - 1] =
      compileFactor(L, Factor, Machine, Ctx, EnableSwp, nullptr);
  if (unrolledTripInfo(Plan.Trip, Factor).EpilogueIterations > 0) {
    Plan.HasEpilogue = true;
    Plan.Epilogue = compileEpilogue(L, Machine, nullptr);
  }
  return evaluatePlan(Plan, Factor, Machine, Ctx);
}
