//===- core/driver/LabelCollector.cpp -------------------------------------===//

#include "core/driver/LabelCollector.h"

#include "analysis/lint/UnrollInvariants.h"
#include "analysis/symbolic/Canonical.h"
#include "cache/SimCache.h"
#include "concurrency/Parallel.h"
#include "core/features/FeatureExtractor.h"
#include "ir/Printer.h"
#include "sim/SimCompile.h"
#include "support/Statistics.h"

#include <memory>
#include <mutex>
#include <unordered_map>

using namespace metaopt;

namespace {

/// Raw per-entry simulated cycles of one loop at factors 1..8 — the part
/// of measureLoopAtAllFactors that is a pure function of (loop, context,
/// machine, SWP) and therefore shareable across a canonical-sim
/// equivalence class. Executions and noise are per-loop and applied
/// downstream.
std::array<double, MaxUnrollFactor>
simulateAllFactors(const CorpusLoop &Entry, const MachineModel &Machine,
                   const LabelingOptions &Options) {
  std::array<double, MaxUnrollFactor> Cycles = {};
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
    Cycles[Factor - 1] = cachedSimulateLoop(Entry.TheLoop, Factor, Machine,
                                            Entry.Ctx, Options.EnableSwp,
                                            Options.Cache)
                             .Cycles;
  return Cycles;
}

/// Pushes per-entry cycles through this loop's instrumentation model:
/// scale by execution count, then take the median of the noisy repeated
/// measurements.
std::array<double, MaxUnrollFactor>
measureFromCycles(const Benchmark &Bench, const CorpusLoop &Entry,
                  const std::array<double, MaxUnrollFactor> &Cycles,
                  const LabelingOptions &Options) {
  // One deterministic noise stream per (benchmark, loop): re-labeling the
  // corpus reproduces identical datasets, serial or parallel. The
  // benchmark name is mixed into the stream index because loop names are
  // only required to be unique corpus-wide by buildCorpus's check —
  // seeding by loop name alone would hand two same-named loops in
  // different benchmarks identical noise, silently correlating their
  // labels.
  Rng Noise = Rng::splitStream(
      Options.MeasurementSeed,
      Rng::hashString(Bench.Name + "\x1f" + Entry.TheLoop.name()));
  std::array<double, MaxUnrollFactor> Medians = {};
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
    double TotalCycles =
        Cycles[Factor - 1] * static_cast<double>(Entry.Executions);
    Medians[Factor - 1] = measureMedian(TotalCycles, Options.Protocol,
                                        Noise);
  }
  return Medians;
}

} // namespace

std::array<double, MaxUnrollFactor>
metaopt::measureLoopAtAllFactors(const Benchmark &Bench,
                                 const CorpusLoop &Entry,
                                 const MachineModel &Machine,
                                 const LabelingOptions &Options) {
  return measureFromCycles(Bench, Entry,
                           simulateAllFactors(Entry, Machine, Options),
                           Options);
}

namespace {
/// Per-loop labeling result; Usable mirrors the paper's filters.
struct LabeledLoop {
  bool Usable = false;
  Example Ex;
};
} // namespace

/// Labels one loop from its (possibly class-shared) per-entry cycles:
/// apply the loop's own noise stream, pick the best factor, apply the
/// paper's usability filters. Pure function of its arguments (the noise
/// stream is derived from the benchmark and loop names), so loops can be
/// labeled in any order on any thread.
static LabeledLoop labelOneLoop(const Benchmark &Bench,
                                const CorpusLoop &Entry,
                                const std::array<double, MaxUnrollFactor>
                                    &Cycles,
                                const LabelingOptions &Options) {
  LabeledLoop Result;
  std::array<double, MaxUnrollFactor> Medians =
      measureFromCycles(Bench, Entry, Cycles, Options);

  unsigned Best = 1;
  double BestCycles = Medians[0];
  double Sum = 0.0;
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
    double Cycles = Medians[Factor - 1];
    Sum += Cycles;
    if (Cycles < BestCycles) {
      BestCycles = Cycles;
      Best = Factor;
    }
  }
  double Average = Sum / MaxUnrollFactor;

  // Paper filters: the 50k-cycle noise floor and the 1.05x
  // best-vs-average sensitivity requirement.
  if (!isReliablyMeasurable(BestCycles, Options.Protocol))
    return Result;
  if (BestCycles * Options.MinBestVsAverage > Average)
    return Result;

  Result.Usable = true;
  Result.Ex.Features = extractFeatures(Entry.TheLoop);
  Result.Ex.Label = Best;
  Result.Ex.CyclesPerFactor = Medians;
  Result.Ex.LoopName = Entry.TheLoop.name();
  Result.Ex.BenchmarkName = Bench.Name;
  return Result;
}

Dataset metaopt::collectLabels(const std::vector<Benchmark> &Corpus,
                               const LabelingOptions &Options,
                               size_t *OutTotalLoops,
                               LabelingStats *OutStats) {
  MachineModel Machine(Options.Machine);

  // Every unroll this sweep performs is audited against the
  // post-transform invariants; a violation throws out of the sweep
  // (deterministically — the runtime propagates the lowest-index
  // exception) rather than silently corrupting the training labels.
  UnrollAuditGuard AuditGuard;

  // Flatten to an ordered work-list so every loop has a stable index;
  // results are collected by that index, which makes the parallel dataset
  // (and its CSV) byte-identical to the serial one.
  std::vector<std::pair<const Benchmark *, const CorpusLoop *>> Loops;
  for (const Benchmark &Bench : Corpus)
    for (const CorpusLoop &Entry : Bench.Loops)
      Loops.emplace_back(&Bench, &Entry);

  // Static pruning: partition the work-list into equivalence classes
  // under the *context-free* canonical sim key (plus the register budgets
  // when SWP is enabled, because the modulo scheduler reads them while
  // scheduling). Equal keys certify that one context-independent compiled
  // plan (sim/SimCompile.h) reproduces simulateLoop for every member
  // under that member's own context — the certificate the static-claims
  // fuzz oracle re-validates on every campaign case. The context must NOT
  // be part of the key: every corpus loop carries its own randomized
  // SimContext, so a context-keyed partition degenerates into singleton
  // classes and prunes nothing (the regression this PR fixes — the bench
  // reported 0 of 2808 simulations pruned).
  std::vector<uint32_t> LeaderSlot(Loops.size(), 0);
  std::vector<uint32_t> Leaders;
  std::vector<LabeledLoop> Labeled;
  SimBodyStatsCache BodyCache;
  if (Options.PruneEquivalent) {
    std::vector<SimKey> Keys =
        parallelMap<SimKey>(Loops.size(), [&](size_t I) {
          Fingerprint Key = canonicalSimKey(Loops[I].second->TheLoop);
          if (!Options.EnableSwp)
            return Key;
          FingerprintHasher H;
          H.str("metaopt-labeling-class-key-swp-v1");
          H.u64(Key.Lo);
          H.u64(Key.Hi);
          H.i64(Loops[I].second->Ctx.IntRegBudget);
          H.i64(Loops[I].second->Ctx.FpRegBudget);
          return H.digest();
        });
    std::unordered_map<SimKey, uint32_t, SimKeyHash> SlotOfKey;
    for (size_t I = 0; I < Loops.size(); ++I) {
      auto [It, IsNew] = SlotOfKey.try_emplace(
          Keys[I], static_cast<uint32_t>(Leaders.size()));
      if (IsNew)
        Leaders.push_back(static_cast<uint32_t>(I));
      LeaderSlot[I] = It->second;
    }

    // One compiled plan per class, built lazily by whichever worker needs
    // it first — always from the class leader, so the plan (and any
    // diagnostic it throws) is identical at every thread count. Body
    // schedules are additionally shared *across* classes through the
    // structural BodyCache: classes that differ only in trip counts
    // unroll to the same post-memopt bodies.
    std::vector<LoopSimPlan> Plans(Leaders.size());
    std::unique_ptr<std::once_flag[]> PlanOnce(
        new std::once_flag[Leaders.size()]);
    auto ClassPlan = [&](uint32_t Slot) -> const LoopSimPlan & {
      std::call_once(PlanOnce[Slot], [&] {
        const CorpusLoop &Leader = *Loops[Leaders[Slot]].second;
        Plans[Slot] = compileLoopSim(Leader.TheLoop, Machine, Leader.Ctx,
                                     Options.EnableSwp, &BodyCache);
      });
      return Plans[Slot];
    };

    SimCache &Cache = Options.Cache ? *Options.Cache : SimCache::global();

    // One batched task per loop: derive all eight sim-cache keys from a
    // single print of the loop, serve what the cache already holds, and
    // evaluate the class plan under the loop's own context for the rest —
    // inserting those results so the cache ends up with exactly the
    // entries (same keys, same values) the unpruned sweep would produce.
    // The heavy pipeline (unroll/memopt/schedule/liveness) runs once per
    // class inside ClassPlan instead of once per (loop, factor).
    std::vector<std::array<double, MaxUnrollFactor>> LoopCycles =
        parallelMap<std::array<double, MaxUnrollFactor>>(
            Loops.size(), [&](size_t I) {
              const CorpusLoop &Entry = *Loops[I].second;
              std::array<double, MaxUnrollFactor> Cycles = {};
              if (!Cache.enabled()) {
                const LoopSimPlan &Plan = ClassPlan(LeaderSlot[I]);
                for (unsigned F = 1; F <= MaxUnrollFactor; ++F)
                  Cycles[F - 1] =
                      evaluatePlan(Plan, F, Machine, Entry.Ctx).Cycles;
                return Cycles;
              }
              std::string Printed = printLoop(Entry.TheLoop);
              std::array<SimKey, MaxUnrollFactor> SimKeys;
              std::array<bool, MaxUnrollFactor> Hit = {};
              unsigned Misses = 0;
              for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
                SimKeys[F - 1] =
                    simCacheKey(Entry.TheLoop, Printed, F, Machine,
                                Entry.Ctx, Options.EnableSwp);
                if (std::optional<SimResult> Found =
                        Cache.lookup(SimKeys[F - 1])) {
                  Cycles[F - 1] = Found->Cycles;
                  Hit[F - 1] = true;
                } else {
                  ++Misses;
                }
              }
              if (Misses == 0)
                return Cycles; // Warm cache: no plan needed at all.
              const LoopSimPlan &Plan = ClassPlan(LeaderSlot[I]);
              for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
                if (Hit[F - 1])
                  continue;
                SimResult Result = evaluatePlan(Plan, F, Machine, Entry.Ctx);
                Cache.insert(SimKeys[F - 1], Result);
                Cycles[F - 1] = Result.Cycles;
              }
              return Cycles;
            });

    Labeled = parallelMap<LabeledLoop>(Loops.size(), [&](size_t I) {
      return labelOneLoop(*Loops[I].first, *Loops[I].second, LoopCycles[I],
                          Options);
    });
  } else {
    // Unpruned path: one cachedSimulateLoop per (loop, factor), no class
    // sharing, no batching, no body-stats cache. It runs the same
    // simulator, so it checks the pruner and the batching rather than the
    // simulator; the pruned-vs-unpruned identity tests, perf_test and the
    // bench's speedup_vs_serial rows compare against it.
    Leaders.resize(Loops.size());
    for (size_t I = 0; I < Loops.size(); ++I) {
      Leaders[I] = static_cast<uint32_t>(I);
      LeaderSlot[I] = static_cast<uint32_t>(I);
    }

    // Phase 1: simulate each loop at every unroll factor.
    std::vector<std::array<double, MaxUnrollFactor>> ClassCycles =
        parallelMap<std::array<double, MaxUnrollFactor>>(
            Leaders.size(), [&](size_t C) {
              return simulateAllFactors(*Loops[Leaders[C]].second, Machine,
                                        Options);
            });

    // Phase 2: label every loop from its cycles through its own noise
    // stream and the paper's filters.
    Labeled = parallelMap<LabeledLoop>(Loops.size(), [&](size_t I) {
      return labelOneLoop(*Loops[I].first, *Loops[I].second,
                          ClassCycles[LeaderSlot[I]], Options);
    });
  }

  Dataset Data;
  for (LabeledLoop &L : Labeled)
    if (L.Usable)
      Data.add(std::move(L.Ex));
  if (OutTotalLoops)
    *OutTotalLoops = Loops.size();
  if (OutStats) {
    OutStats->TotalLoops = Loops.size();
    OutStats->EquivalenceClasses = Leaders.size();
    OutStats->SimulationsRun = Leaders.size() * MaxUnrollFactor;
    OutStats->SimulationsPruned =
        (Loops.size() - Leaders.size()) * MaxUnrollFactor;
    OutStats->BodyStatsComputed = BodyCache.size();
    OutStats->BodyStatsShared = BodyCache.shared();
  }

  // Warm-start later processes: flush new simulation results to the
  // persistent tier (no-op for in-memory-only caches).
  (Options.Cache ? *Options.Cache : SimCache::global())
      .savePersistentIfDirty();
  return Data;
}
