//===- core/driver/LabelCollector.h - Empirical labeling --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the labeled training set: every loop in the corpus is compiled
/// and "run" at unroll factors 1..8, each configuration is measured 30
/// times through the noisy instrumentation model and the median kept, and
/// the factor with the fewest cycles becomes the label. The paper's usable-
/// loop filters apply: the loop must run at least 50,000 cycles, and its
/// best factor must beat the average over all factors by at least 1.05x.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_DRIVER_LABELCOLLECTOR_H
#define METAOPT_CORE_DRIVER_LABELCOLLECTOR_H

#include "core/ml/Dataset.h"
#include "corpus/BenchmarkSuite.h"
#include "machine/Machine.h"
#include "sim/Measurement.h"

namespace metaopt {

class SimCache;

/// Label-collection configuration.
struct LabelingOptions {
  bool EnableSwp = false;           ///< Figure 4 (off) vs Figure 5 (on).
  MachineConfig Machine = itanium2Config();
  MeasurementProtocol Protocol = {};
  /// Paper filter: keep loops "whose optimal unroll factor is measurably
  /// better than the average (1.05x) over all unroll factors".
  double MinBestVsAverage = 1.05;
  uint64_t MeasurementSeed = 0x10adedD1CEull; // Per-loop noise streams.
  /// Simulation cache the sweep's simulateLoop calls go through; null
  /// selects the process-global SimCache::global(). The cached and
  /// uncached sweeps produce byte-identical datasets (cache/SimCache.h).
  SimCache *Cache = nullptr;
  /// Static pruning of the labeling space: loops with equal context-free
  /// canonical sim keys (analysis/symbolic/Canonical.h) form an
  /// equivalence class; the class leader is compiled ONCE into a
  /// context-independent simulation plan (sim/SimCompile.h) and every
  /// member evaluates that plan under its own SimContext — byte-identical
  /// to simulating each member from scratch, per-(loop, factor) sim-cache
  /// entries included. The context is deliberately NOT in the class key
  /// (each corpus loop has a randomized context, so keying on it makes
  /// every class a singleton and prunes nothing); register budgets are
  /// folded in only under SWP, where the modulo scheduler reads them.
  /// Measurement noise is applied per (benchmark, loop) name downstream
  /// of the simulator, so pruned and unpruned sweeps produce
  /// byte-identical datasets (asserted by tests/driver_test.cpp; perfbench
  /// reports the pruned count as driver.sims_pruned).
  bool PruneEquivalent = true;
};

/// What the labeling-space pruner did during one collectLabels sweep.
struct LabelingStats {
  size_t TotalLoops = 0;         ///< Pre-filter loop count.
  size_t EquivalenceClasses = 0; ///< Distinct canonical-sim classes.
  size_t SimulationsRun = 0;     ///< simulateLoop requests issued.
  size_t SimulationsPruned = 0;  ///< Requests avoided by class sharing.
  /// Body-level structural sharing inside the compiled plans
  /// (sim/SimCompile.h): unique post-memopt bodies scheduled, and body
  /// requests beyond those (SimBodyStatsCache::shared), i.e. requests
  /// for a structurally identical body (same canonical structure, any
  /// trip count). Both are the same at every thread count, and both are
  /// 0 when PruneEquivalent is off or every simulation was served from
  /// the sim cache.
  size_t BodyStatsComputed = 0;
  size_t BodyStatsShared = 0;
  /// Fraction of the (loop, factor) simulation space pruned away.
  double pruningRate() const {
    size_t Total = SimulationsRun + SimulationsPruned;
    return Total ? static_cast<double>(SimulationsPruned) /
                       static_cast<double>(Total)
                 : 0.0;
  }
};

/// Labels one loop of \p Bench; returns the measured medians per factor.
/// The loop's measurement-noise stream is seeded from the benchmark name
/// *and* the loop name, so two same-named loops in different benchmarks
/// can never share a noise stream.
std::array<double, MaxUnrollFactor>
measureLoopAtAllFactors(const Benchmark &Bench, const CorpusLoop &Entry,
                        const MachineModel &Machine,
                        const LabelingOptions &Options);

/// Labels every usable loop in the corpus into a Dataset. Unusable loops
/// (too short or too insensitive) are dropped, mirroring the paper's
/// dataset construction. \p OutTotalLoops optionally receives the raw
/// (pre-filter) loop count.
///
/// Loops are labeled in parallel on the global thread pool (this is the
/// paper's week-of-machine-time step); each loop's noise stream comes
/// from MeasurementSeed + its name, and examples are collected in corpus
/// order, so the dataset is bit-identical however many threads run.
/// \p OutStats optionally receives the pruner's statistics.
Dataset collectLabels(const std::vector<Benchmark> &Corpus,
                      const LabelingOptions &Options,
                      size_t *OutTotalLoops = nullptr,
                      LabelingStats *OutStats = nullptr);

} // namespace metaopt

#endif // METAOPT_CORE_DRIVER_LABELCOLLECTOR_H
