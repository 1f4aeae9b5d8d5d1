//===- bench/microbench_pipeline.cpp - Labeling scaling -------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Wall-clock cost of the pipeline's dominant step — empirical labeling,
// the step the paper spent ~a week of machine time on — printed as JSON
// rows (one object per line) so dashboards can ingest them directly; the
// same rows are also written to BENCH_pipeline.json at the repo root so
// successive runs leave a machine-readable perf trajectory.
//
// The labeling experiment compares two implementations of collectLabels:
//
//   mode="serial-reference"  PruneEquivalent off, one thread: every
//                            (loop, factor) runs simulateLoop on its
//                            own, through the same scheduler, liveness
//                            pass and cost model as production.
//   mode="production"        PruneEquivalent on (class-shared compiled
//                            plans + the structural body cache,
//                            sim/SimCompile.h), at each requested thread
//                            count.
//
// speedup_vs_serial is serial-reference time over production time, so it
// measures the *algorithmic* win (batching + class pruning + body
// sharing) plus whatever thread scaling the host actually offers — each row
// carries hw_threads because on a single-hardware-thread container the
// pool cannot add anything and the trajectory would otherwise read as a
// scaling bug (the flat 1.00x/0.97x rows this bench used to report were
// exactly that: an honest pool measured on a 1-CPU host, presented as if
// the thread axis were the interesting one). Also re-verifies the
// determinism contract: every row must produce the byte-identical dataset
// CSV the serial reference produces, with or without the simulation cache
// (cache/SimCache.h).
//
// A second experiment exercises the content-addressed simulation cache on
// a repeated labeling sweep: an uncached baseline, a cold cached run
// (every simulation is a miss+insert), and a warm cached run (every
// simulation is a hit), each row carrying the cache's hit/miss/insert
// counters so the warm-cache speedup is measured, not asserted.
//
// Flags:
//   --full           label the whole 72-benchmark corpus (default: a
//                    reduced slice so the bench finishes quickly)
//   --swp            also time the software-pipelining configuration
//   --threads=<csv>  comma-separated thread counts (default "1,2,4,8")
//   --cache-dir=<d>  attach the persistent cache tier for the cache
//                    experiment (a second process run then starts warm)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "cache/SimCache.h"
#include "concurrency/ThreadPool.h"
#include "core/driver/LabelCollector.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace metaopt;

namespace {

/// Destination for the machine-readable BENCH_pipeline.json copy of every
/// row this bench prints; bound in main for the whole run.
BenchJsonWriter *RowSink = nullptr;

/// Prints one JSON row to stdout and records it for BENCH_pipeline.json.
void emitRow(const std::string &Row) {
  std::printf("%s\n", Row.c_str());
  std::fflush(stdout);
  if (RowSink)
    RowSink->row(Row);
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

std::vector<unsigned> parseThreadList(const std::string &Csv) {
  std::vector<unsigned> Threads;
  for (const std::string &Part : split(Csv, ',')) {
    int Value = std::atoi(Part.c_str());
    if (Value >= 1)
      Threads.push_back(static_cast<unsigned>(Value));
  }
  if (Threads.empty())
    Threads = {1, 2, 4, 8};
  return Threads;
}

/// One labeling sweep through a fresh cold cache; emits a labeling row.
/// Every row measures the same work from the same starting state, so the
/// serial-reference and production rows are directly comparable. Returns
/// the dataset CSV for the byte-identity check.
std::string labelingRow(const std::vector<Benchmark> &Corpus,
                        LabelingOptions &Options, const char *Mode,
                        unsigned Threads, bool Full, bool EnableSwp,
                        double RefSeconds, const std::string &RefCsv,
                        double *OutSeconds = nullptr) {
  ThreadPool::setGlobalThreads(Threads);
  SimCache RunCache;
  Options.Cache = &RunCache;
  auto Start = std::chrono::steady_clock::now();
  size_t TotalLoops = 0;
  Dataset Data = collectLabels(Corpus, Options, &TotalLoops);
  double Seconds = secondsSince(Start);
  if (OutSeconds)
    *OutSeconds = Seconds;

  std::string Csv = Data.toCsv();
  bool Deterministic = RefCsv.empty() || Csv == RefCsv;
  double Baseline = RefSeconds > 0.0 ? RefSeconds : Seconds;
  double Speedup = Seconds > 0.0 ? Baseline / Seconds : 1.0;
  SimCacheStats Stats = RunCache.stats();
  char Row[512];
  std::snprintf(Row, sizeof(Row),
                "{\"experiment\": \"labeling\", \"corpus\": \"%s\", "
                "\"swp\": %s, \"mode\": \"%s\", \"threads\": %u, "
                "\"hw_threads\": %u, \"loops\": %zu, \"usable\": %zu, "
                "\"seconds\": %.3f, \"speedup_vs_serial\": %.2f, "
                "\"csv_matches_serial\": %s, \"cache_hits\": %llu, "
                "\"cache_misses\": %llu, \"cache_inserts\": %llu}",
                Full ? "full" : "quick", EnableSwp ? "true" : "false", Mode,
                Threads, ThreadPool::defaultThreadCount(), TotalLoops,
                Data.size(), Seconds, Speedup,
                Deterministic ? "true" : "false",
                static_cast<unsigned long long>(Stats.Hits),
                static_cast<unsigned long long>(Stats.Misses),
                static_cast<unsigned long long>(Stats.Inserts));
  emitRow(Row);
  return Csv;
}

void benchLabeling(const std::vector<Benchmark> &Corpus, bool EnableSwp,
                   const std::vector<unsigned> &ThreadCounts, bool Full) {
  LabelingOptions Options;
  Options.EnableSwp = EnableSwp;

  // Baseline: the unpruned per-(loop, factor) pipeline on one thread.
  Options.PruneEquivalent = false;
  double RefSeconds = 0.0;
  std::string RefCsv = labelingRow(Corpus, Options, "serial-reference",
                                   /*Threads=*/1, Full, EnableSwp,
                                   /*RefSeconds=*/0.0, "", &RefSeconds);

  // Production: batched class plans + body sharing, per thread
  // count. Byte-identity with the reference CSV is asserted per row.
  Options.PruneEquivalent = true;
  for (unsigned Threads : ThreadCounts)
    labelingRow(Corpus, Options, "production", Threads, Full, EnableSwp,
                RefSeconds, RefCsv);
}

/// The static labeling-space pruner (LabelingOptions::PruneEquivalent):
/// one sweep with pruning off and one with it on, each through a fresh
/// cold cache so both rows measure the same work. The pruned row carries
/// the equivalence-class structure and the simulation-count reduction;
/// both sweeps must produce the byte-identical dataset CSV.
void benchLabelingPrune(const std::vector<Benchmark> &Corpus, bool EnableSwp,
                        bool Full) {
  ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());
  LabelingOptions Options;
  Options.EnableSwp = EnableSwp;

  std::string ReferenceCsv;
  double UnprunedSeconds = 0.0;
  for (bool Pruned : {false, true}) {
    Options.PruneEquivalent = Pruned;
    SimCache RunCache;
    Options.Cache = &RunCache;
    LabelingStats Stats;
    auto Start = std::chrono::steady_clock::now();
    Dataset Data = collectLabels(Corpus, Options, nullptr, &Stats);
    double Seconds = secondsSince(Start);
    std::string Csv = Data.toCsv();
    if (!Pruned) {
      ReferenceCsv = Csv;
      UnprunedSeconds = Seconds;
    }
    double Speedup =
        UnprunedSeconds > 0.0 && Seconds > 0.0 ? UnprunedSeconds / Seconds
                                               : 1.0;
    char Row[512];
    std::snprintf(Row, sizeof(Row),
                  "{\"experiment\": \"labeling_prune\", \"corpus\": "
                  "\"%s\", \"swp\": %s, \"pruned\": %s, \"loops\": %zu, "
                  "\"classes\": %zu, \"sims_run\": %zu, "
                  "\"sims_pruned\": %zu, \"pruning_rate\": %.4f, "
                  "\"seconds\": %.3f, \"speedup_vs_unpruned\": %.2f, "
                  "\"csv_matches_unpruned\": %s}",
                  Full ? "full" : "quick", EnableSwp ? "true" : "false",
                  Pruned ? "true" : "false", Stats.TotalLoops,
                  Stats.EquivalenceClasses, Stats.SimulationsRun,
                  Stats.SimulationsPruned, Stats.pruningRate(), Seconds,
                  Speedup, Csv == ReferenceCsv ? "true" : "false");
    emitRow(Row);
  }
}

/// One labeling sweep with \p Options; prints a labeling_cache JSON row.
/// Returns the dataset CSV so phases can be compared byte-for-byte.
std::string cachePhase(const std::vector<Benchmark> &Corpus,
                       LabelingOptions &Options, const char *Phase,
                       SimCache *Cache, double *InOutColdSeconds,
                       const std::string &ReferenceCsv) {
  // The warm-start count is set at cache construction; read it before
  // resetting the per-phase counters.
  uint64_t PersistentLoaded = Cache ? Cache->stats().PersistentLoaded : 0;
  if (Cache)
    Cache->resetStats();
  Options.Cache = Cache;
  auto Start = std::chrono::steady_clock::now();
  Dataset Data = collectLabels(Corpus, Options);
  double Seconds = secondsSince(Start);
  if (std::string(Phase) == "cold")
    *InOutColdSeconds = Seconds;
  double SpeedupVsCold =
      *InOutColdSeconds > 0.0 && Seconds > 0.0 ? *InOutColdSeconds / Seconds
                                               : 1.0;
  SimCacheStats Stats = Cache ? Cache->stats() : SimCacheStats{};
  std::string Csv = Data.toCsv();
  bool Matches = ReferenceCsv.empty() || Csv == ReferenceCsv;
  char Row[512];
  std::snprintf(Row, sizeof(Row),
                "{\"experiment\": \"labeling_cache\", \"phase\": \"%s\", "
                "\"seconds\": %.3f, \"speedup_vs_cold\": %.2f, "
                "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                "\"cache_inserts\": %llu, \"cache_entries\": %zu, "
                "\"persistent_loaded\": %llu, \"csv_matches_uncached\": %s}",
                Phase, Seconds, SpeedupVsCold,
                static_cast<unsigned long long>(Stats.Hits),
                static_cast<unsigned long long>(Stats.Misses),
                static_cast<unsigned long long>(Stats.Inserts),
                Cache ? Cache->size() : 0,
                static_cast<unsigned long long>(PersistentLoaded),
                Matches ? "true" : "false");
  emitRow(Row);
  return Csv;
}

/// The repeated labeling sweep: uncached baseline, cold cached run, warm
/// cached run. The warm run's speedup_vs_cold is the cache's measured
/// payoff; every phase must produce the byte-identical dataset CSV.
void benchLabelingCache(const std::vector<Benchmark> &Corpus, bool EnableSwp,
                        const std::string &CacheDir) {
  ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());
  LabelingOptions Options;
  Options.EnableSwp = EnableSwp;

  SimCacheConfig Disabled;
  Disabled.Enabled = false;
  SimCache NoCache(Disabled);

  SimCacheConfig Enabled;
  Enabled.PersistentDir = CacheDir;
  SimCache Cache(Enabled);

  double ColdSeconds = 0.0;
  std::string Reference =
      cachePhase(Corpus, Options, "uncached", &NoCache, &ColdSeconds, "");
  cachePhase(Corpus, Options, "cold", &Cache, &ColdSeconds, Reference);
  cachePhase(Corpus, Options, "warm", &Cache, &ColdSeconds, Reference);
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Args(Argc, Argv);
  BenchJsonWriter Json("pipeline");
  RowSink = &Json;
  bool Full = Args.has("full");
  std::vector<unsigned> ThreadCounts =
      parseThreadList(Args.getString("threads", "1,2,4,8"));

  CorpusOptions CorpusOpts;
  if (!Full) {
    CorpusOpts.MinLoopsPerBenchmark = 4;
    CorpusOpts.MaxLoopsPerBenchmark = 6;
  }
  std::vector<Benchmark> Corpus = buildCorpus(CorpusOpts);

  benchLabeling(Corpus, /*EnableSwp=*/false, ThreadCounts, Full);
  if (Args.has("swp"))
    benchLabeling(Corpus, /*EnableSwp=*/true, ThreadCounts, Full);

  benchLabelingPrune(Corpus, /*EnableSwp=*/false, Full);
  if (Args.has("swp"))
    benchLabelingPrune(Corpus, /*EnableSwp=*/true, Full);

  benchLabelingCache(Corpus, /*EnableSwp=*/false,
                     Args.getString("cache-dir", ""));
  if (Args.has("swp"))
    benchLabelingCache(Corpus, /*EnableSwp=*/true,
                       Args.getString("cache-dir", ""));

  if (!Json.flush())
    std::fprintf(stderr, "microbench_pipeline: cannot write %s\n",
                 Json.path().c_str());
  return 0;
}
