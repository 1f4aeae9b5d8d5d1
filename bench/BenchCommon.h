//===- bench/BenchCommon.h - Shared harness plumbing ------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure regeneration binaries: the standard
/// full-corpus pipeline (whose labels a shared --cache-dir lets the suite
/// of benches reuse through the simulation cache), paper-vs-measured row
/// printing, and the ORC-baseline prediction collection used by Table 2.
///
/// Every bench accepts --quick to run on a reduced corpus.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_BENCH_BENCHCOMMON_H
#define METAOPT_BENCH_BENCHCOMMON_H

#include "cache/SimCache.h"
#include "concurrency/ThreadPool.h"
#include "core/driver/Heuristics.h"
#include "core/driver/Pipeline.h"
#include "heuristics/OrcLikeHeuristic.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace metaopt {

/// Applies the shared --threads=<n> flag: resizes the global pool that
/// labeling, LOOCV, speedup evaluation, and feature selection run on.
/// Without the flag the pool keeps its default (METAOPT_THREADS env var
/// or hardware concurrency); --threads=1 forces the serial golden path.
inline void applyThreadsFlag(const CommandLine &Args) {
  if (Args.has("threads"))
    ThreadPool::setGlobalThreads(
        static_cast<unsigned>(Args.getInt("threads", 0)));
}

/// Applies the shared simulation-cache flags: --cache-dir=<dir> attaches
/// the persistent tier of the process-global SimCache, the only label
/// cache, so a bench run after another with the same directory replays
/// its simulations instead of repeating them; --no-sim-cache disables the
/// cache entirely so the cache-on/cache-off byte-identity invariant can be
/// spot-checked on any bench. Without either flag the global cache keeps
/// its environment defaults (METAOPT_SIM_CACHE / METAOPT_CACHE_DIR).
inline void applySimCacheFlags(const CommandLine &Args) {
  if (Args.has("no-sim-cache")) {
    SimCacheConfig Config;
    Config.Enabled = false;
    SimCache::configureGlobal(Config);
  } else if (Args.has("cache-dir")) {
    SimCacheConfig Config;
    Config.PersistentDir = Args.getString("cache-dir");
    SimCache::configureGlobal(Config);
  }
}

/// Builds the standard pipeline; --quick shrinks the corpus, --threads=<n>
/// sets the parallelism, --cache-dir / --no-sim-cache control the
/// simulation cache.
inline std::unique_ptr<Pipeline> makePipeline(const CommandLine &Args) {
  applyThreadsFlag(Args);
  applySimCacheFlags(Args);
  PipelineOptions Options;
  if (Args.has("quick")) {
    Options.Corpus.MinLoopsPerBenchmark = 6;
    Options.Corpus.MaxLoopsPerBenchmark = 10;
  }
  return std::make_unique<Pipeline>(Options);
}

/// Index from loop name to the corpus entry (for heuristics that need the
/// Loop itself rather than the feature vector).
inline std::map<std::string, const CorpusLoop *>
indexCorpusLoops(const std::vector<Benchmark> &Corpus) {
  std::map<std::string, const CorpusLoop *> Index;
  for (const Benchmark &Bench : Corpus)
    for (const CorpusLoop &Entry : Bench.Loops)
      Index[Entry.TheLoop.name()] = &Entry;
  return Index;
}

/// The ORC-like baseline's predictions aligned with a dataset.
inline std::vector<unsigned>
orcPredictions(const Dataset &Data,
               const std::map<std::string, const CorpusLoop *> &Index,
               const UnrollHeuristic &Orc) {
  std::vector<unsigned> Predictions;
  Predictions.reserve(Data.size());
  for (const Example &Ex : Data.examples())
    Predictions.push_back(Orc.chooseFactor(Index.at(Ex.LoopName)->TheLoop));
  return Predictions;
}

/// Returns "out/<name>", creating the gitignored out/ directory on first
/// use. All generated bench artifacts (figure CSVs, intermediate dumps)
/// land there so the repo root stays free of build products.
inline std::string benchOutPath(const std::string &Name) {
  std::error_code Ec;
  std::filesystem::create_directories("out", Ec);
  return "out/" + Name;
}

/// Collects machine-readable result rows (one JSON object per line) and
/// rewrites BENCH_<name>.json in the working directory on flush. The
/// per-run rewrite keeps the file a snapshot of the latest run, which is
/// what trajectory tooling diffs across commits.
class BenchJsonWriter {
public:
  explicit BenchJsonWriter(std::string Name)
      : Path("BENCH_" + std::move(Name) + ".json") {}

  /// Adds one row; \p Json must be a complete JSON object literal.
  void row(std::string Json) { Rows.push_back(std::move(Json)); }

  /// Writes all rows, one per line. Returns false on I/O failure.
  bool flush() const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    for (const std::string &Row : Rows)
      Out << Row << "\n";
    return static_cast<bool>(Out);
  }

  const std::string &path() const { return Path; }
  size_t size() const { return Rows.size(); }

private:
  std::string Path;
  std::vector<std::string> Rows;
};

/// Prints one "paper vs measured" comparison line.
inline void printComparison(const char *What, const std::string &Paper,
                            const std::string &Measured) {
  std::printf("  %-46s paper: %-10s measured: %s\n", What, Paper.c_str(),
              Measured.c_str());
}

/// Prints the standard header naming the experiment.
inline void printBenchHeader(const char *Id, const char *Description) {
  std::printf("==============================================================="
              "=\n%s - %s\n"
              "================================================================"
              "\n",
              Id, Description);
}

} // namespace metaopt

#endif // METAOPT_BENCH_BENCHCOMMON_H
