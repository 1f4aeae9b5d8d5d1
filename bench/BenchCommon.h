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
/// Every pipeline bench parses its flags through benchCli and
/// parseBenchFlags, so each accepts --quick, --threads, --cache-dir and
/// --no-sim-cache, and answers --help.
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

/// Starts a bench's command line with the flags every pipeline bench
/// shares; each main registers its own flags on the result and then calls
/// parseBenchFlags. "Id - Description" is both the --help summary and the
/// header the bench prints. --threads resizes the global pool that
/// labeling, LOOCV, speedup evaluation and feature selection run on;
/// --cache-dir lets a bench run after another with the same directory
/// replay its simulations; --no-sim-cache lets the cache-on/cache-off
/// byte-identity invariant be spot-checked on any bench. Without them the
/// pool and the cache keep their environment defaults (METAOPT_THREADS,
/// METAOPT_SIM_CACHE, METAOPT_CACHE_DIR).
inline CliParser benchCli(const char *Tool, const std::string &Id,
                          const std::string &Description) {
  CliParser Cli(Tool, Id + " - " + Description);
  Cli.flag("quick", "run on the reduced corpus (6-10 loops per benchmark)");
  Cli.intOption("threads", "n",
                "worker threads (1 = serial; default: METAOPT_THREADS, else "
                "hardware concurrency)",
                std::nullopt, 1, ThreadPool::MaxThreads);
  Cli.stringOption("cache-dir", "dir",
                   "persist the simulation cache under <dir>; a rerun "
                   "replays its simulations");
  Cli.flag("no-sim-cache", "disable the simulation cache");
  return Cli;
}

/// Prints the standard header naming the experiment.
inline void printBenchHeader(const std::string &Title) {
  std::printf("==============================================================="
              "=\n%s\n"
              "================================================================"
              "\n",
              Title.c_str());
}

/// The one parse-and-apply step of every pipeline bench: parses argv,
/// prints the header, and applies --threads and the sim-cache flags.
/// Returns the exit code when the bench should stop (--help, bad input).
inline std::optional<int> parseBenchFlags(CliParser &Cli, int Argc,
                                          char **Argv) {
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return Exit;
  printBenchHeader(Cli.summary());
  if (Cli.has("threads"))
    ThreadPool::setGlobalThreads(
        static_cast<unsigned>(Cli.getInt("threads")));
  if (Cli.has("no-sim-cache")) {
    SimCacheConfig Config;
    Config.Enabled = false;
    SimCache::configureGlobal(Config);
  } else if (Cli.has("cache-dir")) {
    SimCacheConfig Config;
    Config.PersistentDir = Cli.getString("cache-dir");
    SimCache::configureGlobal(Config);
  }
  return std::nullopt;
}

/// Builds the standard pipeline; --quick shrinks the corpus.
inline std::unique_ptr<Pipeline> makePipeline(const CliParser &Args) {
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

} // namespace metaopt

#endif // METAOPT_BENCH_BENCHCOMMON_H
