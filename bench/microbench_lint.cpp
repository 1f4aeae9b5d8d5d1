//===- bench/microbench_lint.cpp - Lint sweep scaling ---------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Wall-clock of the full-corpus lint sweep (analysis/lint via
// corpus/CorpusAudit) across the thread pool, printed as JSON rows
// (one object per line) and rewritten into BENCH_lint.json for
// metaopt-benchcheck. Also re-checks the determinism contract: every
// thread count must produce the byte-identical findings the serial sweep
// produces, and the shipped corpus must stay error-free.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "concurrency/ThreadPool.h"
#include "corpus/CorpusAudit.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace metaopt;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Parses the --threads list; std::nullopt when an entry is not an
/// integer in [1, ThreadPool::MaxThreads].
std::optional<std::vector<unsigned>> parseThreadList(const std::string &Csv) {
  std::vector<unsigned> Threads;
  for (const std::string &Part : split(Csv, ',')) {
    std::optional<int64_t> Value = parseInt(Part);
    if (!Value || *Value < 1 || *Value > ThreadPool::MaxThreads)
      return std::nullopt;
    Threads.push_back(static_cast<unsigned>(*Value));
  }
  return Threads;
}

std::string renderFindings(const CorpusAuditResult &Result) {
  std::string Out;
  for (const AuditedLoop &Audited : Result.Findings) {
    Out += Audited.Benchmark;
    Out += '/';
    Out += Audited.LoopName;
    Out += '\n';
    Out += Audited.Report.renderText();
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("microbench_lint",
                "Wall clock of the full-corpus lint sweep per thread count, "
                "as JSON rows\nrewritten into BENCH_lint.json.");
  Cli.stringOption("threads", "n,n,...", "thread counts to sweep",
                   "1,2,4,8");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;
  std::optional<std::vector<unsigned>> ThreadCounts =
      parseThreadList(Cli.getString("threads"));
  if (!ThreadCounts) {
    std::fprintf(stderr,
                 "microbench_lint: option '--threads' expects integers in "
                 "[1, %u], got '%s'\n",
                 ThreadPool::MaxThreads, Cli.getString("threads").c_str());
    return 2;
  }

  std::vector<Benchmark> Corpus = buildCorpus();

  BenchJsonWriter Writer("lint");
  double BaselineSeconds = 0.0;
  std::string BaselineFindings;
  bool SeenBaseline = false;
  for (unsigned Threads : *ThreadCounts) {
    ThreadPool::setGlobalThreads(Threads);
    auto Start = std::chrono::steady_clock::now();
    CorpusAuditResult Result = auditBenchmarks(Corpus);
    double Seconds = secondsSince(Start);

    std::string Findings = renderFindings(Result);
    if (!SeenBaseline) {
      SeenBaseline = true;
      BaselineSeconds = Seconds;
      BaselineFindings = Findings;
    }
    bool Deterministic = Findings == BaselineFindings;
    double Speedup = BaselineSeconds > 0.0 ? BaselineSeconds / Seconds : 1.0;
    char Row[512];
    std::snprintf(Row, sizeof(Row),
                  "{\"experiment\": \"lint_sweep\", \"threads\": %u, "
                  "\"loops\": %zu, \"errors\": %zu, \"warnings\": %zu, "
                  "\"notes\": %zu, \"seconds\": %.3f, "
                  "\"speedup_vs_serial\": %.2f, "
                  "\"findings_match_serial\": %s}",
                  Threads, Result.LoopsAudited, Result.Errors,
                  Result.Warnings, Result.Notes, Seconds, Speedup,
                  Deterministic ? "true" : "false");
    std::printf("%s\n", Row);
    std::fflush(stdout);
    Writer.row(Row);
  }
  std::string Error;
  if (!Writer.flush(&Error)) {
    std::fprintf(stderr, "microbench_lint: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "microbench_lint: %zu rows -> %s\n", Writer.size(),
               Writer.path().c_str());
  return 0;
}
