//===- fuzz/Fuzzer.cpp ----------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "concurrency/Parallel.h"
#include "fuzz/Shrinker.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

#include <algorithm>
#include <set>

using namespace metaopt;

namespace {

/// Result slot of one campaign case; empty Failures means the case
/// passed. Computed on worker threads, reduced serially in index order.
struct CaseOutcome {
  std::vector<OracleFailure> Failures;
  std::string MinimizedText;
  std::vector<std::string> MinimizedOracles;
};

CaseOutcome runCase(const FuzzCampaignOptions &Options, uint64_t Index) {
  CaseOutcome Outcome;
  FuzzGenOptions Gen = Options.Gen;
  Gen.Seed = Options.Seed;
  OracleOptions Oracle = Options.Oracle;
  Oracle.Seed = Options.Seed;

  Loop L = generateFuzzLoop(Gen, Index);
  Outcome.Failures = runOracles(L, Oracle);
  if (Outcome.Failures.empty())
    return Outcome;

  Loop Minimized = L;
  if (Options.Shrink) {
    // Shrink against the oracles that actually fired — rerunning the
    // passing ones thousands of times would dominate the campaign.
    std::set<std::string> Failing;
    for (const OracleFailure &Failure : Outcome.Failures)
      Failing.insert(Failure.Oracle);
    OracleOptions Narrow = Oracle;
    Narrow.CheckRoundTrip = Failing.count("round-trip") != 0;
    Narrow.CheckImportRoundTrip = Failing.count("import-round-trip") != 0;
    Narrow.CheckUnroll = Failing.count("unroll-equivalence") != 0;
    Narrow.CheckMemoryOpt = Failing.count("memory-opt") != 0;
    Narrow.CheckSchedulers = Failing.count("list-schedule") != 0 ||
                             Failing.count("modulo-schedule") != 0;
    Narrow.CheckSimCache = Failing.count("sim-cache") != 0;
    Narrow.CheckBundle = Failing.count("bundle") != 0;
    Narrow.CheckStaticClaims = Failing.count("static-claims") != 0;
    Minimized = shrinkLoop(L, [&](const Loop &Candidate) {
      return !runOracles(Candidate, Narrow).empty();
    });
  }
  std::set<std::string> StillFailing;
  for (const OracleFailure &Failure : runOracles(Minimized, Oracle))
    StillFailing.insert(Failure.Oracle);
  Outcome.MinimizedText = printLoop(Minimized);
  Outcome.MinimizedOracles.assign(StillFailing.begin(), StillFailing.end());
  return Outcome;
}

} // namespace

FuzzCampaignResult
metaopt::runFuzzCampaign(const FuzzCampaignOptions &Options) {
  size_t N = static_cast<size_t>(Options.Iterations);
  if (Options.Oracle.CheckBundle)
    prepareBundleOracle();
  std::vector<CaseOutcome> Outcomes = parallelMap<CaseOutcome>(
      N, [&](size_t Index) {
        return runCase(Options, static_cast<uint64_t>(Index));
      });

  // Serial, index-ordered reduction: the log is byte-identical whatever
  // interleaving the workers ran in.
  FuzzCampaignResult Result;
  Result.CasesRun = Options.Iterations;
  for (size_t Index = 0; Index < N; ++Index) {
    CaseOutcome &Outcome = Outcomes[Index];
    if (Outcome.Failures.empty())
      continue;
    ++Result.CasesFailed;
    FuzzCaseReport Report;
    Report.Index = static_cast<uint64_t>(Index);
    Report.Failures = std::move(Outcome.Failures);
    Report.MinimizedText = std::move(Outcome.MinimizedText);
    Report.MinimizedOracles = std::move(Outcome.MinimizedOracles);
    for (const OracleFailure &Failure : Report.Failures)
      Result.Log += "FAIL case " + std::to_string(Index) + " [" +
                    Failure.Oracle + "] " + Failure.Detail + "\n";
    Result.Reports.push_back(std::move(Report));
  }
  Result.Log += "fuzz: seed " + std::to_string(Options.Seed) + ", " +
                std::to_string(Result.CasesRun) + " cases, " +
                std::to_string(Result.CasesFailed) + " failed\n";
  return Result;
}

std::vector<OracleFailure>
metaopt::replayLoops(const std::string &Text, const std::string &FileName,
                     const OracleOptions &Options) {
  std::vector<OracleFailure> Out;
  ParseResult Parsed = parseLoops(Text, FileName);
  if (!Parsed.Error.empty()) {
    Out.push_back({"parse", FileName + ": " + Parsed.Error});
    return Out;
  }
  for (const Loop &L : Parsed.Loops)
    for (OracleFailure Failure : runOracles(L, Options)) {
      Failure.Detail = L.name() + ": " + Failure.Detail;
      Out.push_back(std::move(Failure));
    }
  return Out;
}

std::string metaopt::reproFileName(uint64_t Seed,
                                   const FuzzCaseReport &Report) {
  std::string Oracle =
      Report.MinimizedOracles.empty() ? "unknown"
                                      : Report.MinimizedOracles.front();
  std::replace(Oracle.begin(), Oracle.end(), ' ', '-');
  return "fuzz-" + std::to_string(Seed) + "-" +
         std::to_string(Report.Index) + "-" + Oracle + ".loop";
}
