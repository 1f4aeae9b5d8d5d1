//===- tools/metaopt-fuzz.cpp - Differential fuzzing driver ---------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a differential fuzzing campaign (fuzz/Fuzzer.h): generate random
/// verifier-clean loops, check every oracle against the reference
/// interpreter and the standalone schedule validators, shrink failures,
/// and write minimized `.loop` reproducers. Output is byte-identical for
/// a given --seed at any --threads value, so a CI failure reproduces
/// locally by copying the command line. Exit status is 0 when every case
/// passed, 1 when any oracle fired, 2 on usage errors.
///
/// Usage:
///   metaopt-fuzz --seed=1 --iterations=500            campaign
///   metaopt-fuzz --seed=1 --iterations=500 --out-dir=D  + write repros
///   metaopt-fuzz --replay seeds/*.loop                 recheck repros
///
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "fuzz/Fuzzer.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace metaopt;

namespace {

int replay(const CliParser &Cli) {
  if (Cli.positional().empty()) {
    std::fprintf(stderr, "metaopt-fuzz: --replay needs .loop files\n");
    return 2;
  }
  OracleOptions Oracle;
  Oracle.Seed = static_cast<uint64_t>(Cli.getInt("seed"));
  bool AnyFailed = false;
  for (const std::string &Path : Cli.positional()) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "metaopt-fuzz: cannot read %s\n", Path.c_str());
      return 2;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    std::vector<OracleFailure> Failures =
        replayLoops(Buffer.str(), Path, Oracle);
    if (Failures.empty()) {
      std::printf("PASS %s\n", Path.c_str());
      continue;
    }
    AnyFailed = true;
    for (const OracleFailure &Failure : Failures)
      std::printf("FAIL %s [%s] %s\n", Path.c_str(),
                  Failure.Oracle.c_str(), Failure.Detail.c_str());
  }
  return AnyFailed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("metaopt-fuzz",
                "Differential fuzzing of the transformation stack: random "
                "loops are\nchecked against the reference interpreter, the "
                "schedule validators,\nthe simulation cache, and the model "
                "bundle codec; failures shrink\nto minimized .loop "
                "reproducers.");
  Cli.intOption("seed", "N", "campaign master seed", 1);
  Cli.intOption("iterations", "N", "loops to generate", 500, 0);
  Cli.intOption("threads", "N",
                "worker threads (default: METAOPT_THREADS, else hardware "
                "concurrency)",
                std::nullopt, 1, ThreadPool::MaxThreads);
  Cli.stringOption("out-dir", "dir", "write minimized reproducers here");
  Cli.intOption("max-fragments", "N", "fragments per generated loop",
                FuzzGenOptions().MaxFragments, 1,
                std::numeric_limits<unsigned>::max());
  Cli.flag("no-shrink", "report unminimized failing loops");
  Cli.flag("replay", "treat positionals as .loop files to recheck");
  Cli.positionalHelp("[<file.loop>...]", "reproducers for --replay");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;

  if (Cli.has("threads"))
    ThreadPool::setGlobalThreads(
        static_cast<unsigned>(Cli.getInt("threads")));

  if (Cli.has("replay"))
    return replay(Cli);

  FuzzCampaignOptions Options;
  Options.Seed = static_cast<uint64_t>(Cli.getInt("seed"));
  Options.Iterations = static_cast<uint64_t>(Cli.getInt("iterations"));
  Options.Shrink = !Cli.has("no-shrink");
  Options.Gen.MaxFragments =
      static_cast<unsigned>(Cli.getInt("max-fragments"));

  FuzzCampaignResult Result = runFuzzCampaign(Options);
  std::fputs(Result.Log.c_str(), stdout);

  if (!Result.Reports.empty() && Cli.has("out-dir")) {
    std::filesystem::path Dir(Cli.getString("out-dir"));
    std::error_code Ec;
    std::filesystem::create_directories(Dir, Ec);
    for (const FuzzCaseReport &Report : Result.Reports) {
      std::filesystem::path File =
          Dir / reproFileName(Options.Seed, Report);
      std::ofstream Out(File);
      Out << "# minimized by metaopt-fuzz --seed=" << Options.Seed
          << " (case " << Report.Index << ")\n";
      for (const std::string &Oracle : Report.MinimizedOracles)
        Out << "# still fails: " << Oracle << "\n";
      Out << Report.MinimizedText;
      std::printf("wrote %s\n", File.string().c_str());
    }
  }
  return Result.CasesFailed == 0 ? 0 : 1;
}
