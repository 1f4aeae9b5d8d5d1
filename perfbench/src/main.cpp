//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <pipeline|fleet> --seed <n> --seconds <s>
///           --trace <0|1> --bin-dir <dir> --work-dir <dir> [--tiny]
/// perfbench --selftest-spans
///
/// One run: set-up (three times; the median is setup_s), the timed
/// pipeline part, the timed serving part, the correctness gates, and with
/// --trace 1 the per-layer replays. The last stdout line is the result
/// JSON; the exit status is non-zero when any gate failed. Normally run
/// through perfbench/run.py, which builds this binary first.
///
//===----------------------------------------------------------------------===//

#include "PipelinePart.h"
#include "Replay.h"
#include "ServingPart.h"

#include "cache/SimCache.h"
#include "concurrency/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unistd.h>

using namespace metaopt;
using namespace perfbench;

namespace {

constexpr int SetupRepetitions = 3;

CorpusOptions quickCorpus(uint64_t Seed) {
  CorpusOptions Options;
  Options.Seed = Seed;
  Options.MinLoopsPerBenchmark = 6;
  Options.MaxLoopsPerBenchmark = 10;
  return Options;
}

/// The two workloads (README.md explains the choice of each).
std::optional<Workload> workload(const std::string &Name, uint64_t Seed,
                                 bool Tiny) {
  Workload W;
  W.Name = Name;
  W.ServingCorpus = quickCorpus(CorpusOptions().Seed);
  if (Name == "pipeline") {
    // The full synthetic corpus picked by the seed, 30-55 loops per
    // benchmark; most of the run is the reproduction path.
    W.TrainCorpus.Seed = Seed;
    W.Serving = Topology::Direct;
    W.WorkerThreads = 2;
    W.ReplayLoops = 150;
  } else if (Name == "fleet") {
    // The served model's own quick corpus is the pipeline part's input, so
    // the seed picks only the request stream. Its phases are short, and
    // only a long window averages out a shared host's speed swings, so the
    // pipeline part still gets most of the run; the rest is open-loop
    // traffic through the gateway to two single-thread workers.
    W.TrainCorpus = W.ServingCorpus;
    W.PipelineShare = 0.6;
    W.Serving = Topology::Gateway;
    W.WorkerThreads = 1;
    W.ReplayLoops = 60;
  } else {
    return std::nullopt;
  }
  if (Tiny) {
    W.TrainCorpus = W.ServingCorpus;
    W.MinPipelineIterations = 1;
    W.NominalRps = 400;
    W.LadderStartRps = 400;
    W.LadderStepRequests = 100;
    W.LadderStepSeconds = 0.1;
    W.ReplayLoops = 10;
    W.ReplayRequests = 50;
  }
  return W;
}

/// Nested spans with known times: the parent's self time must exclude
/// exactly the union of its children, overlapping or not.
int selftestSpans() {
  Tracer T(false);
  T.add({"root", 0.0, 10.0, -1});
  T.add({"a", 1.0, 3.0, 0});
  T.add({"b", 2.0, 5.0, 0}); // Overlaps a: union of a and b is [1, 5].
  T.add({"c", 7.0, 8.0, 0});
  T.add({"leaf", 7.5, 7.75, 3});
  T.add({"late", 9.5, 11.0, 0}); // Clipped to the parent: 0.5 covered.
  std::map<std::string, SpanTotals> Totals = T.totals();
  struct Want {
    const char *Name;
    double Self;
  } Expected[] = {{"root", 10.0 - 4.0 - 1.0 - 0.5},
                  {"a", 2.0},
                  {"b", 3.0},
                  {"c", 0.75},
                  {"leaf", 0.25},
                  {"late", 1.5}};
  int Bad = 0;
  for (const Want &W : Expected) {
    double Got = Totals[W.Name].SelfSeconds;
    if (std::fabs(Got - W.Self) > 1e-12) {
      std::fprintf(stderr, "self time of %s: got %g, want %g\n", W.Name, Got,
                   W.Self);
      ++Bad;
    }
  }
  std::printf("{\"selftest_spans\": %s}\n", Bad ? "false" : "true");
  return Bad ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, BinDir, WorkDir;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  bool Tiny = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (Arg == "--selftest-spans")
      return selftestSpans();
    if (Arg == "--workload")
      WorkloadName = Value();
    else if (Arg == "--seed")
      Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Seconds = std::atof(Value().c_str());
    else if (Arg == "--trace")
      Trace = std::atoi(Value().c_str());
    else if (Arg == "--bin-dir")
      BinDir = Value();
    else if (Arg == "--work-dir")
      WorkDir = Value();
    else if (Arg == "--tiny")
      Tiny = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", Arg.c_str());
      return 2;
    }
  }
  std::optional<Workload> W = workload(WorkloadName, Seed, Tiny);
  if (!W || BinDir.empty() || WorkDir.empty() || Seconds <= 0 ||
      (Trace != 0 && Trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload pipeline|fleet --seed N "
                 "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR\n");
    return 2;
  }

  RunConfig Cfg;
  Cfg.W = *W;
  Cfg.Seed = Seed;
  Cfg.Trace = Trace == 1;
  Cfg.HwThreads = std::max(1u, std::thread::hardware_concurrency());
  // Two threads, not one per core: on a shared host a parallel phase that
  // fills every core waits for whichever core the host slows. At four
  // threads the ten-seed spread of label_loops_per_s on pipeline was 0.37;
  // at two it was 0.12 (README.md, "Run-to-run spread").
  Cfg.Threads = std::min(2u, Cfg.HwThreads);
  Cfg.W.Connections = std::min(Cfg.W.Connections, Cfg.HwThreads);
  Cfg.BinDir = std::filesystem::absolute(BinDir).string();
  Cfg.ImportedDir = PERFBENCH_IMPORTED_CORPUS_DIR;
  // The harness works inside the work directory: bundles, sockets and
  // daemon logs land there, and relative socket names keep clear of the
  // unix path-length limit.
  std::filesystem::create_directories(WorkDir);
  if (::chdir(WorkDir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot enter %s\n", WorkDir.c_str());
    return 2;
  }

  // Isolation: the thread count and the process-global sim cache are set
  // here, whatever METAOPT_THREADS / METAOPT_SIM_CACHE / METAOPT_CACHE_DIR
  // say.
  ThreadPool::setGlobalThreads(Cfg.Threads);
  SimCacheConfig Global;
  Global.Enabled = true;
  SimCache::configureGlobal(Global);

  Report Out;
  Tracer T(Cfg.Trace);
  PipelinePart Pipeline(Cfg, Out, T);
  ServingPart Serving(Cfg, Out);
  const std::string Bundle = "serve-nn.bundle";

  // Set-up, repeated: the corpus and one labeling sweep of it, the NN
  // bundle the daemons serve, the request pool, and the daemons up and
  // answering.
  std::vector<double> SetupSeconds, SweepSeconds;
  for (int Rep = 0; Rep < SetupRepetitions; ++Rep) {
    auto Start = Clock::now();
    SweepSeconds.push_back(Pipeline.setupOnce());
    Pipeline.publishServingBundle(Bundle);
    Serving.buildPool();
    bool Up = Serving.start(Bundle);
    SetupSeconds.push_back(secondsSince(Start));
    if (!Up)
      break;
    if (Rep + 1 < SetupRepetitions)
      Serving.stop();
  }
  Out.set("setup_s", median(SetupSeconds), "s");

  // The serving part runs first: right after a long all-core labeling
  // burst a shared host answers requests measurably slower.
  uint64_t Steal = 0, Ticks = 0;
  stealTicksShare(Steal, Ticks);
  if (Out.GateFailures.empty()) {
    Serving.run((1.0 - Cfg.W.PipelineShare) * Seconds);
    // Idle daemons measurably slow the labeling that follows, so they stop
    // before it.
    Serving.stop();
    auto Start = Clock::now();
    double PipelineBudget = Cfg.W.PipelineShare * Seconds;
    for (int It = 0; It < Cfg.W.MinPipelineIterations ||
                     secondsSince(Start) < PipelineBudget;
         ++It)
      Pipeline.iteration();
  }
  // How much CPU the host took from this machine while it was measured:
  // the context for any run that reads slow.
  double StealPct = stealTicksShare(Steal, Ticks);
  Serving.stop(); // Still running only when a gate failed before serving.
  Out.set("peak_rss_mb", selfPeakRssMb() + Serving.daemonsPeakRssMb(), "MB");

  if (Out.GateFailures.empty()) {
    Pipeline.finish();
    Serving.finish(Bundle);
  }
  if (Cfg.Trace && Out.GateFailures.empty()) {
    Out.set("driver.first_sweep_s", SweepSeconds.front(), "s");
    // Requests replay against the served model itself; the other families
    // are fitted on the dataset it was trained on.
    replayLayers(Cfg, Pipeline.corpus(), Serving.pool(),
                 servingModels(Bundle, Pipeline.servingDataset(), Out), T,
                 Out);
    replayLinalg(Pipeline.trainingSet(), T, Out);
    std::string SpanFile =
        "spans-" + Cfg.W.Name + "-" + std::to_string(Seed) + ".jsonl";
    Out.gate(T.write(SpanFile), "cannot write " + SpanFile);
  }

  // Untraced runs print the end-to-end metrics, traced runs the layers.
  static const char *EndToEnd[] = {
      "setup_s", "peak_rss_mb", "label_loops_per_s",
      "train_s", "evaluate_s",  "serve_cpu_us"};
  for (auto It = Out.Metrics.begin(); It != Out.Metrics.end();) {
    bool IsEndToEnd = std::find(std::begin(EndToEnd), std::end(EndToEnd),
                                It->first) != std::end(EndToEnd);
    It = IsEndToEnd == Cfg.Trace ? Out.Metrics.erase(It) : std::next(It);
  }

  std::printf("{\"run\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d,\"threads\":%u,\"hw_threads\":%u,"
              "\"worker_threads\":%u,\"connections\":%u,"
              "\"host_steal_pct\":%.2f}}\n",
              Cfg.W.Name.c_str(), static_cast<unsigned long long>(Seed),
              Seconds, Trace, Cfg.Threads, Cfg.HwThreads,
              Cfg.W.WorkerThreads, Cfg.W.Connections, StealPct);
  for (const std::string &Line : Out.Info)
    std::printf("%s\n", Line.c_str());
  for (const std::string &Failure : Out.GateFailures)
    std::fprintf(stderr, "perfbench: gate failed: %s\n", Failure.c_str());
  std::printf("%s\n", Out.resultJson().c_str());
  std::fflush(stdout);
  return Out.GateFailures.empty() && Out.Failed == 0 ? 0 : 1;
}
