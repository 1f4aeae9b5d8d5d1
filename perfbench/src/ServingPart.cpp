//===- perfbench/src/ServingPart.cpp --------------------------------------===//

#include "ServingPart.h"

#include "gateway/HashRing.h"
#include "import/ImportedCorpus.h"
#include "ir/Printer.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/PredictionService.h"
#include "serve/Protocol.h"
#include "support/Rng.h"

#include <algorithm>
#include <csignal>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace metaopt;
using namespace perfbench;

namespace {

constexpr double BudgetMs = 5.0; // The paper's NN lookup budget (§5.1).
constexpr size_t PoolSize = 2048;
constexpr size_t WarmupRequests = 300;
/// Each ladder step offers 25% more than the last (max_rps resolves to
/// 25%). The climb ends when a step fails; the cap only guards against a
/// generator that never saturates.
constexpr double LadderFactor = 1.25;
constexpr int MaxLadderSteps = 40;

/// Seed of the corpus requests are drawn from: picked by the benchmark
/// seed, never the served model's training seed.
uint64_t requestCorpusSeed(uint64_t BenchSeed, uint64_t TrainSeed) {
  uint64_t Seed = BenchSeed * 0x9e3779b97f4a7c15ULL + 0x5e7ed;
  return Seed == TrainSeed ? Seed + 1 : Seed;
}

} // namespace

ServingPart::ServingPart(const RunConfig &Cfg, Report &Out)
    : Cfg(Cfg), Out(Out) {}

ServingPart::~ServingPart() { stop(); }

std::string ServingPart::address() const {
  return Cfg.W.Serving == Topology::Gateway ? "gw.sock" : "w0.sock";
}

std::vector<std::string> ServingPart::workers() const {
  if (Cfg.W.Serving == Topology::Gateway)
    return {"w0.sock", "w1.sock"};
  return {"w0.sock"};
}

bool ServingPart::hasGateway() const {
  return Cfg.W.Serving == Topology::Gateway || Cfg.Trace;
}

void ServingPart::buildPool() {
  CorpusOptions Options;
  Options.Seed = requestCorpusSeed(Cfg.Seed, Cfg.W.ServingCorpus.Seed);
  Options.MinLoopsPerBenchmark = 6;
  Options.MaxLoopsPerBenchmark = 10;
  std::vector<std::string> Texts;
  for (const Benchmark &Bench : buildCorpus(Options))
    for (const CorpusLoop &Entry : Bench.Loops)
      Texts.push_back(printLoop(Entry.TheLoop));
  ImportedCorpus Imported = loadImportedCorpus(Cfg.ImportedDir);
  Out.gate(Imported.succeeded() && !Imported.Loops.empty(),
           "imported kernel corpus missing or invalid at " + Cfg.ImportedDir);
  for (const ImportedLoop &Kernel : Imported.Loops)
    Texts.push_back(printLoop(Kernel.TheLoop));

  // Mostly single loops, a share of 8-loop compilation units, a small
  // share of malformed requests (a loop cut off mid-body); a quarter of
  // the well-formed requests ask for scores.
  Rng Draw(Cfg.Seed ^ 0x70a1u);
  Pool.clear();
  Pool.reserve(PoolSize);
  for (size_t K = 0; K < PoolSize; ++K) {
    PoolEntry E;
    E.Id = "r" + std::to_string(K);
    double Kind = Draw.nextDouble();
    if (Kind < 0.05) {
      const std::string &Text = Texts[Draw.nextBelow(Texts.size())];
      E.LoopText = Text.substr(0, Text.size() / 2);
      E.Malformed = true;
    } else if (Kind < 0.15) {
      std::vector<size_t> Picked;
      while (Picked.size() < 8) {
        size_t I = Draw.nextBelow(Texts.size());
        if (std::find(Picked.begin(), Picked.end(), I) == Picked.end())
          Picked.push_back(I);
      }
      for (size_t I : Picked)
        E.LoopText += Texts[I] + "\n";
      E.Loops = 8;
    } else {
      E.LoopText = Texts[Draw.nextBelow(Texts.size())];
      E.Loops = 1;
    }
    E.WantScores = !E.Malformed && Draw.nextDouble() < 0.25;
    WireRequest Request;
    Request.Id = E.Id;
    Request.LoopText = E.LoopText;
    Request.WantScores = E.WantScores;
    E.Line = renderRequestLine(Request);
    Pool.push_back(std::move(E));
  }
}

bool ServingPart::spawn(const std::string &Name,
                        const std::vector<std::string> &Args) {
  // Daemons see none of the METAOPT_* variables: every knob the benchmark
  // depends on is on the command line.
  std::vector<std::string> Env;
  for (char **P = environ; *P; ++P)
    if (std::string_view(*P).substr(0, 8) != "METAOPT_")
      Env.emplace_back(*P);
  std::vector<char *> Argv, Envp;
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  for (std::string &E : Env)
    Envp.push_back(E.data());
  Envp.push_back(nullptr);
  std::string Log = Name + ".log";

  pid_t Parent = ::getpid();
  pid_t Pid = ::fork();
  if (Pid == 0) {
    // Only async-signal-safe calls until exec. The daemon dies with the
    // harness even if the harness is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Parent)
      ::_exit(127);
    int Fd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      ::dup2(Fd, 1);
      ::dup2(Fd, 2);
    }
    ::execve(Argv[0], Argv.data(), Envp.data());
    ::_exit(127);
  }
  if (Pid < 0) {
    Out.gate(false, "cannot start " + Name);
    return false;
  }
  Daemons.push_back({Pid, Name});
  return true;
}

bool ServingPart::start(const std::string &BundlePath) {
  DaemonRssMb = 0;
  DaemonCpuSeconds = 0;
  std::string Serve = Cfg.BinDir + "/metaopt-serve";
  std::string Threads = std::to_string(Cfg.W.WorkerThreads);
  std::string Backends;
  bool Ok = true;
  for (const std::string &Socket : workers()) {
    std::string Name = Socket.substr(0, Socket.find('.'));
    Ok &= spawn(Name, {Serve, "--bundle=" + BundlePath, "--socket=" + Socket,
                       "--threads=" + Threads});
    Backends += (Backends.empty() ? "" : ",") + Socket;
  }
  if (hasGateway())
    Ok &= spawn("gw", {Cfg.BinDir + "/metaopt-gateway",
                       "--backends=" + Backends, "--socket=gw.sock"});
  if (!Ok)
    return false;
  // Ready when a prediction round-trips through every front door (for the
  // gateway: through it to a worker).
  bool Up = answers(address());
  if (Up && hasGateway() && address() != "gw.sock")
    Up = answers("gw.sock");
  return Up;
}

bool ServingPart::answers(const std::string &Address) {
  const PoolEntry *Probe = nullptr;
  for (const PoolEntry &E : Pool)
    if (!E.Malformed && !Probe)
      Probe = &E;
  auto Deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < Deadline) {
    ServeClient Client;
    if (Client.connectWithRetry(Address, 2000)) {
      std::optional<std::string> Reply = Client.roundTrip(Probe->Line);
      if (Reply && Reply->find("\"status\":\"ok\"") != std::string::npos)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Out.gate(false, "daemons did not come up on " + Address);
  return false;
}

void ServingPart::stop() {
  if (Gen)
    Gen->close();
  // The gateway first, so workers do not see it fail over during the
  // drain.
  for (auto It = Daemons.rbegin(); It != Daemons.rend(); ++It)
    ::kill(It->Pid, SIGTERM);
  for (auto It = Daemons.rbegin(); It != Daemons.rend(); ++It) {
    rusage Usage{};
    int Status = 0;
    auto Deadline = Clock::now() + std::chrono::seconds(10);
    pid_t Done = 0;
    while ((Done = ::wait4(It->Pid, &Status, WNOHANG, &Usage)) == 0 &&
           Clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (Done == 0) {
      ::kill(It->Pid, SIGKILL);
      ::wait4(It->Pid, &Status, 0, &Usage);
      Out.gate(false, It->Name + " did not drain within 10 s");
    }
    DaemonRssMb += static_cast<double>(Usage.ru_maxrss) / 1024.0;
    DaemonCpuSeconds += static_cast<double>(Usage.ru_utime.tv_sec) +
                        static_cast<double>(Usage.ru_stime.tv_sec) +
                        1e-6 * static_cast<double>(Usage.ru_utime.tv_usec +
                                                   Usage.ru_stime.tv_usec);
  }
  Daemons.clear();
}

std::string ServingPart::queryStats(const std::string &Address) {
  ServeClient Client;
  WireRequest Request;
  Request.TheOp = WireRequest::Op::Stats;
  if (!Client.connectWithRetry(Address, 2000))
    return "";
  return Client.request(Request).value_or("");
}

void ServingPart::run(double Seconds) {
  Gen = std::make_unique<LoadGen>(Pool, Cfg.Seed);
  const Workload &W = Cfg.W;
  std::string Error;
  auto Connect = [&](const std::vector<std::string> &Addresses,
                     unsigned PerAddress) {
    bool Ok = Gen->connect(Addresses, PerAddress, &Error);
    Out.gate(Ok, "load generator: " + Error);
    return Ok;
  };
  if (!Connect({address()}, W.Connections))
    return;
  // Warm-up and the nominal phase at the nominal rate. Traced runs give
  // half of this part's time to a phase at the same rate through the other
  // path (direct to the workers for a gateway workload, through a gateway
  // for a direct one), then climb the ladder.
  double Nominal = Cfg.Trace ? Seconds * 0.5 : Seconds;
  auto Requests = [](double Rate, double PhaseSeconds) {
    return std::max<size_t>(100, static_cast<size_t>(Rate * PhaseSeconds));
  };
  Phases.push_back(Gen->run("warmup", W.NominalRps, WarmupRequests));
  Phases.push_back(
      Gen->run("nominal", W.NominalRps, Requests(W.NominalRps, Nominal)));
  if (Cfg.Trace) {
    size_t Count = Requests(W.NominalRps, Seconds * 0.5);
    if (W.Serving == Topology::Gateway) {
      // Each request goes to the worker the gateway would pick, over the
      // same number of generator connections in all.
      HashRing Ring;
      for (const std::string &Socket : workers())
        Ring.addNode(Socket);
      std::vector<size_t> Route;
      for (const PoolEntry &E : Pool)
        Route.push_back(Ring.route(loopRoutingKey(E.LoopText)).front());
      unsigned PerWorker = std::max(
          1u, W.Connections / static_cast<unsigned>(workers().size()));
      if (Connect(workers(), PerWorker))
        Phases.push_back(Gen->run("direct", W.NominalRps, Count, &Route));
    } else if (Connect({"gw.sock"}, W.Connections)) {
      Phases.push_back(Gen->run("gateway", W.NominalRps, Count));
    }
    if (Connect({address()}, W.Connections)) {
      double Rate = W.LadderStartRps;
      bool Met = true;
      for (int Step = 0; Met && Step < MaxLadderSteps;
           ++Step, Rate *= LadderFactor) {
        size_t StepCount =
            std::max(W.LadderStepRequests,
                     static_cast<size_t>(Rate * W.LadderStepSeconds));
        // A step that misses is tried once more before the climb stops: a
        // single stall of a shared host should not end it.
        Met = false;
        for (int Attempt = 0; Attempt < 2 && !Met; ++Attempt) {
          Phases.push_back(Gen->run(Attempt ? "ladder-retry" : "ladder",
                                    Rate, StepCount));
          Met = Phases.back().meetsBudget(BudgetMs);
        }
      }
    }
  }
  Gen->close();

  for (const std::string &Socket : workers())
    WorkerStats.push_back(queryStats(Socket));
  if (hasGateway())
    GatewayStats = queryStats("gw.sock");
}

void ServingPart::finish(const std::string &BundlePath) {
  for (const PhaseResult &P : Phases) {
    Out.Attempted += P.Sent;
    Out.Failed += P.Failed;
    Out.Info.push_back(P.json());
  }
  const PhaseResult *Nominal = nullptr, *Direct = nullptr,
                    *ViaGateway = nullptr, *Best = nullptr,
                    *LastStep = nullptr;
  for (const PhaseResult &P : Phases) {
    if (P.Name == "nominal")
      Nominal = &P;
    if (P.Name == "direct")
      Direct = &P;
    if (P.Name == "gateway")
      ViaGateway = &P;
    if (P.Name.rfind("ladder", 0) == 0) {
      LastStep = &P;
      if (P.meetsBudget(BudgetMs))
        Best = &P; // Rates only climb.
    }
  }
  Out.gate(Nominal != nullptr, "the nominal phase did not run");

  // Byte-identity gate: every distinct response seen equals the reference
  // evaluation of the same request on the same bundle.
  std::string Error;
  std::optional<ModelBundle> Bundle = loadBundleFile(BundlePath, &Error);
  Out.gate(Bundle.has_value(), "served bundle unreadable: " + Error);
  if (Bundle && Gen) {
    PredictionService Reference(std::move(*Bundle));
    uint64_t Mismatches = 0;
    for (size_t I = 0; I < Pool.size(); ++I) {
      const std::string &Seen = Gen->firstResponses()[I];
      if (Seen.empty())
        continue;
      PredictRequest Request;
      Request.LoopText = Pool[I].LoopText;
      Request.WantScores = Pool[I].WantScores;
      if (Seen != renderPredictResponse(
                      Pool[I].Id, Reference.predictUnbatched(Request)))
        ++Mismatches;
    }
    Out.gate(Mismatches == 0, std::to_string(Mismatches) +
                                  " responses differ from predictUnbatched");
    Out.gate(Gen->inconsistent() == 0,
             "a request got two different responses");
    Out.Failed += Mismatches;
  }

  // Daemon CPU per request served: the cost of a prediction, which host
  // steal (unlike latency) does not inflate.
  uint64_t Served = 0;
  for (const PhaseResult &P : Phases)
    Served += P.Succeeded;
  Out.set("serve_cpu_us", Served ? DaemonCpuSeconds * 1e6 / Served : 0,
          "us");
  if (!Cfg.Trace || !Nominal)
    return;
  // Latency and the saturation point move with the shared machine's load
  // from run to run by more than any usable bound, so they are reported
  // with the layers (README.md, "End-to-end metrics").
  Out.set("p50_ms", Nominal->p50Ms(), "ms");
  Out.set("p99_ms", Nominal->p99Ms(), "ms");
  Out.set("max_rps", Best ? Best->AchievedRps : 0.0, "1/s");
  Out.Info.push_back(std::string("{\"ladder\":{\"stopped_by\":\"") +
                     (LastStep && !LastStep->meetsBudget(BudgetMs)
                          ? "budget"
                          : "step_cap") +
                     "\"}}");
  // Per-layer numbers from the daemons' own stats op.
  double ServiceP50 = 0, Completed = 0, Batches = 0, Overloaded = 0;
  for (const std::string &Line : WorkerStats) {
    std::optional<JsonValue> S = parseJson(Line);
    Out.gate(S.has_value(), "worker stats unreadable");
    if (!S)
      continue;
    ServiceP50 += S->getNumber("latency_p50_us", 0) / WorkerStats.size();
    Completed += S->getNumber("completed", 0);
    Batches += S->getNumber("batches", 0);
    Overloaded += S->getNumber("overloaded", 0);
  }
  double ClientP50Us = Nominal->p50Ms() * 1e3;
  Out.set("serve.service_p50_us", ServiceP50, "us");
  Out.set("serve.batch_mean", Batches > 0 ? Completed / Batches : 0, "ratio");
  Out.set("serve.overloaded", Overloaded, "count");
  Out.set("transport.overhead_p50_us", ClientP50Us - ServiceP50, "us");
  Out.set("loadgen.lag_p99_ms", quantile(Nominal->LagMs, 0.99), "ms");

  // The hop: the same rate through the gateway minus straight to the
  // workers the gateway would have picked.
  const PhaseResult *GatewaySide =
      Cfg.W.Serving == Topology::Gateway ? Nominal : ViaGateway;
  const PhaseResult *DirectSide =
      Cfg.W.Serving == Topology::Gateway ? Direct : Nominal;
  Out.gate(GatewaySide && DirectSide, "the hop comparison did not run");
  if (GatewaySide && DirectSide)
    Out.set("gateway.hop_p50_us",
            (GatewaySide->p50Ms() - DirectSide->p50Ms()) * 1e3, "us");
  std::optional<JsonValue> G = parseJson(GatewayStats);
  Out.gate(G.has_value(), "gateway stats unreadable");
  if (!G)
    return;
  double Max = 0, Sum = 0, N = 0;
  if (const JsonValue *Backends = G->get("backends"))
    for (const JsonValue &B : Backends->Items) {
      double Routed = B.getNumber("routed", 0);
      Max = std::max(Max, Routed);
      Sum += Routed;
      ++N;
    }
  Out.set("gateway.balance", Sum > 0 ? Max / (Sum / N) : 0, "ratio");
  Out.set("gateway.failovers", G->getNumber("failovers", 0), "count");
  Out.set("gateway.unavailable", G->getNumber("unavailable", 0), "count");
}
