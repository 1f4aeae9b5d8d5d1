//===- bench/loadgen_serve.cpp - Serving soak driver ----------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Drives a running metaopt-serve daemon (or a metaopt-gateway fronting a
// fleet) for a wall-clock duration with a mixed workload and fails the run
// (exit 1) when the serving tier misbehaves. It measures no latency:
// perfbench (perfbench/README.md) is the one source of performance claims.
//
// The workload: steady closed-loop clients, reconnecting clients, slow
// readers that dribble their reads, stallers that park a partial frame
// (expecting the server's read deadline to close them), and oversized
// senders (expecting bad-request + close). Optionally hot-swaps the served
// bundle mid-run (--swap-bundle/--swap-target) and confirms the fleet
// picked it up via health checksums.
//
// With --reference=<addr>, every predict response must be byte-identical
// to a serial reference pass against that address (a direct worker, or
// the same endpoint); without it, every response must parse with status
// ok. Either way a divergence is an error.
//
// The run passes only when every gate the started clients imply holds:
//   errors == 0 (divergent responses included);
//   >= 50 completed and >= 5 completions/s, when any steady, reconnecting
//   or slow-reader client ran;
//   reconnects >= 1 with --reconnectors, expected_closes >= 1 with
//   --stallers, oversized_rejects >= 1 with --oversized, and
//   bundle_swaps >= 1 with a swap.
// It prints one counter summary line and, on failure, names each counter
// that failed its gate.
//
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/ModelBundle.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <vector>

using namespace metaopt;

namespace {

// Distinct loop shapes so batches mix cheap and expensive requests.
const char *BuiltinLoops[] = {
    R"(loop "loadgen.dot" lang=C nest=1 trip=2048 rtrip=2048 {
  phi %f_acc = [%f_acc.init, %f_acc.next]
  %f_x = load @0[stride=8, offset=0, size=8]
  %f_y = load @1[stride=8, offset=0, size=8]
  %f_acc.next = fma %f_x, %f_y, %f_acc
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
})",
    R"(loop "loadgen.scan" lang=C nest=1 trip=-1 rtrip=777 {
  %i_v = load @0[stride=4, offset=0, size=4]
  %p_hit = icmp %i_v, %i_needle
  exit_if %p_hit prob=0.002
  %i_t = iadd %i_v, %i_bias
  store %i_t, @1[stride=4, offset=0, size=4]
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
})",
    R"(loop "loadgen.saxpy" lang=Fortran nest=1 trip=512 rtrip=512 {
  %f_x = load @0[stride=8, offset=0, size=8]
  %f_y = load @1[stride=8, offset=0, size=8]
  %f_ax = fmul %f_x, %f_a
  %f_s = fadd %f_ax, %f_y
  store %f_s, @1[stride=8, offset=0, size=8]
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
})",
    R"(loop "loadgen.copy" lang=C nest=2 trip=64 rtrip=64 {
  %i_v = load @0[stride=4, offset=0, size=4]
  store %i_v, @1[stride=4, offset=0, size=4]
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
})",
};

using Clock = std::chrono::steady_clock;

/// Inclusive upper bound of each client count: every client is a thread.
constexpr int64_t MaxClients = ThreadPool::MaxThreads;
/// Inclusive upper bound of --oversized-bytes: each oversized client builds
/// one line that long in memory. 64 times the servers' default
/// --max-request-bytes.
constexpr int64_t MaxOversizedBytes = int64_t{64} << 20;

struct SoakConfig {
  std::string Address;
  std::string Reference;  ///< Byte-identity reference endpoint (optional).
  std::vector<std::string> LoopTexts;
  // The rest come from the command line, defaults included (main).
  bool WantScores = false;
  int64_t DeadlineMs = 0;
  int64_t DurationS = 0;
  int64_t Steady = 0;
  int64_t Reconnectors = 0;
  int64_t SlowReaders = 0;
  int64_t Stallers = 0;
  int64_t Oversized = 0;
  int64_t OversizedBytes = 0;
  std::string SwapBundle;  ///< Bundle file to promote mid-run.
  std::string SwapTarget;  ///< Live path the worker fleet watches.
  std::string Label;
  Clock::time_point End;
};

/// Counters shared by every soak client thread.
struct SoakState {
  std::atomic<uint64_t> Completed{0};
  std::atomic<uint64_t> Errors{0};
  std::atomic<uint64_t> Reconnects{0};
  std::atomic<uint64_t> ExpectedCloses{0};
  std::atomic<uint64_t> OversizedRejects{0};
  std::atomic<uint64_t> Mismatches{0};
  std::atomic<uint64_t> BundleSwaps{0};

  std::mutex Mutex;
  std::string FirstError;

  void recordError(const std::string &Why) {
    Errors.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(Mutex);
    if (FirstError.empty())
      FirstError = Why;
  }
};

bool sendAll(int Fd, const char *Data, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Checks one response against the reference (byte identity) or, without
/// a reference, against the protocol (parses, status ok).
void checkResponse(SoakState &State, size_t LoopIndex,
                   const std::string &Line,
                   const std::vector<std::string> &Reference) {
  if (!Reference.empty()) {
    if (Line != Reference[LoopIndex]) {
      State.Mismatches.fetch_add(1, std::memory_order_relaxed);
      State.recordError("response diverged from the reference: " + Line);
    }
    return;
  }
  std::optional<JsonValue> Doc = parseJson(Line);
  if (!Doc || Doc->getString("status") != "ok") {
    State.Mismatches.fetch_add(1, std::memory_order_relaxed);
    State.recordError("non-ok response under soak: " + Line);
  }
}

/// A steady closed-loop client; with \p ReconnectEvery > 0 it drops and
/// re-establishes its connection every that-many requests.
void steadyClient(const SoakConfig &Config, SoakState &State,
                  const std::vector<std::string> &Reference, size_t Seed,
                  int64_t ReconnectEvery) {
  ServeClient Client;
  std::string Error;
  if (!Client.connectWithRetry(Config.Address, 2000, &Error)) {
    State.recordError("connect: " + Error);
    return;
  }
  size_t Sent = 0;
  for (size_t R = Seed; Clock::now() < Config.End; ++R) {
    if (ReconnectEvery > 0 &&
        Sent == static_cast<size_t>(ReconnectEvery)) {
      Client.close();
      if (!Client.connectWithRetry(Config.Address, 2000, &Error)) {
        State.recordError("reconnect: " + Error);
        return;
      }
      State.Reconnects.fetch_add(1, std::memory_order_relaxed);
      Sent = 0;
    }
    size_t LoopIndex = R % Config.LoopTexts.size();
    WireRequest Request;
    Request.TheOp = WireRequest::Op::Predict;
    Request.LoopText = Config.LoopTexts[LoopIndex];
    Request.WantScores = Config.WantScores;
    Request.DeadlineMs = Config.DeadlineMs;
    std::optional<std::string> Line = Client.request(Request, &Error);
    if (!Line) {
      State.recordError("request: " + Error);
      return;
    }
    ++Sent;
    State.Completed.fetch_add(1, std::memory_order_relaxed);
    checkResponse(State, LoopIndex, *Line, Reference);
  }
}

/// A well-behaved but slow client: sends health requests and reads the
/// response a few bytes at a time, exercising the server's partial-write
/// path without tripping its write deadline.
void slowReaderClient(const SoakConfig &Config, SoakState &State) {
  WireRequest Health;
  Health.TheOp = WireRequest::Op::Health;
  std::string RequestLine = renderRequestLine(Health) + "\n";
  while (Clock::now() < Config.End) {
    ServeClient Client;
    std::string Error;
    if (!Client.connectWithRetry(Config.Address, 2000, &Error)) {
      State.recordError("slow-reader connect: " + Error);
      return;
    }
    if (!sendAll(Client.fd(), RequestLine.data(), RequestLine.size())) {
      State.recordError("slow-reader send failed");
      return;
    }
    std::string Line;
    bool Eof = false;
    while (Clock::now() < Config.End + std::chrono::seconds(2)) {
      char Chunk[8];
      ssize_t N = ::recv(Client.fd(), Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Eof = true;
        break;
      }
      Line.append(Chunk, static_cast<size_t>(N));
      if (Line.find('\n') != std::string::npos)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (Eof || Line.find('\n') == std::string::npos) {
      State.recordError("slow reader lost its connection mid-response");
      return;
    }
    State.Completed.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// A misbehaving client that parks a partial frame and goes silent. The
/// server's read deadline must eventually close the connection; each such
/// close is counted as expected, not as an error.
void stallerClient(const SoakConfig &Config, SoakState &State) {
  static const char Partial[] = "{\"op\":\"heal";
  while (Clock::now() < Config.End) {
    ServeClient Client;
    std::string Error;
    if (!Client.connectWithRetry(Config.Address, 2000, &Error)) {
      State.recordError("staller connect: " + Error);
      return;
    }
    if (!sendAll(Client.fd(), Partial, sizeof(Partial) - 1))
      continue; // Raced with shutdown; retry until the soak ends.
    // Wait for the server to hang up on us.
    while (Clock::now() < Config.End) {
      struct pollfd Pfd = {Client.fd(), POLLIN, 0};
      int Ready = ::poll(&Pfd, 1, 100);
      if (Ready < 0 && errno == EINTR)
        continue;
      if (Ready <= 0)
        continue;
      char Chunk[64];
      ssize_t N = ::recv(Client.fd(), Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        State.ExpectedCloses.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      // A reject line before the close also counts as the hang-up path.
    }
  }
}

/// A misbehaving client that sends one oversized request line per round;
/// the server must answer bad-request and close.
void oversizedClient(const SoakConfig &Config, SoakState &State) {
  std::string Giant(static_cast<size_t>(Config.OversizedBytes), 'a');
  Giant += '\n';
  while (Clock::now() < Config.End) {
    ServeClient Client;
    std::string Error;
    if (!Client.connectWithRetry(Config.Address, 2000, &Error)) {
      State.recordError("oversized connect: " + Error);
      return;
    }
    // The server may slam the door mid-send; both a reject line and a
    // straight close count as the rejection we are probing for.
    (void)sendAll(Client.fd(), Giant.data(), Giant.size());
    std::string Head;
    while (Clock::now() < Config.End + std::chrono::seconds(2)) {
      char Chunk[256];
      ssize_t N = ::recv(Client.fd(), Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        break;
      Head.append(Chunk, static_cast<size_t>(N));
      if (Head.find('\n') != std::string::npos)
        break;
    }
    if (!Head.empty() && Head.find("bad-request") == std::string::npos) {
      State.recordError("oversized line was not rejected: " + Head);
      return;
    }
    State.OversizedRejects.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

/// Reads the active bundle checksum(s) from one health response: the
/// top-level checksum for a worker, or the healthy backends' checksums
/// for a gateway. Returns true when the fleet (as visible through
/// \p Address) has fully converged on \p Expected.
bool fleetServesChecksum(const std::string &Address,
                         const std::string &Expected) {
  ServeClient Client;
  if (!Client.connect(Address))
    return false;
  WireRequest Health;
  Health.TheOp = WireRequest::Op::Health;
  std::optional<std::string> Line = Client.request(Health);
  if (!Line)
    return false;
  std::optional<JsonValue> Doc = parseJson(*Line);
  if (!Doc)
    return false;
  std::string Direct = Doc->getString("bundle_checksum");
  if (!Direct.empty())
    return Direct == Expected;
  const JsonValue *Backends = Doc->get("backends");
  if (!Backends || !Backends->isArray())
    return false;
  size_t Healthy = 0;
  for (const JsonValue &Backend : Backends->Items) {
    if (!Backend.getBool("healthy", false))
      continue;
    ++Healthy;
    if (Backend.getString("bundle_checksum") != Expected)
      return false;
  }
  return Healthy > 0;
}

/// Promotes Config.SwapBundle to Config.SwapTarget (atomic tmp+rename)
/// halfway through the soak, then polls health until every healthy
/// serving process reports the new checksum.
void bundleSwapper(const SoakConfig &Config, SoakState &State,
                   Clock::time_point Start) {
  std::string Error;
  std::optional<ModelBundle> Swapped =
      loadBundleFile(Config.SwapBundle, &Error);
  if (!Swapped) {
    State.recordError("swap bundle unloadable: " + Error);
    return;
  }
  std::string Expected = bundleChecksumHex(*Swapped);

  auto Halfway = Start + (Config.End - Start) / 2;
  std::this_thread::sleep_until(Halfway);

  // saveBundleFile publishes atomically (support/FileIO.h publishFile), so
  // the watching workers see either the old complete bundle or the new one.
  if (!saveBundleFile(*Swapped, Config.SwapTarget, &Error)) {
    State.recordError("could not publish the swap bundle: " + Error);
    return;
  }

  // The fleet must converge before the soak ends (plus a short grace
  // period so slow reload polls are not a spurious failure).
  auto Deadline = Config.End + std::chrono::seconds(10);
  while (Clock::now() < Deadline) {
    if (fleetServesChecksum(Config.Address, Expected)) {
      State.BundleSwaps.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  State.recordError("fleet never converged on the swapped bundle");
}

/// Returns whether \p Counter reached \p Min; names it on stderr if not.
bool atLeast(const char *Counter, double Value, double Min) {
  if (Value >= Min)
    return true;
  std::fprintf(stderr, "loadgen_serve: gate failed: %s = %g, want >= %g\n",
               Counter, Value, Min);
  return false;
}

int runSoak(SoakConfig Config) {
  // Byte-identity reference (optional): one serial pass against a direct
  // worker or the endpoint under test. Skipped when a mid-run swap is
  // scheduled — the bytes then legitimately change under the clients'
  // feet, so each response is instead validated as a well-formed ok
  // response.
  std::vector<std::string> Reference;
  if (!Config.Reference.empty() && Config.SwapBundle.empty()) {
    ServeClient Client;
    std::string Error;
    if (!Client.connectWithRetry(Config.Reference, 2000, &Error)) {
      std::fprintf(stderr, "loadgen_serve: reference: %s\n", Error.c_str());
      return 1;
    }
    for (const std::string &Text : Config.LoopTexts) {
      WireRequest Request;
      Request.TheOp = WireRequest::Op::Predict;
      Request.LoopText = Text;
      Request.WantScores = Config.WantScores;
      Request.DeadlineMs = Config.DeadlineMs;
      std::optional<std::string> Line = Client.request(Request, &Error);
      if (!Line) {
        std::fprintf(stderr, "loadgen_serve: reference pass: %s\n",
                     Error.c_str());
        return 1;
      }
      Reference.push_back(*Line);
    }
  }

  SoakState State;
  auto Start = Clock::now();
  Config.End = Start + std::chrono::seconds(Config.DurationS);

  std::vector<std::thread> Threads;
  for (int64_t C = 0; C < Config.Steady; ++C)
    Threads.emplace_back([&, C] {
      steadyClient(Config, State, Reference, static_cast<size_t>(C), 0);
    });
  for (int64_t C = 0; C < Config.Reconnectors; ++C)
    Threads.emplace_back([&, C] {
      steadyClient(Config, State, Reference, static_cast<size_t>(C), 5);
    });
  for (int64_t C = 0; C < Config.SlowReaders; ++C)
    Threads.emplace_back([&] { slowReaderClient(Config, State); });
  for (int64_t C = 0; C < Config.Stallers; ++C)
    Threads.emplace_back([&] { stallerClient(Config, State); });
  for (int64_t C = 0; C < Config.Oversized; ++C)
    Threads.emplace_back([&] { oversizedClient(Config, State); });
  if (!Config.SwapBundle.empty())
    Threads.emplace_back([&] { bundleSwapper(Config, State, Start); });
  for (std::thread &T : Threads)
    T.join();
  double WallS =
      std::chrono::duration<double>(Clock::now() - Start).count();

  uint64_t Completed = State.Completed.load();
  uint64_t Errors = State.Errors.load();
  uint64_t Reconnects = State.Reconnects.load();
  uint64_t ExpectedCloses = State.ExpectedCloses.load();
  uint64_t OversizedRejects = State.OversizedRejects.load();
  uint64_t BundleSwaps = State.BundleSwaps.load();
  double Rate = WallS > 0 ? static_cast<double>(Completed) / WallS : 0.0;
  std::printf("loadgen_serve: %s %.1fs completed=%llu (%.1f/s) errors=%llu "
              "mismatches=%llu reconnects=%llu expected_closes=%llu "
              "oversized_rejects=%llu bundle_swaps=%llu\n",
              Config.Label.c_str(), WallS,
              static_cast<unsigned long long>(Completed), Rate,
              static_cast<unsigned long long>(Errors),
              static_cast<unsigned long long>(State.Mismatches.load()),
              static_cast<unsigned long long>(Reconnects),
              static_cast<unsigned long long>(ExpectedCloses),
              static_cast<unsigned long long>(OversizedRejects),
              static_cast<unsigned long long>(BundleSwaps));
  std::fflush(stdout); // The summary precedes any gate failure in logs.

  // Every client kind started sets an expectation on its own counter.
  bool Pass = true;
  if (Errors != 0) {
    std::lock_guard<std::mutex> Lock(State.Mutex);
    std::fprintf(stderr, "loadgen_serve: gate failed: errors = %llu, want "
                         "0; first: %s\n",
                 static_cast<unsigned long long>(Errors),
                 State.FirstError.c_str());
    Pass = false;
  }
  if (Config.Steady + Config.Reconnectors + Config.SlowReaders > 0) {
    Pass &= atLeast("completed", static_cast<double>(Completed), 50);
    Pass &= atLeast("completions_per_s", Rate, 5);
  }
  if (Config.Reconnectors > 0)
    Pass &= atLeast("reconnects", static_cast<double>(Reconnects), 1);
  if (Config.Stallers > 0)
    Pass &= atLeast("expected_closes", static_cast<double>(ExpectedCloses),
                    1);
  if (Config.Oversized > 0)
    Pass &= atLeast("oversized_rejects",
                    static_cast<double>(OversizedRejects), 1);
  if (!Config.SwapBundle.empty())
    Pass &= atLeast("bundle_swaps", static_cast<double>(BundleSwaps), 1);
  return Pass ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("loadgen_serve",
                "Soak driver for metaopt-serve and metaopt-gateway: a "
                "sustained mixed\nworkload (steady clients, reconnects, "
                "slow readers, stallers, oversized\nframes, optional "
                "mid-run bundle hot-swap) that exits 1 when a counter\n"
                "misses the gate its clients imply.");
  Cli.stringOption("socket", "addr",
                   "daemon address: unix socket path or host:port "
                   "(required)");
  Cli.flag("soak", "run the mixed-workload soak (required)");
  Cli.intOption("clients", "n", "steady closed-loop clients", 4, 0,
                MaxClients);
  Cli.flag("scores", "request per-factor scores");
  Cli.intOption("deadline-ms", "ms", "per-request deadline (0 = none)", 0,
                0);
  Cli.intOption("duration-s", "s", "wall-clock duration", 10, 1);
  Cli.stringOption("label", "name", "summary line label", "steady");
  Cli.stringOption("reference", "addr",
                   "endpoint of the serial byte-identity reference pass");
  Cli.intOption("reconnectors", "n", "clients that reconnect", 0, 0,
                MaxClients);
  Cli.intOption("slow-readers", "n", "clients that dribble reads", 0, 0,
                MaxClients);
  Cli.intOption("stallers", "n", "clients that park partial frames", 0, 0,
                MaxClients);
  Cli.intOption("oversized", "n", "clients that send oversized lines", 0,
                0, MaxClients);
  Cli.intOption("oversized-bytes", "n", "bytes in an oversized line",
                (1 << 20) + 1024, 2, MaxOversizedBytes);
  Cli.stringOption("swap-bundle", "file", "bundle to hot-swap in mid-soak");
  Cli.stringOption("swap-target", "path",
                   "live bundle path the fleet watches");
  Cli.positionalHelp("[<file.loop> ...]",
                     "loop files to cycle through (default: built-ins)");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;

  SoakConfig Config;
  Config.Address = Cli.getString("socket");
  if (Config.Address.empty() || !Cli.has("soak")) {
    std::fprintf(stderr, "loadgen_serve: --socket and --soak are required\n%s",
                 Cli.usage().c_str());
    return 2;
  }
  Config.Reference = Cli.getString("reference");
  Config.WantScores = Cli.has("scores");
  Config.DeadlineMs = Cli.getInt("deadline-ms");
  Config.DurationS = Cli.getInt("duration-s");
  Config.Steady = Cli.getInt("clients");
  Config.Reconnectors = Cli.getInt("reconnectors");
  Config.SlowReaders = Cli.getInt("slow-readers");
  Config.Stallers = Cli.getInt("stallers");
  Config.Oversized = Cli.getInt("oversized");
  Config.OversizedBytes = Cli.getInt("oversized-bytes");
  Config.SwapBundle = Cli.getString("swap-bundle");
  Config.SwapTarget = Cli.getString("swap-target");
  Config.Label = Cli.getString("label");
  if (Config.SwapBundle.empty() != Config.SwapTarget.empty()) {
    std::fprintf(stderr, "loadgen_serve: --swap-bundle and --swap-target "
                         "go together\n");
    return 2;
  }
  if (Config.Steady + Config.Reconnectors + Config.SlowReaders +
          Config.Stallers + Config.Oversized <
      1) {
    std::fprintf(stderr, "loadgen_serve: soak needs at least one client\n");
    return 2;
  }

  for (const std::string &File : Cli.positional()) {
    std::string Error;
    std::optional<std::string> Text = readFile(File, &Error);
    if (!Text) {
      std::fprintf(stderr, "loadgen_serve: %s\n", Error.c_str());
      return 2;
    }
    Config.LoopTexts.push_back(std::move(*Text));
  }
  if (Config.LoopTexts.empty())
    for (const char *Text : BuiltinLoops)
      Config.LoopTexts.emplace_back(Text);

  return runSoak(std::move(Config));
}
