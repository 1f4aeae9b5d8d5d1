//===- tools/metaopt-serve.cpp - Batched prediction daemon ----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving daemon: loads a model bundle published by metaopt-train,
/// binds a unix-domain socket and/or a TCP port, and answers
/// line-delimited JSON predict / health / stats requests (docs/SERVING.md)
/// with request batching on the thread pool. With --reload-poll-ms
/// it watches the bundle file and hot-swaps a changed model with zero
/// downtime. SIGTERM and SIGINT trigger a graceful drain: stop accepting,
/// answer everything in flight, then exit 0.
///
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "serve/Server.h"
#include "support/CommandLine.h"

#include <csignal>
#include <cstdio>

using namespace metaopt;

namespace {

void onStopSignal(int) { serverStopFlag().store(true); }

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("metaopt-serve",
                "Serves unroll-factor predictions from a trained model "
                "bundle over a\nunix-domain socket speaking "
                "line-delimited JSON (docs/SERVING.md).");
  Cli.option("bundle", "bundle.bin",
             "model bundle to serve (required; see metaopt-train)");
  Cli.option("socket", "path",
             "unix-domain socket path to listen on");
  Cli.option("tcp-port", "port",
             "TCP port to listen on (0 = ephemeral; default: off)");
  Cli.option("tcp-host", "host",
             "TCP bind address (default: 127.0.0.1)");
  Cli.option("reload-poll-ms", "ms",
             "watch the bundle file and hot-reload on change, polling "
             "every ms (0 = off; default: 0)");
  Cli.option("max-request-bytes", "n",
             "reject request lines longer than n bytes "
             "(default: 1048576)");
  Cli.option("read-timeout-ms", "ms",
             "close a connection stalled mid-frame after ms "
             "(0 = never; default: 0)");
  Cli.option("write-timeout-ms", "ms",
             "close a connection that will not read its responses "
             "after ms (default: 5000)");
  Cli.option("batch-max", "n", "max requests per batch (default: 16)");
  Cli.option("queue-max", "n",
             "admission-queue capacity; beyond it requests are refused "
             "with status overloaded (default: 1024)");
  Cli.option("linger-us", "us",
             "how long a batch waits for stragglers (default: 200)");
  Cli.option("drain-ms", "ms",
             "shutdown grace for open connections (default: 5000)");
  Cli.option("threads", "n",
             "prediction worker threads (default: METAOPT_THREADS, else "
             "hardware concurrency)");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;

  std::string BundlePath = Cli.getString("bundle");
  std::string SocketPath = Cli.getString("socket");
  int64_t TcpPort = Cli.has("tcp-port") ? Cli.getInt("tcp-port", -1) : -1;
  if (BundlePath.empty() || (SocketPath.empty() && TcpPort < 0)) {
    std::fprintf(stderr,
                 "metaopt-serve: --bundle and a listener (--socket "
                 "and/or --tcp-port) are required\n%s",
                 Cli.usage().c_str());
    return 2;
  }
  int64_t BatchMax = Cli.getInt("batch-max", 16);
  int64_t QueueMax = Cli.getInt("queue-max", 1024);
  int64_t LingerUs = Cli.getInt("linger-us", 200);
  int64_t DrainMs = Cli.getInt("drain-ms", 5000);
  int64_t ReloadPollMs = Cli.getInt("reload-poll-ms", 0);
  int64_t MaxRequestBytes = Cli.getInt("max-request-bytes", 1 << 20);
  int64_t ReadTimeoutMs = Cli.getInt("read-timeout-ms", 0);
  int64_t WriteTimeoutMs = Cli.getInt("write-timeout-ms", 5000);
  if (BatchMax < 1 || QueueMax < 1 || LingerUs < 0 || DrainMs < 0 ||
      ReloadPollMs < 0 || MaxRequestBytes < 1 || ReadTimeoutMs < 0 ||
      WriteTimeoutMs < 0 || TcpPort > 65535) {
    std::fprintf(stderr, "metaopt-serve: bad tuning option\n");
    return 2;
  }
  if (Cli.has("threads")) {
    int64_t Threads = Cli.getInt("threads", 0);
    if (Threads < 1) {
      std::fprintf(stderr,
                   "metaopt-serve: --threads requires a positive integer\n");
      return 2;
    }
    ThreadPool::setGlobalThreads(static_cast<unsigned>(Threads));
  }

  std::string Error;
  std::optional<ModelBundle> Bundle = loadBundleFile(BundlePath, &Error);
  if (!Bundle) {
    std::fprintf(stderr, "metaopt-serve: rejecting bundle '%s': %s\n",
                 BundlePath.c_str(), Error.c_str());
    return 1;
  }

  ServerOptions Options;
  Options.SocketPath = SocketPath;
  Options.TcpHost = Cli.getString("tcp-host", "127.0.0.1");
  Options.TcpPort = static_cast<int>(TcpPort);
  Options.Service.MaxBatch = static_cast<size_t>(BatchMax);
  Options.Service.MaxQueue = static_cast<size_t>(QueueMax);
  Options.Service.BatchLinger = std::chrono::microseconds(LingerUs);
  Options.DrainTimeout = std::chrono::milliseconds(DrainMs);
  Options.MaxRequestBytes = static_cast<size_t>(MaxRequestBytes);
  Options.ReadTimeout = std::chrono::milliseconds(ReadTimeoutMs);
  Options.WriteTimeout = std::chrono::milliseconds(WriteTimeoutMs);
  if (ReloadPollMs > 0) {
    Options.BundlePath = BundlePath;
    Options.ReloadPoll = std::chrono::milliseconds(ReloadPollMs);
  }

  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    Server Daemon(std::move(*Bundle), Options);
    BundleProvenance Prov = Daemon.provenance();
    std::string Where = SocketPath;
    if (TcpPort >= 0) {
      // The ephemeral port is only known once run() binds; scripts that
      // need a predictable port pass one explicitly.
      std::string Tcp = Options.TcpHost + ":" +
                        (TcpPort > 0 ? std::to_string(TcpPort)
                                     : std::string("<ephemeral>"));
      Where = Where.empty() ? Tcp : Where + " and " + Tcp;
    }
    std::fprintf(stderr,
                 "metaopt-serve: serving %s model (%llu training "
                 "examples) on %s\n",
                 Prov.ClassifierName.c_str(),
                 static_cast<unsigned long long>(Prov.TrainingExamples),
                 Where.c_str());
    if (!Daemon.run(&Error)) {
      std::fprintf(stderr, "metaopt-serve: %s\n", Error.c_str());
      return 1;
    }
    ServiceStatsSnapshot Stats = Daemon.stats();
    std::fprintf(stderr,
                 "metaopt-serve: drained cleanly (%llu connections, %llu "
                 "requests, %llu batches)\n",
                 static_cast<unsigned long long>(
                     Daemon.connectionsAccepted()),
                 static_cast<unsigned long long>(Stats.Completed),
                 static_cast<unsigned long long>(Stats.Batches));
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "metaopt-serve: %s\n", Ex.what());
    return 1;
  }
  return 0;
}
