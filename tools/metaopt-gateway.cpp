//===- tools/metaopt-gateway.cpp - Sharded prediction gateway -------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scale-out front door for metaopt serving (docs/SERVING.md): speaks
/// the same line-delimited JSON protocol as metaopt-serve, but instead of
/// predicting itself it shards predict requests across N worker daemons by
/// consistent hashing on the canonical loop fingerprint, fails over to the
/// next replica when a worker dies, health-checks the fleet in the
/// background, and refuses work beyond --max-inflight with status
/// "overloaded". SIGTERM / SIGINT drain gracefully, answering everything
/// already accepted.
///
//===----------------------------------------------------------------------===//

#include "gateway/Gateway.h"
#include "support/CommandLine.h"

#include <csignal>
#include <cstdio>

using namespace metaopt;

namespace {

void onStopSignal(int) { serverStopFlag().store(true); }

std::vector<std::string> splitCsv(const std::string &Text) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t Comma = Text.find(',', Start);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Part = Text.substr(Start, Comma - Start);
    if (!Part.empty())
      Parts.push_back(Part);
    Start = Comma + 1;
  }
  return Parts;
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("metaopt-gateway",
                "Fronts N metaopt-serve workers behind one endpoint, "
                "sharding predict\nrequests by consistent hashing on the "
                "loop fingerprint (docs/SERVING.md).");
  Cli.stringOption("backends", "addr,addr,...",
                   "comma-separated worker addresses: unix socket paths or "
                   "host:port (required)");
  Cli.stringOption("socket", "path", "unix-domain socket path to listen on");
  Cli.intOption("tcp-port", "port",
                "TCP port to listen on (0 = ephemeral, negative = off)", -1,
                std::numeric_limits<int>::min(), 65535);
  Cli.stringOption("tcp-host", "host", "TCP bind address", "127.0.0.1");
  Cli.intOption("vnodes", "n", "virtual ring points per backend", 64, 1,
                std::numeric_limits<unsigned>::max());
  Cli.intOption("health-interval-ms", "ms",
                "background health-probe cadence", 1000, 1);
  Cli.intOption("backend-timeout-ms", "ms",
                "per-request I/O bound against one backend", 5000, 0);
  Cli.intOption("max-inflight", "n",
                "admission limit on concurrently proxied predicts; beyond "
                "it requests are refused with status overloaded",
                256, 1);
  Cli.intOption("max-request-bytes", "n",
                "reject request lines longer than n bytes", 1 << 20, 1);
  Cli.intOption("read-timeout-ms", "ms",
                "close a connection stalled mid-frame after ms (0 = never)",
                0, 0);
  Cli.intOption("write-timeout-ms", "ms",
                "close a connection that will not read its responses "
                "after ms",
                5000, 0);
  Cli.intOption("drain-ms", "ms", "shutdown grace for open connections",
                5000, 0);
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;

  std::vector<std::string> Backends =
      splitCsv(Cli.getString("backends"));
  std::string SocketPath = Cli.getString("socket");
  int64_t TcpPort = Cli.getInt("tcp-port");
  if (Backends.empty() || (SocketPath.empty() && TcpPort < 0)) {
    std::fprintf(stderr,
                 "metaopt-gateway: --backends and a listener (--socket "
                 "and/or --tcp-port) are required\n%s",
                 Cli.usage().c_str());
    return 2;
  }

  GatewayOptions Options;
  Options.SocketPath = SocketPath;
  Options.TcpHost = Cli.getString("tcp-host");
  Options.TcpPort = static_cast<int>(TcpPort);
  Options.Backends = Backends;
  Options.VirtualNodes = static_cast<unsigned>(Cli.getInt("vnodes"));
  Options.HealthInterval =
      std::chrono::milliseconds(Cli.getInt("health-interval-ms"));
  Options.BackendIoTimeout =
      std::chrono::milliseconds(Cli.getInt("backend-timeout-ms"));
  Options.MaxInFlight = static_cast<size_t>(Cli.getInt("max-inflight"));
  Options.MaxRequestBytes =
      static_cast<size_t>(Cli.getInt("max-request-bytes"));
  Options.ReadTimeout =
      std::chrono::milliseconds(Cli.getInt("read-timeout-ms"));
  Options.WriteTimeout =
      std::chrono::milliseconds(Cli.getInt("write-timeout-ms"));
  Options.DrainTimeout = std::chrono::milliseconds(Cli.getInt("drain-ms"));

  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::string Where = SocketPath;
  if (TcpPort >= 0) {
    std::string Tcp = Options.TcpHost + ":" +
                      (TcpPort > 0 ? std::to_string(TcpPort)
                                   : std::string("<ephemeral>"));
    Where = Where.empty() ? Tcp : Where + " and " + Tcp;
  }
  std::fprintf(stderr,
               "metaopt-gateway: fronting %zu backends on %s\n",
               Backends.size(), Where.c_str());

  std::string Error;
  Gateway Gate(Options);
  if (!Gate.run(&Error)) {
    std::fprintf(stderr, "metaopt-gateway: %s\n", Error.c_str());
    return 1;
  }
  GatewayStatsSnapshot Stats = Gate.stats();
  std::fprintf(stderr,
               "metaopt-gateway: drained cleanly (%llu predicts, %llu "
               "forwarded, %llu failovers, %llu unavailable)\n",
               static_cast<unsigned long long>(Stats.Predicts),
               static_cast<unsigned long long>(Stats.ForwardedOk),
               static_cast<unsigned long long>(Stats.Failovers),
               static_cast<unsigned long long>(Stats.Unavailable));
  return 0;
}
