//===- tools/metaopt-predict.cpp - Serving protocol client ----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line client for metaopt-serve: sends loop files for
/// prediction (one predict request per file), or a health / stats /
/// shutdown request, over the daemon's unix socket or TCP endpoint
/// (a worker or a gateway — the protocol is identical). --json prints the
/// daemon's response lines verbatim (the smoke test diffs these across
/// concurrent clients); the default rendering is human-readable.
/// Exit status: 0 on an ok response, 1 when the daemon rejected the
/// request or is unreachable, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace metaopt;

namespace {

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

/// Renders one predict response for humans. Returns the process exit
/// status for this response.
int printPredictResponse(const std::string &File, const JsonValue &Doc) {
  std::string Status = Doc.getString("status");
  if (Status != "ok") {
    std::printf("%s: %s: %s\n", File.c_str(), Status.c_str(),
                Doc.getString("error").c_str());
    return 1;
  }
  const JsonValue *Loops = Doc.get("loops");
  if (!Loops || !Loops->isArray())
    return 1;
  for (const JsonValue &Loop : Loops->Items) {
    std::printf("%s: loop \"%s\": u=%lld\n", File.c_str(),
                Loop.getString("name").c_str(),
                static_cast<long long>(Loop.getInt("factor", 0)));
    const JsonValue *Scores = Loop.get("scores");
    if (Scores && Scores->isArray()) {
      std::printf("  scores:");
      for (size_t F = 0; F < Scores->Items.size(); ++F)
        std::printf(" %zu:%.3f", F + 1, Scores->Items[F].Number);
      std::printf("\n");
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("metaopt-predict",
                "Queries a running metaopt-serve daemon: predicts unroll "
                "factors for\nloop files, or sends a health / stats / "
                "shutdown request.");
  Cli.stringOption("socket", "addr",
                   "daemon address: unix socket path or host:port "
                   "(worker or gateway; required)");
  Cli.flag("scores", "request per-factor scores with each prediction");
  Cli.intOption("deadline-ms", "ms", "per-request deadline (0 = none)", 0,
                0);
  Cli.intOption("connect-timeout-ms", "ms",
                "how long to wait for the daemon socket", 2000, 0,
                std::numeric_limits<int>::max());
  Cli.flag("json", "print the daemon's response lines verbatim");
  Cli.flag("health", "send a health request instead of predictions");
  Cli.flag("stats", "send a stats request instead of predictions");
  Cli.flag("shutdown", "ask the daemon to drain and exit");
  Cli.positionalHelp("[<file.loop> ...]",
                     "loop files to predict (one request per file)");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;

  std::string SocketPath = Cli.getString("socket");
  if (SocketPath.empty()) {
    std::fprintf(stderr, "metaopt-predict: --socket is required\n%s",
                 Cli.usage().c_str());
    return 2;
  }
  int64_t DeadlineMs = Cli.getInt("deadline-ms");
  bool Json = Cli.has("json");
  int Admin = (Cli.has("health") ? 1 : 0) + (Cli.has("stats") ? 1 : 0) +
              (Cli.has("shutdown") ? 1 : 0);
  if (Admin > 1) {
    std::fprintf(stderr, "metaopt-predict: --health, --stats, and "
                         "--shutdown are exclusive\n");
    return 2;
  }
  if (Admin == 0 && Cli.positional().empty()) {
    std::fprintf(stderr, "metaopt-predict: no input (pass loop files or "
                         "--health/--stats/--shutdown)\n%s",
                 Cli.usage().c_str());
    return 2;
  }

  ServeClient Client;
  std::string Error;
  int TimeoutMs = static_cast<int>(Cli.getInt("connect-timeout-ms"));
  if (!Client.connectWithRetry(SocketPath, TimeoutMs, &Error)) {
    std::fprintf(stderr, "metaopt-predict: %s\n", Error.c_str());
    return 1;
  }

  if (Admin == 1) {
    WireRequest Request;
    Request.TheOp = Cli.has("health") ? WireRequest::Op::Health
                    : Cli.has("stats") ? WireRequest::Op::Stats
                                       : WireRequest::Op::Shutdown;
    std::optional<std::string> Line = Client.request(Request, &Error);
    if (!Line) {
      std::fprintf(stderr, "metaopt-predict: %s\n", Error.c_str());
      return 1;
    }
    std::printf("%s\n", Line->c_str());
    std::optional<JsonValue> Doc = parseJson(*Line);
    return Doc && Doc->getString("status") == "ok" ? 0 : 1;
  }

  int Exit = 0;
  for (const std::string &File : Cli.positional()) {
    std::string Source;
    if (!readWholeFile(File, Source)) {
      std::fprintf(stderr, "metaopt-predict: cannot open '%s'\n",
                   File.c_str());
      return 1;
    }
    WireRequest Request;
    Request.TheOp = WireRequest::Op::Predict;
    Request.LoopText = Source;
    Request.WantScores = Cli.has("scores");
    Request.DeadlineMs = DeadlineMs;
    std::optional<std::string> Line = Client.request(Request, &Error);
    if (!Line) {
      std::fprintf(stderr, "metaopt-predict: %s\n", Error.c_str());
      return 1;
    }
    if (Json) {
      std::printf("%s\n", Line->c_str());
      std::optional<JsonValue> Doc = parseJson(*Line);
      if (!Doc || Doc->getString("status") != "ok")
        Exit = 1;
      continue;
    }
    std::optional<JsonValue> Doc = parseJson(*Line);
    if (!Doc || !Doc->isObject()) {
      std::fprintf(stderr,
                   "metaopt-predict: unparseable response from daemon\n");
      return 1;
    }
    if (printPredictResponse(File, *Doc) != 0)
      Exit = 1;
  }
  return Exit;
}
