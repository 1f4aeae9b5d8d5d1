//===- serve/Server.cpp ---------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Protocol.h"
#include "support/FileIO.h"

#include <cstdio>

using namespace metaopt;

namespace {

Fingerprint fingerprintBytes(const std::string &Bytes) {
  FingerprintHasher H;
  H.bytes(Bytes.data(), Bytes.size());
  return H.digest();
}

} // namespace

Server::Server(ModelBundle Bundle, ServerOptions OptionsIn)
    : Options(std::move(OptionsIn)) {
  Service =
      std::make_shared<PredictionService>(std::move(Bundle), Options.Service);
  if (!Options.BundlePath.empty())
    // The watched file was produced by saveBundleFile, whose bytes are
    // serializeBundle's output — so the serving bundle's canonical
    // serialization is the baseline the watcher diffs against.
    WatchedFp = fingerprintBytes(serializeBundle(Service->bundle()));

  TransportOptions Transp;
  Transp.SocketPath = Options.SocketPath;
  Transp.TcpHost = Options.TcpHost;
  Transp.TcpPort = Options.TcpPort;
  Transp.Backlog = Options.Backlog;
  Transp.MaxRequestBytes = Options.MaxRequestBytes;
  Transp.ReadTimeout = Options.ReadTimeout;
  Transp.WriteTimeout = Options.WriteTimeout;
  Transp.DrainTimeout = Options.DrainTimeout;
  Transp.RejectResponse = renderErrorResponse(
      "", "bad-request",
      "request line exceeds " + std::to_string(Options.MaxRequestBytes) +
          " bytes or is not line-delimited JSON");
  Transp.ExternalStop = [this] {
    return Stop.load(std::memory_order_acquire);
  };
  Transport = std::make_unique<LineServer>(
      std::move(Transp),
      [this](const std::string &Line, LineConnection &) {
        return handleLine(Line);
      });
}

Server::~Server() {
  requestStop();
  // run() owns all teardown; if it was never called there is nothing to
  // join beyond the service, whose destructor drains its queue.
}

bool Server::stopRequested() const {
  return Stop.load(std::memory_order_acquire) ||
         serverStopFlag().load(std::memory_order_acquire);
}

void Server::requestStop() { Stop.store(true, std::memory_order_release); }

bool Server::listening() const { return Transport->listening(); }

int Server::boundTcpPort() const { return Transport->boundTcpPort(); }

uint64_t Server::connectionsAccepted() const {
  return Transport->counters().Accepted.load(std::memory_order_relaxed);
}

std::shared_ptr<PredictionService> Server::service() const {
  std::lock_guard<std::mutex> Lock(ServiceMutex);
  return Service;
}

std::string Server::handleLine(const std::string &Line) {
  std::string ParseError;
  std::optional<WireRequest> Request = parseRequestLine(Line, &ParseError);
  if (!Request)
    return renderErrorResponse("", "bad-request", ParseError);

  switch (Request->TheOp) {
  case WireRequest::Op::Health: {
    std::shared_ptr<PredictionService> Svc = service();
    return renderHealthResponse(Request->Id, Svc->bundle(),
                                Svc->bundleChecksum());
  }
  case WireRequest::Op::Stats: {
    const TransportCounters &C = Transport->counters();
    ServerStatsExtra Extra;
    Extra.ConnectionsAccepted = C.Accepted.load(std::memory_order_relaxed);
    Extra.ConnectionsOpen = C.Open.load(std::memory_order_relaxed);
    Extra.OversizedRejected =
        C.OversizedRejected.load(std::memory_order_relaxed);
    Extra.BadFrames = C.BadFrames.load(std::memory_order_relaxed);
    Extra.ReadTimeouts = C.ReadTimeouts.load(std::memory_order_relaxed);
    Extra.WriteTimeouts = C.WriteTimeouts.load(std::memory_order_relaxed);
    Extra.Reloads = Reloads.load(std::memory_order_relaxed);
    Extra.ReloadsRejected = ReloadsRejected.load(std::memory_order_relaxed);
    return renderStatsResponse(Request->Id, service()->stats(), Extra);
  }
  case WireRequest::Op::Shutdown:
    requestStop();
    return renderShutdownResponse(Request->Id);
  case WireRequest::Op::Predict:
    break;
  }

  PredictRequest Predict;
  Predict.LoopText = std::move(Request->LoopText);
  Predict.WantScores = Request->WantScores;
  if (Request->DeadlineMs > 0)
    Predict.Deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(Request->DeadlineMs);

  // A request refused with ShuttingDown because it raced a hot-reload
  // swap is retried on the replacement service — reloads lose zero
  // in-flight responses. When the whole daemon is stopping, service()
  // is unchanged and the refusal stands.
  std::shared_ptr<PredictionService> Svc = service();
  PredictResponse Response = Svc->predict(Predict);
  while (Response.Status == PredictStatus::ShuttingDown) {
    std::shared_ptr<PredictionService> Now = service();
    if (Now == Svc)
      break;
    Svc = std::move(Now);
    Response = Svc->predict(Predict);
  }
  return renderPredictResponse(Request->Id, Response);
}

void Server::reloadLoop() {
  auto NextPoll = std::chrono::steady_clock::now() + Options.ReloadPoll;
  while (!stopRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (std::chrono::steady_clock::now() < NextPoll)
      continue;
    NextPoll = std::chrono::steady_clock::now() + Options.ReloadPoll;

    std::optional<std::string> Bytes = readFile(Options.BundlePath);
    if (!Bytes || Bytes->empty())
      continue; // Missing or unreadable; the next poll will see it.
    Fingerprint Fp = fingerprintBytes(*Bytes);
    if (Fp == WatchedFp)
      continue;
    // Remember the content we judged even when it is rejected, so a bad
    // artifact is reported once rather than every poll.
    WatchedFp = Fp;

    std::string Error;
    std::optional<ModelBundle> Parsed = parseBundle(*Bytes, &Error);
    if (!Parsed) {
      ReloadsRejected.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "metaopt-serve: rejecting reload of '%s': %s\n",
                   Options.BundlePath.c_str(), Error.c_str());
      continue;
    }
    std::shared_ptr<PredictionService> Fresh;
    try {
      Fresh = std::make_shared<PredictionService>(std::move(*Parsed),
                                                  Options.Service);
    } catch (const std::exception &Ex) {
      ReloadsRejected.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "metaopt-serve: rejecting reload of '%s': %s\n",
                   Options.BundlePath.c_str(), Ex.what());
      continue;
    }

    std::shared_ptr<PredictionService> Old;
    {
      std::lock_guard<std::mutex> Lock(ServiceMutex);
      Old = std::move(Service);
      Service = Fresh;
    }
    Reloads.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "metaopt-serve: reloaded bundle '%s' (%s)\n",
                 Options.BundlePath.c_str(),
                 Fresh->bundleChecksum().c_str());
    // Drain the displaced service: everything it admitted is answered by
    // the model that admitted it; stragglers refused with ShuttingDown
    // are retried on the new service by handleLine.
    Old->shutdown();
  }
}

bool Server::run(std::string *Error) {
  std::thread Reloader;
  if (!Options.BundlePath.empty() && Options.ReloadPoll.count() > 0)
    Reloader = std::thread([this] { reloadLoop(); });

  bool Served = Transport->run(Error);

  // The transport only returns after the drain; make sure the watcher
  // exits too (run() may have ended on a transport error rather than a
  // stop request).
  Stop.store(true, std::memory_order_release);
  if (Reloader.joinable())
    Reloader.join();
  service()->shutdown();
  return Served;
}
