//===- serve/PredictionService.cpp ----------------------------------------===//

#include "serve/PredictionService.h"

#include "analysis/lint/Lint.h"
#include "concurrency/Parallel.h"
#include "core/features/FeatureExtractor.h"
#include "ir/Parser.h"

#include <stdexcept>

using namespace metaopt;

const char *metaopt::predictStatusName(PredictStatus Status) {
  switch (Status) {
  case PredictStatus::Ok:
    return "ok";
  case PredictStatus::Malformed:
    return "malformed";
  case PredictStatus::Overloaded:
    return "overloaded";
  case PredictStatus::DeadlineExceeded:
    return "deadline-exceeded";
  case PredictStatus::ShuttingDown:
    return "shutting-down";
  }
  return "unknown";
}

PredictionService::PredictionService(ModelBundle BundleIn,
                                     PredictionServiceOptions OptionsIn)
    : Bundle(std::move(BundleIn)), Options(OptionsIn) {
  BundleChecksum = bundleChecksumHex(Bundle);
  Model = Bundle.instantiate();
  if (!Model)
    throw std::runtime_error(
        "model bundle's classifier blob ('" +
        Bundle.Provenance.ClassifierName +
        "') is not accepted by any classifier family's loader");
  if (Options.MaxBatch == 0)
    Options.MaxBatch = 1;
  if (Options.MaxQueue == 0)
    Options.MaxQueue = 1;
  Dispatcher = std::thread([this] { dispatchLoop(); });
}

PredictionService::~PredictionService() { shutdown(); }

PredictResponse
PredictionService::predictUnbatched(const PredictRequest &Request) const {
  PredictResponse Response;

  ParseResult Parsed = parseLoops(Request.LoopText);
  if (!Parsed.succeeded()) {
    Response.Status = PredictStatus::Malformed;
    Response.Error = "line " + std::to_string(Parsed.ErrorLine) +
                     ": " + Parsed.Error;
    return Response;
  }
  if (Parsed.Loops.empty()) {
    Response.Status = PredictStatus::Malformed;
    Response.Error = "no loops in request";
    return Response;
  }

  // Structural rejection goes through the diagnostics engine so clients
  // see the same stable IDs and renderings metaopt-lint prints. Lint
  // passes stay off: style warnings are not a reason to refuse serving.
  LintOptions Verify;
  Verify.RunVerifier = true;
  Verify.Passes = {"V"};
  for (const Loop &L : Parsed.Loops) {
    DiagnosticReport Report = lintLoop(L, Verify);
    if (Report.hasErrors()) {
      Response.Status = PredictStatus::Malformed;
      Response.Error += Report.renderText();
    }
  }
  if (Response.Status == PredictStatus::Malformed)
    return Response;

  for (const Loop &L : Parsed.Loops) {
    LoopPrediction Prediction;
    Prediction.LoopName = L.name();
    FeatureVector Features = extractFeatures(L);
    Prediction.Factor = Model->predict(Features);
    if (Request.WantScores)
      Prediction.Scores = Model->scores(Features);
    Response.Loops.push_back(std::move(Prediction));
  }
  return Response;
}

std::future<PredictResponse>
PredictionService::submit(PredictRequest Request) {
  Pending Item;
  Item.Request = std::move(Request);
  Item.Enqueued = std::chrono::steady_clock::now();
  std::future<PredictResponse> Future = Item.Promise.get_future();

  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping) {
      PredictResponse Response;
      Response.Status = PredictStatus::ShuttingDown;
      Response.Error = "service is shutting down";
      Item.Promise.set_value(std::move(Response));
      return Future;
    }
    if (Queue.size() >= Options.MaxQueue) {
      Metrics.recordOverloaded();
      PredictResponse Response;
      Response.Status = PredictStatus::Overloaded;
      Response.Error = "admission queue is full";
      Item.Promise.set_value(std::move(Response));
      return Future;
    }
    Metrics.recordAdmitted();
    Queue.push_back(std::move(Item));
  }
  QueueCv.notify_one();
  return Future;
}

PredictResponse PredictionService::predict(PredictRequest Request) {
  return submit(std::move(Request)).get();
}

/// Answers one dequeued (in-flight) request: records its terminal outcome
/// and latency in one consistent metrics update, then fulfills the
/// promise. Admission refusals never reach here — they are answered in
/// submit() without touching the in-flight accounting.
void PredictionService::finish(Pending &Item, PredictResponse Response) {
  ServiceMetrics::Outcome TheOutcome = ServiceMetrics::Outcome::Ok;
  switch (Response.Status) {
  case PredictStatus::Malformed:
    TheOutcome = ServiceMetrics::Outcome::Malformed;
    break;
  case PredictStatus::DeadlineExceeded:
    TheOutcome = ServiceMetrics::Outcome::DeadlineExceeded;
    break;
  default:
    break;
  }
  double Micros = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - Item.Enqueued)
                      .count();
  Metrics.recordFinished(TheOutcome, Micros);
  Item.Promise.set_value(std::move(Response));
}

void PredictionService::dispatchLoop() {
  while (true) {
    std::vector<Pending> Batch;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty() && Stopping)
        return;

      // Linger briefly for the batch to fill: under load this amortizes
      // pool wakeups over MaxBatch requests; when idle it adds at most
      // BatchLinger to a lone request's latency.
      if (Options.BatchLinger.count() > 0 &&
          Queue.size() < Options.MaxBatch && !Stopping) {
        auto Full = [&] {
          return Stopping || Queue.size() >= Options.MaxBatch;
        };
        QueueCv.wait_for(Lock, Options.BatchLinger, Full);
      }

      size_t Take = std::min(Options.MaxBatch, Queue.size());
      Batch.reserve(Take);
      for (size_t I = 0; I < Take; ++I) {
        Batch.push_back(std::move(Queue.front()));
        Queue.pop_front();
      }
      if (Take > 0)
        Metrics.recordDequeued(Take);
    }
    if (Batch.empty())
      continue;

    auto Now = std::chrono::steady_clock::now();
    std::vector<PredictResponse> Responses = parallelMap<PredictResponse>(
        Batch.size(), [&](size_t I) -> PredictResponse {
          const PredictRequest &Request = Batch[I].Request;
          if (Request.Deadline.time_since_epoch().count() != 0 &&
              Now > Request.Deadline) {
            PredictResponse Response;
            Response.Status = PredictStatus::DeadlineExceeded;
            Response.Error = "deadline passed while queued";
            return Response;
          }
          return predictUnbatched(Request);
        });
    for (size_t I = 0; I < Batch.size(); ++I)
      finish(Batch[I], std::move(Responses[I]));
  }
}

void PredictionService::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping && !Dispatcher.joinable())
      return;
    Stopping = true;
  }
  QueueCv.notify_all();
  if (Dispatcher.joinable())
    Dispatcher.join();
}
