//===- serve/PredictionService.h - Batched inference engine -----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inference engine behind metaopt-serve: loads a trained model bundle
/// (serve/ModelBundle.h) and turns textual loop IR into unroll-factor
/// predictions. Requests pass through a bounded admission queue into a
/// dispatcher that forms batches (up to MaxBatch requests, waiting at
/// most BatchLinger for stragglers) and evaluates each batch on the
/// thread pool (concurrency/ThreadPool.h).
///
/// The contract that makes batching safe to deploy: prediction is a pure
/// function of the request text and the loaded bundle, so the response
/// payload is byte-identical whether a request was served alone, inside
/// any batch, or by predictUnbatched() on the caller's thread — batching
/// and concurrency affect only latency, never answers. Backpressure is
/// explicit: when the queue is full a request is refused immediately with
/// Overloaded (never silently dropped, never unboundedly buffered), and a
/// request whose deadline passed before a worker picked it up is answered
/// with DeadlineExceeded rather than computed uselessly.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SERVE_PREDICTIONSERVICE_H
#define METAOPT_SERVE_PREDICTIONSERVICE_H

#include "serve/Metrics.h"
#include "serve/ModelBundle.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

namespace metaopt {

/// Service tuning knobs.
struct PredictionServiceOptions {
  /// Most requests evaluated per dispatcher batch.
  size_t MaxBatch = 16;
  /// Admission-queue capacity; submissions beyond it are refused with
  /// Overloaded.
  size_t MaxQueue = 1024;
  /// How long the dispatcher waits for a batch to fill once it holds at
  /// least one request. Zero disables lingering (every wakeup drains
  /// whatever is queued).
  std::chrono::microseconds BatchLinger{200};
};

/// Terminal status of one request.
enum class PredictStatus {
  Ok,               ///< Predicted every loop in the request.
  Malformed,        ///< Parser or verifier rejected the input.
  Overloaded,       ///< Refused at admission: queue at capacity.
  DeadlineExceeded, ///< Deadline passed while queued.
  ShuttingDown,     ///< Service stopped before the request was admitted.
};

/// Wire-stable status name ("ok", "malformed", ...).
const char *predictStatusName(PredictStatus Status);

/// One inference request: a textual loop program (docs/LOOP_FORMAT.md),
/// possibly containing several loops.
struct PredictRequest {
  std::string LoopText;
  /// Also return the per-factor score vector for each loop.
  bool WantScores = false;
  /// Absolute deadline; time_point{} (the epoch) means none.
  std::chrono::steady_clock::time_point Deadline{};
};

/// The prediction for one loop of a request.
struct LoopPrediction {
  std::string LoopName;
  unsigned Factor = 0;
  /// Per-factor preference scores (index f-1); meaningful only when the
  /// request asked for scores.
  std::array<double, MaxUnrollFactor> Scores{};
};

/// The answer to one request. Everything here is a pure function of the
/// request and the bundle — no timestamps, queue positions, or batch
/// geometry — which is what makes the byte-identity guarantee testable.
struct PredictResponse {
  PredictStatus Status = PredictStatus::Ok;
  /// For Malformed: the parse error or the verifier/lint diagnostics
  /// (ir/Diagnostics.h renderings, one per line).
  std::string Error;
  std::vector<LoopPrediction> Loops;
};

/// Loads a bundle's classifier once and serves predictions against it.
/// Thread-safe: any number of threads may submit() concurrently.
class PredictionService {
public:
  /// \p Bundle must have been validated (loadBundleFile succeeded);
  /// construction instantiates the classifier and throws
  /// std::runtime_error if no family's loader accepts the blob.
  explicit PredictionService(ModelBundle Bundle,
                             PredictionServiceOptions Options = {});
  ~PredictionService();

  PredictionService(const PredictionService &) = delete;
  PredictionService &operator=(const PredictionService &) = delete;

  /// Queues a request for batched evaluation. The future is always
  /// eventually fulfilled — with Overloaded immediately when the queue is
  /// full, with ShuttingDown when the service stopped first.
  std::future<PredictResponse> submit(PredictRequest Request);

  /// submit() + get(): convenience for synchronous callers.
  PredictResponse predict(PredictRequest Request);

  /// Evaluates a request on the calling thread, bypassing the queue, the
  /// batcher, and the pool. The reference implementation for the
  /// byte-identity contract: for any request, the Response payload equals
  /// submit()'s.
  PredictResponse predictUnbatched(const PredictRequest &Request) const;

  /// Finishes every queued request, then stops the dispatcher. Idempotent;
  /// the destructor calls it. After shutdown, submit() answers
  /// ShuttingDown.
  void shutdown();

  const ModelBundle &bundle() const { return Bundle; }
  const Classifier &classifier() const { return *Model; }
  ServiceStatsSnapshot stats() const { return Metrics.snapshot(); }

  /// Content checksum of the served bundle (bundleChecksumHex), exposed
  /// by the health endpoint so operators and the gateway can tell which
  /// model revision a worker is actually serving.
  const std::string &bundleChecksum() const { return BundleChecksum; }

private:
  struct Pending {
    PredictRequest Request;
    std::promise<PredictResponse> Promise;
    std::chrono::steady_clock::time_point Enqueued;
  };

  void dispatchLoop();
  void finish(Pending &Item, PredictResponse Response);

  ModelBundle Bundle;
  std::string BundleChecksum;
  std::unique_ptr<Classifier> Model;
  PredictionServiceOptions Options;
  ServiceMetrics Metrics;

  std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<Pending> Queue;
  bool Stopping = false;
  std::thread Dispatcher;
};

} // namespace metaopt

#endif // METAOPT_SERVE_PREDICTIONSERVICE_H
