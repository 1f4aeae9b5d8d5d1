//===- concurrency/ThreadPool.cpp -----------------------------------------===//

#include "concurrency/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

using namespace metaopt;
using namespace metaopt::detail;

namespace metaopt {
namespace detail {

/// One parallel region. Lives on the stack of the run() that opened it;
/// its chunks reference it and are all consumed before that run()
/// returns, so no refcounting is needed. Completion is signalled through
/// the pool-wide event channel (the pool always outlives its jobs), which
/// avoids the classic destroy-while-notifying race of a per-job condition
/// variable.
struct Job {
  const std::function<void(size_t)> *Body = nullptr;
  std::atomic<size_t> Pending{0}; ///< Indices not yet finished.
  std::mutex ErrorMutex;
  std::exception_ptr Error;
  size_t ErrorIndex = static_cast<size_t>(-1);

  void recordError(size_t Index, std::exception_ptr E) {
    std::lock_guard<std::mutex> Lock(ErrorMutex);
    if (!Error || Index < ErrorIndex) {
      Error = std::move(E);
      ErrorIndex = Index;
    }
  }

  void rethrowIfError() {
    if (Error)
      std::rethrow_exception(Error);
  }
};

/// A unit of work: the chunk [Begin, End) of a job's index range.
struct Task {
  Job *Parent = nullptr;
  size_t Begin = 0;
  size_t End = 0;
};

struct PoolImpl {
  explicit PoolImpl(unsigned Threads);
  ~PoolImpl();

  unsigned ThreadCount; ///< Workers + the calling thread.
  std::vector<std::thread> Workers;

  std::mutex QueueMutex;
  std::deque<Task *> Queue; ///< Chunks not yet taken, oldest region first.

  /// Event channel: bumped (and broadcast) whenever work is pushed or a
  /// job completes, so parked workers and helping waiters re-scan.
  std::mutex EventMutex;
  std::condition_variable EventCv;
  std::atomic<uint64_t> EventEpoch{0};
  std::atomic<int> Waiters{0};
  std::atomic<bool> Stop{false};

  void signalEvent() {
    EventEpoch.fetch_add(1);
    if (Waiters.load() > 0) {
      // Empty critical section: serializes with a waiter that passed its
      // predicate check but has not blocked yet (it holds EventMutex in
      // that window), so the notification cannot be lost.
      { std::lock_guard<std::mutex> Lock(EventMutex); }
      EventCv.notify_all();
    }
  }

  template <typename QuitFn>
  void waitEvent(uint64_t SeenEpoch, const QuitFn &Quit) {
    std::unique_lock<std::mutex> Lock(EventMutex);
    Waiters.fetch_add(1);
    EventCv.wait(Lock, [&] {
      return EventEpoch.load() != SeenEpoch || Stop.load() || Quit();
    });
    Waiters.fetch_sub(1);
  }

  void workerLoop();
  Task *takeWork();
  void execute(Task &T);
  void helpUntilDone(Job &J);
};

namespace {
/// The pool whose task body the current thread is running, if any. A
/// region that pool opens from here runs inline (ThreadPool::run).
thread_local const PoolImpl *RunningTaskOf = nullptr;
} // namespace

PoolImpl::PoolImpl(unsigned Threads) : ThreadCount(Threads) {
  assert(Threads >= 1 && "thread count must be at least 1");
  Workers.reserve(Threads - 1);
  for (unsigned I = 1; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

PoolImpl::~PoolImpl() {
  Stop.store(true);
  signalEvent();
  // signalEvent() skips the broadcast when no worker is parked, but a
  // worker may be about to park having seen Stop == false; the epoch
  // bump above makes its wait predicate true. Broadcast unconditionally
  // once more to cover workers already inside wait().
  {
    std::lock_guard<std::mutex> Lock(EventMutex);
  }
  EventCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

Task *PoolImpl::takeWork() {
  // FIFO: chunks are taken in index order, so a region whose costs fall
  // with the index hands out its largest chunks first.
  std::lock_guard<std::mutex> Lock(QueueMutex);
  if (Queue.empty())
    return nullptr;
  Task *T = Queue.front();
  Queue.pop_front();
  return T;
}

void PoolImpl::execute(Task &T) {
  Job &J = *T.Parent;
  size_t Count = T.End - T.Begin;
  // Saved and restored: a task of another pool may be helping this one.
  const PoolImpl *Outer = RunningTaskOf;
  RunningTaskOf = this;
  for (size_t I = T.Begin; I < T.End; ++I) {
    try {
      (*J.Body)(I);
    } catch (...) {
      J.recordError(I, std::current_exception());
    }
  }
  RunningTaskOf = Outer;
  if (J.Pending.fetch_sub(Count) == Count)
    signalEvent(); // Job complete: wake its waiter.
}

void PoolImpl::workerLoop() {
  for (;;) {
    uint64_t Epoch = EventEpoch.load();
    if (Task *T = takeWork()) {
      execute(*T);
      continue;
    }
    if (Stop.load())
      return;
    waitEvent(Epoch, [] { return false; });
  }
}

void PoolImpl::helpUntilDone(Job &J) {
  while (J.Pending.load() != 0) {
    uint64_t Epoch = EventEpoch.load();
    if (Task *T = takeWork()) {
      execute(*T);
      continue;
    }
    // All of this job's chunks are taken but some are still running (or
    // new work appeared between the scan and here — the epoch catches
    // that). Park until an event rather than spinning.
    waitEvent(Epoch, [&] { return J.Pending.load() == 0; });
  }
}

} // namespace detail
} // namespace metaopt

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

ThreadPool::ThreadPool(unsigned Threads)
    : Impl(std::make_unique<PoolImpl>(Threads ? Threads
                                              : defaultThreadCount())) {}

ThreadPool::~ThreadPool() = default;

unsigned ThreadPool::threadCount() const { return Impl->ThreadCount; }

unsigned ThreadPool::defaultThreadCount() {
  if (const char *Env = std::getenv("METAOPT_THREADS")) {
    char *End = nullptr;
    long Value = std::strtol(Env, &End, 10);
    if (End && *End == '\0' && Value >= 1 && Value <= 4096)
      return static_cast<unsigned>(Value);
  }
  unsigned Hardware = std::thread::hardware_concurrency();
  return Hardware ? Hardware : 1;
}

void ThreadPool::run(size_t Begin, size_t End,
                     const std::function<void(size_t)> &Fn) {
  if (Begin >= End)
    return;
  size_t N = End - Begin;
  if (Impl->ThreadCount == 1 || N == 1 || RunningTaskOf == Impl.get()) {
    // The golden serial path: plain loop, natural exception propagation.
    // A nested region takes it too, so only the outermost region fans
    // out and the caller's task finishes before its thread takes another.
    for (size_t I = Begin; I < End; ++I)
      Fn(I);
    return;
  }

  Job J;
  J.Body = &Fn;
  J.Pending.store(N);

  // Small chunks so idle threads can rebalance skewed per-index costs.
  size_t ChunkSize = std::max<size_t>(1, N / (size_t{8} * Impl->ThreadCount));
  size_t NumChunks = (N + ChunkSize - 1) / ChunkSize;
  std::vector<Task> Chunks(NumChunks);
  {
    std::lock_guard<std::mutex> Lock(Impl->QueueMutex);
    for (size_t C = 0; C < NumChunks; ++C) {
      Chunks[C].Parent = &J;
      Chunks[C].Begin = Begin + C * ChunkSize;
      Chunks[C].End = std::min(End, Chunks[C].Begin + ChunkSize);
      Impl->Queue.push_back(&Chunks[C]);
    }
  }
  Impl->signalEvent();

  Impl->helpUntilDone(J);
  J.rethrowIfError();
}

namespace {
std::mutex GlobalPoolMutex;
std::unique_ptr<ThreadPool> GlobalPool;
} // namespace

ThreadPool &ThreadPool::global() {
  std::lock_guard<std::mutex> Lock(GlobalPoolMutex);
  if (!GlobalPool)
    GlobalPool = std::make_unique<ThreadPool>();
  return *GlobalPool;
}

void ThreadPool::setGlobalThreads(unsigned Threads) {
  std::lock_guard<std::mutex> Lock(GlobalPoolMutex);
  GlobalPool.reset(); // Join the old pool's workers first.
  GlobalPool = std::make_unique<ThreadPool>(Threads);
}
