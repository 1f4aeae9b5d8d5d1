//===- concurrency/ThreadPool.h - Work-stealing runtime ---------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic parallel runtime. Labeling the corpus is the paper's
/// dominant cost (a week of machine time for 2,500 loops x 8 unroll
/// factors x 30 noisy trials); this pool parallelizes that and the other
/// embarrassingly parallel hot paths (brute-force LOOCV, the
/// leave-one-benchmark-out speedup protocol, greedy feature selection,
/// the LS-SVM's Cholesky factor) while keeping every result bit-identical
/// to the serial run — see docs/CONCURRENCY.md for the determinism
/// contract.
///
/// Structure: one worker thread per slot beyond the caller, one shared
/// FIFO queue of index chunks, and condition-variable parking for idle
/// workers. The thread that opens a region helps execute chunks until
/// the region is done. Only the outermost region fans out: a region
/// opened inside one of this pool's tasks runs as the plain serial loop
/// on that task's thread, so the tasks in flight, and the memory they
/// hold, are bounded by the thread count.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CONCURRENCY_THREADPOOL_H
#define METAOPT_CONCURRENCY_THREADPOOL_H

#include <cstddef>
#include <functional>
#include <memory>

namespace metaopt {

namespace detail {
struct PoolImpl;
} // namespace detail

/// A thread pool with a fixed degree of parallelism.
///
/// A pool constructed with thread count N owns N-1 worker threads; the
/// thread that calls run() participates as the Nth executor, so N is the
/// total parallelism. N == 1 creates no threads at all and every region
/// degrades to the plain serial loop — the golden reference path.
class ThreadPool {
public:
  /// \p Threads is the total parallelism; 0 means defaultThreadCount().
  explicit ThreadPool(unsigned Threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total parallelism (worker threads + the calling thread).
  unsigned threadCount() const;

  /// Runs Fn(I) for every I in [Begin, End), distributing chunks over the
  /// pool and helping from the calling thread until all are done. With a
  /// thread count of 1, a single-index range, or when called from inside
  /// a task of this pool (a nested region), this is the plain serial loop
  /// on the calling thread. Exceptions thrown by Fn are rethrown here;
  /// when several indices throw, the lowest index wins (matching which
  /// exception the serial loop would have surfaced). Prefer the
  /// parallelFor/parallelMap facade in concurrency/Parallel.h.
  void run(size_t Begin, size_t End, const std::function<void(size_t)> &Fn);

  /// The --threads / METAOPT_THREADS / hardware-concurrency resolution:
  /// METAOPT_THREADS (when set to a positive integer) wins, otherwise
  /// std::thread::hardware_concurrency() (at least 1).
  static unsigned defaultThreadCount();

  /// The process-wide pool used when call sites do not pass one. Created
  /// lazily with defaultThreadCount() threads.
  static ThreadPool &global();

  /// Replaces the global pool with one of \p Threads threads (0 resets to
  /// defaultThreadCount()). Must not be called while a parallel region is
  /// executing on the global pool.
  static void setGlobalThreads(unsigned Threads);

private:
  std::unique_ptr<detail::PoolImpl> Impl;
};

} // namespace metaopt

#endif // METAOPT_CONCURRENCY_THREADPOOL_H
