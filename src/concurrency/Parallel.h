//===- concurrency/Parallel.h - parallelFor/parallelMap facade --*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The façade every parallel call site uses. parallelFor(I) runs a body
/// over an index range on the thread pool; parallelMap collects one
/// result per index into a vector ordered by index, so the output is
/// independent of which worker ran which index — the cornerstone of the
/// determinism contract (docs/CONCURRENCY.md). Bodies that need
/// randomness must derive their stream from a base seed and the stable
/// index via Rng::splitStream (see concurrency/Determinism.h), never from
/// a shared generator.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CONCURRENCY_PARALLEL_H
#define METAOPT_CONCURRENCY_PARALLEL_H

#include "concurrency/ThreadPool.h"

#include <vector>

namespace metaopt {

/// Runs Fn(I) for every I in [Begin, End) on \p Pool (the global pool
/// when null). Serial when the pool has one thread. Rethrows the
/// lowest-index exception after all indices ran.
inline void parallelFor(size_t Begin, size_t End,
                        const std::function<void(size_t)> &Fn,
                        ThreadPool *Pool = nullptr) {
  (Pool ? *Pool : ThreadPool::global()).run(Begin, End, Fn);
}

/// Computes Fn(I) for I in [0, N) and returns the results ordered by
/// index — bit-identical whichever threads computed them. T must be
/// default-constructible and movable.
template <typename T, typename MapFn>
std::vector<T> parallelMap(size_t N, const MapFn &Fn,
                           ThreadPool *Pool = nullptr) {
  std::vector<T> Results(N);
  parallelFor(
      0, N, [&](size_t I) { Results[I] = Fn(I); }, Pool);
  return Results;
}

} // namespace metaopt

#endif // METAOPT_CONCURRENCY_PARALLEL_H
