//===- tests/concurrency_test.cpp - Unit tests for src/concurrency -------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Exercises the parallel runtime: pool lifecycle, parallelFor and
// parallelMap correctness, nested regions running inline, exception
// propagation, distribution under skewed task sizes, and — the core
// guarantee —
// that parallel labeling produces the byte-identical dataset CSV the
// serial run produces (SWP off and on). Runs under METAOPT_SANITIZE=thread
// via `ctest -L concurrency`.
//
//===----------------------------------------------------------------------===//

#include "concurrency/Determinism.h"
#include "concurrency/Parallel.h"
#include "concurrency/ThreadPool.h"
#include "core/driver/LabelCollector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace metaopt;

//===----------------------------------------------------------------------===//
// Pool lifecycle
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, StartAndStop) {
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    ThreadPool Pool(Threads);
    EXPECT_EQ(Pool.threadCount(), Threads);
  }
}

TEST(ThreadPoolTest, RepeatedConstructionAndDestruction) {
  // Pools must come up and wind down cleanly even when cycled rapidly,
  // including pools that never ran a task.
  for (int Cycle = 0; Cycle < 20; ++Cycle) {
    ThreadPool Pool(4);
    if (Cycle % 2 == 0) {
      std::atomic<int> Count{0};
      parallelFor(0, 16, [&](size_t) { Count.fetch_add(1); }, &Pool);
      EXPECT_EQ(Count.load(), 16);
    }
  }
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool Pool(1);
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Executors(8);
  parallelFor(0, 8, [&](size_t I) {
    Executors[I] = std::this_thread::get_id();
  }, &Pool);
  for (std::thread::id Id : Executors)
    EXPECT_EQ(Id, Caller);
}

//===----------------------------------------------------------------------===//
// parallelFor / parallelMap
//===----------------------------------------------------------------------===//

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  constexpr size_t N = 10000;
  std::vector<std::atomic<int>> Hits(N);
  parallelFor(100, 100 + N, [&](size_t I) {
    ASSERT_GE(I, 100u);
    ASSERT_LT(I, 100 + N);
    Hits[I - 100].fetch_add(1);
  }, &Pool);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  ThreadPool Pool(4);
  int Count = 0;
  parallelFor(5, 5, [&](size_t) { ++Count; }, &Pool);
  EXPECT_EQ(Count, 0);
  parallelFor(5, 6, [&](size_t I) { Count += static_cast<int>(I); }, &Pool);
  EXPECT_EQ(Count, 5);
}

TEST(ParallelMapTest, ResultsAreIndexOrdered) {
  ThreadPool Pool(4);
  std::vector<int> Squares =
      parallelMap<int>(512, [](size_t I) { return static_cast<int>(I * I); },
                       &Pool);
  ASSERT_EQ(Squares.size(), 512u);
  for (size_t I = 0; I < Squares.size(); ++I)
    EXPECT_EQ(Squares[I], static_cast<int>(I * I));
}

TEST(ParallelMapTest, MatchesSerialBitForBit) {
  // The determinism contract end to end: per-task RNG streams derived
  // from (seed, stable index) make the parallel map equal the serial map.
  auto Draw = [](size_t I) {
    Rng Stream = taskRng(0xfeedULL, I);
    double Sum = 0.0;
    for (int K = 0; K < 100; ++K)
      Sum += Stream.nextGaussian();
    return Sum;
  };
  ThreadPool Serial(1), Wide(8);
  std::vector<double> A = parallelMap<double>(200, Draw, &Serial);
  std::vector<double> B = parallelMap<double>(200, Draw, &Wide);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << "index " << I; // Exact, not approximate.
}

TEST(ParallelForTest, NestedParallelFor) {
  ThreadPool Pool(4);
  constexpr size_t Outer = 8, Inner = 64;
  std::vector<std::atomic<int>> Hits(Outer * Inner);
  parallelFor(0, Outer, [&](size_t O) {
    parallelFor(0, Inner, [&](size_t I) {
      Hits[O * Inner + I].fetch_add(1);
    }, &Pool);
  }, &Pool);
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "slot " << I;
}

TEST(ParallelForTest, NestedRegionRunsOnTheTasksThread) {
  // Fewer outer items than threads: idle threads are free to take inner
  // work, yet each inner region stays on its outer item's thread.
  ThreadPool Pool(4);
  constexpr size_t Outer = 2, Inner = 32;
  std::vector<std::thread::id> OuterIds(Outer), InnerIds(Outer * Inner);
  parallelFor(0, Outer, [&](size_t O) {
    OuterIds[O] = std::this_thread::get_id();
    parallelFor(0, Inner, [&](size_t I) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      InnerIds[O * Inner + I] = std::this_thread::get_id();
    }, &Pool);
  }, &Pool);
  for (size_t O = 0; O < Outer; ++O)
    for (size_t I = 0; I < Inner; ++I)
      EXPECT_EQ(InnerIds[O * Inner + I], OuterIds[O])
          << "outer " << O << " inner " << I;
}

TEST(ParallelForTest, NestedRegionsNeverStartMoreOuterItemsThanThreads) {
  // Each outer item holds its memory until it returns (in Figure 4, one
  // fold's kernel matrix). If a thread waiting on a nested region took
  // further outer items onto its stack, the items in flight, and their
  // memory, would grow with the outer range instead of the thread count.
  ThreadPool Pool(2);
  std::atomic<int> InFlight{0}, MaxInFlight{0};
  parallelFor(0, 64, [&](size_t) {
    int Now = InFlight.fetch_add(1) + 1;
    int Seen = MaxInFlight.load();
    while (Now > Seen && !MaxInFlight.compare_exchange_weak(Seen, Now))
      ;
    parallelFor(0, 8, [&](size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }, &Pool);
    InFlight.fetch_sub(1);
  }, &Pool);
  EXPECT_EQ(InFlight.load(), 0);
  EXPECT_LE(MaxInFlight.load(), 2);
}

TEST(ParallelForTest, WorkDistributionUnderSkewedTaskSizes) {
  // One task sleeps for a long block while many short tasks remain; the
  // other threads must pick up the short tail instead of
  // queuing behind the sleeper, so more than one thread executes tasks
  // and the wall clock stays far below the serial sum.
  ThreadPool Pool(4);
  constexpr size_t N = 64;
  std::mutex IdsMutex;
  std::set<std::thread::id> Ids;
  auto Start = std::chrono::steady_clock::now();
  parallelFor(0, N, [&](size_t I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(I == 0 ? 200 : 5));
    std::lock_guard<std::mutex> Lock(IdsMutex);
    Ids.insert(std::this_thread::get_id());
  }, &Pool);
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_GE(Ids.size(), 2u);
  // Serial would be 200 + 63*5 = 515ms; even heavily loaded CI with 4
  // executors should land far under that.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                .count(),
            450);
}

//===----------------------------------------------------------------------===//
// Exception propagation
//===----------------------------------------------------------------------===//

TEST(ParallelForTest, PropagatesLowestIndexException) {
  ThreadPool Pool(4);
  try {
    parallelFor(0, 256, [&](size_t I) {
      if (I == 31 || I == 200)
        throw std::runtime_error("boom at " + std::to_string(I));
    }, &Pool);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    // The serial loop would have surfaced index 31; parallel must agree.
    EXPECT_STREQ(E.what(), "boom at 31");
  }
}

TEST(ParallelForTest, PoolSurvivesException) {
  ThreadPool Pool(4);
  EXPECT_THROW(
      parallelFor(0, 64, [](size_t I) {
        if (I == 7)
          throw std::logic_error("once");
      }, &Pool),
      std::logic_error);
  // The pool must still be fully usable afterwards.
  std::atomic<int> Count{0};
  parallelFor(0, 64, [&](size_t) { Count.fetch_add(1); }, &Pool);
  EXPECT_EQ(Count.load(), 64);
}

TEST(ParallelForTest, SerialPathThrowsNaturally) {
  ThreadPool Pool(1);
  int Reached = 0;
  EXPECT_THROW(
      parallelFor(0, 10, [&](size_t I) {
        if (I == 3)
          throw std::runtime_error("stop");
        ++Reached;
      }, &Pool),
      std::runtime_error);
  EXPECT_EQ(Reached, 3); // Serial semantics: later indices never run.
}

//===----------------------------------------------------------------------===//
// End-to-end determinism: parallel labeling == serial labeling
//===----------------------------------------------------------------------===//

namespace {

/// Small corpus slice: full benchmark diversity, few loops each, so the
/// determinism check stays fast enough for the TSan job.
std::vector<Benchmark> smallCorpus() {
  CorpusOptions Options;
  Options.MinLoopsPerBenchmark = 2;
  Options.MaxLoopsPerBenchmark = 3;
  return buildCorpus(Options);
}

std::string labeledCsv(const std::vector<Benchmark> &Corpus, bool EnableSwp,
                       unsigned Threads) {
  ThreadPool::setGlobalThreads(Threads);
  LabelingOptions Options;
  Options.EnableSwp = EnableSwp;
  size_t TotalLoops = 0;
  Dataset Data = collectLabels(Corpus, Options, &TotalLoops);
  EXPECT_GT(TotalLoops, 0u);
  return Data.toCsv();
}

} // namespace

TEST(DeterminismTest, ParallelLabelingMatchesSerialByteForByte) {
  std::vector<Benchmark> Corpus = smallCorpus();
  for (bool EnableSwp : {false, true}) {
    std::string Serial = labeledCsv(Corpus, EnableSwp, 1);
    std::string Parallel4 = labeledCsv(Corpus, EnableSwp, 4);
    std::string Parallel8 = labeledCsv(Corpus, EnableSwp, 8);
    EXPECT_EQ(Serial, Parallel4) << "SWP=" << EnableSwp;
    EXPECT_EQ(Serial, Parallel8) << "SWP=" << EnableSwp;
    EXPECT_FALSE(Serial.empty());
  }
  ThreadPool::setGlobalThreads(0); // Restore the default pool.
}
