//===- tests/perf_test.cpp - Batched labeling perf & identity -------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Guards the batched labeling path (sim/SimCompile.h) on two fronts:
//
//  * Byte-identity: a whole-loop plan (all eight factors, the shared
//    epilogue, the body-stats cache) evaluated at every factor must equal
//    single-factor simulateLoop bit for bit, over both a generated corpus
//    slice and every promoted fuzz reproducer in tests/fuzz_seeds/ — the
//    seeds are loops that broke an oracle once, so they are exactly the
//    structures most likely to diverge. Both run the one scheduler,
//    liveness pass and cost model; tests/sim_golden_test.cpp pins those.
//
//  * Throughput: the production labeling configuration (pruning on,
//    4 threads) must beat the unpruned serial sweep by >= 1.5x on the
//    full corpus while producing the byte-identical dataset. The serial
//    sweep runs the same simulator, so at 1 thread production is only
//    1.1-1.4x faster (pruning, batching and body sharing); the floor
//    therefore needs at least 2 hardware threads. On a 4-vCPU VM the
//    4-thread ratio measured 2.2-3.9x; see docs/PERF.md.
//
// The suite carries the ctest label `perf` so the CI bench-smoke job can
// run it in isolation (`ctest -L perf`) on a Release build.
//
//===----------------------------------------------------------------------===//

#include "cache/SimCache.h"
#include "concurrency/ThreadPool.h"
#include "core/driver/LabelCollector.h"
#include "corpus/BenchmarkSuite.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "machine/Machine.h"
#include "sim/SimCompile.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef METAOPT_FUZZ_SEED_DIR
#error "METAOPT_FUZZ_SEED_DIR must point at tests/fuzz_seeds"
#endif

using namespace metaopt;

namespace {

/// Asserts plan evaluation == simulateLoop at every factor, both SWP
/// modes, under \p Ctx. \p Where names the loop in failure output.
void expectFastPathMatches(const Loop &L, const MachineModel &Machine,
                           const SimContext &Ctx, SimBodyStatsCache *Cache,
                           const std::string &Where) {
  for (bool Swp : {false, true}) {
    LoopSimPlan Plan = compileLoopSim(L, Machine, Ctx, Swp, Cache);
    for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
      SimResult Ref = simulateLoop(L, Factor, Machine, Ctx, Swp);
      SimResult Fast = evaluatePlan(Plan, Factor, Machine, Ctx);
      EXPECT_TRUE(Ref == Fast)
          << Where << " factor " << Factor << " swp " << Swp
          << ": cycles " << Ref.Cycles << " vs " << Fast.Cycles;
    }
  }
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// One cold-cache labeling sweep; returns wall seconds, CSV via out-param.
double timedSweep(const std::vector<Benchmark> &Corpus,
                  bool PruneEquivalent, unsigned Threads,
                  std::string *OutCsv) {
  ThreadPool::setGlobalThreads(Threads);
  SimCache RunCache;
  LabelingOptions Options;
  Options.PruneEquivalent = PruneEquivalent;
  Options.Cache = &RunCache;
  auto Start = std::chrono::steady_clock::now();
  Dataset Data = collectLabels(Corpus, Options);
  double Seconds = secondsSince(Start);
  *OutCsv = Data.toCsv();
  return Seconds;
}

} // namespace

TEST(FastPathIdentity, MatchesReferenceOnGeneratedCorpus) {
  CorpusOptions CorpusOpts;
  CorpusOpts.MinLoopsPerBenchmark = 2;
  CorpusOpts.MaxLoopsPerBenchmark = 4;
  std::vector<Benchmark> Corpus = buildCorpus(CorpusOpts);
  MachineModel Machine(itanium2Config());
  SimBodyStatsCache Cache; // Shared: identity must survive body sharing.
  size_t Checked = 0;
  for (const Benchmark &Bench : Corpus) {
    for (const CorpusLoop &Entry : Bench.Loops) {
      expectFastPathMatches(Entry.TheLoop, Machine, Entry.Ctx, &Cache,
                            Bench.Name + "/" + Entry.TheLoop.name());
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 20u);
  // The corpus repeats loop shapes, so the body cache must actually share.
  EXPECT_GT(Cache.hits(), 0u);
}

TEST(FastPathIdentity, MatchesReferenceOnFuzzSeeds) {
  namespace fs = std::filesystem;
  fs::path Dir(METAOPT_FUZZ_SEED_DIR);
  ASSERT_TRUE(fs::exists(Dir)) << Dir;
  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  SimBodyStatsCache Cache;
  unsigned Compared = 0;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".loop")
      continue;
    std::ifstream In(Entry.path());
    ASSERT_TRUE(In) << Entry.path();
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    ParseResult Parsed =
        parseLoops(Buffer.str(), Entry.path().filename().string());
    ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
    for (const Loop &L : Parsed.Loops) {
      if (!isWellFormed(L) || L.runtimeTripCount() < 0)
        continue; // simulateLoop itself rejects these.
      expectFastPathMatches(L, Machine, Ctx, &Cache,
                            Entry.path().filename().string() + "/" +
                                L.name());
      ++Compared;
    }
  }
  EXPECT_GT(Compared, 0u);
}

TEST(LabelingThroughput, ProductionBeatsSerialReferenceAt4Threads) {
  std::vector<Benchmark> Corpus = buildCorpus(CorpusOptions{});

  // Best-of-two per mode damps scheduler noise on busy CI machines; the
  // floor (1.5x) sits under the 2.2-3.9x measured at 4 threads with 4
  // hardware threads (docs/PERF.md).
  std::string SerialCsv, ProductionCsv;
  double Serial = timedSweep(Corpus, /*PruneEquivalent=*/false,
                             /*Threads=*/1, &SerialCsv);
  {
    std::string Again;
    Serial = std::min(Serial, timedSweep(Corpus, false, 1, &Again));
    ASSERT_EQ(SerialCsv, Again);
  }
  double Production = timedSweep(Corpus, /*PruneEquivalent=*/true,
                                 /*Threads=*/4, &ProductionCsv);
  {
    std::string Again;
    Production = std::min(Production, timedSweep(Corpus, true, 4, &Again));
    ASSERT_EQ(ProductionCsv, Again);
  }
  ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());

  // The contract half: identical datasets.
  EXPECT_EQ(SerialCsv, ProductionCsv);
  // The throughput half: the whole point of the batched path.
  ASSERT_GT(Production, 0.0);
  EXPECT_GE(Serial / Production, 1.5)
      << "serial " << Serial << "s vs production " << Production << "s";
}
