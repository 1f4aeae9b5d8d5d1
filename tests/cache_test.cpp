//===- tests/cache_test.cpp - Unit tests for src/cache --------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "cache/SimCache.h"
#include "concurrency/Parallel.h"
#include "concurrency/ThreadPool.h"
#include "core/driver/SpeedupEvaluator.h"
#include "core/features/FeatureCatalog.h"
#include "ir/LoopBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

using namespace metaopt;

namespace {

Loop makeDaxpy(int64_t Trip = 1024) {
  LoopBuilder B("daxpy", SourceLanguage::C, 1, Trip);
  RegId Alpha = B.liveIn(RegClass::Float, "alpha");
  MemRef X{0, 8, 0, false, 8};
  MemRef Y{1, 8, 0, false, 8};
  RegId Xv = B.load(RegClass::Float, X);
  RegId Yv = B.load(RegClass::Float, Y);
  B.store(B.fma(Alpha, Xv, Yv), Y);
  return B.finalize();
}

Loop makeIir() {
  LoopBuilder B("iir", SourceLanguage::C, 1, 512);
  RegId A = B.liveIn(RegClass::Float, "a");
  RegId Y = B.phi(RegClass::Float, "y");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  RegId Next = B.fma(A, Y, X);
  B.store(Next, {1, 8, 0, false, 8});
  B.setPhiRecur(Y, Next);
  return B.finalize();
}

CorpusOptions tinyCorpus() {
  CorpusOptions Options;
  Options.MinLoopsPerBenchmark = 2;
  Options.MaxLoopsPerBenchmark = 3;
  return Options;
}

SimCacheConfig disabledConfig() {
  SimCacheConfig Config;
  Config.Enabled = false;
  return Config;
}

/// Fresh temp directory for a persistent-tier test.
std::string freshCacheDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "/metaopt_cache_test_" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Overwrites \p Count bytes at \p Offset in \p Path.
void patchFile(const std::string &Path, std::streamoff Offset,
               const void *Bytes, size_t Count) {
  std::fstream File(Path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(File.good());
  File.seekp(Offset);
  File.write(static_cast<const char *>(Bytes),
             static_cast<std::streamsize>(Count));
  ASSERT_TRUE(File.good());
}

std::string slurp(const std::string &Path) {
  std::ifstream File(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(File),
                     std::istreambuf_iterator<char>());
}

} // namespace

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, DeterministicAndNonDestructive) {
  FingerprintHasher A, B;
  A.str("hello");
  A.u64(42);
  A.f64(3.25);
  B.str("hello");
  B.u64(42);
  B.f64(3.25);
  EXPECT_EQ(A.digest(), B.digest());
  // digest() must not consume the state: hashing more afterwards works.
  Fingerprint First = A.digest();
  A.u64(7);
  EXPECT_NE(A.digest(), First);
}

TEST(FingerprintTest, LengthPrefixPreventsConcatenationCollisions) {
  FingerprintHasher A, B;
  A.str("ab");
  A.str("c");
  B.str("a");
  B.str("bc");
  EXPECT_NE(A.digest(), B.digest());
}

TEST(FingerprintTest, SensitiveToEveryByte) {
  FingerprintHasher A, B;
  A.str("daxpy");
  B.str("daxpz");
  EXPECT_NE(A.digest(), B.digest());
}

//===----------------------------------------------------------------------===//
// Key derivation
//===----------------------------------------------------------------------===//

TEST(SimCacheKeyTest, StableAcrossPrintParseRoundTrip) {
  // The key is derived from the canonical print; a loop that survives a
  // print -> parse -> print round trip must produce the same key, so a
  // corpus loop and its reparsed twin share cache entries.
  Loop Original = makeDaxpy();
  ParseResult Parsed = parseLoops(printLoop(Original));
  ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
  ASSERT_EQ(Parsed.Loops.size(), 1u);

  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  for (unsigned Factor : {1u, 4u, 8u})
    EXPECT_EQ(simCacheKey(Original, Factor, Machine, Ctx, false),
              simCacheKey(Parsed.Loops.front(), Factor, Machine, Ctx, false));
}

TEST(SimCacheKeyTest, DistinguishesEverySimulationInput) {
  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  Loop L = makeDaxpy();
  SimKey Base = simCacheKey(L, 4, Machine, Ctx, false);

  EXPECT_NE(simCacheKey(makeIir(), 4, Machine, Ctx, false), Base);
  EXPECT_NE(simCacheKey(L, 5, Machine, Ctx, false), Base);
  EXPECT_NE(simCacheKey(L, 4, Machine, Ctx, true), Base);

  MachineConfig Narrow = itanium2Config();
  Narrow.IssueWidth = 2;
  EXPECT_NE(simCacheKey(L, 4, MachineModel(Narrow), Ctx, false), Base);

  SimContext Tight = Ctx;
  Tight.EffectiveIcacheBytes = 256;
  EXPECT_NE(simCacheKey(L, 4, Machine, Tight, false), Base);

  SimContext Missy = Ctx;
  Missy.DcacheMissRate = 0.25;
  EXPECT_NE(simCacheKey(L, 4, Machine, Missy, false), Base);
}

TEST(SimCacheKeyTest, TripCountIsPartOfTheKey) {
  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  EXPECT_NE(simCacheKey(makeDaxpy(1024), 4, Machine, Ctx, false),
            simCacheKey(makeDaxpy(2048), 4, Machine, Ctx, false));
}

//===----------------------------------------------------------------------===//
// In-memory tier
//===----------------------------------------------------------------------===//

TEST(SimCacheTest, HitReturnsTheByteIdenticalResult) {
  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  Loop L = makeDaxpy();

  SimCache Cache;
  SimResult Fresh = simulateLoop(L, 4, Machine, Ctx, false);
  SimResult Miss = Cache.simulate(L, 4, Machine, Ctx, false);
  SimResult Hit = Cache.simulate(L, 4, Machine, Ctx, false);
  EXPECT_EQ(Miss, Fresh);
  EXPECT_EQ(Hit, Fresh);

  SimCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Inserts, 1u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_DOUBLE_EQ(Stats.hitRate(), 0.5);
}

TEST(SimCacheTest, DisabledCacheIsAPurePassThrough) {
  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  Loop L = makeDaxpy();

  SimCache Cache(disabledConfig());
  SimResult A = Cache.simulate(L, 4, Machine, Ctx, false);
  SimResult B = Cache.simulate(L, 4, Machine, Ctx, false);
  EXPECT_EQ(A, simulateLoop(L, 4, Machine, Ctx, false));
  EXPECT_EQ(A, B);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().lookups(), 0u);
}

TEST(SimCacheTest, ClearDropsEntriesButKeepsStats) {
  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  SimCache Cache;
  Cache.simulate(makeDaxpy(), 1, Machine, Ctx, false);
  ASSERT_EQ(Cache.size(), 1u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().Misses, 1u);
}

TEST(SimCacheTest, ConcurrentSweepsAreDeterministicAtAnyThreadCount) {
  MachineModel Machine(itanium2Config());
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());

  // The uncached, serial reference for every (loop, factor) pair.
  struct Work {
    const CorpusLoop *Entry;
    unsigned Factor;
  };
  std::vector<Work> Items;
  for (const Benchmark &Bench : Corpus)
    for (const CorpusLoop &Entry : Bench.Loops)
      for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
        Items.push_back({&Entry, Factor});
  std::vector<SimResult> Reference;
  Reference.reserve(Items.size());
  for (const Work &Item : Items)
    Reference.push_back(simulateLoop(Item.Entry->TheLoop, Item.Factor,
                                     Machine, Item.Entry->Ctx, false));

  for (unsigned Threads : {1u, 4u}) {
    ThreadPool Pool(Threads);
    SimCache Cache;
    // Two passes: the first is all misses (with concurrent inserts of the
    // same keys racing benignly), the second all hits.
    for (int Pass = 0; Pass < 2; ++Pass) {
      std::vector<SimResult> Results = parallelMap<SimResult>(
          Items.size(),
          [&](size_t I) {
            return Cache.simulate(Items[I].Entry->TheLoop, Items[I].Factor,
                                  Machine, Items[I].Entry->Ctx, false);
          },
          &Pool);
      ASSERT_EQ(Results.size(), Reference.size());
      for (size_t I = 0; I < Results.size(); ++I)
        EXPECT_EQ(Results[I], Reference[I]) << "pass " << Pass << " item "
                                            << I << " threads " << Threads;
    }
    SimCacheStats Stats = Cache.stats();
    EXPECT_EQ(Stats.Hits, Items.size());
    EXPECT_EQ(Stats.Misses, Items.size());
    EXPECT_EQ(Stats.Inserts, Cache.size());
    EXPECT_EQ(Cache.size(), Items.size());
  }
}

//===----------------------------------------------------------------------===//
// Persistent tier
//===----------------------------------------------------------------------===//

TEST(SimCachePersistentTest, RoundTripsAcrossHandles) {
  std::string Dir = freshCacheDir("roundtrip");
  MachineModel Machine(itanium2Config());
  SimContext Ctx;

  SimCacheConfig Config;
  Config.PersistentDir = Dir;
  {
    SimCache Writer(Config);
    for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
      Writer.simulate(makeDaxpy(), Factor, Machine, Ctx, false);
    EXPECT_TRUE(Writer.savePersistentIfDirty());
    // A second call has nothing new to write.
    EXPECT_FALSE(Writer.savePersistentIfDirty());
  }

  SimCache Reader(Config);
  EXPECT_EQ(Reader.size(), static_cast<size_t>(MaxUnrollFactor));
  EXPECT_EQ(Reader.stats().PersistentLoaded,
            static_cast<uint64_t>(MaxUnrollFactor));
  SimResult Warm = Reader.simulate(makeDaxpy(), 4, Machine, Ctx, false);
  EXPECT_EQ(Warm, simulateLoop(makeDaxpy(), 4, Machine, Ctx, false));
  EXPECT_EQ(Reader.stats().Hits, 1u);
  EXPECT_EQ(Reader.stats().Misses, 0u);

  SimCacheFileInfo Info = inspectSimCacheFile(Reader.persistentPath());
  EXPECT_TRUE(Info.Valid) << Info.Error;
  EXPECT_EQ(Info.Version, SimCacheFileVersion);
  EXPECT_EQ(Info.Entries, static_cast<uint64_t>(MaxUnrollFactor));

  std::filesystem::remove_all(Dir);
}

TEST(SimCachePersistentTest, FileBytesAreDeterministic) {
  // Whatever order entries were inserted in, the saved file is sorted by
  // key, so two processes that did the same work publish identical bytes.
  MachineModel Machine(itanium2Config());
  SimContext Ctx;

  std::string DirA = freshCacheDir("bytes_a");
  std::string DirB = freshCacheDir("bytes_b");
  SimCacheConfig ConfigA, ConfigB;
  ConfigA.PersistentDir = DirA;
  ConfigB.PersistentDir = DirB;

  SimCache A(ConfigA), B(ConfigB);
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
    A.simulate(makeDaxpy(), Factor, Machine, Ctx, false);
  for (unsigned Factor = MaxUnrollFactor; Factor >= 1; --Factor)
    B.simulate(makeDaxpy(), Factor, Machine, Ctx, false);
  ASSERT_TRUE(A.savePersistent());
  ASSERT_TRUE(B.savePersistent());
  EXPECT_EQ(slurp(A.persistentPath()), slurp(B.persistentPath()));

  std::filesystem::remove_all(DirA);
  std::filesystem::remove_all(DirB);
}

TEST(SimCachePersistentTest, ConcurrentSaversIntoOneDirectory) {
  // Two caches (as two processes sharing a --cache-dir would) publish into
  // one directory at once. Each save must succeed, the surviving file must
  // be one whole snapshot, and no temporary file may be left behind.
  std::string Dir = freshCacheDir("concurrent");
  MachineModel Machine(itanium2Config());
  SimContext Ctx;

  SimCacheConfig Config;
  Config.PersistentDir = Dir;
  SimCache A(Config), B(Config);
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
    A.simulate(makeDaxpy(), Factor, Machine, Ctx, false);
  B.simulate(makeIir(), 2, Machine, Ctx, false);

  constexpr int Rounds = 1000;
  std::atomic<int> Ready{0}, Failures{0};
  auto Saver = [&](SimCache &Cache) {
    Ready.fetch_add(1);
    while (Ready.load() < 2) {
    }
    for (int I = 0; I < Rounds; ++I)
      if (!Cache.savePersistent())
        Failures.fetch_add(1);
  };
  std::thread First(Saver, std::ref(A)), Second(Saver, std::ref(B));
  First.join();
  Second.join();
  EXPECT_EQ(Failures.load(), 0);

  SimCacheFileInfo Info = inspectSimCacheFile(A.persistentPath());
  EXPECT_TRUE(Info.Valid) << Info.Error;
  EXPECT_TRUE(Info.Entries == A.size() || Info.Entries == B.size())
      << Info.Entries;
  std::vector<std::string> Left;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Left.push_back(Entry.path().filename().string());
  EXPECT_EQ(Left, std::vector<std::string>{"sim_cache.bin"});

  std::filesystem::remove_all(Dir);
}

TEST(SimCachePersistentTest, RejectsCorruptTruncatedAndMismatchedFiles) {
  std::string Dir = freshCacheDir("reject");
  MachineModel Machine(itanium2Config());
  SimContext Ctx;

  SimCacheConfig Config;
  Config.PersistentDir = Dir;
  SimCache Writer(Config);
  Writer.simulate(makeDaxpy(), 2, Machine, Ctx, false);
  Writer.simulate(makeIir(), 3, Machine, Ctx, false);
  ASSERT_TRUE(Writer.savePersistent());
  std::string Path = Writer.persistentPath();
  std::string Pristine = slurp(Path);
  ASSERT_FALSE(Pristine.empty());

  auto restore = [&] {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Pristine.data(), static_cast<std::streamsize>(Pristine.size()));
  };
  auto rejects = [&](const char *What) {
    SimCacheFileInfo Info = inspectSimCacheFile(Path);
    EXPECT_FALSE(Info.Valid) << What;
    EXPECT_FALSE(Info.Error.empty()) << What;
    SimCache Reader(Config); // Construction tries to warm-start.
    EXPECT_EQ(Reader.size(), 0u) << What;
    EXPECT_FALSE(Reader.loadPersistent()) << What;
  };

  // A flipped payload byte breaks the checksum.
  char Flipped = static_cast<char>(Pristine[Pristine.size() - 5] ^ 0x40);
  patchFile(Path, static_cast<std::streamoff>(Pristine.size() - 5), &Flipped,
            1);
  rejects("corrupt payload byte");
  restore();

  // A truncated record breaks the size/count agreement.
  std::filesystem::resize_file(Path, Pristine.size() - 9);
  rejects("truncated record");
  restore();

  // A future format version is rejected before the payload is even read.
  uint64_t FutureVersion = SimCacheFileVersion + 1;
  patchFile(Path, 8, &FutureVersion, sizeof(FutureVersion));
  rejects("version mismatch");
  restore();

  // Wrong magic: some other tool's file living under the same name.
  const char BadMagic[8] = {'N', 'O', 'T', 'A', 'C', 'A', 'S', 'H'};
  patchFile(Path, 0, BadMagic, sizeof(BadMagic));
  rejects("bad magic");

  // The pristine bytes still load after all that abuse.
  restore();
  SimCache Reader(Config);
  EXPECT_EQ(Reader.size(), 2u);

  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// End-to-end determinism: cache on/off x thread counts
//===----------------------------------------------------------------------===//

TEST(SimCacheEndToEndTest, LabelingIsByteIdenticalCacheOnVsOff) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());

  LabelingOptions Options;
  SimCache Off(disabledConfig());
  Options.Cache = &Off;
  std::string Uncached = collectLabels(Corpus, Options).toCsv();

  SimCache On;
  Options.Cache = &On;
  std::string Cold = collectLabels(Corpus, Options).toCsv();
  std::string Warm = collectLabels(Corpus, Options).toCsv();
  EXPECT_GT(On.stats().Hits, 0u);

  EXPECT_EQ(Uncached, Cold);
  EXPECT_EQ(Uncached, Warm);
}

TEST(SimCacheEndToEndTest, LabelingIsByteIdenticalAcrossThreadCounts) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  LabelingOptions Options;
  SimCache Cache;
  Options.Cache = &Cache;

  unsigned Saved = ThreadPool::global().threadCount();
  ThreadPool::setGlobalThreads(1);
  std::string Serial = collectLabels(Corpus, Options).toCsv();
  ThreadPool::setGlobalThreads(4);
  std::string Threaded = collectLabels(Corpus, Options).toCsv();
  ThreadPool::setGlobalThreads(Saved);

  EXPECT_EQ(Serial, Threaded);
}

TEST(SimCacheEndToEndTest, SpeedupReportIsIdenticalCacheOnVsOff) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  LabelingOptions Labeling;
  SimCache Off(disabledConfig());
  Labeling.Cache = &Off;
  Dataset Data = collectLabels(Corpus, Labeling);

  std::vector<std::string> Eval = {"164.gzip", "171.swim"};
  SpeedupOptions Options;
  Options.Labeling = Labeling;
  SpeedupReport Uncached =
      evaluateSpeedups(Corpus, Eval, Data, paperReducedFeatureSet(), Options);

  SimCache On;
  Options.Labeling.Cache = &On;
  SpeedupReport Cached =
      evaluateSpeedups(Corpus, Eval, Data, paperReducedFeatureSet(), Options);
  EXPECT_GT(On.stats().Hits, 0u);

  ASSERT_EQ(Cached.Rows.size(), Uncached.Rows.size());
  for (size_t I = 0; I < Cached.Rows.size(); ++I) {
    EXPECT_EQ(Cached.Rows[I].Benchmark, Uncached.Rows[I].Benchmark);
    EXPECT_DOUBLE_EQ(Cached.Rows[I].NnVsOrc, Uncached.Rows[I].NnVsOrc);
    EXPECT_DOUBLE_EQ(Cached.Rows[I].SvmVsOrc, Uncached.Rows[I].SvmVsOrc);
    EXPECT_DOUBLE_EQ(Cached.Rows[I].OracleVsOrc,
                     Uncached.Rows[I].OracleVsOrc);
  }
  EXPECT_DOUBLE_EQ(Cached.MeanNn, Uncached.MeanNn);
  EXPECT_DOUBLE_EQ(Cached.MeanSvm, Uncached.MeanSvm);
  EXPECT_DOUBLE_EQ(Cached.MeanOracle, Uncached.MeanOracle);
}
