//===- tests/sim_golden_test.cpp - Simulator golden digests ---------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Golden digests of everything the simulator computes, in the style of
// the interpreter's CorpusGoldenDigests. The list scheduler, the liveness
// pass and the cost model each exist exactly once, with no second copy
// to compare against, so these digests are what shows a change to any of
// them. Pinned:
//
//  * SimResult, every field (doubles by bit pattern), at factors 1-8 with
//    SWP off and on, through both simulateLoop and compileLoopSim +
//    evaluatePlan;
//  * listSchedule's CycleOf, Order and Length on every unrolled,
//    memory-optimized body;
//  * every LivenessInfo field, in body order and in schedule order;
//  * extractFeatures on every loop;
//  * the quick-corpus labeling CSV with SWP off and on;
//  * every compile stage under the simulator, at factors 1-8 (label
//    `sim` as well): the printed unrolled loop, the printed
//    memory-optimized body with every MemoryOptStats field, each
//    dependence graph's edges and per-node successor and predecessor
//    order, the symbolic analysis (values, predicate facts, overflow
//    taint, access summaries, claims), and the quick corpus's
//    simCacheKey digest (the same pin as ir_text_identity_test, so a key
//    move shows under `ctest -L sim` too).
//
// The loop set is perf_test's corpus slice (2-4 loops per benchmark, each
// under its own SimContext) plus every tests/fuzz_seeds/*.loop reproducer
// (default SimContext), read in sorted file-name order.
//
// A digest mismatch prints the new value. Update a golden only for a
// change that is *meant* to alter the simulation, and say why in the
// commit; an optimization must leave every digest unchanged. The suite
// carries the ctest label `sim` (`ctest -L sim`), which the CI sanitizer
// job also runs.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Liveness.h"
#include "analysis/symbolic/StrideInterval.h"
#include "cache/SimCache.h"
#include "core/driver/LabelCollector.h"
#include "core/features/FeatureExtractor.h"
#include "corpus/BenchmarkSuite.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/Machine.h"
#include "sched/ListScheduler.h"
#include "sim/SimCompile.h"
#include "sim/Simulator.h"
#include "support/Fingerprint.h"
#include "transform/MemoryOpt.h"
#include "transform/Unroller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef METAOPT_FUZZ_SEED_DIR
#error "METAOPT_FUZZ_SEED_DIR must point at tests/fuzz_seeds"
#endif

using namespace metaopt;

namespace {

struct GoldenLoop {
  Loop TheLoop;
  SimContext Ctx;
};

/// perf_test's corpus slice followed by the fuzz seeds, in a fixed order.
const std::vector<GoldenLoop> &goldenLoops() {
  static const std::vector<GoldenLoop> Loops = [] {
    std::vector<GoldenLoop> Out;
    CorpusOptions Opts;
    Opts.MinLoopsPerBenchmark = 2;
    Opts.MaxLoopsPerBenchmark = 4;
    for (const Benchmark &Bench : buildCorpus(Opts))
      for (const CorpusLoop &Entry : Bench.Loops)
        Out.push_back({Entry.TheLoop, Entry.Ctx});

    namespace fs = std::filesystem;
    std::vector<fs::path> Seeds;
    for (const fs::directory_entry &Entry :
         fs::directory_iterator(METAOPT_FUZZ_SEED_DIR))
      if (Entry.path().extension() == ".loop")
        Seeds.push_back(Entry.path());
    std::sort(Seeds.begin(), Seeds.end());
    for (const fs::path &Path : Seeds) {
      std::ifstream In(Path);
      std::ostringstream Buffer;
      Buffer << In.rdbuf();
      ParseResult Parsed = parseLoops(Buffer.str(), Path.filename().string());
      for (const Loop &L : Parsed.Loops)
        if (isWellFormed(L) && L.runtimeTripCount() >= 0)
          Out.push_back({L, SimContext{}});
    }
    return Out;
  }();
  return Loops;
}

std::string hex(const FingerprintHasher &H) {
  Fingerprint D = H.digest();
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx%016llx",
                static_cast<unsigned long long>(D.Hi),
                static_cast<unsigned long long>(D.Lo));
  return Buffer;
}

void hashResult(FingerprintHasher &H, const SimResult &R) {
  H.f64(R.Cycles);
  H.f64(R.CyclesPerIteration);
  H.boolean(R.UsedSwp);
  H.i64(R.II);
  H.u64(R.SpillPairs);
  H.u64(R.ScheduleLength);
  H.i64(R.CodeBytes);
}

void hashLiveness(FingerprintHasher &H, const LivenessInfo &Info) {
  H.u64(Info.MaxLiveInt);
  H.u64(Info.MaxLiveFloat);
  H.u64(Info.MaxLivePred);
  H.u64(Info.MaxLiveTotal);
  H.f64(Info.AvgLiveTotal);
  H.u64(Info.NumLiveIn);
  H.u64(Info.NumAcrossBack);
}

/// The body simulateLoop schedules at \p Factor: unrolled, then
/// memory-optimized under the symbolic analysis.
Loop optimizedBody(const Loop &L, unsigned Factor) {
  Loop Unrolled = unrollLoop(L, Factor);
  SymbolicAnalysis Symbolic(Unrolled);
  optimizeMemory(Unrolled, &Symbolic);
  return Unrolled;
}

std::string labelingCsvDigest(bool EnableSwp) {
  CorpusOptions Opts;
  Opts.MinLoopsPerBenchmark = 4;
  Opts.MaxLoopsPerBenchmark = 6;
  LabelingOptions Options;
  Options.EnableSwp = EnableSwp;
  FingerprintHasher H;
  H.str(collectLabels(buildCorpus(Opts), Options).toCsv());
  return hex(H);
}

} // namespace

TEST(SimGolden, LoopSetIsPinned) {
  // 72 benchmarks x 2-4 loops, plus the promoted fuzz reproducers; a
  // changed count means the digests below cover a different loop set.
  EXPECT_EQ(goldenLoops().size(), 214u);
}

TEST(SimGolden, SimResultDigest) {
  MachineModel Machine(itanium2Config());
  FingerprintHasher Reference, Compiled;
  for (const GoldenLoop &G : goldenLoops()) {
    for (bool Swp : {false, true}) {
      LoopSimPlan Plan = compileLoopSim(G.TheLoop, Machine, G.Ctx, Swp);
      for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
        hashResult(Reference,
                   simulateLoop(G.TheLoop, Factor, Machine, G.Ctx, Swp));
        hashResult(Compiled, evaluatePlan(Plan, Factor, Machine, G.Ctx));
      }
    }
  }
  const char *Golden = "7d6e4f34c70ede2df583e79e4c197c54";
  EXPECT_EQ(hex(Reference), Golden);
  EXPECT_EQ(hex(Compiled), Golden);
}

TEST(SimGolden, ListScheduleDigest) {
  MachineModel Machine(itanium2Config());
  FingerprintHasher H;
  for (const GoldenLoop &G : goldenLoops()) {
    for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
      Loop Body = optimizedBody(G.TheLoop, Factor);
      DependenceGraph DG(Body);
      Schedule Sched = listSchedule(Body, DG, Machine);
      H.u64(Sched.Length);
      H.u64(Sched.CycleOf.size());
      for (uint32_t Cycle : Sched.CycleOf)
        H.u64(Cycle);
      H.u64(Sched.Order.size());
      for (uint32_t Node : Sched.Order)
        H.u64(Node);
    }
  }
  EXPECT_EQ(hex(H), "c6096057507402717f2cb02f85aa8e5c");
}

TEST(SimGolden, LivenessDigest) {
  MachineModel Machine(itanium2Config());
  FingerprintHasher BodyOrder, ScheduleOrder;
  for (const GoldenLoop &G : goldenLoops()) {
    for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
      Loop Body = optimizedBody(G.TheLoop, Factor);
      hashLiveness(BodyOrder, analyzeLiveness(Body));
      DependenceGraph DG(Body);
      Schedule Sched = listSchedule(Body, DG, Machine);
      hashLiveness(ScheduleOrder, analyzeLiveness(Body, Sched.Order));
    }
  }
  EXPECT_EQ(hex(BodyOrder), "f56e7c2511c7bcd94436180b2cfc3eb0");
  EXPECT_EQ(hex(ScheduleOrder), "b28f02dea94308a6ea097ff6af449c36");
}

TEST(SimGolden, FeatureDigest) {
  FingerprintHasher H;
  for (const GoldenLoop &G : goldenLoops())
    for (double Value : extractFeatures(G.TheLoop))
      H.f64(Value);
  EXPECT_EQ(hex(H), "34892b997beb895371c117fe8602c3cc");
}

TEST(SimGolden, QuickCorpusLabelingCsvDigest) {
  EXPECT_EQ(labelingCsvDigest(/*EnableSwp=*/false),
            "2a54745e3cfbe7ecf3988a4723b9432f");
  EXPECT_EQ(labelingCsvDigest(/*EnableSwp=*/true),
            "cde37cf7b309f771a3f2c26358a97b5e");
}

//===----------------------------------------------------------------------===//
// Compile-stage goldens: each stage compileLoopSim runs, on its own.
//===----------------------------------------------------------------------===//

namespace {

/// Source lines are not printed but ride along with every clone.
void hashSrcLines(FingerprintHasher &H, const Loop &L) {
  for (const PhiNode &Phi : L.phis())
    H.u64(Phi.SrcLine);
  for (const Instruction &Instr : L.body())
    H.u64(Instr.SrcLine);
}

void hashMemoryOptStats(FingerprintHasher &H, const MemoryOptStats &S) {
  H.u64(S.ForwardedLoads);
  H.u64(S.RedundantLoads);
  H.u64(S.PairedLoads);
  H.u64(S.PromotedGuards);
  H.u64(S.DisjointnessWins);
  H.u64(S.DeadStoresIgnored);
}

void hashGraph(FingerprintHasher &H, const DependenceGraph &DG) {
  H.u64(DG.numNodes());
  H.u64(DG.edges().size());
  for (const DepEdge &E : DG.edges()) {
    H.u64(E.Src);
    H.u64(E.Dst);
    H.u64(static_cast<uint64_t>(E.Kind));
    H.u64(E.Distance);
    H.boolean(E.Speculatable);
  }
  for (uint32_t Node = 0; Node < DG.numNodes(); ++Node) {
    H.u64(DG.successors(Node).size());
    for (uint32_t Index : DG.successors(Node))
      H.u64(Index);
    H.u64(DG.predecessors(Node).size());
    for (uint32_t Index : DG.predecessors(Node))
      H.u64(Index);
  }
  H.u64(DG.numMemoryDeps());
  H.u64(DG.minCarriedMemoryDistance());
}

void hashSymbolic(FingerprintHasher &H, const SymbolicAnalysis &SA) {
  const Loop &L = SA.loop();
  for (RegId Reg = 0; Reg < L.numRegs(); ++Reg) {
    const AffineValue &V = SA.value(Reg);
    H.u64(static_cast<uint64_t>(V.K));
    H.u64(V.Base);
    H.i64(V.Offset);
    H.i64(V.Step);
    H.u64(static_cast<uint64_t>(SA.predFact(Reg)));
    H.boolean(SA.overflowProne(Reg));
  }
  H.u64(SA.accesses().size());
  for (const AccessSummary &S : SA.accesses()) {
    H.u64(S.BodyIndex);
    H.i64(S.Sym);
    H.boolean(S.IsStore);
    H.i64(S.SizeBytes);
    H.boolean(S.AddressKnown);
    H.u64(S.Base);
    H.i64(S.Offset);
    H.i64(S.Stride);
    H.boolean(S.WasIndirect);
    H.u64(static_cast<uint64_t>(S.Guard));
  }
  std::vector<StaticClaim> Claims = SA.claims();
  H.u64(Claims.size());
  for (const StaticClaim &C : Claims) {
    H.u64(static_cast<uint64_t>(C.K));
    H.u64(C.A);
    H.u64(C.B);
    H.u64(C.Lag);
    H.u64(C.Reg);
    H.i64(C.Lo);
    H.i64(C.Hi);
  }
}

} // namespace

TEST(SimGolden, UnrolledLoopDigest) {
  FingerprintHasher H;
  for (const GoldenLoop &G : goldenLoops()) {
    for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
      Loop Unrolled = unrollLoop(G.TheLoop, Factor);
      H.str(printLoop(Unrolled));
      hashSrcLines(H, Unrolled);
    }
  }
  EXPECT_EQ(hex(H), "54fcbf31ffbaac1197c44af90fa9844f");
}

TEST(SimGolden, MemoryOptDigest) {
  // With the symbolic analysis (as the simulator runs it) and without.
  FingerprintHasher Proven, Plain;
  for (const GoldenLoop &G : goldenLoops()) {
    for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
      Loop Unrolled = unrollLoop(G.TheLoop, Factor);
      Loop Body = Unrolled;
      SymbolicAnalysis Symbolic(Body);
      hashMemoryOptStats(Proven, optimizeMemory(Body, &Symbolic));
      Proven.str(printLoop(Body));
      hashSrcLines(Proven, Body);
      hashMemoryOptStats(Plain, optimizeMemory(Unrolled));
      Plain.str(printLoop(Unrolled));
    }
  }
  EXPECT_EQ(hex(Proven), "f9ed38842a69527040fe3b9389e099c1");
  EXPECT_EQ(hex(Plain), "625db47d5b976883b1c94b3ae0848a4a");
}

TEST(SimGolden, DependenceGraphDigest) {
  // On the unrolled body and on the memory-optimized one the schedulers
  // see.
  FingerprintHasher Unrolled, Optimized;
  for (const GoldenLoop &G : goldenLoops()) {
    for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
      hashGraph(Unrolled, DependenceGraph(unrollLoop(G.TheLoop, Factor)));
      hashGraph(Optimized, DependenceGraph(optimizedBody(G.TheLoop, Factor)));
    }
  }
  EXPECT_EQ(hex(Unrolled), "9cf83373accf28e101fe7c9f8b7802f8");
  EXPECT_EQ(hex(Optimized), "703eb62de2ab84fa404e954c66e163bb");
}

TEST(SimGolden, SymbolicAnalysisDigest) {
  // On the source loop and on every unrolled loop the memory optimizer
  // consults.
  FingerprintHasher H;
  for (const GoldenLoop &G : goldenLoops()) {
    hashSymbolic(H, SymbolicAnalysis(G.TheLoop));
    for (unsigned Factor = 2; Factor <= MaxUnrollFactor; ++Factor) {
      Loop Unrolled = unrollLoop(G.TheLoop, Factor);
      hashSymbolic(H, SymbolicAnalysis(Unrolled));
    }
  }
  EXPECT_EQ(hex(H), "4247b605cdd27d821407151cc02bede6");
}

TEST(SimGolden, QuickCorpusSimCacheKeyDigest) {
  FingerprintHasher H;
  MachineModel Machine(itanium2Config());
  CorpusOptions Opts; // ir_text_identity_test's quick corpus.
  Opts.MinLoopsPerBenchmark = 6;
  Opts.MaxLoopsPerBenchmark = 10;
  for (const Benchmark &Bench : buildCorpus(Opts))
    for (const CorpusLoop &Entry : Bench.Loops)
      for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor)
        for (bool Swp : {false, true}) {
          SimKey Key =
              simCacheKey(Entry.TheLoop, Factor, Machine, Entry.Ctx, Swp);
          H.u64(Key.Lo);
          H.u64(Key.Hi);
        }
  EXPECT_EQ(hex(H), "5c6ff640f1509713263c5d1ca28528cb");
}
