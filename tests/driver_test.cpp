//===- tests/driver_test.cpp - Unit tests for core/driver -----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "cache/SimCache.h"
#include "concurrency/ThreadPool.h"
#include "core/driver/Heuristics.h"
#include "core/driver/Pipeline.h"
#include "core/driver/SpeedupEvaluator.h"
#include "core/ml/NearNeighbor.h"
#include "heuristics/OrcLikeHeuristic.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace metaopt;

namespace {

/// A small corpus that labels in well under a second.
CorpusOptions tinyCorpus() {
  CorpusOptions Options;
  Options.MinLoopsPerBenchmark = 2;
  Options.MaxLoopsPerBenchmark = 3;
  return Options;
}

LabelingOptions tinyLabeling() {
  LabelingOptions Options;
  Options.EnableSwp = false;
  return Options;
}

} // namespace

//===----------------------------------------------------------------------===//
// Label collection
//===----------------------------------------------------------------------===//

TEST(LabelCollectorTest, ProducesValidExamples) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  size_t Raw = 0;
  Dataset Data = collectLabels(Corpus, tinyLabeling(), &Raw);
  EXPECT_GT(Raw, 100u);
  EXPECT_GT(Data.size(), 50u);
  EXPECT_LE(Data.size(), Raw);
  for (const Example &Ex : Data.examples()) {
    EXPECT_GE(Ex.Label, 1u);
    EXPECT_LE(Ex.Label, MaxUnrollFactor);
    // The label is the argmin of the measured cycles.
    double Best = Ex.CyclesPerFactor[Ex.Label - 1];
    for (double Cycles : Ex.CyclesPerFactor)
      EXPECT_GE(Cycles + 1e-9, Best);
    EXPECT_FALSE(Ex.LoopName.empty());
    EXPECT_FALSE(Ex.BenchmarkName.empty());
  }
}

TEST(LabelCollectorTest, AppliesTheNoiseFloor) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  LabelingOptions Options = tinyLabeling();
  Dataset Data = collectLabels(Corpus, Options);
  for (const Example &Ex : Data.examples())
    EXPECT_GE(Ex.CyclesPerFactor[Ex.Label - 1],
              Options.Protocol.MinReliableCycles);
}

TEST(LabelCollectorTest, AppliesTheSensitivityFilter) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  LabelingOptions Options = tinyLabeling();
  Dataset Data = collectLabels(Corpus, Options);
  for (const Example &Ex : Data.examples()) {
    double Sum = 0.0;
    for (double Cycles : Ex.CyclesPerFactor)
      Sum += Cycles;
    double Average = Sum / MaxUnrollFactor;
    EXPECT_LE(Ex.CyclesPerFactor[Ex.Label - 1] * Options.MinBestVsAverage,
              Average + 1e-6);
  }
}

TEST(LabelCollectorTest, DeterministicAcrossRuns) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset A = collectLabels(Corpus, tinyLabeling());
  Dataset B = collectLabels(Corpus, tinyLabeling());
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Label, B[I].Label);
    EXPECT_DOUBLE_EQ(A[I].CyclesPerFactor[0], B[I].CyclesPerFactor[0]);
  }
}

TEST(LabelCollectorTest, PruningPreservesTheDatasetAndReportsStats) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  LabelingOptions Off = tinyLabeling();
  Off.PruneEquivalent = false;
  LabelingOptions On = tinyLabeling();
  LabelingStats StatsOff, StatsOn;
  Dataset A = collectLabels(Corpus, Off, nullptr, &StatsOff);
  Dataset B = collectLabels(Corpus, On, nullptr, &StatsOn);
  // The canonical-form certificate (analysis/symbolic/Canonical.h): the
  // pruned sweep produces the byte-identical dataset.
  EXPECT_EQ(A.toCsv(), B.toCsv());
  EXPECT_EQ(StatsOff.SimulationsPruned, 0u);
  EXPECT_EQ(StatsOff.EquivalenceClasses, StatsOff.TotalLoops);
  EXPECT_EQ(StatsOn.TotalLoops, StatsOff.TotalLoops);
  EXPECT_GE(StatsOn.EquivalenceClasses, 1u);
  EXPECT_LE(StatsOn.EquivalenceClasses, StatsOn.TotalLoops);
  EXPECT_EQ(StatsOn.SimulationsRun + StatsOn.SimulationsPruned,
            StatsOn.TotalLoops * MaxUnrollFactor);
}

TEST(LabelCollectorTest, EquivalentLoopsShareOneSimulationClass) {
  // Clone a benchmark under a new name: every cloned loop is sim-
  // equivalent to its original (the canonical form erases names), so the
  // class count stays put while the loop count doubles.
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  std::vector<Benchmark> Doubled = {Corpus[0], Corpus[0]};
  Doubled[1].Name = "clone." + Doubled[1].Name;

  LabelingStats Stats;
  collectLabels(Doubled, tinyLabeling(), nullptr, &Stats);
  ASSERT_EQ(Stats.TotalLoops, 2 * Corpus[0].Loops.size());
  EXPECT_LE(Stats.EquivalenceClasses, Corpus[0].Loops.size());
  EXPECT_GE(Stats.SimulationsPruned,
            Corpus[0].Loops.size() * MaxUnrollFactor);
  EXPECT_GT(Stats.pruningRate(), 0.0);
}

TEST(LabelCollectorTest, ContextMutatedClonesStillShareClasses) {
  // Regression for the dead-pruning bug: the class key used to fold in
  // the per-loop SimContext, and since the corpus randomizes every
  // loop's context, every equivalence class was a singleton (0 of 2808
  // simulations pruned on the quick corpus). The context must stay OUT
  // of the class key — structurally equivalent loops share one compiled
  // plan even when their cache/budget contexts differ — while each
  // member evaluates that plan under its own context, so the pruned
  // sweep still matches the unpruned one byte for byte.
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  std::vector<Benchmark> Doubled = {Corpus[0], Corpus[0]};
  Doubled[1].Name = "ctxclone." + Doubled[1].Name;
  for (CorpusLoop &Entry : Doubled[1].Loops) {
    Entry.Ctx.EffectiveIcacheBytes /= 2;
    Entry.Ctx.DcacheMissRate *= 1.5;
    Entry.Ctx.IntRegBudget -= 4;
  }

  LabelingOptions Off = tinyLabeling();
  Off.PruneEquivalent = false;
  LabelingStats Stats;
  Dataset Pruned = collectLabels(Doubled, tinyLabeling(), nullptr, &Stats);
  Dataset Unpruned = collectLabels(Doubled, Off);
  EXPECT_EQ(Pruned.toCsv(), Unpruned.toCsv());
  ASSERT_EQ(Stats.TotalLoops, 2 * Corpus[0].Loops.size());
  // Every mutated clone still collides with its original.
  EXPECT_LE(Stats.EquivalenceClasses, Corpus[0].Loops.size());
  EXPECT_GE(Stats.SimulationsPruned,
            Corpus[0].Loops.size() * MaxUnrollFactor);
  EXPECT_GT(Stats.pruningRate(), 0.0);
}

TEST(LabelCollectorTest, StatsAreIdenticalAtEveryThreadCount) {
  // Every LabelingStats field is a function of the corpus and the options
  // alone. Two workers that miss the same body key at once both compute
  // the body, so BodyStatsShared must not be a count of body-cache hits,
  // which would vary from run to run.
  CorpusOptions Quick;
  Quick.MinLoopsPerBenchmark = 4;
  Quick.MaxLoopsPerBenchmark = 6;
  std::vector<Benchmark> Corpus = buildCorpus(Quick);
  const unsigned ThreadCounts[] = {1, 2, 4, 8};
  for (bool EnableSwp : {false, true}) {
    // The serial reference: unpruned, one simulateLoop per (loop, factor)
    // on one thread. Every pruned sweep must reproduce its dataset.
    ThreadPool::setGlobalThreads(1);
    SimCache ReferenceCache;
    LabelingOptions Reference = tinyLabeling();
    Reference.EnableSwp = EnableSwp;
    Reference.PruneEquivalent = false;
    Reference.Cache = &ReferenceCache;
    std::string SerialCsv = collectLabels(Corpus, Reference).toCsv();

    LabelingStats Stats[4];
    std::string Csv[4];
    for (unsigned Run = 0; Run < 4; ++Run) {
      ThreadPool::setGlobalThreads(ThreadCounts[Run]);
      SimCache Cache; // Private and cold: every class compiles its plan.
      LabelingOptions Options = tinyLabeling();
      Options.EnableSwp = EnableSwp;
      Options.Cache = &Cache;
      Csv[Run] = collectLabels(Corpus, Options, nullptr, &Stats[Run]).toCsv();
    }
    SCOPED_TRACE(EnableSwp ? "swp" : "no swp");
    EXPECT_EQ(SerialCsv, Csv[0]);
    for (unsigned Run = 1; Run < 4; ++Run) {
      SCOPED_TRACE("threads " + std::to_string(ThreadCounts[Run]));
      EXPECT_EQ(Csv[0], Csv[Run]);
      EXPECT_EQ(Stats[0].TotalLoops, Stats[Run].TotalLoops);
      EXPECT_EQ(Stats[0].EquivalenceClasses, Stats[Run].EquivalenceClasses);
      EXPECT_EQ(Stats[0].SimulationsRun, Stats[Run].SimulationsRun);
      EXPECT_EQ(Stats[0].SimulationsPruned, Stats[Run].SimulationsPruned);
      EXPECT_EQ(Stats[0].BodyStatsComputed, Stats[Run].BodyStatsComputed);
      EXPECT_EQ(Stats[0].BodyStatsShared, Stats[Run].BodyStatsShared);
    }
    EXPECT_GT(Stats[0].BodyStatsShared, 0u);
    // The quick corpus is structure-diverse, but some loops still share a
    // class: 40 of 2808 simulations (0.0142) are pruned without SWP.
    if (!EnableSwp) {
      EXPECT_GE(Stats[0].pruningRate(), 0.001);
    }
  }
  ThreadPool::setGlobalThreads(0); // Restore the default pool.
}

TEST(LabelCollectorTest, SwpConfigurationDiffers) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  LabelingOptions NoSwp = tinyLabeling();
  LabelingOptions Swp = tinyLabeling();
  Swp.EnableSwp = true;
  Dataset A = collectLabels(Corpus, NoSwp);
  Dataset B = collectLabels(Corpus, Swp);
  // The two configurations must produce different label distributions.
  auto HistA = A.labelHistogram();
  auto HistB = B.labelHistogram();
  EXPECT_NE(HistA, HistB);
}

//===----------------------------------------------------------------------===//
// Learned and oracle policies
//===----------------------------------------------------------------------===//

TEST(LearnedHeuristicTest, DelegatesToClassifier) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  NearNeighborClassifier Nn(paperReducedFeatureSet());
  Nn.train(Data);
  LearnedHeuristic Policy(Nn);
  EXPECT_EQ(Policy.name(), "learned-near-neighbor");
  for (const Benchmark &Bench : Corpus) {
    for (const CorpusLoop &Entry : Bench.Loops) {
      unsigned Factor = Policy.chooseFactor(Entry.TheLoop);
      EXPECT_GE(Factor, 1u);
      EXPECT_LE(Factor, MaxUnrollFactor);
    }
  }
}

TEST(OracleHeuristicTest, ReplaysLabels) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  OracleHeuristic Oracle(Data, 1);
  for (const Benchmark &Bench : Corpus) {
    for (const CorpusLoop &Entry : Bench.Loops) {
      unsigned Factor = Oracle.chooseFactor(Entry.TheLoop);
      // Labeled loops replay their label; filtered loops fall back to 1.
      bool Found = false;
      for (const Example &Ex : Data.examples()) {
        if (Ex.LoopName == Entry.TheLoop.name()) {
          EXPECT_EQ(Factor, Ex.Label);
          Found = true;
        }
      }
      if (!Found) {
        EXPECT_EQ(Factor, 1u);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Speedup evaluation
//===----------------------------------------------------------------------===//

TEST(SpeedupEvaluatorTest, OracleNeverLosesToBaselineLoopTime) {
  // On pure loop time (no noise, same simulator), the oracle's per-loop
  // choices are by construction at least as good as any other policy for
  // labeled loops; whole-benchmark times include unlabeled loops where
  // oracle falls back, so allow slack but demand rough sanity.
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  SpeedupOptions Options;
  Options.Labeling = tinyLabeling();
  std::vector<std::string> Eval = {"164.gzip", "171.swim", "179.art"};
  SpeedupReport Report =
      evaluateSpeedups(Corpus, Eval, Data, paperReducedFeatureSet(),
                       Options);
  ASSERT_EQ(Report.Rows.size(), 3u);
  for (const SpeedupRow &Row : Report.Rows) {
    EXPECT_GT(Row.OracleVsOrc, -0.25) << Row.Benchmark;
    EXPECT_LT(Row.OracleVsOrc, 3.0) << Row.Benchmark;
  }
}

TEST(SpeedupEvaluatorTest, FpFlagsMatchSuite) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  SpeedupOptions Options;
  Options.Labeling = tinyLabeling();
  std::vector<std::string> Eval = {"164.gzip", "171.swim"};
  SpeedupReport Report =
      evaluateSpeedups(Corpus, Eval, Data, paperReducedFeatureSet(),
                       Options);
  EXPECT_FALSE(Report.Rows[0].FloatingPoint); // gzip.
  EXPECT_TRUE(Report.Rows[1].FloatingPoint);  // swim.
}

TEST(SpeedupEvaluatorTest, NonLoopTimeDilutes) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  MachineModel Machine(itanium2Config());
  OrcLikeHeuristic Orc(Machine, false);
  const Benchmark &Bench = Corpus.front();
  double NonLoop = nonLoopCycles(Bench, Orc, Machine, false);
  double LoopOnly = benchmarkCycles(Bench, Orc, Machine, false, 0.0);
  EXPECT_GT(NonLoop, 0.0);
  EXPECT_NEAR(NonLoop / (NonLoop + LoopOnly), Bench.NonLoopFraction,
              1e-9);
}

namespace {

/// A broken policy that answers an out-of-range factor — what a buggy or
/// corrupted classifier could produce. The evaluator must refuse it in
/// every build mode rather than feed it to the unroller.
class RogueHeuristic : public UnrollHeuristic {
public:
  std::string name() const override { return "rogue"; }
  unsigned chooseFactor(const Loop &) const override {
    return MaxUnrollFactor + 3;
  }
};

} // namespace

TEST(SpeedupEvaluatorTest, RejectsOutOfRangePolicyFactors) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  MachineModel Machine(itanium2Config());
  RogueHeuristic Rogue;
  EXPECT_THROW(benchmarkCycles(Corpus.front(), Rogue, Machine, false, 0.0),
               std::runtime_error);
}

TEST(SpeedupEvaluatorTest, RejectsBadNonLoopFraction) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  // NonLoopFraction == 1 would divide by zero; > 1 and < 0 produce
  // negative times. All must throw, in Release builds too.
  for (double Bad : {1.0, 1.5, -0.1}) {
    Benchmark Broken = Corpus.front();
    Broken.NonLoopFraction = Bad;
    EXPECT_THROW(nonLoopFromLoopCycles(Broken, 1e6), std::domain_error)
        << "fraction " << Bad;
  }
  EXPECT_GE(nonLoopFromLoopCycles(Corpus.front(), 1e6), 0.0);
}

TEST(SpeedupEvaluatorTest, RejectsUnknownEvalBenchmark) {
  std::vector<Benchmark> Corpus = buildCorpus(tinyCorpus());
  Dataset Data = collectLabels(Corpus, tinyLabeling());
  SpeedupOptions Options;
  Options.Labeling = tinyLabeling();
  std::vector<std::string> Eval = {"164.gzip", "999.nosuch"};
  EXPECT_THROW(evaluateSpeedups(Corpus, Eval, Data,
                                paperReducedFeatureSet(), Options),
               std::invalid_argument);
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

TEST(PipelineTest, LazyAndConsistent) {
  PipelineOptions Options;
  Options.Corpus = tinyCorpus();
  Pipeline Pipe(Options);
  EXPECT_EQ(Pipe.corpus().size(), 72u);
  const Dataset &First = Pipe.dataset(false);
  const Dataset &Second = Pipe.dataset(false);
  EXPECT_EQ(&First, &Second); // Same object: labeled once.
}

TEST(PipelineTest, RelabelsWhenLabelingOptionsChange) {
  // A labeling-relevant option must reach the labels: every Pipeline's
  // dataset is exactly what collectLabels produces for its own options,
  // never a dataset labeled under other options.
  PipelineOptions Base;
  Base.Corpus = tinyCorpus();
  PipelineOptions MoreLoops = Base;
  MoreLoops.Corpus.MinLoopsPerBenchmark = 3;
  MoreLoops.Corpus.MaxLoopsPerBenchmark = 4;
  PipelineOptions Noisier = Base;
  Noisier.Protocol.NoiseStdDev = 0.05;

  auto Fresh = [](const PipelineOptions &Options) {
    Pipeline Pipe(Options);
    return collectLabels(buildCorpus(Options.Corpus),
                         Pipe.labelingOptions(false))
        .toCsv();
  };
  Pipeline BasePipe(Base);
  std::string BaseCsv = BasePipe.dataset(false).toCsv();
  EXPECT_EQ(BaseCsv, Fresh(Base));
  for (const PipelineOptions &Changed : {MoreLoops, Noisier}) {
    Pipeline Pipe(Changed);
    std::string Csv = Pipe.dataset(false).toCsv();
    EXPECT_EQ(Csv, Fresh(Changed));
    EXPECT_NE(Csv, BaseCsv);
  }
}
