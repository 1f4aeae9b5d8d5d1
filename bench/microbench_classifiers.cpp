//===- bench/microbench_classifiers.cpp - Timing claims -------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Google-benchmark microbenchmarks backing the paper's timing claims:
//  - Section 5.1: "with over 2,500 examples in our database, the
//    linear-time scan takes less than 5 ms";
//  - Section 5.2: "SVMs take longer to train than the NN algorithm
//    (around 30 seconds for our data)" - measured here at smaller scales
//    since the cost is the O(n^3) factorization (benchmarked directly);
//  - compile-time costs a compiler would pay: feature extraction and
//    unroll+schedule of a loop.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "cache/SimCache.h"
#include "core/driver/Pipeline.h"
#include "core/features/FeatureExtractor.h"
#include "core/ml/DecisionTree.h"
#include "core/ml/Forest.h"
#include "core/ml/Lsh.h"
#include "core/ml/Mlp.h"
#include "core/ml/NearNeighbor.h"
#include "core/ml/OutputCode.h"
#include "sched/IterativeModulo.h"
#include "sched/ListScheduler.h"
#include "transform/MemoryOpt.h"
#include "transform/Unroller.h"

#include <benchmark/benchmark.h>

#include <thread>

using namespace metaopt;

namespace {

/// One shared labeled dataset for all microbenchmarks (small corpus so
/// the binary starts fast; the NN lookup bench then scales it).
const Dataset &sharedDataset() {
  static Dataset Data = [] {
    CorpusOptions Options;
    Options.MinLoopsPerBenchmark = 10;
    Options.MaxLoopsPerBenchmark = 14;
    LabelingOptions Labeling;
    return collectLabels(buildCorpus(Options), Labeling);
  }();
  return Data;
}

/// Inflates the dataset to ~N examples by jittered duplication, so the
/// lookup benchmark runs at the paper's database size regardless of the
/// corpus slice used to build it.
Dataset inflatedDataset(size_t Target) {
  const Dataset &Base = sharedDataset();
  Dataset Result;
  Rng Generator(99);
  while (Result.size() < Target) {
    for (const Example &Ex : Base.examples()) {
      if (Result.size() >= Target)
        break;
      Example Copy = Ex;
      for (double &Value : Copy.Features)
        Value *= 1.0 + Generator.nextGaussian(0.0, 0.01);
      Result.add(std::move(Copy));
    }
  }
  return Result;
}

Loop benchLoop() {
  Rng Generator(7);
  LoopGenParams Params;
  Params.Name = "bench";
  Params.TripCount = 1024;
  Params.RuntimeTripCount = 1024;
  Params.SizeScale = 2;
  return generateLoop(LoopKind::Mixed, Params, Generator);
}

} // namespace

/// Section 5.1 claim: one NN query against a 2,500-entry database must be
/// far under 5 ms.
static void BM_NnLookup2500(benchmark::State &State) {
  Dataset Data = inflatedDataset(2500);
  NearNeighborClassifier Nn(paperReducedFeatureSet(), 0.3);
  Nn.train(Data);
  FeatureVector Query = Data[42].Features;
  for (auto _ : State)
    benchmark::DoNotOptimize(Nn.predict(Query));
  State.SetLabel("paper claim: < 5 ms per lookup");
}
BENCHMARK(BM_NnLookup2500)->Unit(benchmark::kMicrosecond);

/// Section 5.1's scalability route: "approximate near neighbor lookup
/// permit[s] fast access (sublinear in the size of the database)". Sweep
/// the database size for the exact scan and the LSH lookup; the exact
/// scan grows linearly, the LSH lookup should not.
static void BM_NnLookupScaling(benchmark::State &State) {
  Dataset Data = inflatedDataset(static_cast<size_t>(State.range(0)));
  NearNeighborClassifier Nn(paperReducedFeatureSet(), 0.3);
  Nn.train(Data);
  FeatureVector Query = Data[3].Features;
  for (auto _ : State)
    benchmark::DoNotOptimize(Nn.predict(Query));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_NnLookupScaling)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oN);

static void BM_LshLookupScaling(benchmark::State &State) {
  Dataset Data = inflatedDataset(static_cast<size_t>(State.range(0)));
  LshNearNeighborClassifier Lsh(paperReducedFeatureSet());
  Lsh.train(Data);
  FeatureVector Query = Data[3].Features;
  for (auto _ : State)
    benchmark::DoNotOptimize(Lsh.predict(Query));
  State.SetComplexityN(State.range(0));
  State.SetLabel("candidates scanned: " +
                 std::to_string(Lsh.lastCandidateCount()) + " of " +
                 std::to_string(Lsh.databaseSize()));
}
BENCHMARK(BM_LshLookupScaling)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMicrosecond);

/// NN "training" is just populating the database.
static void BM_NnTrain(benchmark::State &State) {
  Dataset Data = inflatedDataset(2500);
  for (auto _ : State) {
    NearNeighborClassifier Nn(paperReducedFeatureSet(), 0.3);
    Nn.train(Data);
    benchmark::DoNotOptimize(Nn.databaseSize());
  }
}
BENCHMARK(BM_NnTrain)->Unit(benchmark::kMillisecond);

/// LS-SVM training cost is the kernel-system factorization: O(n^3).
/// Sweeping n shows the scaling that puts full-corpus training in the
/// tens of seconds, matching the paper's "around 30 seconds".
static void BM_SvmTrain(benchmark::State &State) {
  Dataset Data = inflatedDataset(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    SvmClassifier Svm(paperReducedFeatureSet());
    Svm.train(Data);
    benchmark::DoNotOptimize(&Svm);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_SvmTrain)
    ->Arg(200)
    ->Arg(400)
    ->Arg(800)
    ->Arg(2400)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNCubed);

namespace {

/// The kernel system the SVM fit builds on \p N examples (its lower
/// triangle, all the factor reads): the Figure 4 fit size is 1000 and the
/// perfbench pipeline fit size 2400.
Matrix svmKernelSystem(size_t N) {
  Dataset Data = inflatedDataset(N);
  FeatureSet Features = paperReducedFeatureSet();
  Normalizer Norm;
  Norm.fit(Data.featureMatrix(), Features);
  std::vector<std::vector<double>> Points;
  for (const Example &Ex : Data.examples())
    Points.push_back(Norm.apply(Ex.Features));
  Matrix A = kernelMatrix(RbfKernel(SvmOptions().SigmaSquaredPerDim *
                                    static_cast<double>(Features.size())),
                          Points);
  A.addToDiagonal(1.0 / SvmOptions().Gamma);
  return A;
}

} // namespace

/// The factorization alone, split over a global pool of State.range(1)
/// threads (cpu_ns is the whole process's CPU time). The warm-up absorbs
/// the fresh pool's slow first region.
static void BM_CholeskyFactor(benchmark::State &State) {
  Matrix A = svmKernelSystem(static_cast<size_t>(State.range(0)));
  ThreadPool::setGlobalThreads(static_cast<unsigned>(State.range(1)));
  for (auto _ : State) {
    State.PauseTiming();
    Matrix Copy = A;
    State.ResumeTiming();
    benchmark::DoNotOptimize(Cholesky::factor(std::move(Copy)));
  }
  ThreadPool::setGlobalThreads(0); // Restore the default pool.
}
BENCHMARK(BM_CholeskyFactor)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{1000, 2400}, {1, 2}})
    ->MinWarmUpTime(0.5)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The exact-LOOCV inverse diagonal of the factored 2400-example system,
/// on a global pool of State.range(1) threads.
static void BM_CholeskyInverseDiagonal(benchmark::State &State) {
  ThreadPool::setGlobalThreads(static_cast<unsigned>(State.range(1)));
  std::optional<Cholesky> Factor =
      Cholesky::factor(svmKernelSystem(static_cast<size_t>(State.range(0))));
  if (!Factor)
    State.SkipWithError("kernel system is not positive definite");
  else
    for (auto _ : State)
      benchmark::DoNotOptimize(Factor->inverseDiagonal());
  ThreadPool::setGlobalThreads(0); // Restore the default pool.
}
BENCHMARK(BM_CholeskyInverseDiagonal)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{2400}, {1, 2}})
    ->MinWarmUpTime(0.5)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One SVM prediction (n kernel evaluations + decode).
static void BM_SvmPredict(benchmark::State &State) {
  Dataset Data = inflatedDataset(1000);
  SvmClassifier Svm(paperReducedFeatureSet());
  Svm.train(Data);
  FeatureVector Query = Data[7].Features;
  for (auto _ : State)
    benchmark::DoNotOptimize(Svm.predict(Query));
}
BENCHMARK(BM_SvmPredict)->Unit(benchmark::kMicrosecond);

/// Model-zoo MLP: seeded-Adam training at the paper's database scale.
static void BM_MlpTrain(benchmark::State &State) {
  Dataset Data = inflatedDataset(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    MlpClassifier Mlp(paperReducedFeatureSet());
    Mlp.train(Data);
    benchmark::DoNotOptimize(&Mlp);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_MlpTrain)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

/// One MLP prediction: two dense layers plus a softmax.
static void BM_MlpPredict(benchmark::State &State) {
  Dataset Data = inflatedDataset(1000);
  MlpClassifier Mlp(paperReducedFeatureSet());
  Mlp.train(Data);
  FeatureVector Query = Data[7].Features;
  for (auto _ : State)
    benchmark::DoNotOptimize(Mlp.predict(Query));
}
BENCHMARK(BM_MlpPredict)->Unit(benchmark::kMicrosecond);

/// One CART tree, the forest's building block and the decision-tree
/// family's fit: a (value, index) sort per dimension, then the split
/// sweeps.
static void BM_DecisionTreeTrain(benchmark::State &State) {
  Dataset Data = inflatedDataset(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    DecisionTreeClassifier Tree(paperReducedFeatureSet());
    Tree.train(Data);
    benchmark::DoNotOptimize(Tree.numNodes());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_DecisionTreeTrain)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNLogN);

/// Model-zoo random forest: 16 seeded bootstrap CART trees.
static void BM_ForestTrain(benchmark::State &State) {
  Dataset Data = inflatedDataset(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    RandomForestClassifier Forest(paperReducedFeatureSet());
    Forest.train(Data);
    benchmark::DoNotOptimize(Forest.numTrees());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_ForestTrain)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNLogN);

/// One forest prediction: 16 tree walks plus the majority vote.
static void BM_ForestPredict(benchmark::State &State) {
  Dataset Data = inflatedDataset(1000);
  RandomForestClassifier Forest(paperReducedFeatureSet());
  Forest.train(Data);
  FeatureVector Query = Data[7].Features;
  for (auto _ : State)
    benchmark::DoNotOptimize(Forest.predict(Query));
}
BENCHMARK(BM_ForestPredict)->Unit(benchmark::kMicrosecond);

/// Compile-time cost of extracting the 41 features from a loop ("lookup
/// time is far outweighed by compiler fixed-point dataflow analyses").
static void BM_FeatureExtraction(benchmark::State &State) {
  Loop L = benchLoop();
  for (auto _ : State)
    benchmark::DoNotOptimize(extractFeatures(L));
}
BENCHMARK(BM_FeatureExtraction)->Unit(benchmark::kMicrosecond);

/// Compile-time cost of unrolling by 8 and list-scheduling the result.
static void BM_UnrollAndSchedule(benchmark::State &State) {
  Loop L = benchLoop();
  MachineModel Machine(itanium2Config());
  for (auto _ : State) {
    Loop U = unrollLoop(L, 8);
    DependenceGraph DG(U);
    benchmark::DoNotOptimize(listSchedule(U, DG, Machine));
  }
}
BENCHMARK(BM_UnrollAndSchedule)->Unit(benchmark::kMicrosecond);

/// The post-unroll memory cleanup pass (Section 3's scalar replacement
/// and wide-load pairing).
static void BM_MemoryOptimize(benchmark::State &State) {
  Loop L = benchLoop();
  for (auto _ : State) {
    Loop U = unrollLoop(L, 8);
    benchmark::DoNotOptimize(optimizeMemory(U));
  }
}
BENCHMARK(BM_MemoryOptimize)->Unit(benchmark::kMicrosecond);

/// The real iterative modulo scheduler on an unrolled body.
static void BM_IterativeModulo(benchmark::State &State) {
  Loop U = unrollLoop(benchLoop(), 4);
  MachineModel Machine(itanium2Config());
  DependenceGraph DG(U);
  for (auto _ : State)
    benchmark::DoNotOptimize(iterativeModuloSchedule(U, DG, Machine));
}
BENCHMARK(BM_IterativeModulo)->Unit(benchmark::kMicrosecond);

/// End-to-end labeling cost of one loop (8 factors x simulate x 30
/// trials): what a week of the paper's machine time buys per loop here.
static void BM_LabelOneLoop(benchmark::State &State) {
  CorpusOptions Options;
  Options.MinLoopsPerBenchmark = 2;
  Options.MaxLoopsPerBenchmark = 2;
  std::vector<Benchmark> Corpus = buildCorpus(Options);
  const Benchmark &Bench = Corpus.front();
  const CorpusLoop &Entry = Bench.Loops.front();
  MachineModel Machine(itanium2Config());
  LabelingOptions Labeling;
  // A disabled cache keeps this measuring the simulator, not the cache.
  SimCacheConfig CacheConfig;
  CacheConfig.Enabled = false;
  SimCache NoCache(CacheConfig);
  Labeling.Cache = &NoCache;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        measureLoopAtAllFactors(Bench, Entry, Machine, Labeling));
}
BENCHMARK(BM_LabelOneLoop)->Unit(benchmark::kMicrosecond);

namespace {

/// The normal console output plus one flat JSON row per measured run
/// ("classifier_microbench" experiment), rewritten into
/// BENCH_classifiers.json for metaopt-benchcheck — e.g. the Section 5.1
/// "< 5 ms per lookup" claim can be pinned with a max_real_ns ceiling.
/// Each row records the host's hardware threads next to its timings.
class JsonRowReporter : public benchmark::ConsoleReporter {
public:
  explicit JsonRowReporter(BenchJsonWriter &Writer) : Writer(Writer) {}

  void ReportRuns(const std::vector<Run> &Reports) override {
    for (const Run &R : Reports) {
      // Aggregates (BigO fits, RMS) repeat the iteration data in other
      // units; only real measurements become rows.
      if (R.run_type != Run::RT_Iteration || R.error_occurred ||
          R.iterations <= 0)
        continue;
      double Iters = static_cast<double>(R.iterations);
      char Row[512];
      std::snprintf(Row, sizeof(Row),
                    "{\"experiment\": \"classifier_microbench\", "
                    "\"benchmark\": \"%s\", \"iterations\": %lld, "
                    "\"real_ns\": %.1f, \"cpu_ns\": %.1f, "
                    "\"hw_threads\": %u}",
                    R.benchmark_name().c_str(),
                    static_cast<long long>(R.iterations),
                    1e9 * R.real_accumulated_time / Iters,
                    1e9 * R.cpu_accumulated_time / Iters,
                    std::thread::hardware_concurrency());
      Writer.row(Row);
    }
    ConsoleReporter::ReportRuns(Reports);
  }

private:
  BenchJsonWriter &Writer;
};

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  BenchJsonWriter Writer("classifiers");
  JsonRowReporter Reporter(Writer);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  std::string Error;
  if (!Writer.flush(&Error)) {
    std::fprintf(stderr, "microbench_classifiers: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "microbench_classifiers: %zu rows -> %s\n",
               Writer.size(), Writer.path().c_str());
  return 0;
}
