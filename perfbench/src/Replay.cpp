//===- perfbench/src/Replay.cpp -------------------------------------------===//

#include "Replay.h"
#include "PipelinePart.h"

#include "analysis/DependenceGraph.h"
#include "analysis/lint/Lint.h"
#include "analysis/symbolic/StrideInterval.h"
#include "cache/SimCache.h"
#include "core/features/FeatureCatalog.h"
#include "core/features/FeatureExtractor.h"
#include "core/features/Normalizer.h"
#include "core/ml/Kernel.h"
#include "gateway/HashRing.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "linalg/Cholesky.h"
#include "sched/ListScheduler.h"
#include "sched/ModuloScheduler.h"
#include "serve/ModelBundle.h"
#include "serve/Protocol.h"
#include "sim/SimCompile.h"
#include "sim/Simulator.h"
#include "support/Rng.h"
#include "transform/MemoryOpt.h"
#include "transform/Unroller.h"

#include <optional>

using namespace metaopt;
using namespace perfbench;

namespace {

/// Per-call self time of \p Name in microseconds; \p PerItems, when
/// non-zero, divides the total by that count instead of the call count.
double perCallUs(const std::map<std::string, SpanTotals> &Totals,
                 const std::string &Name, uint64_t PerItems = 0) {
  auto It = Totals.find(Name);
  if (It == Totals.end() || It->second.Calls == 0)
    return 0;
  double Count = static_cast<double>(PerItems ? PerItems : It->second.Calls);
  return It->second.SelfSeconds * 1e6 / Count;
}

/// What one request-replay pass parsed (ir.parse is reported per loop).
struct RequestCounts {
  uint64_t LoopsParsed = 0;
};

/// Every unroll factor of one loop through each labeling layer, with SWP
/// off (list scheduler) and on (modulo scheduler).
void replayLoop(const CorpusLoop &Entry, const MachineModel &Machine,
                SimCache &Cache, SimBodyStatsCache *BodyCache, Tracer &T) {
  Scoped LoopSpan(T, "replay.loop");
  const Loop &L = Entry.TheLoop;
  std::string Printed;
  {
    Scoped S(T, "ir.print");
    Printed = printLoop(L);
  }
  for (int Swp = 0; Swp < 2; ++Swp) {
    std::array<SimKey, MaxUnrollFactor> Keys;
    for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
      {
        Scoped S(T, "cache.key");
        Keys[F - 1] = simCacheKey(L, Printed, F, Machine, Entry.Ctx, Swp);
      }
      // Misses and hits take different paths, so each gets its own name
      // (a loop sampled twice hits here).
      Scoped S(T, "cache.miss");
      if (Cache.lookup(Keys[F - 1]))
        S.rename("cache.lookup");
    }
    LoopSimPlan Plan;
    {
      Scoped S(T, "sim.compile");
      Plan = compileLoopSim(L, Machine, Entry.Ctx, Swp, &BodyCache[Swp]);
    }
    for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
      SimResult Result;
      {
        Scoped S(T, "sim.evaluate");
        Result = evaluatePlan(Plan, F, Machine, Entry.Ctx);
      }
      {
        Scoped S(T, "cache.insert");
        Cache.insert(Keys[F - 1], Result);
      }
      Scoped S(T, "cache.lookup");
      (void)Cache.lookup(Keys[F - 1]);
    }
    for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
      Loop Unrolled;
      {
        Scoped S(T, "transform.unroll");
        Unrolled = unrollLoop(L, F);
      }
      std::optional<SymbolicAnalysis> Symbolic;
      {
        Scoped S(T, "analysis.symbolic");
        Symbolic.emplace(Unrolled);
      }
      {
        Scoped S(T, "transform.memopt");
        optimizeMemory(Unrolled, &*Symbolic);
      }
      std::optional<DependenceGraph> DG;
      {
        Scoped S(T, "analysis.depgraph");
        DG.emplace(Unrolled);
      }
      if (Swp) {
        Scoped S(T, "sched.modulo");
        RegBudget Budget{Entry.Ctx.IntRegBudget, Entry.Ctx.FpRegBudget};
        (void)moduloSchedule(Unrolled, *DG, Machine, Budget);
      } else {
        Scoped S(T, "sched.list");
        (void)listSchedule(Unrolled, *DG, Machine);
      }
      Scoped S(T, "sim.reference");
      (void)simulateLoop(L, F, Machine, Entry.Ctx, Swp);
    }
  }
  Scoped S(T, "features.extract");
  (void)extractFeatures(L);
}

/// One request through the worker's layers (predictUnbatched's steps, one
/// span each) plus the gateway's routing decision.
void replayRequest(const PoolEntry &E, const ModelMap &Models,
                   const HashRing &Ring, RequestCounts &Counts, Tracer &T) {
  Scoped RequestSpan(T, "replay.request");
  std::optional<WireRequest> Wire;
  {
    Scoped S(T, "serve.request_parse");
    Wire = parseRequestLine(E.Line);
  }
  {
    Scoped S(T, "gateway.route");
    (void)Ring.route(loopRoutingKey(Wire->LoopText));
  }
  ParseResult Parsed;
  {
    Scoped S(T, "ir.parse");
    Parsed = parseLoops(Wire->LoopText);
  }
  Counts.LoopsParsed += Parsed.Loops.size();
  PredictResponse Response;
  LintOptions Verify;
  Verify.RunVerifier = true;
  Verify.Passes = {"V"};
  for (const Loop &L : Parsed.Loops) {
    Scoped S(T, "lint.verify");
    (void)lintLoop(L, Verify);
  }
  if (Parsed.succeeded() && !Parsed.Loops.empty()) {
    for (const Loop &L : Parsed.Loops) {
      FeatureVector Features;
      {
        Scoped S(T, "features.extract");
        Features = extractFeatures(L);
      }
      LoopPrediction Prediction;
      Prediction.LoopName = L.name();
      for (const auto &[Name, Model] : Models) {
        std::string Span = "ml." + Name + ".predict";
        Scoped S(T, Span.c_str());
        unsigned Factor = Model->predict(Features);
        if (Name == "nn")
          Prediction.Factor = Factor;
      }
      if (Wire->WantScores) {
        Scoped S(T, "ml.nn.scores");
        Prediction.Scores = Models.at("nn")->scores(Features);
      }
      Response.Loops.push_back(std::move(Prediction));
    }
  } else {
    Response.Status = PredictStatus::Malformed;
    Response.Error = Parsed.Error;
  }
  Scoped S(T, "serve.render");
  (void)renderPredictResponse(E.Id, Response);
}

/// One full replay pass; returns its wall seconds.
double replayPass(const std::vector<const CorpusLoop *> &Loops,
                  const std::vector<const PoolEntry *> &Requests,
                  const ModelMap &Models, RequestCounts &Counts,
                  Tracer &T) {
  MachineModel Machine(itanium2Config());
  SimCache Cache;
  SimBodyStatsCache BodyCache[2];
  HashRing Ring;
  Ring.addNode("w0.sock");
  Ring.addNode("w1.sock");
  auto Start = Clock::now();
  for (const CorpusLoop *Entry : Loops)
    replayLoop(*Entry, Machine, Cache, BodyCache, T);
  for (const PoolEntry *E : Requests)
    replayRequest(*E, Models, Ring, Counts, T);
  return secondsSince(Start);
}

} // namespace

ModelMap perfbench::servingModels(const std::string &BundlePath,
                                  const Dataset &ServingData, Report &Out) {
  ModelMap Models;
  std::string Error;
  std::optional<ModelBundle> Bundle = loadBundleFile(BundlePath, &Error);
  Out.gate(Bundle.has_value(), "served bundle unreadable: " + Error);
  if (!Bundle)
    return Models;
  for (const Family &F : families()) {
    if (F.Name == "nn") {
      Models[F.Name] = Bundle->instantiate();
      continue;
    }
    Models[F.Name] = F.Make(Bundle->Features);
    Models[F.Name]->train(ServingData);
  }
  return Models;
}

void perfbench::replayLayers(const RunConfig &Cfg,
                             const std::vector<Benchmark> &Corpus,
                             const std::vector<PoolEntry> &Pool,
                             const ModelMap &Models, Tracer &T,
                             Report &Out) {
  if (!Models.count("nn"))
    return; // The served bundle did not load; a gate has failed.
  // Seeded samples of the workload's own loops and requests.
  std::vector<const CorpusLoop *> All;
  for (const Benchmark &Bench : Corpus)
    for (const CorpusLoop &Entry : Bench.Loops)
      All.push_back(&Entry);
  Rng Draw(Cfg.Seed ^ 0x7e91a7u);
  std::vector<const CorpusLoop *> Loops;
  for (size_t I = 0; I < Cfg.W.ReplayLoops && !All.empty(); ++I)
    Loops.push_back(All[Draw.nextBelow(All.size())]);
  std::vector<const PoolEntry *> Requests;
  for (size_t I = 0; I < Cfg.W.ReplayRequests && !Pool.empty(); ++I)
    Requests.push_back(&Pool[Draw.nextBelow(Pool.size())]);

  // Traced passes alternate with untraced ones, each traced pass compared
  // with the untraced passes on both sides of it, so warm-up favors
  // neither; a pass is short, so the overhead is the median of several.
  constexpr int TracedPasses = 3;
  Tracer Off(false);
  RequestCounts Ignored, Counts;
  double Before = replayPass(Loops, Requests, Models, Ignored, Off);
  std::vector<double> Overheads;
  for (int Pass = 0; Pass < TracedPasses; ++Pass) {
    double Traced = replayPass(Loops, Requests, Models, Counts, T);
    double After = replayPass(Loops, Requests, Models, Ignored, Off);
    Overheads.push_back(100.0 * (2 * Traced / (Before + After) - 1));
    Before = After;
  }
  Out.set("trace.overhead_pct", median(Overheads), "%");

  std::map<std::string, SpanTotals> Totals = T.totals();
  for (const char *Name :
       {"ir.print", "cache.key", "cache.lookup", "cache.miss", "cache.insert",
        "transform.unroll", "transform.memopt", "analysis.symbolic",
        "analysis.depgraph", "sched.list", "sched.modulo", "sim.compile",
        "sim.evaluate", "sim.reference", "features.extract",
        "serve.request_parse", "lint.verify", "ml.nn.scores",
        "serve.render", "gateway.route"})
    Out.set(std::string(Name) + "_us", perCallUs(Totals, Name), "us");
  Out.set("ir.parse_us", perCallUs(Totals, "ir.parse", Counts.LoopsParsed),
          "us");
  for (const auto &[Name, Model] : Models)
    Out.set("ml." + Name + ".predict_us",
            perCallUs(Totals, "ml." + Name + ".predict"), "us");
}

void perfbench::replayLinalg(const Dataset &Train, Tracer &T, Report &Out) {
  // The LS-SVM fit's system: the RBF kernel matrix of the normalized
  // training points plus I/gamma (SvmOptions defaults), factored once.
  FeatureSet Features = paperReducedFeatureSet();
  Normalizer Norm;
  Norm.fit(Train.featureMatrix(), Features);
  std::vector<std::vector<double>> Points;
  for (const Example &Ex : Train.examples())
    Points.push_back(Norm.apply(Ex.Features));
  RbfKernel Kernel(1.0 * static_cast<double>(Features.size()));
  Matrix A = kernelMatrix(Kernel, Points);
  A.addToDiagonal(1.0 / 10.0);
  double Seconds = 0;
  {
    Scoped S(T, "linalg.cholesky");
    auto Start = Clock::now();
    std::optional<Cholesky> Factor = Cholesky::factor(A);
    Seconds = secondsSince(Start);
    Out.gate(Factor.has_value(), "SVM kernel system is not positive definite");
  }
  Out.set("linalg.cholesky_s", Seconds, "s");
}
