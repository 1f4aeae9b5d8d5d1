//===- examples/compiler_driver.cpp - Learned unrolling in a compiler -----===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// A miniature compiler driver: reads loops in the textual format, verifies
// them, asks a trained classifier for the unroll factor (falling back to
// the ORC-like heuristic with --orc), unrolls, schedules, and reports the
// modeled performance. Demonstrates how "the learned classifier can easily
// be incorporated into a compiler" (§4.1).
//
// --save-model writes the trained classifier to disk; --load-model skips
// training entirely and restores it - how a production compiler would ship
// the model.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "core/driver/Heuristics.h"
#include "core/driver/Pipeline.h"
#include "heuristics/OrcLikeHeuristic.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sched/IterativeModulo.h"
#include "sched/ListScheduler.h"
#include "sched/SchedulePrinter.h"
#include "sim/Simulator.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "transform/MemoryOpt.h"
#include "transform/Unroller.h"

#include <cstdio>
#include <memory>

using namespace metaopt;

static const char *SampleProgram = R"(
# A dot-product reduction over 2048 elements.
loop "sample.dot" lang=C nest=1 trip=2048 rtrip=2048 {
  phi %f_acc = [%f_acc.init, %f_acc.next]
  %f_x = load @0[stride=8, offset=0, size=8]
  %f_y = load @1[stride=8, offset=0, size=8]
  %f_acc.next = fma %f_x, %f_y, %f_acc
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
}

# A byte-wise table lookup with an early exit, unknown trip count.
loop "sample.scan" lang=C nest=1 trip=-1 rtrip=777 {
  %i_v = load @0[stride=4, offset=0, size=4]
  %p_hit = icmp %i_v, %i_needle
  exit_if %p_hit prob=0.002
  %i_t = iadd %i_v, %i_bias
  store %i_t, @1[stride=4, offset=0, size=4]
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
}
)";

static std::string readWholeFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return "";
  std::string Content;
  char Buffer[1 << 14];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Content.append(Buffer, Read);
  std::fclose(File);
  return Content;
}

int main(int Argc, char **Argv) {
  CliParser Args("compiler_driver",
                 "A miniature compiler: parse, predict the unroll factor, "
                 "unroll,\nmemory-optimize, schedule, and report the "
                 "modeled performance.");
  Args.flag("orc", "use the ORC-like heuristic instead of a classifier");
  Args.flag("swp", "enable software pipelining");
  Args.stringOption("classifier", servableClassifierSpellings("|"),
                    "classifier to train",
                    classifierFamilies().front().spelling());
  Args.flag("show-schedule", "print each loop's schedule");
  Args.stringOption("save-model", "path", "write the trained classifier");
  Args.stringOption("load-model", "path",
                    "restore a saved classifier instead of training");
  Args.positionalHelp("[<file.loop>]",
                      "loop file to compile (default: a built-in sample)");
  if (std::optional<int> Exit = Args.parse(Argc, Argv))
    return *Exit;
  bool UseOrc = Args.has("orc");
  bool EnableSwp = Args.has("swp");
  bool ShowSchedule = Args.has("show-schedule");
  const ClassifierFamily *Family =
      findClassifierFamily(Args.getString("classifier"));
  if (!Family || !Family->servable()) {
    std::fprintf(stderr, "error: --classifier must be one of %s\n",
                 servableClassifierSpellings(", ").c_str());
    return 1;
  }
  std::string SaveModelPath = Args.getString("save-model");
  std::string LoadModelPath = Args.getString("load-model");

  std::string Source = SampleProgram;
  if (!Args.positional().empty()) {
    Source = readWholeFile(Args.positional()[0]);
    if (Source.empty()) {
      std::fprintf(stderr, "error: cannot read '%s'\n",
                   Args.positional()[0].c_str());
      return 1;
    }
  }

  ParseResult Parsed = parseLoops(Source);
  if (!Parsed.succeeded()) {
    std::fprintf(stderr, "error: line %zu: %s\n", Parsed.ErrorLine,
                 Parsed.Error.c_str());
    return 1;
  }
  std::printf("Parsed %zu loop(s).\n\n", Parsed.Loops.size());

  // Build the unrolling policy.
  MachineModel Machine(itanium2Config());
  OrcLikeHeuristic Orc(Machine, EnableSwp);
  std::unique_ptr<Classifier> Trained;
  std::unique_ptr<LearnedHeuristic> Learned;
  const UnrollHeuristic *Policy = &Orc;
  if (!UseOrc && !LoadModelPath.empty()) {
    std::string Blob = readWholeFile(LoadModelPath);
    if (Blob.empty()) {
      std::fprintf(stderr, "error: cannot read model '%s'\n",
                   LoadModelPath.c_str());
      return 1;
    }
    Trained = deserializeClassifier(Blob);
    if (!Trained) {
      std::fprintf(stderr, "error: '%s' is not a recognizable model\n",
                   LoadModelPath.c_str());
      return 1;
    }
    std::printf("Loaded trained %s model from %s.\n\n",
                Trained->name().c_str(), LoadModelPath.c_str());
    Learned = std::make_unique<LearnedHeuristic>(*Trained);
    Policy = Learned.get();
  } else if (!UseOrc) {
    // Train on a compact corpus slice; the policy generalizes to the
    // novel loops we are about to compile.
    PipelineOptions Options;
    Options.Corpus.MinLoopsPerBenchmark = 6;
    Options.Corpus.MaxLoopsPerBenchmark = 10;
    Pipeline Pipe(Options);
    std::printf("Training the %s classifier on %zu labeled loops...\n\n",
                Family->Name, Pipe.dataset(EnableSwp).size());
    Trained = Family->Make(paperReducedFeatureSet());
    Trained->train(Pipe.dataset(EnableSwp));
    std::string Blob = Trained->serialize();
    if (!SaveModelPath.empty()) {
      std::FILE *File = std::fopen(SaveModelPath.c_str(), "wb");
      if (File) {
        std::fwrite(Blob.data(), 1, Blob.size(), File);
        std::fclose(File);
        std::printf("Saved the trained model to %s (%zu bytes).\n\n",
                    SaveModelPath.c_str(), Blob.size());
      } else {
        std::fprintf(stderr, "warning: cannot write '%s'\n",
                     SaveModelPath.c_str());
      }
    }
    Learned = std::make_unique<LearnedHeuristic>(*Trained);
    Policy = Learned.get();
  }

  for (const Loop &L : Parsed.Loops) {
    std::vector<std::string> Violations = verifyLoop(L);
    if (!Violations.empty()) {
      std::fprintf(stderr, "loop \"%s\" is malformed:\n", L.name().c_str());
      for (const std::string &Violation : Violations)
        std::fprintf(stderr, "  %s\n", Violation.c_str());
      return 1;
    }

    unsigned Factor = Policy->chooseFactor(L);
    Loop Unrolled = unrollLoop(L, Factor);
    MemoryOptStats MemStats = optimizeMemory(Unrolled);
    DependenceGraph DG(Unrolled);
    Schedule Sched = listSchedule(Unrolled, DG, Machine);

    std::printf("loop \"%s\": %s chose u=%u\n", L.name().c_str(),
                Policy->name().c_str(), Factor);
    std::printf("  unrolled body: %zu instructions, schedule length %u "
                "cycles\n",
                Unrolled.body().size(), Sched.Length);
    if (MemStats.ForwardedLoads + MemStats.RedundantLoads +
        MemStats.PairedLoads)
      std::printf("  memory opt: %u forwarded, %u redundant, %u paired "
                  "loads\n",
                  MemStats.ForwardedLoads, MemStats.RedundantLoads,
                  MemStats.PairedLoads);
    if (ShowSchedule) {
      if (EnableSwp) {
        ModuloScheduleResult Kernel =
            iterativeModuloSchedule(Unrolled, DG, Machine);
        std::printf("%s", Kernel.Succeeded
                              ? printModuloSchedule(Unrolled, Kernel,
                                                    Machine)
                                    .c_str()
                              : "  (not pipelineable; list schedule:)\n");
        if (!Kernel.Succeeded)
          std::printf("%s",
                      printSchedule(Unrolled, Sched, Machine).c_str());
      } else {
        std::printf("%s", printSchedule(Unrolled, Sched, Machine).c_str());
      }
    }

    SimContext Ctx;
    TablePrinter Table;
    Table.addHeader({"factor", "modeled cycles", "vs chosen"});
    double Chosen = simulateLoop(L, Factor, Machine, Ctx, EnableSwp).Cycles;
    for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
      double Cycles = simulateLoop(L, F, Machine, Ctx, EnableSwp).Cycles;
      Table.addRow({std::to_string(F) + (F == Factor ? " <==" : ""),
                    formatDouble(Cycles, 0),
                    formatDouble(Cycles / Chosen, 3) + "x"});
    }
    Table.print();
    std::printf("\n");
  }
  return 0;
}
