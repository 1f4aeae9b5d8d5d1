//===- examples/quickstart.cpp - First steps with the library -------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Quickstart: build a loop, look at its features, unroll it, and see why
// picking the unroll factor is an interesting problem — the modeled cycle
// counts at factors 1..8 are not monotone.
//
//===----------------------------------------------------------------------===//

#include "core/features/FeatureExtractor.h"
#include "heuristics/OrcLikeHeuristic.h"
#include "ir/LoopBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "sim/Simulator.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "transform/Unroller.h"

#include <cstdio>

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Cli("quickstart",
                "Builds a loop, shows its features, unrolls it, and models "
                "it at\nfactors 1..8.");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;

  // 1. Build a daxpy-style loop: y[i] = alpha * x[i] + y[i], 1024 times.
  LoopBuilder Builder("daxpy", SourceLanguage::C, /*NestLevel=*/1,
                      /*TripCount=*/1024);
  RegId Alpha = Builder.liveIn(RegClass::Float, "alpha");
  MemRef XRef{/*BaseSym=*/0, /*Stride=*/8, /*Offset=*/0, false, 8};
  MemRef YRef{/*BaseSym=*/1, /*Stride=*/8, /*Offset=*/0, false, 8};
  RegId X = Builder.load(RegClass::Float, XRef);
  RegId Y = Builder.load(RegClass::Float, YRef);
  RegId R = Builder.fma(Alpha, X, Y);
  Builder.store(R, YRef);
  Loop Daxpy = Builder.finalize();

  std::printf("The loop (well-formed: %s):\n\n%s\n",
              isWellFormed(Daxpy) ? "yes" : "no",
              printLoop(Daxpy).c_str());

  // 2. A few of the 41 features the classifiers see.
  FeatureVector Features = extractFeatures(Daxpy);
  std::printf("Selected features:\n");
  for (FeatureId Id :
       {FeatureId::NumOps, FeatureId::NumFloatOps, FeatureId::NumMemOps,
        FeatureId::CriticalPathLatency, FeatureId::LiveRangeSize,
        FeatureId::TripCount}) {
    std::printf("  %-22s = %g\n", featureName(Id),
                Features[static_cast<unsigned>(Id)]);
  }

  // 3. Unroll by four and show the renamed, address-rewritten body.
  Loop Unrolled = unrollLoop(Daxpy, 4);
  std::printf("\nUnrolled by 4 (still well-formed: %s), body grew "
              "%zu -> %zu instructions.\n",
              isWellFormed(Unrolled) ? "yes" : "no",
              Daxpy.body().size(), Unrolled.body().size());

  // 4. "Compile and run" the loop at every factor on the Itanium-2-like
  // machine and see where the sweet spot is.
  MachineModel Machine(itanium2Config());
  SimContext Ctx; // Default program context.
  TablePrinter Table("Modeled execution at each unroll factor");
  Table.addHeader({"factor", "cycles", "cycles/iter", "schedule len",
                   "spills"});
  double Best = 1e300;
  unsigned BestFactor = 1;
  for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
    SimResult Sim = simulateLoop(Daxpy, Factor, Machine, Ctx,
                                 /*EnableSwp=*/false);
    Table.addRow({std::to_string(Factor), formatDouble(Sim.Cycles, 0),
                  formatDouble(Sim.CyclesPerIteration, 2),
                  std::to_string(Sim.ScheduleLength),
                  std::to_string(Sim.SpillPairs)});
    if (Sim.Cycles < Best) {
      Best = Sim.Cycles;
      BestFactor = Factor;
    }
  }
  std::printf("\n");
  Table.print();
  std::printf("\nEmpirical best factor: %u\n", BestFactor);

  // 5. What would the hand-written production-style heuristic do?
  OrcLikeHeuristic Orc(Machine, /*SwpMode=*/false);
  std::printf("ORC-like heuristic picks: %u\n", Orc.chooseFactor(Daxpy));
  std::printf("\n(train_and_evaluate shows how the learned classifiers "
              "make this choice.)\n");
  return 0;
}
