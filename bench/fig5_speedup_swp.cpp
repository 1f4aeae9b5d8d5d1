//===- bench/fig5_speedup_swp.cpp - Regenerates Figure 5 ------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Figure 5: "Realized performance on the SPEC 2000 benchmarks with SWP
// enabled. We attain speedups on 16 of the 24 benchmarks in this graph,
// and a 1% speedup overall. The rightmost bar for each benchmark shows
// the speedup that a 'perfect' classifier would attain (4.4% overall)."
// ORC's SWP-aware heuristic is the product of years of tuning, so the
// margins here are much slimmer than in Figure 4.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/driver/SpeedupEvaluator.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "fig5_speedup_swp", "Figure 5",
      "SPEC 2000 speedups over the ORC heuristic (SWP enabled, "
      "leave-one-benchmark-out training)");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Data = Pipe->dataset(/*EnableSwp=*/true);

  SpeedupOptions Options;
  Options.Labeling = Pipe->labelingOptions(/*EnableSwp=*/true);
  SpeedupReport Report =
      evaluateSpeedups(Pipe->corpus(), spec2000BenchmarkNames(), Data,
                       paperReducedFeatureSet(), Options);

  TablePrinter Table("Speedup over ORC (SWP enabled)");
  Table.addHeader({"benchmark", "NN v. ORC", "SVM v. ORC",
                   "Oracle v. ORC"});
  for (const SpeedupRow &Row : Report.Rows)
    Table.addRow({Row.Benchmark + (Row.FloatingPoint ? " (fp)" : ""),
                  formatPercent(Row.NnVsOrc), formatPercent(Row.SvmVsOrc),
                  formatPercent(Row.OracleVsOrc)});
  Table.addRow({"MEAN (all 24)", formatPercent(Report.MeanNn),
                formatPercent(Report.MeanSvm),
                formatPercent(Report.MeanOracle)});
  Table.addRow({"MEAN (SPECfp)", formatPercent(Report.MeanNnFp),
                formatPercent(Report.MeanSvmFp),
                formatPercent(Report.MeanOracleFp)});
  Table.print();

  std::printf("\nHeadline comparisons:\n");
  printComparison("learned overall speedup", "~1%",
                  formatPercent(Report.MeanSvm, 1));
  printComparison("oracle overall speedup", "4.4%",
                  formatPercent(Report.MeanOracle, 1));
  printComparison("benchmarks where the learned policies win",
                  "16 of 24",
                  std::to_string(std::max(Report.NnWins, Report.SvmWins)) +
                      " of " + std::to_string(Report.Rows.size()));
  printComparison("margins slimmer than Figure 4 (SWP off)", "yes",
                  "compare with fig4_speedup_noswp");
  return 0;
}
