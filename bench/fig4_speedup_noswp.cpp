//===- bench/fig4_speedup_noswp.cpp - Regenerates Figure 4 ----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Figure 4: "Realized performance on the SPEC 2000 benchmarks with SWP
// disabled. Both NN and an SVM achieve speedups on 19 of the 24
// benchmarks. The SVM achieves a 5% speedup overall, and it boosts the
// performance of all SPECfp benchmarks, leading to a 9% overall
// improvement. Near neighbors performs slightly worse, boosting the
// performance by about 4%. The rightmost bar shows the speedup that an
// 'oracle' would attain (7.2% average)."
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/driver/SpeedupEvaluator.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "fig4_speedup_noswp", "Figure 4",
      "SPEC 2000 speedups over the ORC heuristic (SWP disabled, "
      "leave-one-benchmark-out training)");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Data = Pipe->dataset(/*EnableSwp=*/false);

  SpeedupOptions Options;
  Options.Labeling = Pipe->labelingOptions(/*EnableSwp=*/false);
  SpeedupReport Report =
      evaluateSpeedups(Pipe->corpus(), spec2000BenchmarkNames(), Data,
                       paperReducedFeatureSet(), Options);

  TablePrinter Table("Speedup over ORC (SWP disabled)");
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
  printComparison("SVM overall speedup", "5%",
                  formatPercent(Report.MeanSvm, 1));
  printComparison("SVM SPECfp speedup", "9%",
                  formatPercent(Report.MeanSvmFp, 1));
  printComparison("NN overall speedup", "~4%",
                  formatPercent(Report.MeanNn, 1));
  printComparison("oracle overall speedup", "7.2%",
                  formatPercent(Report.MeanOracle, 1));
  printComparison("benchmarks where the SVM wins", "19 of 24",
                  std::to_string(Report.SvmWins) + " of " +
                      std::to_string(Report.Rows.size()));
  printComparison("benchmarks where NN wins", "19 of 24",
                  std::to_string(Report.NnWins) + " of " +
                      std::to_string(Report.Rows.size()));
  return 0;
}
