//===- bench/fig3_histogram.cpp - Regenerates Figure 3 --------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Figure 3: "Histogram of optimal unroll factors ... collected from over
// 2,500 loops with software pipelining disabled." The paper's shape:
// u=1 ~27%, u=2 ~18%, u=4 ~19%, u=8 ~30%, odd factors rare, and "no one
// loop unrolling factor is dominantly better than the others."
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "fig3_histogram", "Figure 3",
      "histogram of optimal unroll factors (SWP disabled)");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Data = Pipe->dataset(/*EnableSwp=*/false);
  auto Histogram = Data.labelHistogram();

  std::printf("labeled loops: %zu (paper: \"over 2,500 loops\")\n\n",
              Data.size());
  std::printf("%-8s %-9s %s\n", "factor", "share", "");
  double MaxShare = 0.0;
  unsigned PowerOfTwoMass = 0;
  for (unsigned F = 1; F <= MaxUnrollFactor; ++F) {
    double Share =
        Data.empty() ? 0.0
                     : static_cast<double>(Histogram[F - 1]) / Data.size();
    MaxShare = std::max(MaxShare, Share);
    if (F == 1 || F == 2 || F == 4 || F == 8)
      PowerOfTwoMass += static_cast<unsigned>(Histogram[F - 1]);
    std::printf("u=%u     %6.1f%%  %s\n", F, Share * 100.0,
                std::string(static_cast<size_t>(Share * 120), '#').c_str());
  }

  std::printf("\nShape checks:\n");
  printComparison("largest single-factor share", "~30% (u=8)",
                  formatPercent(MaxShare, 1));
  printComparison(
      "power-of-two factors (1,2,4,8) mass", "~92%",
      formatPercent(static_cast<double>(PowerOfTwoMass) / Data.size(), 1));
  printComparison("no factor holds a majority", "true",
                  MaxShare < 0.5 ? "true" : "false");
  return 0;
}
