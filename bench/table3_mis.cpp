//===- bench/table3_mis.cpp - Regenerates Table 3 -------------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Table 3: "The best five features according to MIS" - the mutual
// information score between each (binned) feature and the optimal unroll
// factor. Paper's list: #floating point operations (0.19), #operands
// (0.186), instruction fan-in in DAG (0.175), live range size (0.16),
// #memory operations (0.148).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/FeatureSelection.h"

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "table3_mis", "Table 3",
      "top features by mutual information score (10 equal-frequency bins)");
  Args.intOption("bins", "n", "equal-frequency bins per feature", 10, 2,
                 std::numeric_limits<int>::max());
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Data = Pipe->dataset(/*EnableSwp=*/false);
  int Bins = static_cast<int>(Args.getInt("bins"));
  auto Ranked = rankByMutualInformation(Data, Bins);

  TablePrinter Table("Features by MIS");
  Table.addHeader({"Rank", "Feature", "MIS"});
  for (size_t R = 0; R < 10 && R < Ranked.size(); ++R)
    Table.addRow({std::to_string(R + 1), featureName(Ranked[R].first),
                  formatDouble(Ranked[R].second, 3)});
  Table.print();

  std::printf("\nPaper's top five: numFloatOps (0.19), numOperands "
              "(0.186),\n  instructionFanIn (0.175), liveRangeSize (0.16), "
              "numMemOps (0.148).\n");

  // Shape check: how many of the paper's five appear in our top ten?
  const FeatureId PaperTop[] = {
      FeatureId::NumFloatOps, FeatureId::NumOperands,
      FeatureId::InstructionFanIn, FeatureId::LiveRangeSize,
      FeatureId::NumMemOps};
  unsigned Hits = 0;
  for (FeatureId Paper : PaperTop)
    for (size_t R = 0; R < 10 && R < Ranked.size(); ++R)
      if (Ranked[R].first == Paper)
        ++Hits;
  std::printf("\nShape checks:\n");
  printComparison("paper's top-5 features in our top-10", "5 of 5",
                  std::to_string(Hits) + " of 5");
  printComparison("informative features separate from noise", "yes",
                  Ranked.front().second > 2 * Ranked.back().second
                      ? "yes"
                      : "no");
  return 0;
}
