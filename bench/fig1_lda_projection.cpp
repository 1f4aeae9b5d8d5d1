//===- bench/fig1_lda_projection.cpp - Regenerates Figures 1/2 data -------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Figures 1 and 2 visualize the loop dataset projected onto a 2-D plane
// found with linear discriminant analysis ("To find a 'good' plane onto
// which to project the data, we use the linear discriminant analysis
// algorithm described in [8]"), keeping only loops where the best factor
// beats the others by at least 30%, and only classes {1, 2, 4, 8}.
//
// This bench writes the projected points to out/fig1_lda_projection.csv
// (generated artifacts stay out of the repo root) and prints an ASCII
// scatter.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ml/Lda.h"
#include "support/Csv.h"

#include <algorithm>
#include <cmath>

using namespace metaopt;

int main(int Argc, char **Argv) {
  CliParser Args = benchCli(
      "fig1_lda_projection", "Figures 1/2",
      "LDA projection of the loop dataset onto 2-D");
  if (std::optional<int> Exit = parseBenchFlags(Args, Argc, Argv))
    return *Exit;

  std::unique_ptr<Pipeline> Pipe = makePipeline(Args);
  const Dataset &Full = Pipe->dataset(/*EnableSwp=*/false);

  // The figures' filter: classes {1,2,4,8} and a clear (>=30%) winner.
  Dataset Filtered;
  for (const Example &Ex : Full.examples()) {
    if (Ex.Label != 1 && Ex.Label != 2 && Ex.Label != 4 && Ex.Label != 8)
      continue;
    double Best = Ex.CyclesPerFactor[Ex.Label - 1];
    double SecondBest = 1e300;
    for (unsigned F : {1u, 2u, 4u, 8u}) {
      if (F == Ex.Label)
        continue;
      SecondBest = std::min(SecondBest, Ex.CyclesPerFactor[F - 1]);
    }
    if (SecondBest >= 1.3 * Best)
      Filtered.add(Ex);
  }
  std::printf("clear-winner loops (>=30%% margin, classes 1/2/4/8): %zu of "
              "%zu\n\n",
              Filtered.size(), Full.size());
  if (Filtered.size() < 8) {
    std::printf("not enough clear winners to fit a projection; rerun "
                "without --quick\n");
    return 0;
  }

  LdaProjection Lda = fitLda(Filtered, paperReducedFeatureSet(), 2);

  // Emit CSV and gather ranges for the ASCII plot.
  CsvWriter Csv;
  Csv.addRow({"x", "y", "bestFactor", "loop"});
  std::vector<std::array<double, 2>> Points;
  std::vector<unsigned> Labels;
  double MinX = 1e300, MaxX = -1e300, MinY = 1e300, MaxY = -1e300;
  for (const Example &Ex : Filtered.examples()) {
    std::vector<double> P = Lda.project(Ex.Features);
    Points.push_back({P[0], P[1]});
    Labels.push_back(Ex.Label);
    MinX = std::min(MinX, P[0]);
    MaxX = std::max(MaxX, P[0]);
    MinY = std::min(MinY, P[1]);
    MaxY = std::max(MaxY, P[1]);
    Csv.addRow({formatDouble(P[0], 4), formatDouble(P[1], 4),
                std::to_string(Ex.Label), Ex.LoopName});
  }
  std::string OutPath = benchOutPath("fig1_lda_projection.csv");
  bool Wrote = Csv.writeToFile(OutPath);
  std::printf("%s %s (%zu points)\n\n",
              Wrote ? "wrote" : "FAILED to write", OutPath.c_str(),
              Points.size());

  // ASCII scatter: '+' u1, 'o' u2, '*' u4, '.' u8 (figure 1's markers).
  constexpr int Width = 72, Height = 24;
  std::vector<std::string> Grid(Height, std::string(Width, ' '));
  auto MarkOf = [](unsigned Label) {
    switch (Label) {
    case 1:
      return '+';
    case 2:
      return 'o';
    case 4:
      return '*';
    default:
      return '.';
    }
  };
  for (size_t I = 0; I < Points.size(); ++I) {
    int Col = static_cast<int>((Points[I][0] - MinX) /
                               std::max(1e-9, MaxX - MinX) * (Width - 1));
    int Row = static_cast<int>((Points[I][1] - MinY) /
                               std::max(1e-9, MaxY - MinY) * (Height - 1));
    Grid[Height - 1 - Row][Col] = MarkOf(Labels[I]);
  }
  std::printf("legend: '+' u=1   'o' u=2   '*' u=4   '.' u=8\n");
  for (const std::string &Line : Grid)
    std::printf("|%s|\n", Line.c_str());

  std::printf("\nShape checks:\n");
  printComparison("discriminative directions found",
                  "classes form visible clusters",
                  "eigenvalues " + formatDouble(Lda.Eigenvalues[0], 2) +
                      ", " + formatDouble(Lda.Eigenvalues[1], 2));
  return 0;
}
