//===- tests/integration_test.cpp - End-to-end pipeline tests -------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// These tests run the paper's whole methodology on a reduced corpus and
// assert the *shapes* of the headline results: learned classifiers beat
// the hand-written heuristic on prediction rank, mispredict costs grow
// with rank, and the parse -> predict -> unroll -> schedule -> simulate
// compiler path works on novel loops.
//
//===----------------------------------------------------------------------===//

#include "core/driver/Heuristics.h"
#include "core/driver/Pipeline.h"
#include "core/ml/CrossValidation.h"
#include "core/ml/Evaluation.h"
#include "heuristics/OrcLikeHeuristic.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "sim/Simulator.h"
#include "transform/Unroller.h"

#include <gtest/gtest.h>

using namespace metaopt;

namespace {

/// Shared fixture: label a reduced corpus once for the whole test suite.
class IntegrationTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    PipelineOptions Options;
    Options.Corpus.MinLoopsPerBenchmark = 5;
    Options.Corpus.MaxLoopsPerBenchmark = 8;
    Pipe = new Pipeline(Options);
    Data = &Pipe->dataset(/*EnableSwp=*/false);
  }
  static void TearDownTestSuite() {
    delete Pipe;
    Pipe = nullptr;
    Data = nullptr;
  }

  static Pipeline *Pipe;
  static const Dataset *Data;
};

Pipeline *IntegrationTest::Pipe = nullptr;
const Dataset *IntegrationTest::Data = nullptr;

} // namespace

TEST_F(IntegrationTest, DatasetIsSubstantial) {
  EXPECT_GT(Data->size(), 200u);
  // Labels span several factors; no single factor has a majority beyond
  // 70% (Figure 3's "no one unroll factor is dominantly better").
  auto Histogram = Data->labelHistogram();
  size_t Max = 0, Nonzero = 0;
  for (size_t Count : Histogram) {
    Max = std::max(Max, Count);
    Nonzero += Count > 0;
  }
  EXPECT_GE(Nonzero, 5u);
  EXPECT_LT(static_cast<double>(Max) / Data->size(), 0.7);
}

TEST_F(IntegrationTest, LearnedBeatsHandWrittenOnRank) {
  FeatureSet Features = paperReducedFeatureSet();
  NearNeighborClassifier Nn(Features, 0.3);
  std::vector<unsigned> NnPred = loocvPredictions(Nn, *Data);

  MachineModel Machine(itanium2Config());
  OrcLikeHeuristic Orc(Machine, false);
  std::vector<unsigned> OrcPred;
  std::map<std::string, const Loop *> ByName;
  for (const Benchmark &Bench : Pipe->corpus())
    for (const CorpusLoop &Entry : Bench.Loops)
      ByName[Entry.TheLoop.name()] = &Entry.TheLoop;
  for (const Example &Ex : Data->examples())
    OrcPred.push_back(Orc.chooseFactor(*ByName.at(Ex.LoopName)));

  RankDistribution NnRank = rankDistribution(*Data, NnPred);
  RankDistribution OrcRank = rankDistribution(*Data, OrcPred);
  // The paper's central claim: the learned classifier is substantially
  // more accurate than the production heuristic.
  EXPECT_GT(NnRank.accuracy(), OrcRank.accuracy());
  EXPECT_GT(NnRank.accuracy(), 0.3);
  // And cheaper on average when it mispredicts.
  EXPECT_LT(meanCostOfPredictions(*Data, NnPred),
            meanCostOfPredictions(*Data, OrcPred));
}

TEST_F(IntegrationTest, CostGrowsWithRank) {
  auto Cost = costByRank(*Data);
  EXPECT_DOUBLE_EQ(Cost[0], 1.0);
  for (unsigned R = 1; R < MaxUnrollFactor; ++R)
    EXPECT_GE(Cost[R] + 1e-9, Cost[R - 1]) << "rank " << R;
  // The worst choice hurts: the paper reports 1.77x, ours lands in the
  // same regime (well above 1.3x, below 5x).
  EXPECT_GT(Cost[MaxUnrollFactor - 1], 1.3);
  EXPECT_LT(Cost[MaxUnrollFactor - 1], 5.0);
}

TEST_F(IntegrationTest, SvmAndNnAgreeOnMostLoops) {
  FeatureSet Features = paperReducedFeatureSet();
  Rng Subsampler(5);
  Dataset Small = Data->subsample(400, Subsampler);
  NearNeighborClassifier Nn(Features, 0.3);
  Nn.train(Small);
  SvmClassifier Svm(Features);
  Svm.train(Small);
  size_t Agree = 0;
  for (const Example &Ex : Small.examples())
    Agree += Nn.predict(Ex.Features) == Svm.predict(Ex.Features);
  EXPECT_GT(static_cast<double>(Agree) / Small.size(), 0.5);
}

TEST_F(IntegrationTest, CompilerPathOnNovelLoop) {
  // Train, then compile a loop that is not in the corpus, end to end.
  FeatureSet Features = paperReducedFeatureSet();
  NearNeighborClassifier Nn(Features, 0.3);
  Nn.train(*Data);
  LearnedHeuristic Policy(Nn);

  const char *Source = R"(
loop "novel" lang=C nest=1 trip=512 rtrip=512 {
  %f_x = load @0[stride=8, offset=0, size=8]
  %f_y = load @1[stride=8, offset=0, size=8]
  %f_m = fmul %f_x, %f_y
  store %f_m, @2[stride=8, offset=0, size=8]
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
}
)";
  ParseResult Parsed = parseLoops(Source);
  ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
  const Loop &Novel = Parsed.Loops[0];

  unsigned Factor = Policy.chooseFactor(Novel);
  ASSERT_GE(Factor, 1u);
  ASSERT_LE(Factor, MaxUnrollFactor);

  MachineModel Machine(itanium2Config());
  SimContext Ctx;
  SimResult Chosen = simulateLoop(Novel, Factor, Machine, Ctx, false);
  SimResult Rolled = simulateLoop(Novel, 1, Machine, Ctx, false);
  // The learned choice must not be a disaster on this easy loop.
  EXPECT_LT(Chosen.Cycles, Rolled.Cycles * 1.5);
}

TEST_F(IntegrationTest, SwpDatasetPrefersSmallerFactors) {
  const Dataset &Swp = Pipe->dataset(/*EnableSwp=*/true);
  ASSERT_GT(Swp.size(), 100u);
  auto HistNo = Data->labelHistogram();
  auto HistSwp = Swp.labelHistogram();
  // Software pipelining extracts the ILP itself, so big unroll factors
  // matter less: the mean label must drop.
  auto MeanLabel = [](const std::array<size_t, MaxUnrollFactor> &H) {
    double Sum = 0.0, Count = 0.0;
    for (unsigned F = 0; F < MaxUnrollFactor; ++F) {
      Sum += (F + 1.0) * H[F];
      Count += H[F];
    }
    return Sum / Count;
  };
  EXPECT_LT(MeanLabel(HistSwp), MeanLabel(HistNo));
}

//===----------------------------------------------------------------------===//
// Full-scale headline guard
//===----------------------------------------------------------------------===//

/// Guards the reproduction's headline numbers on the *default* corpus:
/// dataset scale ("more than 2,500 loops"), Figure 3's no-majority shape,
/// and NN LOOCV accuracy in the paper's regime. If a substrate change
/// moves these, EXPERIMENTS.md needs regenerating.
TEST(FullScaleGuard, HeadlineNumbersHold) {
  PipelineOptions Options; // Default: the full 72-benchmark corpus.
  Pipeline Pipe(Options);
  const Dataset &Data = Pipe.dataset(/*EnableSwp=*/false);
  EXPECT_GT(Data.size(), 2500u);

  auto Histogram = Data.labelHistogram();
  size_t Max = 0;
  for (size_t Count : Histogram)
    Max = std::max(Max, Count);
  EXPECT_LT(static_cast<double>(Max) / Data.size(), 0.5)
      << "a factor gained a majority; Figure 3's shape broke";

  NearNeighborClassifier Nn(paperReducedFeatureSet(), 0.3);
  double Accuracy = predictionAccuracy(Data, loocvPredictions(Nn, Data));
  EXPECT_GT(Accuracy, 0.5) << "NN LOOCV accuracy fell out of the paper's "
                              "regime (paper: 62%)";
  EXPECT_LT(Accuracy, 0.8) << "suspiciously high: hidden context lost?";
}
