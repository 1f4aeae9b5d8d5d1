//===- tests/ml_test.cpp - Unit tests for core/ml -------------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "core/driver/LabelCollector.h"
#include "core/features/FeatureCatalog.h"
#include "core/ml/CrossValidation.h"
#include "core/ml/DecisionTree.h"
#include "core/ml/Evaluation.h"
#include "core/ml/FeatureSelection.h"
#include "core/ml/Forest.h"
#include "core/ml/Lda.h"
#include "core/ml/Mlp.h"
#include "core/ml/NearNeighbor.h"
#include "core/ml/OutputCode.h"
#include "corpus/BenchmarkSuite.h"
#include "support/Fingerprint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

using namespace metaopt;

namespace {

/// Builds a synthetic dataset whose label is decided by two features with
/// a clean linear rule: label = 1 + (f0 > 0) + 2*(f1 > 0) in {1,2,3,4}.
/// Any reasonable classifier must learn it almost perfectly.
Dataset cleanDataset(size_t N, uint64_t Seed, double LabelNoise = 0.0) {
  Rng Generator(Seed);
  Dataset Data;
  for (size_t I = 0; I < N; ++I) {
    Example Ex;
    Ex.Features.fill(0.0);
    double F0 = Generator.nextGaussian();
    double F1 = Generator.nextGaussian();
    Ex.Features[0] = F0;
    Ex.Features[1] = F1;
    // A couple of distractor dimensions.
    Ex.Features[2] = Generator.nextGaussian() * 10.0;
    Ex.Features[3] = Generator.nextGaussian() * 0.1;
    unsigned Label = 1 + (F0 > 0 ? 1 : 0) + (F1 > 0 ? 2 : 0);
    if (Generator.nextBool(LabelNoise))
      Label = 1 + static_cast<unsigned>(Generator.nextBelow(4));
    Ex.Label = Label;
    for (unsigned F = 0; F < MaxUnrollFactor; ++F)
      Ex.CyclesPerFactor[F] =
          1000.0 + 100.0 * std::abs(static_cast<int>(F + 1) -
                                    static_cast<int>(Label));
    Ex.LoopName = "loop" + std::to_string(I);
    Ex.BenchmarkName = "bench" + std::to_string(I % 5);
    Data.add(std::move(Ex));
  }
  return Data;
}

FeatureSet firstTwoFeatures() {
  return {static_cast<FeatureId>(0), static_cast<FeatureId>(1)};
}

FeatureSet firstFourFeatures() {
  return {static_cast<FeatureId>(0), static_cast<FeatureId>(1),
          static_cast<FeatureId>(2), static_cast<FeatureId>(3)};
}

/// A training set whose one NaN feature poisons the normalizer, so the
/// kernel system has no Cholesky factor.
Dataset nanDataset(size_t N, uint64_t Seed) {
  Dataset Data = cleanDataset(N, Seed);
  Dataset Poisoned;
  for (size_t I = 0; I < Data.size(); ++I) {
    Example Ex = Data[I];
    if (I == N / 2)
      Ex.Features[0] = std::nan("");
    Poisoned.add(std::move(Ex));
  }
  return Poisoned;
}

/// The seeded quick corpus the model digests are pinned on: 6-10 loops
/// per benchmark, SWP off, about 600 examples. Labeled once per process.
const Dataset &quickCorpus() {
  static const Dataset Data = [] {
    CorpusOptions Corpus;
    Corpus.Seed = 14;
    Corpus.MinLoopsPerBenchmark = 6;
    Corpus.MaxLoopsPerBenchmark = 10;
    LabelingOptions Labeling;
    Labeling.EnableSwp = false;
    return collectLabels(buildCorpus(Corpus), Labeling);
  }();
  return Data;
}

/// Trains \p Model on the quick corpus and returns the digest of its
/// serialized model as {Hi, Lo}.
std::pair<uint64_t, uint64_t> quickCorpusModelDigest(Classifier &Model) {
  Model.train(quickCorpus());
  FingerprintHasher Hasher;
  Hasher.str(Model.serialize());
  return {Hasher.digest().Hi, Hasher.digest().Lo};
}

} // namespace

//===----------------------------------------------------------------------===//
// Dataset
//===----------------------------------------------------------------------===//

TEST(DatasetTest, HistogramCountsLabels) {
  Dataset Data = cleanDataset(100, 1);
  auto Histogram = Data.labelHistogram();
  size_t Total = 0;
  for (size_t Count : Histogram)
    Total += Count;
  EXPECT_EQ(Total, 100u);
  EXPECT_EQ(Histogram[4], 0u); // Labels are only 1..4 here.
}

TEST(DatasetTest, ExcludingBenchmarkRemovesAllItsLoops) {
  Dataset Data = cleanDataset(100, 2);
  Dataset Rest = Data.excludingBenchmark("bench2");
  EXPECT_EQ(Rest.size(), 80u);
  for (const Example &Ex : Rest.examples())
    EXPECT_NE(Ex.BenchmarkName, "bench2");
}

TEST(DatasetTest, WithoutExampleDropsExactlyOne) {
  Dataset Data = cleanDataset(10, 3);
  Dataset Smaller = Data.withoutExample(4);
  EXPECT_EQ(Smaller.size(), 9u);
  for (const Example &Ex : Smaller.examples())
    EXPECT_NE(Ex.LoopName, "loop4");
}

TEST(DatasetTest, SubsampleDeterministicAndBounded) {
  Dataset Data = cleanDataset(50, 4);
  Rng A(9), B(9);
  Dataset SubA = Data.subsample(20, A);
  Dataset SubB = Data.subsample(20, B);
  ASSERT_EQ(SubA.size(), 20u);
  for (size_t I = 0; I < 20; ++I)
    EXPECT_EQ(SubA[I].LoopName, SubB[I].LoopName);
  // No-op when already small enough.
  Rng C(9);
  EXPECT_EQ(Data.subsample(500, C).size(), 50u);
}

TEST(DatasetTest, FactorRanksOrderByCycles) {
  Example Ex;
  for (unsigned F = 0; F < MaxUnrollFactor; ++F)
    Ex.CyclesPerFactor[F] = 100.0 - F; // u=8 fastest ... u=1 slowest.
  auto Ranks = factorRanks(Ex);
  EXPECT_EQ(Ranks[7], 0u); // u=8 is rank 0 (best).
  EXPECT_EQ(Ranks[0], 7u); // u=1 is rank 7 (worst).
}

TEST(DatasetTest, FactorRanksTieBreaksDeterministically) {
  Example Ex;
  Ex.CyclesPerFactor.fill(50.0);
  auto Ranks = factorRanks(Ex);
  // All equal: ranks follow factor order.
  for (unsigned F = 0; F < MaxUnrollFactor; ++F)
    EXPECT_EQ(Ranks[F], F);
}

//===----------------------------------------------------------------------===//
// Near neighbor classifier
//===----------------------------------------------------------------------===//

TEST(NearNeighborTest, LearnsCleanRule) {
  Dataset Train = cleanDataset(400, 10);
  Dataset Test = cleanDataset(100, 11);
  NearNeighborClassifier Nn(firstTwoFeatures(), 0.3);
  Nn.train(Train);
  EXPECT_GT(Nn.accuracyOn(Test), 0.9);
}

TEST(NearNeighborTest, FallsBackToSingleNearest) {
  // A tiny radius leaves every ball empty: predictions must still work.
  Dataset Train = cleanDataset(100, 12);
  NearNeighborClassifier Nn(firstTwoFeatures(), 1e-9);
  Nn.train(Train);
  Dataset Test = cleanDataset(50, 13);
  EXPECT_GT(Nn.accuracyOn(Test), 0.8);
}

TEST(NearNeighborTest, VoteConfidence) {
  Dataset Train = cleanDataset(300, 14);
  NearNeighborClassifier Nn(firstTwoFeatures(), 0.5);
  Nn.train(Train);
  // A query deep inside one quadrant: confident majority.
  FeatureVector Query = {};
  Query[0] = 2.0;
  Query[1] = 2.0;
  auto Vote = Nn.predictWithVote(Query);
  EXPECT_EQ(Vote.Factor, 4u);
  EXPECT_GT(Vote.NeighborCount, 0u);
  EXPECT_GT(Vote.confidence(), 0.8);
}

TEST(NearNeighborTest, PredictExcludingIgnoresSelf) {
  // Two identical points with different labels: leaving one out must
  // return the other's label.
  Dataset Data;
  for (unsigned I = 0; I < 2; ++I) {
    Example Ex;
    Ex.Features.fill(0.0);
    Ex.Label = I + 1;
    Ex.CyclesPerFactor.fill(1.0);
    Ex.LoopName = "twin" + std::to_string(I);
    Data.add(Ex);
  }
  NearNeighborClassifier Nn(firstTwoFeatures(), 0.3);
  Nn.train(Data);
  EXPECT_EQ(Nn.predictExcluding(0), 2u);
  EXPECT_EQ(Nn.predictExcluding(1), 1u);
}

TEST(NearNeighborTest, RadiusScalesWithDimension) {
  // The same data classified with 2 and 4 features: the RMS-normalized
  // radius keeps neighborhood sizes comparable, so accuracy should not
  // collapse when distractors are added.
  Dataset Train = cleanDataset(400, 15);
  Dataset Test = cleanDataset(100, 16);
  NearNeighborClassifier Two(firstTwoFeatures(), 0.4);
  NearNeighborClassifier Four(firstFourFeatures(), 0.4);
  Two.train(Train);
  Four.train(Train);
  EXPECT_GT(Four.accuracyOn(Test), Two.accuracyOn(Test) - 0.25);
}

TEST(NearNeighborTest, LoocvMatchesBruteForce) {
  Dataset Data = cleanDataset(60, 17, /*LabelNoise=*/0.2);
  NearNeighborClassifier Nn(firstTwoFeatures(), 0.3);
  std::vector<unsigned> Fast = loocvPredictions(Nn, Data);
  ClassifierFactory Factory = [](const FeatureSet &Features) {
    return std::make_unique<NearNeighborClassifier>(Features, 0.3);
  };
  std::vector<unsigned> Slow =
      bruteForceLoocv(Factory, firstTwoFeatures(), Data);
  // The fast path reuses the full-set normalizer, so tiny boundary
  // differences are possible; demand near-perfect agreement.
  size_t Agree = 0;
  for (size_t I = 0; I < Data.size(); ++I)
    Agree += Fast[I] == Slow[I];
  EXPECT_GE(Agree, Data.size() - 3);
}

//===----------------------------------------------------------------------===//
// LS-SVM and output codes
//===----------------------------------------------------------------------===//

TEST(LsSvmTest, BinarySeparation) {
  // One-dimensional, separable: f0 < 0 -> -1, f0 > 0 -> +1.
  Rng Generator(18);
  std::vector<std::vector<double>> Points;
  std::vector<double> Labels;
  for (int I = 0; I < 60; ++I) {
    double X = Generator.nextGaussian() + (I % 2 ? 2.0 : -2.0);
    Points.push_back({X});
    Labels.push_back(I % 2 ? 1.0 : -1.0);
  }
  RbfKernel Kernel(1.0);
  auto Solver = LsSvmSolver::create(Points, Kernel, 10.0);
  ASSERT_TRUE(Solver.has_value());
  LsSvmBinary Machine = Solver->solve(Labels);
  int Correct = 0;
  for (size_t I = 0; I < Points.size(); ++I) {
    double F = Machine.decision(kernelVector(Kernel, Points, Points[I]));
    Correct += (F > 0) == (Labels[I] > 0);
  }
  EXPECT_GE(Correct, 58);
}

TEST(LsSvmTest, LooIdentityMatchesRetraining) {
  // The closed-form leave-one-out decision must equal actually retraining
  // without the example. This validates the whole fast-LOOCV machinery.
  Rng Generator(19);
  std::vector<std::vector<double>> Points;
  std::vector<double> Labels;
  for (int I = 0; I < 30; ++I) {
    Points.push_back({Generator.nextGaussian(), Generator.nextGaussian()});
    Labels.push_back(Generator.nextBool(0.5) ? 1.0 : -1.0);
  }
  RbfKernel Kernel(2.0);
  auto Solver = LsSvmSolver::create(Points, Kernel, 5.0);
  ASSERT_TRUE(Solver.has_value());
  LsSvmBinary Machine = Solver->solve(Labels);
  std::vector<double> Loo = Solver->looDecisions(Labels, Machine);

  for (size_t Left = 0; Left < Points.size(); Left += 7) {
    std::vector<std::vector<double>> RestPoints;
    std::vector<double> RestLabels;
    for (size_t I = 0; I < Points.size(); ++I) {
      if (I == Left)
        continue;
      RestPoints.push_back(Points[I]);
      RestLabels.push_back(Labels[I]);
    }
    auto RestSolver = LsSvmSolver::create(RestPoints, Kernel, 5.0);
    ASSERT_TRUE(RestSolver.has_value());
    LsSvmBinary RestMachine = RestSolver->solve(RestLabels);
    double Direct = RestMachine.decision(
        kernelVector(Kernel, RestPoints, Points[Left]));
    EXPECT_NEAR(Loo[Left], Direct, 1e-8) << "example " << Left;
  }
}

/// kernelMatrix fills the diagonal and the lower triangle, the part the
/// Cholesky factor reads, and leaves the upper triangle zero. Every lower
/// entry must carry the bits of the scalar kernel call, whichever pool
/// size built it.
TEST(KernelTest, KernelMatrixLowerTriangleMatchesTheKernelOnEveryPool) {
  Rng Generator(43);
  RbfKernel Kernel(7.0);
  for (size_t N : {0, 1, 2, 3, 4, 5, 6, 9, 67, 130}) {
    std::vector<std::vector<double>> Points(N, std::vector<double>(7));
    for (std::vector<double> &Point : Points)
      for (double &Value : Point)
        Value = Generator.nextGaussian();
    Matrix Reference;
    for (unsigned Threads : {1u, 2u, 4u}) {
      ThreadPool::setGlobalThreads(Threads);
      Matrix K = kernelMatrix(Kernel, Points);
      ASSERT_EQ(K.rows(), N);
      ASSERT_EQ(K.cols(), N);
      const double One = 1.0, Zero = 0.0;
      for (size_t I = 0; I < N; ++I) {
        EXPECT_EQ(std::memcmp(&K.at(I, I), &One, sizeof(double)), 0)
            << "diagonal " << I;
        for (size_t J = 0; J < I; ++J) {
          double Expected = Kernel(Points[J], Points[I]);
          EXPECT_EQ(std::memcmp(&K.at(I, J), &Expected, sizeof(double)), 0)
              << "N " << N << " entry (" << I << ", " << J << ")";
        }
        for (size_t J = I + 1; J < N; ++J)
          EXPECT_EQ(std::memcmp(&K.at(I, J), &Zero, sizeof(double)), 0)
              << "N " << N << " upper entry (" << I << ", " << J << ")";
      }
      if (Threads == 1) {
        Reference = K;
        continue;
      }
      for (size_t I = 0; I < N; ++I)
        EXPECT_EQ(std::memcmp(K.rowPtr(I), Reference.rowPtr(I),
                              N * sizeof(double)),
                  0)
            << "N " << N << " row " << I << " on " << Threads << " threads";
    }
  }
  ThreadPool::setGlobalThreads(0); // Restore the default pool.
}

TEST(SvmClassifierTest, LearnsCleanRule) {
  Dataset Train = cleanDataset(300, 20);
  Dataset Test = cleanDataset(100, 21);
  SvmClassifier Svm(firstTwoFeatures());
  Svm.train(Train);
  EXPECT_GT(Svm.accuracyOn(Test), 0.9);
}

TEST(SvmClassifierTest, FastLoocvMatchesBruteForce) {
  Dataset Data = cleanDataset(50, 22, /*LabelNoise=*/0.15);
  SvmClassifier Svm(firstTwoFeatures());
  std::vector<unsigned> Fast = loocvPredictions(Svm, Data);
  ClassifierFactory Factory = [](const FeatureSet &Features) {
    return std::make_unique<SvmClassifier>(Features);
  };
  std::vector<unsigned> Slow =
      bruteForceLoocv(Factory, firstTwoFeatures(), Data);
  size_t Agree = 0;
  for (size_t I = 0; I < Data.size(); ++I)
    Agree += Fast[I] == Slow[I];
  // Normalizer refit differences allow rare disagreement near boundaries.
  EXPECT_GE(Agree, Data.size() - 3);
}

/// The paper SVM on a seeded quick corpus (6-10 loops per benchmark, SWP
/// off, about 600 examples: many Cholesky blocks and ragged tiles), pinned
/// by digest. The blocked factorization, the one-sweep solve and the
/// inverse-diagonal LOOCV must reproduce, bit for bit, the model and the
/// LOOCV predictions the unblocked scalar loops made.
TEST(SvmClassifierTest, QuickCorpusModelAndLoocvDigestsArePinned) {
  const Dataset &Data = quickCorpus();
  ASSERT_GT(Data.size(), 500u);

  SvmClassifier Svm(paperReducedFeatureSet());
  Svm.train(Data);
  // Both digests were taken with the original unblocked Cholesky, its
  // column-at-a-time solve and its full inverse.
  FingerprintHasher Model;
  Model.str(Svm.serialize());
  EXPECT_EQ(Model.digest().Hi, 0x01a64dc865277a4fULL);
  EXPECT_EQ(Model.digest().Lo, 0x145acdf4eafcad13ULL);

  FingerprintHasher Loocv;
  for (unsigned Prediction : loocvPredictions(Svm, Data))
    Loocv.u64(Prediction);
  EXPECT_EQ(Loocv.digest().Hi, 0xdcfb3c4f6447acdbULL);
  EXPECT_EQ(Loocv.digest().Lo, 0x6d3837a206e77428ULL);
}

/// The other fitted families on the same corpus, pinned the same way. Each
/// fit's loops may be rearranged for speed, but every model must keep its
/// bytes: the tree's splits and thresholds, and the MLP's weights after
/// every Adam step. The forest is pinned on pools of 1 and 4 threads.
TEST(ModelDigestTest, DecisionTreeQuickCorpusModelIsPinned) {
  DecisionTreeClassifier Tree(paperReducedFeatureSet());
  auto Digest = quickCorpusModelDigest(Tree);
  EXPECT_EQ(Digest.first, 0xa45ca20ac958a626ULL);
  EXPECT_EQ(Digest.second, 0xa72f9f29cc4c0e6dULL);
}

TEST(ModelDigestTest, RandomForestQuickCorpusModelIsPinnedOnEveryPool) {
  for (unsigned Threads : {1u, 4u}) {
    ThreadPool::setGlobalThreads(Threads);
    RandomForestClassifier Forest(paperReducedFeatureSet());
    auto Digest = quickCorpusModelDigest(Forest);
    EXPECT_EQ(Digest.first, 0x4b61f2f717029426ULL) << Threads << " threads";
    EXPECT_EQ(Digest.second, 0xb5d141d5260fd226ULL) << Threads << " threads";
  }
  ThreadPool::setGlobalThreads(0); // Restore the default pool.
}

TEST(ModelDigestTest, MlpOneHiddenLayerQuickCorpusModelIsPinned) {
  MlpClassifier Mlp(paperReducedFeatureSet());
  auto Digest = quickCorpusModelDigest(Mlp);
  EXPECT_EQ(Digest.first, 0xf90e87dd2882bf57ULL);
  EXPECT_EQ(Digest.second, 0xfb631348e1d78ce0ULL);
}

TEST(ModelDigestTest, MlpTwoHiddenLayersQuickCorpusModelIsPinned) {
  MlpOptions Options;
  Options.HiddenSizes = {24, 12};
  MlpClassifier Mlp(paperReducedFeatureSet(), Options);
  auto Digest = quickCorpusModelDigest(Mlp);
  EXPECT_EQ(Digest.first, 0xc6be20cdc8659881ULL);
  EXPECT_EQ(Digest.second, 0xe6dc2ac37601feb0ULL);
}

TEST(SvmClassifierTest, FailedFactorizationThrowsOnAFreshFit) {
  SvmClassifier Svm(firstTwoFeatures());
  EXPECT_THROW(Svm.train(nanDataset(50, 40)), std::runtime_error);
}

/// A refit that fails must not leave the previous fit's machines behind
/// (they would be scored against the new, smaller point set); a later
/// good fit trains as if fresh.
TEST(SvmClassifierTest, FailedFactorizationThrowsOnARefit) {
  Dataset Good = cleanDataset(200, 41);
  SvmClassifier Svm(firstTwoFeatures());
  Svm.train(Good);
  EXPECT_THROW(Svm.train(nanDataset(50, 42)), std::runtime_error);
  Svm.train(Good);
  SvmClassifier Fresh(firstTwoFeatures());
  Fresh.train(Good);
  EXPECT_EQ(Svm.serialize(), Fresh.serialize());
}

TEST(SvmClassifierTest, EcocAlsoLearns) {
  Dataset Train = cleanDataset(300, 23);
  Dataset Test = cleanDataset(100, 24);
  SvmOptions Options;
  Options.CodeKind = SvmOptions::Code::RandomEcoc;
  Options.EcocBits = 15;
  SvmClassifier Svm(firstTwoFeatures(), Options);
  Svm.train(Train);
  EXPECT_GT(Svm.accuracyOn(Test), 0.85);
  EXPECT_EQ(Svm.name(), "svm-ecoc");
}

TEST(SvmClassifierTest, LossDecodingWorks) {
  Dataset Train = cleanDataset(300, 25);
  Dataset Test = cleanDataset(100, 26);
  SvmOptions Options;
  Options.Decode = SvmOptions::Decoding::Loss;
  SvmClassifier Svm(firstTwoFeatures(), Options);
  Svm.train(Train);
  EXPECT_GT(Svm.accuracyOn(Test), 0.9);
}

//===----------------------------------------------------------------------===//
// Evaluation (Table 2 machinery)
//===----------------------------------------------------------------------===//

TEST(EvaluationTest, PerfectPredictionsRankZero) {
  Dataset Data = cleanDataset(50, 27);
  std::vector<unsigned> Predictions;
  for (const Example &Ex : Data.examples())
    Predictions.push_back(Ex.Label);
  RankDistribution Dist = rankDistribution(Data, Predictions);
  EXPECT_DOUBLE_EQ(Dist.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(Dist.Fraction[1], 0.0);
}

TEST(EvaluationTest, FractionsSumToOne) {
  Dataset Data = cleanDataset(80, 28);
  std::vector<unsigned> Predictions(Data.size(), 3);
  RankDistribution Dist = rankDistribution(Data, Predictions);
  double Sum = 0.0;
  for (double F : Dist.Fraction)
    Sum += F;
  EXPECT_NEAR(Sum, 1.0, 1e-12);
}

TEST(EvaluationTest, CostByRankIsMonotoneFromOne) {
  Dataset Data = cleanDataset(100, 29);
  auto Cost = costByRank(Data);
  EXPECT_DOUBLE_EQ(Cost[0], 1.0);
  for (unsigned R = 1; R < MaxUnrollFactor; ++R)
    EXPECT_GE(Cost[R] + 1e-12, Cost[R - 1]);
}

TEST(EvaluationTest, MeanCostOfPerfectIsOne) {
  Dataset Data = cleanDataset(40, 30);
  std::vector<unsigned> Perfect;
  for (const Example &Ex : Data.examples())
    Perfect.push_back(Ex.Label);
  EXPECT_DOUBLE_EQ(meanCostOfPredictions(Data, Perfect), 1.0);
  std::vector<unsigned> Bad(Data.size(), 8);
  EXPECT_GT(meanCostOfPredictions(Data, Bad), 1.0);
}

//===----------------------------------------------------------------------===//
// Feature selection
//===----------------------------------------------------------------------===//

TEST(FeatureSelectionTest, MisRanksInformativeFeatureFirst) {
  Dataset Data = cleanDataset(500, 31);
  double Informative = mutualInformationScore(
      Data, static_cast<FeatureId>(0), 10);
  double Distractor = mutualInformationScore(
      Data, static_cast<FeatureId>(2), 10);
  EXPECT_GT(Informative, Distractor + 0.1);
  auto Ranked = rankByMutualInformation(Data, 10);
  // The two informative features must rank in the top three.
  unsigned TopHits = 0;
  for (size_t I = 0; I < 3; ++I)
    TopHits += static_cast<unsigned>(Ranked[I].first) <= 1;
  EXPECT_GE(TopHits, 2u);
}

TEST(FeatureSelectionTest, MisOfConstantFeatureIsZero) {
  Dataset Data = cleanDataset(100, 32);
  // Feature 10 is identically zero in cleanDataset.
  EXPECT_NEAR(mutualInformationScore(Data, static_cast<FeatureId>(10), 10),
              0.0, 1e-9);
}

TEST(FeatureSelectionTest, GreedyFindsTheRuleFeatures) {
  Dataset Data = cleanDataset(250, 33);
  auto Steps = greedyFeatureSelection(Data, nearNeighborTrainError, 2);
  ASSERT_EQ(Steps.size(), 2u);
  std::set<unsigned> Chosen = {
      static_cast<unsigned>(Steps[0].Feature),
      static_cast<unsigned>(Steps[1].Feature)};
  EXPECT_TRUE(Chosen.count(0));
  EXPECT_TRUE(Chosen.count(1));
  // Error must decrease (or at least not increase) along the steps.
  EXPECT_LE(Steps[1].TrainError, Steps[0].TrainError + 1e-12);
  EXPECT_LT(Steps[1].TrainError, 0.1);
}

TEST(FeatureSelectionTest, GreedyNeverRepeatsFeatures) {
  Dataset Data = cleanDataset(120, 34, 0.2);
  auto Steps = greedyFeatureSelection(Data, nearNeighborTrainError, 6);
  std::set<FeatureId> Seen;
  for (const GreedyStep &Step : Steps)
    EXPECT_TRUE(Seen.insert(Step.Feature).second);
}

TEST(FeatureSelectionTest, SvmTrainErrorDrivenGreedy) {
  Dataset Data = cleanDataset(80, 35);
  auto Steps = greedyFeatureSelection(
      Data, trainingError([](const FeatureSet &F) {
        return std::make_unique<SvmClassifier>(F);
      }),
      2);
  ASSERT_EQ(Steps.size(), 2u);
  EXPECT_LT(Steps[1].TrainError, 0.15);
}

//===----------------------------------------------------------------------===//
// LDA
//===----------------------------------------------------------------------===//

TEST(LdaTest, SeparatesTheInformativePlane) {
  Dataset Data = cleanDataset(400, 36);
  LdaProjection Lda = fitLda(Data, firstFourFeatures(), 2);
  // The projection directions must be dominated by the two informative
  // features (dims 0 and 1 of the subset).
  double InformativeMass = 0.0, DistractorMass = 0.0;
  for (unsigned K = 0; K < 2; ++K) {
    InformativeMass += std::abs(Lda.Directions.at(0, K)) +
                       std::abs(Lda.Directions.at(1, K));
    DistractorMass += std::abs(Lda.Directions.at(2, K)) +
                      std::abs(Lda.Directions.at(3, K));
  }
  EXPECT_GT(InformativeMass, DistractorMass * 3.0);
}

TEST(LdaTest, ProjectionSeparatesClassMeans) {
  Dataset Data = cleanDataset(400, 37);
  LdaProjection Lda = fitLda(Data, firstTwoFeatures(), 2);
  // Project class means; they must be spread apart.
  std::map<unsigned, std::vector<double>> Mean;
  std::map<unsigned, int> Count;
  for (const Example &Ex : Data.examples()) {
    std::vector<double> P = Lda.project(Ex.Features);
    auto &M = Mean[Ex.Label];
    if (M.empty())
      M.assign(2, 0.0);
    addScaled(M, 1.0, P);
    ++Count[Ex.Label];
  }
  std::vector<std::vector<double>> Means;
  for (auto &[Label, M] : Mean) {
    for (double &C : M)
      C /= Count[Label];
    Means.push_back(M);
  }
  ASSERT_EQ(Means.size(), 4u);
  for (size_t A = 0; A < Means.size(); ++A)
    for (size_t B = A + 1; B < Means.size(); ++B)
      EXPECT_GT(squaredDistance(Means[A], Means[B]), 0.05);
}

TEST(LdaTest, EigenvaluesSortedDescending) {
  Dataset Data = cleanDataset(200, 38);
  LdaProjection Lda = fitLda(Data, firstFourFeatures(), 2);
  ASSERT_EQ(Lda.Eigenvalues.size(), 2u);
  EXPECT_GE(Lda.Eigenvalues[0], Lda.Eigenvalues[1]);
}
