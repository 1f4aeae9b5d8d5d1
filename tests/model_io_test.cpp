//===- tests/model_io_test.cpp - Model serialization and CV utilities -----===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// A compiler does not retrain at startup: it ships a trained model. These
// tests pin down the serialize/deserialize round trips for the normalizer
// and both paper classifiers, plus the k-fold validation and confusion
// matrix utilities.
//
//===----------------------------------------------------------------------===//

#include "core/ml/CrossValidation.h"
#include "core/ml/DecisionTree.h"
#include "core/ml/Evaluation.h"
#include "core/ml/Forest.h"
#include "core/ml/Mlp.h"
#include "core/ml/NearNeighbor.h"
#include "core/ml/OutputCode.h"
#include "support/Rng.h"

#include <cstdio>

#include <algorithm>

#include <gtest/gtest.h>

#include <cmath>

using namespace metaopt;

namespace {

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
    Ex.Features[2] = Generator.nextGaussian() * 10.0;
    unsigned Label = 1 + (F0 > 0 ? 1 : 0) + (F1 > 0 ? 2 : 0);
    if (Generator.nextBool(LabelNoise))
      Label = 1 + static_cast<unsigned>(Generator.nextBelow(8));
    Ex.Label = Label;
    for (unsigned F = 0; F < MaxUnrollFactor; ++F)
      Ex.CyclesPerFactor[F] =
          1000.0 + 100.0 * std::abs(static_cast<int>(F + 1) -
                                    static_cast<int>(Label));
    Ex.LoopName = "loop" + std::to_string(I);
    Ex.BenchmarkName = "bench" + std::to_string(I % 4);
    Data.add(std::move(Ex));
  }
  return Data;
}

FeatureSet firstTwoFeatures() {
  return {static_cast<FeatureId>(0), static_cast<FeatureId>(1)};
}

/// Strips the trailing checksum line of an mlp/forest blob so a test can
/// mutate the body, then reseals it with a freshly computed checksum —
/// the way to probe structural validation beneath the checksum layer.
std::string resealChecksum(const std::string &Blob,
                           const std::string &From, const std::string &To) {
  size_t ChecksumPos = Blob.rfind("\nchecksum ");
  EXPECT_NE(ChecksumPos, std::string::npos);
  std::string Body = Blob.substr(0, ChecksumPos + 1);
  size_t At = Body.find(From);
  EXPECT_NE(At, std::string::npos) << From;
  Body.replace(At, From.size(), To);
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "checksum %016llx\n",
                static_cast<unsigned long long>(Rng::hashString(Body)));
  return Body + Buffer;
}

} // namespace

//===----------------------------------------------------------------------===//
// Normalizer serialization
//===----------------------------------------------------------------------===//

TEST(NormalizerIoTest, RoundTripIsBitExact) {
  Dataset Data = cleanDataset(60, 1);
  Normalizer Norm;
  Norm.fit(Data.featureMatrix(),
           {static_cast<FeatureId>(0), static_cast<FeatureId>(2)});
  std::optional<Normalizer> Loaded =
      Normalizer::deserialize(Norm.serialize());
  ASSERT_TRUE(Loaded.has_value());
  for (const Example &Ex : Data.examples()) {
    std::vector<double> A = Norm.apply(Ex.Features);
    std::vector<double> B = Loaded->apply(Ex.Features);
    ASSERT_EQ(A.size(), B.size());
    for (size_t D = 0; D < A.size(); ++D)
      EXPECT_EQ(A[D], B[D]); // Bit-exact via %.17g.
  }
}

TEST(NormalizerIoTest, RejectsGarbage) {
  EXPECT_FALSE(Normalizer::deserialize("").has_value());
  EXPECT_FALSE(Normalizer::deserialize("normalizer zscore x").has_value());
  EXPECT_FALSE(
      Normalizer::deserialize("normalizer sigmoid 1\n0 1 1\n").has_value());
  EXPECT_FALSE(
      Normalizer::deserialize("normalizer zscore 2\n0 1 1\n").has_value());
  EXPECT_FALSE(
      Normalizer::deserialize("normalizer zscore 1\n999 1 1\n").has_value());
}

//===----------------------------------------------------------------------===//
// NearNeighbor serialization
//===----------------------------------------------------------------------===//

TEST(NnIoTest, RoundTripPredictsIdentically) {
  Dataset Train = cleanDataset(200, 2, 0.1);
  NearNeighborClassifier Nn(firstTwoFeatures(), 0.3);
  Nn.train(Train);
  std::optional<NearNeighborClassifier> Loaded =
      NearNeighborClassifier::deserialize(Nn.serialize());
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->databaseSize(), Nn.databaseSize());
  EXPECT_DOUBLE_EQ(Loaded->radius(), Nn.radius());
  Dataset Queries = cleanDataset(120, 3);
  for (const Example &Ex : Queries.examples())
    EXPECT_EQ(Loaded->predict(Ex.Features), Nn.predict(Ex.Features));
}

TEST(NnIoTest, SerializationIsStable) {
  Dataset Train = cleanDataset(50, 4);
  NearNeighborClassifier Nn(firstTwoFeatures(), 0.3);
  Nn.train(Train);
  std::string First = Nn.serialize();
  std::optional<NearNeighborClassifier> Loaded =
      NearNeighborClassifier::deserialize(First);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->serialize(), First);
}

TEST(NnIoTest, RejectsCorruptedInput) {
  Dataset Train = cleanDataset(30, 5);
  NearNeighborClassifier Nn(firstTwoFeatures(), 0.3);
  Nn.train(Train);
  std::string Good = Nn.serialize();
  EXPECT_FALSE(NearNeighborClassifier::deserialize("").has_value());
  EXPECT_FALSE(
      NearNeighborClassifier::deserialize("nn-model 2\n").has_value());
  // Truncate the points section.
  std::string Truncated = Good.substr(0, Good.size() / 2);
  EXPECT_FALSE(
      NearNeighborClassifier::deserialize(Truncated).has_value());
}

//===----------------------------------------------------------------------===//
// SVM serialization
//===----------------------------------------------------------------------===//

TEST(SvmIoTest, RoundTripPredictsIdentically) {
  Dataset Train = cleanDataset(150, 6, 0.1);
  SvmClassifier Svm(firstTwoFeatures());
  Svm.train(Train);
  std::optional<SvmClassifier> Loaded =
      SvmClassifier::deserialize(Svm.serialize());
  ASSERT_TRUE(Loaded.has_value());
  Dataset Queries = cleanDataset(120, 7);
  for (const Example &Ex : Queries.examples())
    EXPECT_EQ(Loaded->predict(Ex.Features), Svm.predict(Ex.Features));
}

TEST(SvmIoTest, EcocVariantRoundTrips) {
  Dataset Train = cleanDataset(120, 8);
  SvmOptions Options;
  Options.CodeKind = SvmOptions::Code::RandomEcoc;
  Options.EcocBits = 15;
  Options.Decode = SvmOptions::Decoding::Loss;
  SvmClassifier Svm(firstTwoFeatures(), Options);
  Svm.train(Train);
  std::optional<SvmClassifier> Loaded =
      SvmClassifier::deserialize(Svm.serialize());
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->options().EcocBits, 15u);
  EXPECT_EQ(Loaded->options().Decode, SvmOptions::Decoding::Loss);
  Dataset Queries = cleanDataset(80, 9);
  for (const Example &Ex : Queries.examples())
    EXPECT_EQ(Loaded->predict(Ex.Features), Svm.predict(Ex.Features));
}

TEST(SvmIoTest, RejectsCorruptedInput) {
  EXPECT_FALSE(SvmClassifier::deserialize("").has_value());
  EXPECT_FALSE(SvmClassifier::deserialize("svm-model 9\n").has_value());
  Dataset Train = cleanDataset(40, 10);
  SvmClassifier Svm(firstTwoFeatures());
  Svm.train(Train);
  std::string Good = Svm.serialize();
  EXPECT_FALSE(
      SvmClassifier::deserialize(Good.substr(0, Good.size() / 3))
          .has_value());
}

//===----------------------------------------------------------------------===//
// Decision tree serialization
//===----------------------------------------------------------------------===//

TEST(DtreeIoTest, RoundTripPredictsIdentically) {
  Dataset Train = cleanDataset(200, 11, 0.1);
  DecisionTreeClassifier Tree(firstTwoFeatures());
  Tree.train(Train);
  std::optional<DecisionTreeClassifier> Loaded =
      DecisionTreeClassifier::deserialize(Tree.serialize());
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numNodes(), Tree.numNodes());
  EXPECT_EQ(Loaded->depth(), Tree.depth());
  Dataset Queries = cleanDataset(120, 12);
  for (const Example &Ex : Queries.examples())
    EXPECT_EQ(Loaded->predict(Ex.Features), Tree.predict(Ex.Features));
}

TEST(DtreeIoTest, SerializationIsStable) {
  Dataset Train = cleanDataset(80, 13);
  DecisionTreeClassifier Tree(firstTwoFeatures());
  Tree.train(Train);
  std::string First = Tree.serialize();
  std::optional<DecisionTreeClassifier> Loaded =
      DecisionTreeClassifier::deserialize(First);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->serialize(), First);
}

TEST(DtreeIoTest, RejectsCorruptedInput) {
  EXPECT_FALSE(DecisionTreeClassifier::deserialize("").has_value());
  EXPECT_FALSE(
      DecisionTreeClassifier::deserialize("dtree-model 2\n").has_value());
  Dataset Train = cleanDataset(60, 14);
  DecisionTreeClassifier Tree(firstTwoFeatures());
  Tree.train(Train);
  std::string Good = Tree.serialize();
  EXPECT_FALSE(
      DecisionTreeClassifier::deserialize(Good.substr(0, Good.size() / 2))
          .has_value());
}

TEST(DtreeIoTest, RejectsCyclicNodeLinks) {
  // An internal node whose child points back at it has in-range indices
  // but would make predict() walk forever; the depth invariant must
  // reject it.
  std::string Blob = "dtree-model 1\n"
                     "limits 12 5 0.98\n"
                     "normalizer zscore 1\n"
                     "0 0 1\n"
                     "nodes 2 root 0\n"
                     "0 1 0 0.5 1 1 0\n"
                     "0 2 0 0.25 0 0 1\n";
  EXPECT_FALSE(DecisionTreeClassifier::deserialize(Blob).has_value());
}

//===----------------------------------------------------------------------===//
// MLP serialization
//===----------------------------------------------------------------------===//

TEST(MlpIoTest, RoundTripPredictsIdentically) {
  Dataset Train = cleanDataset(150, 25, 0.1);
  MlpClassifier Mlp(firstTwoFeatures());
  Mlp.train(Train);
  std::optional<MlpClassifier> Loaded =
      MlpClassifier::deserialize(Mlp.serialize());
  ASSERT_TRUE(Loaded.has_value());
  Dataset Queries = cleanDataset(120, 26);
  for (const Example &Ex : Queries.examples()) {
    EXPECT_EQ(Loaded->predict(Ex.Features), Mlp.predict(Ex.Features));
    auto A = Mlp.scores(Ex.Features);
    auto B = Loaded->scores(Ex.Features);
    for (unsigned F = 0; F < MaxUnrollFactor; ++F)
      EXPECT_EQ(A[F], B[F]); // Bit-exact via %.17g.
  }
}

TEST(MlpIoTest, SerializationIsStable) {
  Dataset Train = cleanDataset(80, 27);
  MlpClassifier Mlp(firstTwoFeatures());
  Mlp.train(Train);
  std::string First = Mlp.serialize();
  std::optional<MlpClassifier> Loaded = MlpClassifier::deserialize(First);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->serialize(), First);
}

TEST(MlpIoTest, RejectsTruncatedInputWithDiagnostic) {
  Dataset Train = cleanDataset(60, 28);
  MlpClassifier Mlp(firstTwoFeatures());
  Mlp.train(Train);
  std::string Good = Mlp.serialize();
  std::string Error;
  EXPECT_FALSE(MlpClassifier::deserialize("", &Error).has_value());
  EXPECT_FALSE(Error.empty());
  Error.clear();
  EXPECT_FALSE(MlpClassifier::deserialize(Good.substr(0, Good.size() / 2),
                                          &Error)
                   .has_value());
  EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;
}

TEST(MlpIoTest, RejectsChecksumTamperWithDiagnostic) {
  Dataset Train = cleanDataset(60, 29);
  MlpClassifier Mlp(firstTwoFeatures());
  Mlp.train(Train);
  std::string Tampered = Mlp.serialize();
  // Flip one byte of the body (the options keyword) without resealing.
  size_t At = Tampered.find("options");
  ASSERT_NE(At, std::string::npos);
  Tampered[At] = 'O';
  std::string Error;
  EXPECT_FALSE(MlpClassifier::deserialize(Tampered, &Error).has_value());
  EXPECT_NE(Error.find("checksum mismatch"), std::string::npos) << Error;
}

TEST(MlpIoTest, RejectsBadLayerShapeWithDiagnostic) {
  Dataset Train = cleanDataset(60, 30);
  MlpClassifier Mlp(firstTwoFeatures());
  Mlp.train(Train);
  std::string Good = Mlp.serialize();
  // Claim the first layer consumes 3 inputs when the normalizer emits 2;
  // the checksum is resealed, so the structural check must catch it.
  std::string BadShape = resealChecksum(Good, "layer 0 24 2", "layer 0 24 3");
  std::string Error;
  EXPECT_FALSE(MlpClassifier::deserialize(BadShape, &Error).has_value());
  EXPECT_NE(Error.find("bad layer shape"), std::string::npos) << Error;
}

TEST(MlpIoTest, RejectsBadLayerCountWithDiagnostic) {
  Dataset Train = cleanDataset(60, 31);
  MlpClassifier Mlp(firstTwoFeatures());
  Mlp.train(Train);
  std::string BadCount =
      resealChecksum(Mlp.serialize(), "layers 2", "layers 9");
  std::string Error;
  EXPECT_FALSE(MlpClassifier::deserialize(BadCount, &Error).has_value());
  EXPECT_NE(Error.find("layer count"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// Random forest serialization
//===----------------------------------------------------------------------===//

TEST(ForestIoTest, RoundTripPredictsIdentically) {
  Dataset Train = cleanDataset(150, 32, 0.1);
  RandomForestClassifier Forest(firstTwoFeatures());
  Forest.train(Train);
  std::optional<RandomForestClassifier> Loaded =
      RandomForestClassifier::deserialize(Forest.serialize());
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numTrees(), Forest.numTrees());
  Dataset Queries = cleanDataset(120, 33);
  for (const Example &Ex : Queries.examples()) {
    EXPECT_EQ(Loaded->predict(Ex.Features), Forest.predict(Ex.Features));
    auto A = Forest.scores(Ex.Features);
    auto B = Loaded->scores(Ex.Features);
    for (unsigned F = 0; F < MaxUnrollFactor; ++F)
      EXPECT_EQ(A[F], B[F]);
  }
}

TEST(ForestIoTest, SerializationIsStable) {
  Dataset Train = cleanDataset(80, 34);
  RandomForestClassifier Forest(firstTwoFeatures());
  Forest.train(Train);
  std::string First = Forest.serialize();
  std::optional<RandomForestClassifier> Loaded =
      RandomForestClassifier::deserialize(First);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->serialize(), First);
}

TEST(ForestIoTest, RejectsTruncatedInputWithDiagnostic) {
  Dataset Train = cleanDataset(60, 35);
  RandomForestClassifier Forest(firstTwoFeatures());
  Forest.train(Train);
  std::string Good = Forest.serialize();
  std::string Error;
  EXPECT_FALSE(RandomForestClassifier::deserialize("", &Error).has_value());
  EXPECT_FALSE(Error.empty());
  Error.clear();
  EXPECT_FALSE(
      RandomForestClassifier::deserialize(Good.substr(0, Good.size() / 2),
                                          &Error)
          .has_value());
  EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;
}

TEST(ForestIoTest, RejectsChecksumTamperWithDiagnostic) {
  Dataset Train = cleanDataset(60, 36);
  RandomForestClassifier Forest(firstTwoFeatures());
  Forest.train(Train);
  std::string Tampered = Forest.serialize();
  size_t At = Tampered.find("options");
  ASSERT_NE(At, std::string::npos);
  Tampered[At] = 'O';
  std::string Error;
  EXPECT_FALSE(
      RandomForestClassifier::deserialize(Tampered, &Error).has_value());
  EXPECT_NE(Error.find("checksum mismatch"), std::string::npos) << Error;
}

TEST(ForestIoTest, RejectsBadTreeCountWithDiagnostic) {
  Dataset Train = cleanDataset(60, 37);
  RandomForestOptions Options;
  Options.NumTrees = 4;
  RandomForestClassifier Forest(firstTwoFeatures(), Options);
  Forest.train(Train);
  std::string Good = Forest.serialize();
  std::string Error;
  // Zero trees, resealed: structurally invalid.
  EXPECT_FALSE(RandomForestClassifier::deserialize(
                   resealChecksum(Good, "trees 4\n", "trees 0\n"), &Error)
                   .has_value());
  EXPECT_NE(Error.find("tree count"), std::string::npos) << Error;
  // A count disagreeing with the options header is equally rejected.
  Error.clear();
  EXPECT_FALSE(RandomForestClassifier::deserialize(
                   resealChecksum(Good, "trees 4\n", "trees 3\n"), &Error)
                   .has_value());
  EXPECT_NE(Error.find("tree count"), std::string::npos) << Error;
}

TEST(ForestIoTest, RejectsTamperedEmbeddedTreeWithDiagnostic) {
  Dataset Train = cleanDataset(60, 38);
  RandomForestOptions Options;
  Options.NumTrees = 2;
  RandomForestClassifier Forest(firstTwoFeatures(), Options);
  Forest.train(Train);
  // Corrupt the first embedded tree's header; the frame still parses, so
  // the failure must come from the per-tree deserializer.
  std::string Bad = resealChecksum(Forest.serialize(), "dtree-model 1",
                                   "dtree-model 9");
  std::string Error;
  EXPECT_FALSE(RandomForestClassifier::deserialize(Bad, &Error).has_value());
  EXPECT_NE(Error.find("tree"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// Classifier family table
//===----------------------------------------------------------------------===//

TEST(RegistryTest, AllBuiltinsAreRegistered) {
  std::span<const ClassifierFamily> Families = classifierFamilies();
  ASSERT_FALSE(Families.empty());
  for (const ClassifierFamily &Family : Families) {
    EXPECT_EQ(findClassifierFamily(Family.Name), &Family) << Family.Name;
    EXPECT_EQ(findClassifierFamily(Family.spelling()), &Family)
        << Family.Name;
    EXPECT_NE(Family.Make, nullptr) << Family.Name;
    EXPECT_NE(Family.Loocv, nullptr) << Family.Name;
    // Usage and error messages list exactly the servable spellings.
    std::string Listed = "|" + servableClassifierSpellings("|") + "|";
    EXPECT_EQ(Listed.find("|" + std::string(Family.spelling()) + "|") !=
                  std::string::npos,
              Family.servable())
        << Family.Name;
  }
  EXPECT_EQ(findClassifierFamily("no-such-family"), nullptr);
}

TEST(RegistryTest, EveryRowBuildsItsNameAndCrossValidates) {
  Dataset Data = cleanDataset(40, 25, 0.1);
  for (const ClassifierFamily &Family : classifierFamilies()) {
    SCOPED_TRACE(Family.Name);
    EXPECT_EQ(Family.Make(firstTwoFeatures())->name(), Family.Name);
    std::vector<unsigned> Loocv = Family.Loocv(firstTwoFeatures(), Data);
    ASSERT_EQ(Loocv.size(), Data.size());
    for (unsigned Factor : Loocv) {
      EXPECT_GE(Factor, 1u);
      EXPECT_LE(Factor, MaxUnrollFactor);
    }
  }
}

TEST(RegistryTest, RestoresEveryBuiltinPolymorphically) {
  Dataset Train = cleanDataset(100, 23);
  Dataset Queries = cleanDataset(60, 24);
  for (const ClassifierFamily &Family : classifierFamilies()) {
    if (!Family.servable())
      continue;
    std::unique_ptr<Classifier> Model = Family.Make(firstTwoFeatures());
    Model->train(Train);
    std::unique_ptr<Classifier> Loaded =
        deserializeClassifier(Model->serialize(), Model->name());
    ASSERT_NE(Loaded, nullptr) << Model->name();
    EXPECT_EQ(Loaded->name(), Model->name());
    for (const Example &Ex : Queries.examples())
      EXPECT_EQ(Loaded->predict(Ex.Features), Model->predict(Ex.Features))
          << Model->name();
  }
}

//===----------------------------------------------------------------------===//
// K-fold cross-validation
//===----------------------------------------------------------------------===//

TEST(KFoldTest, AgreesWithLoocvOnCleanData) {
  Dataset Data = cleanDataset(300, 11);
  ClassifierFactory Factory = [](const FeatureSet &F) {
    return std::make_unique<NearNeighborClassifier>(F, 0.3);
  };
  std::vector<unsigned> KFold =
      kFoldPredictions(Factory, firstTwoFeatures(), Data, 10);
  NearNeighborClassifier Nn(firstTwoFeatures(), 0.3);
  std::vector<unsigned> Loocv = loocvPredictions(Nn, Data);
  double KAcc = predictionAccuracy(Data, KFold);
  double LAcc = predictionAccuracy(Data, Loocv);
  EXPECT_NEAR(KAcc, LAcc, 0.05);
  EXPECT_GT(KAcc, 0.85);
}

TEST(KFoldTest, DeterministicForFixedSeed) {
  Dataset Data = cleanDataset(100, 12, 0.2);
  ClassifierFactory Factory = [](const FeatureSet &F) {
    return std::make_unique<NearNeighborClassifier>(F, 0.3);
  };
  std::vector<unsigned> A =
      kFoldPredictions(Factory, firstTwoFeatures(), Data, 5, 42);
  std::vector<unsigned> B =
      kFoldPredictions(Factory, firstTwoFeatures(), Data, 5, 42);
  EXPECT_EQ(A, B);
}

TEST(KFoldTest, EveryExampleGetsPredicted) {
  Dataset Data = cleanDataset(97, 13); // Not divisible by K.
  ClassifierFactory Factory = [](const FeatureSet &F) {
    return std::make_unique<NearNeighborClassifier>(F, 0.3);
  };
  std::vector<unsigned> Pred =
      kFoldPredictions(Factory, firstTwoFeatures(), Data, 7);
  ASSERT_EQ(Pred.size(), Data.size());
  for (unsigned Factor : Pred) {
    EXPECT_GE(Factor, 1u);
    EXPECT_LE(Factor, MaxUnrollFactor);
  }
}

//===----------------------------------------------------------------------===//
// Confusion matrix
//===----------------------------------------------------------------------===//

TEST(ConfusionTest, CountsSumToDatasetSize) {
  Dataset Data = cleanDataset(200, 14, 0.3);
  NearNeighborClassifier Nn(firstTwoFeatures(), 0.3);
  std::vector<unsigned> Pred = loocvPredictions(Nn, Data);
  ConfusionMatrix Confusion = confusionMatrix(Data, Pred);
  size_t Total = 0, Diagonal = 0;
  for (unsigned R = 0; R < MaxUnrollFactor; ++R)
    for (unsigned C = 0; C < MaxUnrollFactor; ++C) {
      Total += Confusion[R][C];
      if (R == C)
        Diagonal += Confusion[R][C];
    }
  EXPECT_EQ(Total, Data.size());
  EXPECT_NEAR(static_cast<double>(Diagonal) / Total,
              predictionAccuracy(Data, Pred), 1e-12);
}

TEST(ConfusionTest, PerfectPredictionsAreDiagonal) {
  Dataset Data = cleanDataset(80, 15);
  std::vector<unsigned> Perfect;
  for (const Example &Ex : Data.examples())
    Perfect.push_back(Ex.Label);
  ConfusionMatrix Confusion = confusionMatrix(Data, Perfect);
  for (unsigned R = 0; R < MaxUnrollFactor; ++R)
    for (unsigned C = 0; C < MaxUnrollFactor; ++C)
      if (R != C) {
        EXPECT_EQ(Confusion[R][C], 0u);
      }
}

TEST(ConfusionTest, RenderedTableContainsCounts) {
  Dataset Data = cleanDataset(50, 16);
  std::vector<unsigned> Pred(Data.size(), 3);
  ConfusionMatrix Confusion = confusionMatrix(Data, Pred);
  std::string Text = renderConfusionMatrix(Confusion);
  EXPECT_NE(Text.find("u3"), std::string::npos);
  EXPECT_NE(Text.find("Confusion matrix"), std::string::npos);
}
