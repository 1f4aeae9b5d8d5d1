//===- tests/serve_test.cpp - Model bundles and the serving stack ---------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// Covers the serving subsystem bottom-up: the JSON wire codec, the model
// bundle container (round trips plus wholesale rejection of corrupt,
// truncated, and version-mismatched files, mirroring cache_test.cpp), the
// batched PredictionService and its byte-identity / backpressure /
// deadline contracts, the wire protocol, and a full daemon loopback over
// a real unix socket.
//
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "core/driver/Pipeline.h"
#include "core/features/FeatureExtractor.h"
#include "core/ml/NearNeighbor.h"
#include "core/ml/OutputCode.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/ModelBundle.h"
#include "serve/PredictionService.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace metaopt;

namespace {

Dataset cleanDataset(size_t N, uint64_t Seed) {
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
    Ex.Label = 1 + (F0 > 0 ? 1 : 0) + (F1 > 0 ? 2 : 0);
    for (unsigned F = 0; F < MaxUnrollFactor; ++F)
      Ex.CyclesPerFactor[F] = 1000.0 + 10.0 * F;
    Ex.LoopName = "loop" + std::to_string(I);
    Ex.BenchmarkName = "bench" + std::to_string(I % 4);
    Data.add(std::move(Ex));
  }
  return Data;
}

FeatureSet firstThreeFeatures() {
  return {static_cast<FeatureId>(0), static_cast<FeatureId>(1),
          static_cast<FeatureId>(2)};
}

/// A trained bundle of \p Family over the synthetic dataset.
ModelBundle makeFamilyBundle(const ClassifierFamily &Family, size_t N = 80,
                             uint64_t Seed = 7) {
  Dataset Data = cleanDataset(N, Seed);
  std::unique_ptr<Classifier> Model = Family.Make(firstThreeFeatures());
  Model->train(Data);
  ModelBundle Bundle;
  Bundle.Provenance.ClassifierName = Model->name();
  Bundle.Provenance.CreatedBy = "serve_test";
  Bundle.Provenance.MachineName = "itanium2";
  Bundle.Provenance.CorpusSeed = Seed;
  Bundle.Provenance.CorpusFingerprint = "deadbeef";
  Bundle.Provenance.TrainingExamples = N;
  Bundle.Provenance.CvMethod = "none";
  Bundle.Features = firstThreeFeatures();
  Bundle.ClassifierBlob = Model->serialize();
  return Bundle;
}

/// A trained-NN bundle over the synthetic dataset.
ModelBundle makeNnBundle(size_t N = 80, uint64_t Seed = 7) {
  return makeFamilyBundle(*findClassifierFamily("near-neighbor"), N, Seed);
}

std::string freshDir(const std::string &Name) {
  // Keyed by pid: ctest runs each test in its own process, possibly in
  // parallel, and remove_all on a shared path would wipe a sibling
  // test's live socket or bundle.
  std::string Dir = ::testing::TempDir() + "/metaopt_serve_test_" +
                    std::to_string(::getpid()) + "_" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

const char *ValidLoop = R"(loop "t.axpy" lang=C nest=1 trip=1024 rtrip=1024 {
  %f_x = load @0[stride=8, offset=0, size=8]
  %f_y = load @1[stride=8, offset=0, size=8]
  %f_ax = fmul %f_x, %f_a
  %f_s = fadd %f_ax, %f_y
  store %f_s, @1[stride=8, offset=0, size=8]
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
}
)";

const char *SecondLoop = R"(loop "t.scan" lang=C nest=1 trip=-1 rtrip=500 {
  %i_v = load @0[stride=4, offset=0, size=4]
  %p_hit = icmp %i_v, %i_needle
  exit_if %p_hit prob=0.01
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
}
)";

} // namespace

//===----------------------------------------------------------------------===//
// JSON codec
//===----------------------------------------------------------------------===//

TEST(JsonTest, ParsesScalarsAndContainers) {
  std::optional<JsonValue> Doc = parseJson(
      R"({"a": 1.5, "b": "x\ny", "c": [1, 2, 3], "d": true, "e": null})");
  ASSERT_TRUE(Doc.has_value());
  ASSERT_TRUE(Doc->isObject());
  EXPECT_EQ(Doc->getNumber("a", 0), 1.5);
  EXPECT_EQ(Doc->getString("b"), "x\ny");
  ASSERT_TRUE(Doc->get("c")->isArray());
  EXPECT_EQ(Doc->get("c")->Items.size(), 3u);
  EXPECT_TRUE(Doc->getBool("d", false));
  EXPECT_TRUE(Doc->get("e")->isNull());
}

TEST(JsonTest, DecodesUnicodeEscapes) {
  std::optional<JsonValue> Doc = parseJson(R"({"s": "Aé"})");
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->getString("s"), "A\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(parseJson("").has_value());
  EXPECT_FALSE(parseJson("{").has_value());
  EXPECT_FALSE(parseJson("{\"a\": }").has_value());
  EXPECT_FALSE(parseJson("{} trailing").has_value());
  EXPECT_FALSE(parseJson("nul").has_value());
  EXPECT_FALSE(parseJson("{\"a\": 1e999}").has_value()); // Non-finite.
  EXPECT_FALSE(parseJson("\"raw\ncontrol\"").has_value());
  std::string Deep(200, '[');
  EXPECT_FALSE(parseJson(Deep).has_value());
}

TEST(JsonTest, DuplicateKeysKeepTheLast) {
  std::optional<JsonValue> Doc = parseJson(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->getInt("k", 0), 2);
}

TEST(JsonTest, WriterTracksCommasAndEscapes) {
  JsonWriter W;
  W.beginObject();
  W.key("s").str("a\"b\n");
  W.key("n").number(static_cast<int64_t>(42));
  W.key("f").number(2.5);
  W.key("list").beginArray();
  W.number(static_cast<int64_t>(1));
  W.boolean(false);
  W.null();
  W.endArray();
  W.endObject();
  EXPECT_EQ(W.text(),
            R"({"s":"a\"b\n","n":42,"f":2.5,"list":[1,false,null]})");
  // The writer's output must parse back with its own parser.
  EXPECT_TRUE(parseJson(W.text()).has_value());
}

TEST(JsonTest, NumbersRoundTripThroughWriterAndParser) {
  for (double Value : {0.0, 1.0, -17.0, 0.1, 1e-9, 3.141592653589793,
                       1e15, 123456789.875}) {
    JsonWriter W;
    W.beginArray();
    W.number(Value);
    W.endArray();
    std::optional<JsonValue> Doc = parseJson(W.text());
    ASSERT_TRUE(Doc.has_value()) << W.text();
    ASSERT_EQ(Doc->Items.size(), 1u);
    EXPECT_EQ(Doc->Items[0].Number, Value) << W.text();
  }
}

//===----------------------------------------------------------------------===//
// Model bundle container
//===----------------------------------------------------------------------===//

TEST(ModelBundleTest, InMemoryRoundTripPreservesEverything) {
  ModelBundle Bundle = makeNnBundle();
  std::string Error;
  std::optional<ModelBundle> Loaded =
      parseBundle(serializeBundle(Bundle), &Error);
  ASSERT_TRUE(Loaded.has_value()) << Error;
  EXPECT_EQ(Loaded->Provenance.ClassifierName, "near-neighbor");
  EXPECT_EQ(Loaded->Provenance.CreatedBy, "serve_test");
  EXPECT_EQ(Loaded->Provenance.CorpusSeed, 7u);
  EXPECT_EQ(Loaded->Provenance.CorpusFingerprint, "deadbeef");
  EXPECT_EQ(Loaded->Provenance.TrainingExamples, 80u);
  EXPECT_EQ(Loaded->Features, Bundle.Features);
  EXPECT_EQ(Loaded->ClassifierBlob, Bundle.ClassifierBlob);
}

TEST(ModelBundleTest, InstantiatedClassifierPredictsIdentically) {
  Dataset Data = cleanDataset(80, 7);
  NearNeighborClassifier Nn(firstThreeFeatures());
  Nn.train(Data);
  ModelBundle Bundle = makeNnBundle();
  std::optional<ModelBundle> Loaded = parseBundle(serializeBundle(Bundle));
  ASSERT_TRUE(Loaded.has_value());
  std::unique_ptr<Classifier> Restored = Loaded->instantiate();
  ASSERT_NE(Restored, nullptr);
  for (const Example &Ex : Data.examples()) {
    EXPECT_EQ(Restored->predict(Ex.Features), Nn.predict(Ex.Features));
    EXPECT_EQ(Restored->scores(Ex.Features), Nn.scores(Ex.Features));
  }
}

TEST(ModelBundleTest, SvmBundleRoundTrips) {
  Dataset Data = cleanDataset(60, 11);
  SvmClassifier Svm(firstThreeFeatures());
  Svm.train(Data);
  ModelBundle Bundle;
  Bundle.Provenance.ClassifierName = Svm.name();
  Bundle.Features = firstThreeFeatures();
  Bundle.ClassifierBlob = Svm.serialize();
  std::optional<ModelBundle> Loaded = parseBundle(serializeBundle(Bundle));
  ASSERT_TRUE(Loaded.has_value());
  std::unique_ptr<Classifier> Restored = Loaded->instantiate();
  ASSERT_NE(Restored, nullptr);
  for (const Example &Ex : Data.examples())
    EXPECT_EQ(Restored->predict(Ex.Features), Svm.predict(Ex.Features));
}

TEST(ModelBundleTest, FileRoundTripAndInspect) {
  std::string Dir = freshDir("file_roundtrip");
  std::string Path = Dir + "/model.bundle";
  ModelBundle Bundle = makeNnBundle();
  std::string Error;
  ASSERT_TRUE(saveBundleFile(Bundle, Path, &Error)) << Error;
  // No temp file of the atomic publish may linger.
  std::vector<std::string> Left;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Left.push_back(Entry.path().filename().string());
  EXPECT_EQ(Left, std::vector<std::string>{"model.bundle"});

  std::optional<ModelBundle> Loaded = loadBundleFile(Path, &Error);
  ASSERT_TRUE(Loaded.has_value()) << Error;
  EXPECT_EQ(Loaded->ClassifierBlob, Bundle.ClassifierBlob);

  ModelBundleInfo Info = inspectBundleFile(Path);
  EXPECT_TRUE(Info.Valid);
  EXPECT_EQ(Info.Version, ModelBundleFileVersion);
  EXPECT_EQ(Info.Provenance.ClassifierName, "near-neighbor");
  EXPECT_EQ(Info.FeatureCount, 3u);
}

TEST(ModelBundleTest, RejectsMissingAndEmptyFiles) {
  std::string Dir = freshDir("missing");
  ModelBundleInfo Info = inspectBundleFile(Dir + "/nope.bundle");
  EXPECT_FALSE(Info.Valid);
  EXPECT_NE(Info.Error.find("missing"), std::string::npos);
}

TEST(ModelBundleTest, RejectsCorruptTruncatedAndMismatchedFiles) {
  std::string Content = serializeBundle(makeNnBundle());

  // Flip one payload byte: checksum mismatch.
  {
    std::string Corrupt = Content;
    Corrupt[Corrupt.size() / 2] ^= 0x20;
    std::string Error;
    EXPECT_FALSE(parseBundle(Corrupt, &Error).has_value());
    EXPECT_NE(Error.find("checksum"), std::string::npos) << Error;
  }
  // Truncate the payload: size mismatch.
  {
    std::string Error;
    EXPECT_FALSE(
        parseBundle(Content.substr(0, Content.size() - 7), &Error)
            .has_value());
    EXPECT_NE(Error.find("size"), std::string::npos) << Error;
  }
  // Truncate into the header.
  {
    std::string Error;
    EXPECT_FALSE(parseBundle(Content.substr(0, 10), &Error).has_value());
    EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;
  }
  // Bump the version field (byte 8, little-endian).
  {
    std::string Mismatched = Content;
    Mismatched[8] = static_cast<char>(ModelBundleFileVersion + 1);
    std::string Error;
    EXPECT_FALSE(parseBundle(Mismatched, &Error).has_value());
    EXPECT_NE(Error.find("version mismatch"), std::string::npos) << Error;
  }
  // Foreign magic.
  {
    std::string Foreign = Content;
    Foreign[0] = 'X';
    std::string Error;
    EXPECT_FALSE(parseBundle(Foreign, &Error).has_value());
    EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
  }
}

TEST(ModelBundleTest, RejectsTamperedClassifierBlobEvenWithValidChecksum) {
  // An attacker-free scenario: a *rebuilt* container around a garbage
  // blob passes the checksum but must still fail to instantiate.
  ModelBundle Bundle = makeNnBundle();
  Bundle.ClassifierBlob = "nn-model 999\ngarbage\n";
  std::optional<ModelBundle> Loaded = parseBundle(serializeBundle(Bundle));
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->instantiate(), nullptr);
}

TEST(ModelBundleTest, CorpusFingerprintIsStableAndSeedSensitive) {
  CorpusOptions Small;
  Small.MinLoopsPerBenchmark = 2;
  Small.MaxLoopsPerBenchmark = 3;
  std::vector<Benchmark> A = buildCorpus(Small);
  std::vector<Benchmark> B = buildCorpus(Small);
  EXPECT_EQ(fingerprintHex(corpusFingerprint(A)),
            fingerprintHex(corpusFingerprint(B)));

  CorpusOptions Reseeded = Small;
  Reseeded.Seed = Small.Seed + 1;
  std::vector<Benchmark> C = buildCorpus(Reseeded);
  EXPECT_NE(fingerprintHex(corpusFingerprint(A)),
            fingerprintHex(corpusFingerprint(C)));
  EXPECT_EQ(fingerprintHex(corpusFingerprint(A)).size(), 32u);
}

//===----------------------------------------------------------------------===//
// Pipeline-trained bundle equivalence
//===----------------------------------------------------------------------===//

TEST(ModelBundleTest, PipelineBundleMatchesInProcessClassifierOnAllLoops) {
  PipelineOptions Options;
  Options.Corpus.MinLoopsPerBenchmark = 2;
  Options.Corpus.MaxLoopsPerBenchmark = 3;
  Pipeline Pipe(Options);

  NearNeighborClassifier Nn(paperReducedFeatureSet());
  Nn.train(Pipe.dataset(/*EnableSwp=*/false));

  ModelBundle Bundle;
  Bundle.Provenance.ClassifierName = Nn.name();
  Bundle.Features = paperReducedFeatureSet();
  Bundle.ClassifierBlob = Nn.serialize();

  std::string Dir = freshDir("pipeline_bundle");
  std::string Path = Dir + "/model.bundle";
  ASSERT_TRUE(saveBundleFile(Bundle, Path));
  std::optional<ModelBundle> Loaded = loadBundleFile(Path);
  ASSERT_TRUE(Loaded.has_value());
  std::unique_ptr<Classifier> Restored = Loaded->instantiate();
  ASSERT_NE(Restored, nullptr);

  // Every loop of the corpus — not just the labeled subset — must get
  // the identical prediction from the restored model.
  size_t Checked = 0;
  for (const Benchmark &Bench : Pipe.corpus())
    for (const CorpusLoop &Entry : Bench.Loops) {
      FeatureVector Features = extractFeatures(Entry.TheLoop);
      ASSERT_EQ(Restored->predict(Features), Nn.predict(Features))
          << Bench.Name << "/" << Entry.TheLoop.name();
      ++Checked;
    }
  EXPECT_GT(Checked, 100u);
}

//===----------------------------------------------------------------------===//
// PredictionService
//===----------------------------------------------------------------------===//

TEST(PredictionServiceTest, PredictsAndRendersDeterministically) {
  PredictionService Service(makeNnBundle());
  PredictRequest Request;
  Request.LoopText = ValidLoop;
  Request.WantScores = true;
  PredictResponse Response = Service.predict(Request);
  ASSERT_EQ(Response.Status, PredictStatus::Ok);
  ASSERT_EQ(Response.Loops.size(), 1u);
  EXPECT_EQ(Response.Loops[0].LoopName, "t.axpy");
  EXPECT_GE(Response.Loops[0].Factor, 1u);
  EXPECT_LE(Response.Loops[0].Factor, MaxUnrollFactor);

  PredictResponse Unbatched = Service.predictUnbatched(Request);
  EXPECT_EQ(renderPredictResponse("x", Response),
            renderPredictResponse("x", Unbatched));
}

TEST(PredictionServiceTest, BatchedConcurrentEqualsSerialByteForByte) {
  PredictionServiceOptions Options;
  Options.MaxBatch = 8;
  Options.BatchLinger = std::chrono::microseconds(500);
  PredictionService Service(makeNnBundle(), Options);

  std::vector<std::string> Texts = {ValidLoop, SecondLoop,
                                    std::string(ValidLoop) + SecondLoop};
  std::vector<std::string> Reference;
  for (const std::string &Text : Texts) {
    PredictRequest Request;
    Request.LoopText = Text;
    Request.WantScores = true;
    Reference.push_back(
        renderPredictResponse("", Service.predictUnbatched(Request)));
  }

  constexpr int ThreadCount = 8;
  constexpr int PerThread = 25;
  std::vector<std::thread> Threads;
  std::vector<int> Mismatches(ThreadCount, 0);
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        size_t Which = static_cast<size_t>(I) % Texts.size();
        PredictRequest Request;
        Request.LoopText = Texts[Which];
        Request.WantScores = true;
        std::string Rendered =
            renderPredictResponse("", Service.predict(Request));
        if (Rendered != Reference[Which])
          ++Mismatches[T];
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < ThreadCount; ++T)
    EXPECT_EQ(Mismatches[T], 0);

  ServiceStatsSnapshot Stats = Service.stats();
  EXPECT_EQ(Stats.Ok, static_cast<uint64_t>(ThreadCount * PerThread));
  EXPECT_GT(Stats.Batches, 0u);
}

TEST(PredictionServiceTest, ModelZooFamiliesServeByteIdentically) {
  // Every servable family must serve through the same byte-identity
  // contract: the bundle trained at one thread equals the bundle trained
  // at many, and batched predictions render the same JSON as serial ones.
  for (const ClassifierFamily &Family : classifierFamilies()) {
    if (!Family.servable())
      continue;
    SCOPED_TRACE(Family.Name);
    ThreadPool::setGlobalThreads(1);
    ModelBundle Narrow = makeFamilyBundle(Family);
    ThreadPool::setGlobalThreads(4);
    ModelBundle Wide = makeFamilyBundle(Family);
    ThreadPool::setGlobalThreads(0); // Restore the default pool.
    EXPECT_EQ(serializeBundle(Narrow), serializeBundle(Wide));

    PredictionServiceOptions Options;
    Options.MaxBatch = 4;
    Options.BatchLinger = std::chrono::microseconds(200);
    PredictionService Service(Wide, Options);

    std::vector<std::string> Texts = {ValidLoop, SecondLoop,
                                      std::string(ValidLoop) + SecondLoop};
    std::vector<std::string> Reference;
    for (const std::string &Text : Texts) {
      PredictRequest Request;
      Request.LoopText = Text;
      Request.WantScores = true;
      PredictResponse Response = Service.predictUnbatched(Request);
      ASSERT_EQ(Response.Status, PredictStatus::Ok);
      Reference.push_back(renderPredictResponse("", Response));
    }

    constexpr int ThreadCount = 4;
    constexpr int PerThread = 10;
    std::vector<std::thread> Threads;
    std::vector<int> Mismatches(ThreadCount, 0);
    for (int T = 0; T < ThreadCount; ++T)
      Threads.emplace_back([&, T] {
        for (int I = 0; I < PerThread; ++I) {
          size_t Which = static_cast<size_t>(I) % Texts.size();
          PredictRequest Request;
          Request.LoopText = Texts[Which];
          Request.WantScores = true;
          std::string Rendered =
              renderPredictResponse("", Service.predict(Request));
          if (Rendered != Reference[Which])
            ++Mismatches[T];
        }
      });
    for (std::thread &T : Threads)
      T.join();
    for (int T = 0; T < ThreadCount; ++T)
      EXPECT_EQ(Mismatches[T], 0) << "thread " << T;
  }
}

TEST(PredictionServiceTest, RejectsMalformedInputWithDiagnostics) {
  PredictionService Service(makeNnBundle());

  PredictRequest Unparseable;
  Unparseable.LoopText = "loop \"x\" {";
  PredictResponse Response = Service.predict(Unparseable);
  EXPECT_EQ(Response.Status, PredictStatus::Malformed);
  EXPECT_NE(Response.Error.find("line"), std::string::npos);

  // Parses but fails the verifier: a register defined twice. The error
  // must carry the verifier's stable V### diagnostic ID.
  PredictRequest Invalid;
  Invalid.LoopText = R"(loop "bad" lang=C nest=1 trip=8 rtrip=8 {
  %f_y = fadd %f_x, %f_x
  %f_y = fmul %f_x, %f_x
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
}
)";
  Response = Service.predict(Invalid);
  EXPECT_EQ(Response.Status, PredictStatus::Malformed);
  EXPECT_NE(Response.Error.find("[V"), std::string::npos) << Response.Error;

  PredictRequest Empty;
  Empty.LoopText = "# only a comment\n";
  Response = Service.predict(Empty);
  EXPECT_EQ(Response.Status, PredictStatus::Malformed);

  // Values the loop format cannot hold: a NaN exit probability (once
  // answered "ok") and a trip count past int64 (once saturated).
  for (const char *Bad : {"  exit_if %p_c prob=nan\n",
                          "  %i_k = iconst 99999999999999999999\n"}) {
    PredictRequest Unrepresentable;
    Unrepresentable.LoopText =
        "loop \"odd\" lang=C nest=1 trip=8 rtrip=8 {\n"
        "  %p_c = icmp %i_a, %i_b\n" +
        std::string(Bad) +
        "  %i_iv.next = iv_add %i_iv\n"
        "  %p_iv.cond = iv_cmp %i_iv.next\n"
        "  back_br %p_iv.cond\n"
        "}\n";
    Response = Service.predict(Unrepresentable);
    EXPECT_EQ(Response.Status, PredictStatus::Malformed) << Bad;
    EXPECT_NE(Response.Error.find("line 3"), std::string::npos)
        << Response.Error;
    EXPECT_NE(renderPredictResponse("", Response).find("\"malformed\""),
              std::string::npos);
  }
}

TEST(PredictionServiceTest, ExpiredDeadlineIsReported) {
  PredictionServiceOptions Options;
  Options.BatchLinger = std::chrono::microseconds(0);
  PredictionService Service(makeNnBundle(), Options);
  PredictRequest Request;
  Request.LoopText = ValidLoop;
  Request.Deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  PredictResponse Response = Service.predict(Request);
  EXPECT_EQ(Response.Status, PredictStatus::DeadlineExceeded);
  EXPECT_EQ(Service.stats().DeadlineExceeded, 1u);
}

TEST(PredictionServiceTest, FullQueueRefusesWithOverloaded) {
  PredictionServiceOptions Options;
  // MaxQueue below MaxBatch: batches never fill, so the dispatcher sits
  // out the whole linger while we flood the two-slot queue.
  Options.MaxBatch = 4;
  Options.MaxQueue = 2;
  Options.BatchLinger = std::chrono::microseconds(50000);
  PredictionService Service(makeNnBundle(), Options);

  std::vector<std::future<PredictResponse>> Futures;
  for (int I = 0; I < 40; ++I) {
    PredictRequest Request;
    Request.LoopText = ValidLoop;
    Futures.push_back(Service.submit(Request));
  }
  size_t Overloaded = 0, Answered = 0;
  for (auto &Future : Futures) {
    PredictResponse Response = Future.get();
    if (Response.Status == PredictStatus::Overloaded)
      ++Overloaded;
    else if (Response.Status == PredictStatus::Ok)
      ++Answered;
  }
  EXPECT_GT(Overloaded, 0u);
  EXPECT_GT(Answered, 0u);
  EXPECT_EQ(Service.stats().Overloaded, Overloaded);
}

TEST(PredictionServiceTest, ShutdownDrainsQueuedRequestsThenRefuses) {
  PredictionServiceOptions Options;
  Options.BatchLinger = std::chrono::microseconds(20000);
  PredictionService Service(makeNnBundle(), Options);

  std::vector<std::future<PredictResponse>> Futures;
  for (int I = 0; I < 10; ++I) {
    PredictRequest Request;
    Request.LoopText = ValidLoop;
    Futures.push_back(Service.submit(Request));
  }
  Service.shutdown();
  for (auto &Future : Futures)
    EXPECT_EQ(Future.get().Status, PredictStatus::Ok);

  PredictRequest Late;
  Late.LoopText = ValidLoop;
  EXPECT_EQ(Service.predict(Late).Status, PredictStatus::ShuttingDown);
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, RequestLinesRoundTrip) {
  WireRequest Request;
  Request.TheOp = WireRequest::Op::Predict;
  Request.Id = "req-17";
  Request.LoopText = ValidLoop;
  Request.WantScores = true;
  Request.DeadlineMs = 250;

  std::optional<WireRequest> Parsed =
      parseRequestLine(renderRequestLine(Request));
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->TheOp, WireRequest::Op::Predict);
  EXPECT_EQ(Parsed->Id, "req-17");
  EXPECT_EQ(Parsed->LoopText, ValidLoop);
  EXPECT_TRUE(Parsed->WantScores);
  EXPECT_EQ(Parsed->DeadlineMs, 250);

  for (WireRequest::Op Op :
       {WireRequest::Op::Health, WireRequest::Op::Stats,
        WireRequest::Op::Shutdown}) {
    WireRequest Admin;
    Admin.TheOp = Op;
    std::optional<WireRequest> AdminParsed =
        parseRequestLine(renderRequestLine(Admin));
    ASSERT_TRUE(AdminParsed.has_value());
    EXPECT_EQ(AdminParsed->TheOp, Op);
  }
}

TEST(ProtocolTest, RejectsInvalidRequests) {
  std::string Error;
  EXPECT_FALSE(parseRequestLine("not json", &Error).has_value());
  EXPECT_FALSE(parseRequestLine("[1,2]", &Error).has_value());
  EXPECT_FALSE(parseRequestLine("{}", &Error).has_value());
  EXPECT_NE(Error.find("op"), std::string::npos);
  EXPECT_FALSE(
      parseRequestLine(R"({"op":"predict"})", &Error).has_value());
  EXPECT_NE(Error.find("loop"), std::string::npos);
  EXPECT_FALSE(parseRequestLine(R"({"op":"teleport"})", &Error)
                   .has_value());
  EXPECT_FALSE(
      parseRequestLine(R"({"op":"predict","loop":"x","deadline_ms":-1})",
                       &Error)
          .has_value());
}

TEST(ProtocolTest, ResponsesAreParseableJson) {
  PredictionService Service(makeNnBundle());
  PredictRequest Request;
  Request.LoopText = ValidLoop;
  Request.WantScores = true;
  std::string Line =
      renderPredictResponse("id1", Service.predict(Request));
  std::optional<JsonValue> Doc = parseJson(Line);
  ASSERT_TRUE(Doc.has_value()) << Line;
  EXPECT_EQ(Doc->getString("status"), "ok");
  EXPECT_EQ(Doc->getString("id"), "id1");
  const JsonValue *Loops = Doc->get("loops");
  ASSERT_NE(Loops, nullptr);
  ASSERT_EQ(Loops->Items.size(), 1u);
  EXPECT_EQ(Loops->Items[0].getString("name"), "t.axpy");
  ASSERT_NE(Loops->Items[0].get("scores"), nullptr);
  EXPECT_EQ(Loops->Items[0].get("scores")->Items.size(),
            static_cast<size_t>(MaxUnrollFactor));

  EXPECT_TRUE(parseJson(renderHealthResponse("", Service.bundle()))
                  .has_value());
  EXPECT_TRUE(parseJson(renderHealthResponse("", Service.bundle(),
                                             Service.bundleChecksum()))
                  .has_value());
  ServerStatsExtra Extra;
  Extra.ConnectionsAccepted = 3;
  Extra.ConnectionsOpen = 1;
  EXPECT_TRUE(
      parseJson(renderStatsResponse("", Service.stats(), Extra)).has_value());
  EXPECT_TRUE(parseJson(renderErrorResponse("", "bad-request", "why"))
                  .has_value());
}

//===----------------------------------------------------------------------===//
// Latency histogram
//===----------------------------------------------------------------------===//

TEST(MetricsTest, SnapshotsAreNeverTornUnderConcurrentLoad) {
  PredictionServiceOptions Options;
  Options.MaxBatch = 4;
  Options.BatchLinger = std::chrono::microseconds(200);
  PredictionService Service(makeNnBundle(), Options);

  // A sampler races the load and asserts the documented snapshot
  // invariants; with torn (per-counter atomic) reads these fail within a
  // handful of samples.
  std::atomic<bool> Done{false};
  std::atomic<int> Violations{0};
  std::thread Sampler([&] {
    while (!Done.load(std::memory_order_acquire)) {
      ServiceStatsSnapshot S = Service.stats();
      if (S.Received != S.Completed + static_cast<uint64_t>(S.QueueDepth) +
                            static_cast<uint64_t>(S.InFlight))
        ++Violations;
      if (S.Completed != S.Ok + S.Malformed + S.DeadlineExceeded)
        ++Violations;
      if (S.LatencySamples != S.Completed)
        ++Violations;
    }
  });

  constexpr int ThreadCount = 6;
  constexpr int PerThread = 50;
  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I) {
        PredictRequest Request;
        Request.LoopText = (I % 5 == 0) ? "not a loop" : ValidLoop;
        Service.predict(Request);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Done.store(true, std::memory_order_release);
  Sampler.join();
  EXPECT_EQ(Violations.load(), 0);

  ServiceStatsSnapshot Final = Service.stats();
  EXPECT_EQ(Final.QueueDepth, 0);
  EXPECT_EQ(Final.InFlight, 0);
  EXPECT_EQ(Final.Received, Final.Completed);
  EXPECT_EQ(Final.Received,
            static_cast<uint64_t>(ThreadCount) * PerThread);
  EXPECT_EQ(Final.LatencySamples, Final.Completed);
  EXPECT_GT(Final.Malformed, 0u);
}

TEST(MetricsTest, HistogramPercentilesAreMonotoneAndBounded) {
  LatencyHistogram Hist;
  EXPECT_EQ(Hist.percentileMicros(0.5), 0);
  for (int I = 1; I <= 1000; ++I)
    Hist.record(static_cast<double>(I));
  EXPECT_EQ(Hist.count(), 1000u);
  double P50 = Hist.percentileMicros(0.50);
  double P95 = Hist.percentileMicros(0.95);
  double P99 = Hist.percentileMicros(0.99);
  EXPECT_LE(P50, P95);
  EXPECT_LE(P95, P99);
  // Bucket edges are powers of two: the true p50 (500) lands in
  // (256, 512], the tail in (512, 1024].
  EXPECT_EQ(P50, 512);
  EXPECT_EQ(P99, 1024);
  EXPECT_NEAR(Hist.meanMicros(), 500.0, 1.0);
}

//===----------------------------------------------------------------------===//
// Daemon loopback over a real socket
//===----------------------------------------------------------------------===//

namespace {

/// Runs a Server on a fresh socket in a helper thread.
class ServerFixture {
public:
  explicit ServerFixture(ServerOptions Options = {}) {
    serverStopFlag().store(false);
    Options.SocketPath =
        freshDir("daemon") + "/mo-" + std::to_string(::getpid()) + ".sock";
    Path = Options.SocketPath;
    Daemon = std::make_unique<Server>(makeNnBundle(), Options);
    Runner = std::thread([this] { Ok = Daemon->run(&Error); });
    // Wait for the socket to be bound.
    for (int I = 0; I < 500 && !Daemon->listening(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  ~ServerFixture() {
    Daemon->requestStop();
    if (Runner.joinable())
      Runner.join();
  }

  std::string Path;
  std::unique_ptr<Server> Daemon;
  std::thread Runner;
  bool Ok = false;
  std::string Error;
};

} // namespace

TEST(ServerTest, ServesPredictHealthAndStatsOverTheSocket) {
  ServerFixture Fixture;
  ASSERT_TRUE(Fixture.Daemon->listening()) << Fixture.Error;

  ServeClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connectWithRetry(Fixture.Path, 2000, &Error))
      << Error;

  WireRequest Predict;
  Predict.TheOp = WireRequest::Op::Predict;
  Predict.LoopText = ValidLoop;
  std::optional<std::string> Line = Client.request(Predict, &Error);
  ASSERT_TRUE(Line.has_value()) << Error;
  std::optional<JsonValue> Doc = parseJson(*Line);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->getString("status"), "ok");

  WireRequest Health;
  Health.TheOp = WireRequest::Op::Health;
  Line = Client.request(Health, &Error);
  ASSERT_TRUE(Line.has_value()) << Error;
  Doc = parseJson(*Line);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->getString("classifier"), "near-neighbor");

  WireRequest Stats;
  Stats.TheOp = WireRequest::Op::Stats;
  Line = Client.request(Stats, &Error);
  ASSERT_TRUE(Line.has_value()) << Error;
  Doc = parseJson(*Line);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_GE(Doc->getInt("completed", 0), 1);

  // Unparseable request lines get a bad-request response, not a close.
  Line = Client.roundTrip("this is not json", &Error);
  ASSERT_TRUE(Line.has_value()) << Error;
  Doc = parseJson(*Line);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->getString("status"), "bad-request");
}

TEST(ServerTest, ConcurrentClientsGetByteIdenticalResponses) {
  ServerFixture Fixture;
  ASSERT_TRUE(Fixture.Daemon->listening()) << Fixture.Error;

  WireRequest Predict;
  Predict.TheOp = WireRequest::Op::Predict;
  Predict.LoopText = ValidLoop;
  Predict.WantScores = true;

  std::string Reference;
  {
    ServeClient Client;
    ASSERT_TRUE(Client.connectWithRetry(Fixture.Path, 2000));
    std::optional<std::string> Line = Client.request(Predict);
    ASSERT_TRUE(Line.has_value());
    Reference = *Line;
  }

  constexpr int ClientCount = 16;
  constexpr int PerClient = 10;
  std::vector<std::thread> Threads;
  std::vector<int> Mismatches(ClientCount, 0);
  for (int C = 0; C < ClientCount; ++C)
    Threads.emplace_back([&, C] {
      ServeClient Client;
      if (!Client.connectWithRetry(Fixture.Path, 2000)) {
        Mismatches[C] = PerClient;
        return;
      }
      for (int I = 0; I < PerClient; ++I) {
        std::optional<std::string> Line = Client.request(Predict);
        if (!Line || *Line != Reference)
          ++Mismatches[C];
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int C = 0; C < ClientCount; ++C)
    EXPECT_EQ(Mismatches[C], 0) << "client " << C;
}

TEST(ServerTest, ShutdownOpDrainsAndStopsTheDaemon) {
  ServerFixture Fixture;
  ASSERT_TRUE(Fixture.Daemon->listening()) << Fixture.Error;

  ServeClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connectWithRetry(Fixture.Path, 2000, &Error))
      << Error;
  WireRequest Shutdown;
  Shutdown.TheOp = WireRequest::Op::Shutdown;
  std::optional<std::string> Line = Client.request(Shutdown, &Error);
  ASSERT_TRUE(Line.has_value()) << Error;
  std::optional<JsonValue> Doc = parseJson(*Line);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->getString("status"), "ok");
  Client.close();

  if (Fixture.Runner.joinable())
    Fixture.Runner.join();
  EXPECT_TRUE(Fixture.Ok) << Fixture.Error;
  // A drained daemon removes its socket file.
  EXPECT_FALSE(std::filesystem::exists(Fixture.Path));
}

//===----------------------------------------------------------------------===//
// Transport hardening: TCP, framing edges, deadlines
//===----------------------------------------------------------------------===//

namespace {

/// Reads one '\n'-terminated line from a raw socket. False on EOF or
/// error (the server closed the connection).
bool readLineRaw(int Fd, std::string &Out) {
  Out.clear();
  char C;
  while (true) {
    ssize_t N = ::recv(Fd, &C, 1, 0);
    if (N <= 0)
      return false;
    if (C == '\n')
      return true;
    Out.push_back(C);
  }
}

bool sendAll(int Fd, const std::string &Bytes) {
  size_t Sent = 0;
  while (Sent < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                       MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Sent += static_cast<size_t>(N);
  }
  return true;
}

/// One server-side counter from a fresh stats connection.
int64_t statsCounter(const std::string &SocketPath, const char *Key) {
  ServeClient Probe;
  if (!Probe.connectWithRetry(SocketPath, 2000))
    return -1;
  WireRequest Stats;
  Stats.TheOp = WireRequest::Op::Stats;
  std::optional<std::string> Line = Probe.request(Stats);
  if (!Line)
    return -1;
  std::optional<JsonValue> Doc = parseJson(*Line);
  return Doc ? Doc->getInt(Key, -1) : -1;
}

} // namespace

TEST(TransportTest, TcpListenerServesTheSameProtocolByteForByte) {
  ServerOptions Options;
  Options.TcpPort = 0; // Ephemeral.
  ServerFixture Fixture(Options);
  ASSERT_TRUE(Fixture.Daemon->listening()) << Fixture.Error;
  int Port = Fixture.Daemon->boundTcpPort();
  ASSERT_GT(Port, 0);

  WireRequest Predict;
  Predict.TheOp = WireRequest::Op::Predict;
  Predict.LoopText = ValidLoop;
  Predict.WantScores = true;

  ServeClient UnixClient, TcpClient;
  std::string Error;
  ASSERT_TRUE(UnixClient.connectWithRetry(Fixture.Path, 2000, &Error))
      << Error;
  ASSERT_TRUE(TcpClient.connectWithRetry(
      "127.0.0.1:" + std::to_string(Port), 2000, &Error))
      << Error;

  std::optional<std::string> ViaUnix = UnixClient.request(Predict, &Error);
  std::optional<std::string> ViaTcp = TcpClient.request(Predict, &Error);
  ASSERT_TRUE(ViaUnix.has_value()) << Error;
  ASSERT_TRUE(ViaTcp.has_value()) << Error;
  // The transport must be invisible in the bytes.
  EXPECT_EQ(*ViaUnix, *ViaTcp);
  std::optional<JsonValue> Doc = parseJson(*ViaTcp);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->getString("status"), "ok");
}

TEST(TransportTest, PartialFramesAcrossReadsAndCrlfAreOneRequest) {
  ServerFixture Fixture;
  ASSERT_TRUE(Fixture.Daemon->listening()) << Fixture.Error;

  ServeClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connectWithRetry(Fixture.Path, 2000, &Error)) << Error;

  WireRequest Health;
  Health.TheOp = WireRequest::Op::Health;
  std::string Line = renderRequestLine(Health);
  std::optional<std::string> Reference = Client.request(Health, &Error);
  ASSERT_TRUE(Reference.has_value()) << Error;

  // Dribble the same request a few bytes per write: the server must
  // reassemble it into exactly one request.
  int Fd = Client.fd();
  std::string Framed = Line + "\n";
  for (size_t I = 0; I < Framed.size(); I += 7) {
    ASSERT_TRUE(sendAll(Fd, Framed.substr(I, 7)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string Out;
  ASSERT_TRUE(readLineRaw(Fd, Out));
  EXPECT_EQ(Out, *Reference);

  // CRLF framing (and a leading blank line) serves the same response as
  // bare LF.
  ASSERT_TRUE(sendAll(Fd, "\r\n" + Line + "\r\n"));
  ASSERT_TRUE(readLineRaw(Fd, Out));
  EXPECT_EQ(Out, *Reference);

  // Two requests in one write are two responses.
  ASSERT_TRUE(sendAll(Fd, Framed + Framed));
  ASSERT_TRUE(readLineRaw(Fd, Out));
  EXPECT_EQ(Out, *Reference);
  ASSERT_TRUE(readLineRaw(Fd, Out));
  EXPECT_EQ(Out, *Reference);
}

TEST(TransportTest, OversizedRequestLineIsRejectedThenClosed) {
  ServerOptions Options;
  Options.MaxRequestBytes = 1024;
  ServerFixture Fixture(Options);
  ASSERT_TRUE(Fixture.Daemon->listening()) << Fixture.Error;

  ServeClient Client;
  ASSERT_TRUE(Client.connectWithRetry(Fixture.Path, 2000));
  int Fd = Client.fd();
  ASSERT_TRUE(sendAll(Fd, std::string(4096, 'a') + "\n"));

  std::string Out;
  ASSERT_TRUE(readLineRaw(Fd, Out));
  std::optional<JsonValue> Doc = parseJson(Out);
  ASSERT_TRUE(Doc.has_value()) << Out;
  EXPECT_EQ(Doc->getString("status"), "bad-request");
  // The connection does not survive a framing violation.
  EXPECT_FALSE(readLineRaw(Fd, Out));

  EXPECT_GE(statsCounter(Fixture.Path, "oversized_rejected"), 1);
}

TEST(TransportTest, EmbeddedNulIsAFramingViolation) {
  ServerFixture Fixture;
  ASSERT_TRUE(Fixture.Daemon->listening()) << Fixture.Error;

  ServeClient Client;
  ASSERT_TRUE(Client.connectWithRetry(Fixture.Path, 2000));
  int Fd = Client.fd();
  std::string Evil = "{\"op\":\"health\"}";
  Evil += '\0';
  Evil += "\n";
  ASSERT_TRUE(sendAll(Fd, Evil));

  std::string Out;
  ASSERT_TRUE(readLineRaw(Fd, Out));
  std::optional<JsonValue> Doc = parseJson(Out);
  ASSERT_TRUE(Doc.has_value()) << Out;
  EXPECT_EQ(Doc->getString("status"), "bad-request");
  EXPECT_FALSE(readLineRaw(Fd, Out));

  EXPECT_GE(statsCounter(Fixture.Path, "bad_frames"), 1);
}

TEST(TransportTest, StalledPartialFrameIsClosedAfterReadTimeout) {
  ServerOptions Options;
  Options.ReadTimeout = std::chrono::milliseconds(200);
  ServerFixture Fixture(Options);
  ASSERT_TRUE(Fixture.Daemon->listening()) << Fixture.Error;

  ServeClient Client;
  ASSERT_TRUE(Client.connectWithRetry(Fixture.Path, 2000));
  int Fd = Client.fd();
  // A frame that never finishes: the read deadline must reclaim the
  // connection (EOF, no response line).
  ASSERT_TRUE(sendAll(Fd, "{\"op\":"));
  auto Start = std::chrono::steady_clock::now();
  std::string Out;
  EXPECT_FALSE(readLineRaw(Fd, Out));
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_LT(Elapsed, std::chrono::seconds(10));

  EXPECT_GE(statsCounter(Fixture.Path, "read_timeouts"), 1);
}

TEST(TransportTest, SlowReaderIsDisconnectedByTheWriteDeadline) {
  ServerOptions Options;
  Options.WriteTimeout = std::chrono::milliseconds(150);
  ServerFixture Fixture(Options);
  ASSERT_TRUE(Fixture.Daemon->listening()) << Fixture.Error;

  ServeClient Client;
  ASSERT_TRUE(Client.connectWithRetry(Fixture.Path, 2000));
  int Fd = Client.fd();

  // Pipeline requests without ever reading a response until every socket
  // buffer in the loop is full and our own send would block — at that
  // point the server is wedged mid-write on a full buffer and its write
  // deadline must disconnect us.
  std::string Framed = renderRequestLine([] {
    WireRequest Health;
    Health.TheOp = WireRequest::Op::Health;
    return Health;
  }()) + "\n";
  bool WouldBlock = false;
  for (int I = 0; I < 200000 && !WouldBlock; ++I) {
    ssize_t N = ::send(Fd, Framed.data(), Framed.size(),
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        WouldBlock = true;
      else
        break;
    }
  }
  ASSERT_TRUE(WouldBlock);

  // Wait (bounded) for the deadline to fire, then confirm via stats.
  int64_t Timeouts = 0;
  for (int I = 0; I < 200 && Timeouts < 1; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Timeouts = statsCounter(Fixture.Path, "write_timeouts");
  }
  EXPECT_GE(Timeouts, 1);

  // Draining what the server managed to send ends in EOF.
  std::string Out;
  while (readLineRaw(Fd, Out)) {
  }
}

//===----------------------------------------------------------------------===//
// Hot reload
//===----------------------------------------------------------------------===//

TEST(ServerTest, HotReloadSwapsTheBundleWithZeroDroppedResponses) {
  std::string Dir = freshDir("reload");
  std::string Path = Dir + "/live.bundle";
  ModelBundle BundleA = makeNnBundle(80, 7);
  ASSERT_TRUE(saveBundleFile(BundleA, Path));
  std::optional<ModelBundle> Loaded = loadBundleFile(Path);
  ASSERT_TRUE(Loaded.has_value());

  serverStopFlag().store(false);
  ServerOptions Options;
  Options.SocketPath = Dir + "/mo.sock";
  Options.BundlePath = Path;
  Options.ReloadPoll = std::chrono::milliseconds(30);
  Server Daemon(std::move(*Loaded), Options);
  std::string RunError;
  bool RunOk = false;
  std::thread Runner([&] { RunOk = Daemon.run(&RunError); });
  for (int I = 0; I < 500 && !Daemon.listening(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(Daemon.listening()) << RunError;

  std::string ChecksumA = Daemon.bundleChecksum();
  EXPECT_EQ(ChecksumA, bundleChecksumHex(BundleA));

  // Hammer predictions across the swap: every response must be ok — a
  // reload may never drop or error an in-flight request.
  std::atomic<bool> Done{false};
  std::atomic<int> Errors{0};
  std::atomic<uint64_t> Served{0};
  std::vector<std::thread> Clients;
  for (int C = 0; C < 4; ++C)
    Clients.emplace_back([&] {
      ServeClient Client;
      if (!Client.connectWithRetry(Options.SocketPath, 2000)) {
        ++Errors;
        return;
      }
      WireRequest Predict;
      Predict.TheOp = WireRequest::Op::Predict;
      Predict.LoopText = ValidLoop;
      while (!Done.load(std::memory_order_acquire)) {
        std::optional<std::string> Line = Client.request(Predict);
        if (!Line) {
          ++Errors;
          return;
        }
        std::optional<JsonValue> Doc = parseJson(*Line);
        if (!Doc || Doc->getString("status") != "ok") {
          ++Errors;
          return;
        }
        ++Served;
      }
    });

  ModelBundle BundleB = makeNnBundle(120, 99);
  std::string ChecksumB = bundleChecksumHex(BundleB);
  ASSERT_NE(ChecksumA, ChecksumB);
  ASSERT_TRUE(saveBundleFile(BundleB, Path));

  bool Swapped = false;
  for (int I = 0; I < 1000 && !Swapped; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Swapped = Daemon.bundleChecksum() == ChecksumB;
  }
  // Let the hammer observe the post-swap service for a while.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Clients)
    T.join();

  EXPECT_TRUE(Swapped);
  EXPECT_EQ(Errors.load(), 0);
  EXPECT_GT(Served.load(), 0u);
  EXPECT_EQ(Daemon.reloads(), 1u);
  EXPECT_EQ(Daemon.reloadsRejected(), 0u);

  // Health reports the new revision.
  {
    ServeClient Probe;
    ASSERT_TRUE(Probe.connectWithRetry(Options.SocketPath, 2000));
    WireRequest Health;
    Health.TheOp = WireRequest::Op::Health;
    std::optional<std::string> Line = Probe.request(Health);
    ASSERT_TRUE(Line.has_value());
    std::optional<JsonValue> Doc = parseJson(*Line);
    ASSERT_TRUE(Doc.has_value());
    EXPECT_EQ(Doc->getString("bundle_checksum"), ChecksumB);
  }
  EXPECT_GE(statsCounter(Options.SocketPath, "reloads"), 1);

  // A corrupt artifact is rejected; the good model keeps serving.
  {
    std::ofstream Out(Path, std::ios::trunc | std::ios::binary);
    Out << "garbage";
  }
  bool Rejected = false;
  for (int I = 0; I < 1000 && !Rejected; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Rejected = Daemon.reloadsRejected() >= 1;
  }
  EXPECT_TRUE(Rejected);
  EXPECT_EQ(Daemon.bundleChecksum(), ChecksumB);
  EXPECT_EQ(Daemon.reloads(), 1u);
  {
    ServeClient Probe;
    ASSERT_TRUE(Probe.connectWithRetry(Options.SocketPath, 2000));
    WireRequest Predict;
    Predict.TheOp = WireRequest::Op::Predict;
    Predict.LoopText = ValidLoop;
    std::optional<std::string> Line = Probe.request(Predict);
    ASSERT_TRUE(Line.has_value());
    std::optional<JsonValue> Doc = parseJson(*Line);
    ASSERT_TRUE(Doc.has_value());
    EXPECT_EQ(Doc->getString("status"), "ok");
  }

  Daemon.requestStop();
  Runner.join();
  EXPECT_TRUE(RunOk) << RunError;
}
