//===- tests/fileio_test.cpp - The one whole-file I/O path ----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// support/FileIO.h under faults and races. Every failing publish must
/// return false with an error naming the path, leave the previous file's
/// bytes unchanged, and leave no `*.tmp.*` file behind. The faults come
/// from process-local means only: a file-size rlimit in a forked child, a
/// directory or a regular file where the path needs the other.
///
//===----------------------------------------------------------------------===//

#include "serve/ModelBundle.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace metaopt;

namespace {

std::string freshDir(const std::string &Name) {
  // Keyed by pid: ctest runs each test in its own process, possibly in
  // parallel.
  std::string Dir = ::testing::TempDir() + "/metaopt_fileio_test_" +
                    std::to_string(::getpid()) + "_" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Sorted names of the entries of \p Dir.
std::vector<std::string> listDir(const std::string &Dir) {
  std::vector<std::string> Names;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Names.push_back(Entry.path().filename().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

bool holdsTempFile(const std::string &Dir) {
  for (const std::string &Name : listDir(Dir))
    if (Name.find(".tmp.") != std::string::npos)
      return true;
  return false;
}

std::string readOrEmpty(const std::string &Path) {
  return readFile(Path).value_or("");
}

} // namespace

TEST(FileIOTest, ReadFileReportsMissingFilesAndDirectories) {
  std::string Dir = freshDir("read");
  std::string Error;
  EXPECT_FALSE(readFile(Dir + "/absent", &Error).has_value());
  EXPECT_NE(Error.find(Dir + "/absent"), std::string::npos) << Error;
  EXPECT_NE(Error.find("No such file"), std::string::npos) << Error;

  EXPECT_FALSE(readFile(Dir, &Error).has_value());
  EXPECT_NE(Error.find("'" + Dir + "'"), std::string::npos) << Error;
  EXPECT_NE(Error.find("Is a directory"), std::string::npos) << Error;

  std::string Bytes("a\0b\n", 4);
  ASSERT_TRUE(publishFile(Dir + "/sub/dir/file", Bytes, &Error)) << Error;
  EXPECT_EQ(readFile(Dir + "/sub/dir/file"), Bytes);
  EXPECT_EQ(listDir(Dir + "/sub/dir"), std::vector<std::string>{"file"});
  std::filesystem::remove_all(Dir);
}

TEST(FileIODeathTest, ShortWriteThenWriteErrorKeepTheOldFile) {
  // Under a file-size limit below the content size the first write comes
  // back short and the next fails with EFBIG (SIGXFSZ ignored). The
  // limit would outlive the test, so it is set in a forked child.
  std::string Dir = freshDir("short_write");
  std::string Path = Dir + "/artifact.bin";
  const std::string Old = "the previous complete file\n";
  ASSERT_TRUE(publishFile(Path, Old));
  const std::string Content(256 * 1024, 'x');

  auto Child = [&] {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit Limit{64 * 1024, 64 * 1024};
    if (::setrlimit(RLIMIT_FSIZE, &Limit) != 0) {
      std::fprintf(stderr, "setrlimit failed\n");
      std::exit(3);
    }
    std::string Error;
    if (publishFile(Path, Content, &Error)) {
      std::fprintf(stderr, "publish succeeded\n");
      std::exit(1);
    }
    if (Error.find(Path) == std::string::npos ||
        Error.find("too large") == std::string::npos) {
      std::fprintf(stderr, "error does not name path and reason: %s\n",
                   Error.c_str());
      std::exit(1);
    }
    if (readOrEmpty(Path) != Old || holdsTempFile(Dir)) {
      std::fprintf(stderr, "old file changed or temp file left\n");
      std::exit(1);
    }
    std::exit(0);
  };
  EXPECT_EXIT(Child(), ::testing::ExitedWithCode(0), "");
  EXPECT_EQ(readOrEmpty(Path), Old);
  EXPECT_EQ(listDir(Dir), std::vector<std::string>{"artifact.bin"});
  std::filesystem::remove_all(Dir);
}

TEST(FileIOTest, RenameOntoANonEmptyDirectoryFails) {
  std::string Dir = freshDir("rename");
  std::string Path = Dir + "/artifact.bin";
  std::filesystem::create_directories(Path);
  ASSERT_TRUE(publishFile(Path + "/inner", "inner bytes"));

  std::string Error;
  EXPECT_FALSE(publishFile(Path, "new bytes", &Error));
  EXPECT_NE(Error.find("'" + Path + "'"), std::string::npos) << Error;
  EXPECT_TRUE(std::filesystem::is_directory(Path));
  EXPECT_EQ(readOrEmpty(Path + "/inner"), "inner bytes");
  EXPECT_EQ(listDir(Dir), std::vector<std::string>{"artifact.bin"});
  EXPECT_EQ(listDir(Path), std::vector<std::string>{"inner"});
  std::filesystem::remove_all(Dir);
}

TEST(FileIOTest, ParentPathIsARegularFile) {
  std::string Dir = freshDir("notdir");
  std::string Plain = Dir + "/plain";
  ASSERT_TRUE(publishFile(Plain, "plain bytes"));

  std::string Error;
  EXPECT_FALSE(publishFile(Plain + "/artifact.bin", "new bytes", &Error));
  EXPECT_NE(Error.find(Plain + "/artifact.bin"), std::string::npos) << Error;
  EXPECT_EQ(readOrEmpty(Plain), "plain bytes");
  EXPECT_EQ(listDir(Dir), std::vector<std::string>{"plain"});

  EXPECT_FALSE(updateFile(Plain + "/artifact.bin",
                          [](const std::string &) { return "merged"; },
                          &Error));
  EXPECT_NE(Error.find(Plain + "/artifact.bin"), std::string::npos) << Error;
  EXPECT_EQ(readOrEmpty(Plain), "plain bytes");
  EXPECT_EQ(listDir(Dir), std::vector<std::string>{"plain"});
  std::filesystem::remove_all(Dir);
}

TEST(FileIOTest, ConcurrentBundlePublishersToOnePath) {
  // Two publishers race on one path. Each save must succeed, the file
  // must be one of the two bundles, whole, and nothing else may be left.
  std::string Dir = freshDir("bundle_race");
  std::string Path = Dir + "/model.bundle";
  ModelBundle A, B;
  A.Provenance.ClassifierName = "a";
  A.ClassifierBlob = std::string(48 * 1024, 'a');
  B.Provenance.ClassifierName = "b";
  B.ClassifierBlob = std::string(80 * 1024, 'b');
  std::string BytesA = serializeBundle(A), BytesB = serializeBundle(B);
  ASSERT_TRUE(parseBundle(BytesA).has_value());

  constexpr int Rounds = 200;
  auto Publisher = [&](const ModelBundle &Bundle) {
    for (int I = 0; I < Rounds; ++I) {
      std::string Error;
      if (!saveBundleFile(Bundle, Path, &Error))
        ADD_FAILURE() << Error;
    }
  };
  std::thread First(Publisher, std::cref(A)), Second(Publisher, std::cref(B));
  First.join();
  Second.join();

  std::string Final = readOrEmpty(Path);
  EXPECT_TRUE(Final == BytesA || Final == BytesB) << Final.size();
  std::string Error;
  EXPECT_TRUE(loadBundleFile(Path, &Error).has_value()) << Error;
  EXPECT_EQ(listDir(Dir), std::vector<std::string>{"model.bundle"});
  std::filesystem::remove_all(Dir);
}

TEST(FileIOTest, ConcurrentUpdatersLoseNoUpdate) {
  // updateFile serializes read-modify-publish across threads (each call
  // locks its own descriptor of the directory), so every append survives.
  std::string Dir = freshDir("update_race");
  std::string Path = Dir + "/log";
  constexpr int Threads = 4, Rounds = 50;
  auto Updater = [&](char Mark) {
    for (int I = 0; I < Rounds; ++I) {
      std::string Error;
      auto Append = [&](const std::string &Current) { return Current + Mark; };
      if (!updateFile(Path, Append, &Error))
        ADD_FAILURE() << Error;
    }
  };
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back(Updater, static_cast<char>('a' + T));
  for (std::thread &T : Pool)
    T.join();

  std::string Final = readOrEmpty(Path);
  EXPECT_EQ(Final.size(), static_cast<size_t>(Threads * Rounds));
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(std::count(Final.begin(), Final.end(), 'a' + T), Rounds);
  EXPECT_EQ(listDir(Dir), std::vector<std::string>{"log"});
  std::filesystem::remove_all(Dir);
}
