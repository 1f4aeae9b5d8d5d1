//===- tests/cli_test.cpp - Unit tests for the flag parser ----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "support/CommandLine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace metaopt;

namespace {

CliParser makeToolCli() {
  CliParser Cli("metaopt-tool", "does tool things");
  Cli.flag("verbose", "print more");
  Cli.intOption("threads", "n", "worker threads", std::nullopt, 1,
                ThreadPool::MaxThreads);
  Cli.stringOption("out", "path", "output file");
  Cli.intOption("bins", "n", "histogram bins", 10, 2, 64);
  Cli.numberOption("radius", "r", "neighbor radius", 0.3);
  Cli.stringOption("mode", "name", "operating mode", "fast");
  Cli.positionalHelp("[<file> ...]", "inputs");
  return Cli;
}

/// Parses \p Args, the words after the program name, into \p Cli.
std::optional<int> parseWith(CliParser &Cli,
                             std::vector<const char *> Args) {
  Args.insert(Args.begin(), "metaopt-tool");
  return Cli.parse(static_cast<int>(Args.size()), Args.data());
}

std::optional<int> parseTool(std::vector<const char *> Args) {
  CliParser Cli = makeToolCli();
  return parseWith(Cli, std::move(Args));
}

} // namespace

TEST(CliParserTest, ParsesAllForms) {
  CliParser Cli = makeToolCli();
  EXPECT_EQ(parseWith(Cli, {"--bins=3", "--verbose", "positional"}),
            std::nullopt);
  EXPECT_EQ(Cli.getInt("bins"), 3);
  EXPECT_TRUE(Cli.has("verbose"));
  ASSERT_EQ(Cli.positional().size(), 1u);
  EXPECT_EQ(Cli.positional()[0], "positional");
}

TEST(CliParserTest, BareFlagNeverSwallowsPositionals) {
  // The regression that motivated dropping "--key value": a file name
  // after a boolean flag must stay positional.
  CliParser Cli = makeToolCli();
  EXPECT_EQ(parseWith(Cli, {"--verbose", "sample.loop"}), std::nullopt);
  EXPECT_TRUE(Cli.has("verbose"));
  ASSERT_EQ(Cli.positional().size(), 1u);
  EXPECT_EQ(Cli.positional()[0], "sample.loop");
}

TEST(CliParserTest, FlagFollowedByOption) {
  CliParser Cli = makeToolCli();
  EXPECT_EQ(parseWith(Cli, {"--verbose", "--out=v"}), std::nullopt);
  EXPECT_TRUE(Cli.has("verbose"));
  EXPECT_EQ(Cli.getString("out"), "v");
}

TEST(CliParserTest, DefaultsWhenMissing) {
  CliParser Cli = makeToolCli();
  EXPECT_EQ(parseWith(Cli, {}), std::nullopt);
  EXPECT_FALSE(Cli.has("bins"));
  EXPECT_EQ(Cli.getInt("bins"), 10);
  EXPECT_DOUBLE_EQ(Cli.getDouble("radius"), 0.3);
  EXPECT_EQ(Cli.getString("mode"), "fast");
  EXPECT_EQ(Cli.getString("out"), "");
  EXPECT_FALSE(Cli.has("threads"));
}

TEST(CliParserTest, SuccessfulParseAnswersQueries) {
  CliParser Cli = makeToolCli();
  EXPECT_EQ(parseWith(Cli, {"--verbose", "--threads=8", "--out=x.bundle",
                            "--radius=1.5", "a.loop", "b.loop"}),
            std::nullopt);
  EXPECT_TRUE(Cli.has("verbose"));
  EXPECT_EQ(Cli.getInt("threads"), 8);
  EXPECT_EQ(Cli.getString("out"), "x.bundle");
  EXPECT_DOUBLE_EQ(Cli.getDouble("radius"), 1.5);
  ASSERT_EQ(Cli.positional().size(), 2u);
  EXPECT_EQ(Cli.positional()[0], "a.loop");
  EXPECT_EQ(Cli.positional()[1], "b.loop");
}

TEST(CliParserTest, RejectsUnknownOptionsWithUsageExit) {
  // A typo must produce exit code 2, never run with the option ignored.
  EXPECT_EQ(parseTool({"--treads=8"}), std::optional<int>(2));
  EXPECT_EQ(parseTool({"--bogus-flag"}), std::optional<int>(2));
}

TEST(CliParserTest, RejectsMissingOrUnexpectedValues) {
  EXPECT_EQ(parseTool({"--out"}), std::optional<int>(2));
  EXPECT_EQ(parseTool({"--verbose=1"}), std::optional<int>(2));
}

TEST(CliParserTest, RejectsMalformedIntegers) {
  // Before, a malformed value quietly fell back to the default.
  for (const char *Arg : {"--bins=abc", "--bins=", "--bins=1.5",
                          "--bins=7x", "--bins=0x10"})
    EXPECT_EQ(parseTool({Arg}), std::optional<int>(2)) << Arg;
  EXPECT_EQ(parseTool({"--bins= 12 "}), std::nullopt);
}

TEST(CliParserTest, RejectsMalformedNumbers) {
  for (const char *Arg : {"--radius=abc", "--radius=", "--radius=0.3.1",
                          "--radius=nan", "--radius=inf"})
    EXPECT_EQ(parseTool({Arg}), std::optional<int>(2)) << Arg;
  for (const char *Arg : {"--radius=-2", "--radius=1e-3", "--radius=7"})
    EXPECT_EQ(parseTool({Arg}), std::nullopt) << Arg;
}

TEST(CliParserTest, RejectsOutOfRangeIntegers) {
  for (const char *Arg : {"--bins=1", "--bins=65", "--bins=-3",
                          "--bins=99999999999999999999"})
    EXPECT_EQ(parseTool({Arg}), std::optional<int>(2)) << Arg;
}

TEST(CliParserTest, IntegerBoundsAreInclusive) {
  CliParser Low = makeToolCli();
  EXPECT_EQ(parseWith(Low, {"--bins=2"}), std::nullopt);
  EXPECT_EQ(Low.getInt("bins"), 2);
  CliParser High = makeToolCli();
  EXPECT_EQ(parseWith(High, {"--bins=64"}), std::nullopt);
  EXPECT_EQ(High.getInt("bins"), 64);
}

TEST(CliParserTest, ThreadsAreBoundedByThePoolLimit) {
  // Never run a binary with these values: if the bound regressed, it
  // would ask for billions of threads. The parser alone decides.
  ASSERT_EQ(ThreadPool::MaxThreads, 4096u);
  for (const char *Arg : {"--threads=-1", "--threads=0", "--threads=4097",
                          "--threads=abc"})
    EXPECT_EQ(parseTool({Arg}), std::optional<int>(2)) << Arg;
  for (const char *Arg : {"--threads=1", "--threads=4096"})
    EXPECT_EQ(parseTool({Arg}), std::nullopt) << Arg;
}

TEST(CliParserTest, TheLastOccurrenceWins) {
  CliParser Cli = makeToolCli();
  EXPECT_EQ(parseWith(Cli, {"--bins=3", "--bins=5"}), std::nullopt);
  EXPECT_EQ(Cli.getInt("bins"), 5);
}

TEST(CliParserTest, HelpAndVersionExitZero) {
  EXPECT_EQ(parseTool({"--help"}), std::optional<int>(0));
  EXPECT_EQ(parseTool({"-h"}), std::optional<int>(0));
  EXPECT_EQ(parseTool({"--version"}), std::optional<int>(0));
  // Help wins over a bad option elsewhere on the line.
  EXPECT_EQ(parseTool({"--bins=abc", "--help"}), std::optional<int>(0));
}

TEST(CliParserTest, UsageListsEveryRegisteredOption) {
  CliParser Cli = makeToolCli();
  std::string Usage = Cli.usage();
  EXPECT_NE(Usage.find("--verbose"), std::string::npos);
  EXPECT_NE(Usage.find("--threads=<n>"), std::string::npos);
  EXPECT_NE(Usage.find("--out=<path>"), std::string::npos);
  EXPECT_NE(Usage.find("metaopt-tool"), std::string::npos);
  EXPECT_NE(Usage.find("[<file> ...]"), std::string::npos);
  // Every tool also answers --help/--version without registering them.
  EXPECT_NE(Usage.find("--help"), std::string::npos);
  EXPECT_NE(Usage.find("--version"), std::string::npos);
}

TEST(CliParserTest, UsageShowsRegisteredDefaults) {
  std::string Usage = makeToolCli().usage();
  EXPECT_NE(Usage.find("histogram bins (default: 10)\n"), std::string::npos)
      << Usage;
  EXPECT_NE(Usage.find("neighbor radius (default: 0.3)\n"),
            std::string::npos)
      << Usage;
  EXPECT_NE(Usage.find("operating mode (default: fast)\n"),
            std::string::npos)
      << Usage;
  // No default registered, none shown.
  EXPECT_NE(Usage.find("worker threads\n"), std::string::npos) << Usage;
  EXPECT_NE(Usage.find("output file\n"), std::string::npos) << Usage;
}

TEST(CliParserDeathTest, QueryingAnUnregisteredNameAborts) {
  CliParser Cli = makeToolCli();
  ASSERT_EQ(parseWith(Cli, {}), std::nullopt);
  EXPECT_DEATH(Cli.has("nope"), "not registered");
  EXPECT_DEATH(Cli.getInt("radius"), "wrong kind");
  EXPECT_DEATH(Cli.getInt("threads"), "no default");
}

TEST(CliParserTest, VersionStringIsSane) {
  // Tools embed metaoptVersion() in bundles (CreatedBy) and the serving
  // health response, so it must stay a dotted triple.
  std::string Version = metaoptVersion();
  int Major = 0, Minor = 0, Patch = 0;
  EXPECT_EQ(std::sscanf(Version.c_str(), "%d.%d.%d", &Major, &Minor,
                        &Patch),
            3)
      << Version;
}
