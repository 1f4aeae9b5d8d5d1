//===- tools/metaopt-benchcheck.cpp - Bench-row validator -----------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates a bench trajectory file (newline-delimited flat JSON rows,
/// e.g. the repo-root BENCH_generalization.json written by
/// bench/table_generalization) for the perf test tier (docs/TESTING.md):
///
///  * every row must parse as a JSON object of scalars and carry the
///    required keys for its experiment;
///  * every identity flag present must be true — any boolean key whose
///    name contains "match" (findings_match_serial, ...) is a correctness
///    contract, not a metric;
///  * every floor row in the --floor file must match at least one bench
///    row and that row must meet the floor.
///
/// A floor file is the same flat-JSON-rows format. In a floor row, a
/// key named `min_<metric>` asserts `row.<metric> >= value` and a key
/// named `max_<metric>` asserts `row.<metric> <= value` on the matched
/// row; every other key is an exact-match selector. So
///
///   {"experiment": "classifier_microbench", "benchmark": "BM_MlpPredict",
///    "min_iterations": 1, "max_real_ns": 5000000.0}
///
/// fails the run unless a BM_MlpPredict row exists with at least one
/// iteration and real_ns <= 5 ms (bench/generalization_floor.json and
/// bench/classifier_floor.json are the floors the perf tier enforces).
/// Exit status: 0 clean, 1 any validation failure.
///
/// Usage:
///   metaopt-benchcheck --floor=bench/classifier_floor.json
///       BENCH_classifiers.json
///
//===----------------------------------------------------------------------===//

#include "serve/Json.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace metaopt;

namespace {

/// One bench row: the members of a flat JSON object, each a string,
/// number, boolean or null (the generalization bench serializes the
/// missing LOOCV side of its calibration rows as null).
using Row = std::map<std::string, JsonValue>;

std::string describe(const JsonValue &V) {
  if (V.isString())
    return "\"" + V.Str + "\"";
  if (V.isNumber())
    return std::to_string(V.Number);
  if (V.isBool())
    return V.Boolean ? "true" : "false";
  return "null";
}

/// Parses one row with the serving JSON reader; a document that is not an
/// object, or that nests an array or object, is malformed. A duplicate
/// key keeps its first value.
bool parseRow(const std::string &Line, Row &Out, std::string &Error) {
  std::optional<JsonValue> Doc = parseJson(Line);
  if (!Doc || !Doc->isObject()) {
    Error = "not a well-formed JSON object";
    return false;
  }
  for (auto &[Key, V] : Doc->Members) {
    if (V.isArray() || V.isObject()) {
      Error = "\"" + Key + "\" holds a nested value";
      return false;
    }
    Out.emplace(Key, std::move(V));
  }
  return true;
}

bool readRows(const std::string &Path, std::vector<Row> &Out,
              unsigned &Failures) {
  std::string Error;
  std::optional<std::string> Text = readFile(Path, &Error);
  if (!Text) {
    std::fprintf(stderr, "metaopt-benchcheck: %s\n", Error.c_str());
    return false;
  }
  std::istringstream In(*Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    Row R;
    std::string Error;
    if (!parseRow(Line, R, Error)) {
      std::fprintf(stderr, "%s:%u: malformed row: %s\n", Path.c_str(),
                   LineNo, Error.c_str());
      ++Failures;
      continue;
    }
    Out.push_back(std::move(R));
  }
  return true;
}

/// Required keys per experiment, mirroring what the benches emit. A
/// missing "experiment" key or an unlisted experiment fails:
/// new experiments must be registered here so CI keeps validating them.
const std::map<std::string, std::vector<std::string>> &requiredKeys() {
  static const std::map<std::string, std::vector<std::string>> Schema = {
      {"lint_sweep",
       {"threads", "loops", "errors", "warnings", "notes", "seconds",
        "speedup_vs_serial", "findings_match_serial"}},
      {"classifier_microbench",
       {"benchmark", "iterations", "real_ns", "cpu_ns"}},
      {"generalization",
       {"classifier", "loocv_accuracy", "imported_accuracy",
        "imported_top2", "imported_mean_cost", "imported_speedup", "gap",
        "imported_fingerprint"}},
      {"generalization_corpus",
       {"synthetic_loops", "imported_loops", "imported_pass_filters",
        "imported_fingerprint"}},
  };
  return Schema;
}

bool valuesMatch(const JsonValue &A, const JsonValue &B) {
  if (A.K != B.K)
    return false;
  if (A.isString())
    return A.Str == B.Str;
  if (A.isNumber())
    return A.Number == B.Number;
  return A.Boolean == B.Boolean; // Bool; null == null.
}

std::string describeRow(const Row &R) {
  std::string Text = "{";
  for (const auto &[Key, V] : R) {
    if (Text.size() > 1)
      Text += ", ";
    Text += Key + ": " + describe(V);
    if (Text.size() > 120) {
      Text += ", ...";
      break;
    }
  }
  return Text + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("metaopt-benchcheck",
                "Validates newline-delimited flat-JSON bench rows "
                "(BENCH_*.json):\nschema per experiment, byte-identity "
                "flags, and floors (docs/TESTING.md).");
  Cli.stringOption("floor", "file", "flat-JSON floor rows to enforce");
  Cli.positionalHelp("<bench.json>", "bench trajectory file to validate");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;
  if (Cli.positional().size() != 1) {
    std::fprintf(stderr, "metaopt-benchcheck: expected one bench file\n%s",
                 Cli.usage().c_str());
    return 2;
  }

  unsigned Failures = 0;
  std::vector<Row> Rows;
  if (!readRows(Cli.positional().front(), Rows, Failures))
    return 1;
  if (Rows.empty()) {
    std::fprintf(stderr, "metaopt-benchcheck: no bench rows found\n");
    return 1;
  }

  // Schema: every row names a known experiment and carries its keys.
  for (const Row &R : Rows) {
    auto Exp = R.find("experiment");
    if (Exp == R.end() || !Exp->second.isString()) {
      std::fprintf(stderr, "row missing \"experiment\": %s\n",
                   describeRow(R).c_str());
      ++Failures;
      continue;
    }
    auto Schema = requiredKeys().find(Exp->second.Str);
    if (Schema == requiredKeys().end()) {
      std::fprintf(stderr,
                   "unknown experiment \"%s\" (register its required keys "
                   "in metaopt-benchcheck)\n",
                   Exp->second.Str.c_str());
      ++Failures;
      continue;
    }
    for (const std::string &Key : Schema->second)
      if (!R.count(Key)) {
        std::fprintf(stderr, "%s row missing \"%s\": %s\n",
                     Exp->second.Str.c_str(), Key.c_str(),
                     describeRow(R).c_str());
        ++Failures;
      }
    // Identity flags are contracts: false is always a failure. The
    // csv_matches_* family must additionally be boolean; any other key
    // naming a match is only held to the contract when it is one.
    for (const auto &[Key, V] : R) {
      bool Contract =
          Key.rfind("csv_matches_", 0) == 0 ||
          (Key.find("match") != std::string::npos && V.isBool());
      if (Contract && (!V.isBool() || !V.Boolean)) {
        std::fprintf(stderr, "identity contract broken (%s): %s\n",
                     Key.c_str(), describeRow(R).c_str());
        ++Failures;
      }
    }
  }

  // Floors: each floor row must match a bench row meeting every min_*
  // floor and max_* ceiling; the remaining keys are exact-match
  // selectors.
  if (Cli.has("floor")) {
    std::vector<Row> Floors;
    if (!readRows(Cli.getString("floor"), Floors, Failures))
      return 1;
    for (const Row &Floor : Floors) {
      bool Matched = false;
      for (const Row &R : Rows) {
        bool Selected = true;
        for (const auto &[Key, V] : Floor) {
          if (Key.rfind("min_", 0) == 0 || Key.rfind("max_", 0) == 0)
            continue;
          auto It = R.find(Key);
          if (It == R.end() || !valuesMatch(It->second, V)) {
            Selected = false;
            break;
          }
        }
        if (!Selected)
          continue;
        Matched = true;
        for (const auto &[Key, V] : Floor) {
          bool IsMin = Key.rfind("min_", 0) == 0;
          bool IsMax = Key.rfind("max_", 0) == 0;
          if (!IsMin && !IsMax)
            continue;
          std::string Metric = Key.substr(4);
          auto It = R.find(Metric);
          if (It == R.end() || !It->second.isNumber()) {
            std::fprintf(stderr, "floor metric \"%s\" absent: %s\n",
                         Metric.c_str(), describeRow(R).c_str());
            ++Failures;
          } else if (IsMin && It->second.Number < V.Number) {
            std::fprintf(stderr,
                         "floor violated: %s = %.3f < %.3f in %s\n",
                         Metric.c_str(), It->second.Number, V.Number,
                         describeRow(R).c_str());
            ++Failures;
          } else if (IsMax && It->second.Number > V.Number) {
            std::fprintf(stderr,
                         "ceiling violated: %s = %.3f > %.3f in %s\n",
                         Metric.c_str(), It->second.Number, V.Number,
                         describeRow(R).c_str());
            ++Failures;
          }
        }
      }
      if (!Matched) {
        std::fprintf(stderr, "no bench row matches floor selector %s\n",
                     describeRow(Floor).c_str());
        ++Failures;
      }
    }
  }

  if (Failures) {
    std::fprintf(stderr, "metaopt-benchcheck: %u failure(s) over %zu rows\n",
                 Failures, Rows.size());
    return 1;
  }
  std::printf("metaopt-benchcheck: %zu rows clean\n", Rows.size());
  return 0;
}
