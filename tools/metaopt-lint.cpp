//===- tools/metaopt-lint.cpp - IR diagnostics driver ---------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metaopt-lint command-line tool: runs the lint engine over textual
/// loop files or the built-in benchmark corpus, sweeping loops in parallel
/// on the thread pool. stdout carries only diagnostics and the
/// summary, assembled by stable loop index, so the output is byte-identical
/// at --threads=1 and --threads=N; timing goes to stderr. Exit status: 0
/// when no error-severity diagnostics were produced, 1 when some were, 2
/// on usage or input errors.
///
//===----------------------------------------------------------------------===//

#include "concurrency/Parallel.h"
#include "corpus/CorpusAudit.h"
#include "import/Import.h"
#include "ir/Diagnostics.h"
#include "ir/Parser.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace metaopt;

namespace {

struct ToolOptions {
  bool Corpus = false;
  bool Json = false;
  LintOptions Lint;
  std::vector<std::string> Files;
};

void listPasses() {
  for (const LintPass &Pass : lintPasses())
    std::cout << Pass.Id << "  (" << severityName(Pass.Sev) << ")  "
              << Pass.Summary << "\n";
}

/// Splits "L001,L007" into its comma-separated pieces.
std::vector<std::string> splitList(const std::string &Value) {
  std::vector<std::string> Parts;
  std::string Piece;
  std::istringstream Stream(Value);
  while (std::getline(Stream, Piece, ','))
    if (!Piece.empty())
      Parts.push_back(Piece);
  return Parts;
}

/// One lintable unit with its provenance for report headers and, for
/// imported loops, the declared symbol context the A-series passes check.
struct Unit {
  std::string Origin; ///< File name or benchmark name.
  Loop TheLoop;
  LoopSymbolContext Symbols;
};

int lintUnits(const std::vector<Unit> &Units, const ToolOptions &Options) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<DiagnosticReport> Reports = parallelMap<DiagnosticReport>(
      Units.size(),
      [&](size_t I) {
        LintOptions Lint = Options.Lint;
        Lint.Symbols = &Units[I].Symbols;
        return lintLoop(Units[I].TheLoop, Lint);
      });
  auto End = std::chrono::steady_clock::now();

  size_t Errors = 0, Warnings = 0, Notes = 0;
  for (size_t I = 0; I < Units.size(); ++I) {
    const DiagnosticReport &Report = Reports[I];
    Errors += Report.errorCount();
    Warnings += Report.warningCount();
    Notes += Report.noteCount();
    if (Report.empty())
      continue;
    if (Options.Json) {
      for (const Diagnostic &D : Report.diagnostics())
        std::cout << renderDiagnosticJson(D, Units[I].Origin) << "\n";
    } else {
      std::cout << "# " << Units[I].Origin << " / "
                << Units[I].TheLoop.name() << "\n"
                << Report.renderText();
    }
  }

  if (Options.Json)
    std::cout << "{\"summary\":{\"loops\":" << Units.size()
              << ",\"errors\":" << Errors << ",\"warnings\":" << Warnings
              << ",\"notes\":" << Notes << "}}\n";
  else
    std::cout << "metaopt-lint: " << Units.size() << " loops, " << Errors
              << " errors, " << Warnings << " warnings, " << Notes
              << " notes\n";

  double Ms = std::chrono::duration<double, std::milli>(End - Start).count();
  std::cerr << "metaopt-lint: swept " << Units.size() << " loops in " << Ms
            << " ms on " << ThreadPool::global().threadCount()
            << " threads\n";
  return Errors != 0 ? 1 : 0;
}

int runCorpus(const ToolOptions &Options) {
  std::vector<Benchmark> Corpus = buildCorpus();
  std::vector<Unit> Units;
  for (const Benchmark &Bench : Corpus)
    for (const CorpusLoop &Entry : Bench.Loops)
      Units.push_back({Bench.Name, Entry.TheLoop, {}});
  return lintUnits(Units, Options);
}

/// True for files in the mloop interchange format (docs/IMPORT.md),
/// which go through the src/import front door instead of the parser.
bool isMloopFile(const std::string &File) {
  return File.size() >= 6 && File.rfind(".mloop") == File.size() - 6;
}

int runFiles(const ToolOptions &Options) {
  std::vector<Unit> Units;
  for (const std::string &File : Options.Files) {
    if (isMloopFile(File)) {
      ImportResult Imported = importFile(File);
      if (!Imported.succeeded()) {
        std::cerr << Imported.Report.renderText();
        std::cerr << "metaopt-lint: import of '" << File << "' failed\n";
        return 2;
      }
      for (ImportedLoop &L : Imported.Loops)
        Units.push_back({File, std::move(L.TheLoop), std::move(L.Symbols)});
      continue;
    }
    std::string Error;
    std::optional<std::string> Text = readFile(File, &Error);
    if (!Text) {
      std::cerr << "metaopt-lint: " << Error << "\n";
      return 2;
    }
    ParseResult Parsed = parseLoops(*Text, File);
    if (!Parsed.succeeded()) {
      std::cerr << File << ":" << Parsed.ErrorLine
                << ": error: " << Parsed.Error << "\n";
      return 2;
    }
    for (Loop &L : Parsed.Loops)
      Units.push_back({File, std::move(L), {}});
  }
  return lintUnits(Units, Options);
}

} // namespace

int main(int Argc, char **Argv) {
  CliParser Cli("metaopt-lint",
                "Lints textual loop files (see docs/LOOP_FORMAT.md) or "
                "the built-in\nbenchmark corpus with the diagnostics "
                "engine (docs/DIAGNOSTICS.md).");
  Cli.flag("corpus", "sweep every loop of the built-in corpus");
  Cli.flag("json", "emit JSON lines instead of text");
  Cli.stringOption("passes", "ids",
                   "run only the listed passes (comma-separated IDs or "
                   "prefixes, e.g. L001,L007)");
  Cli.flag("no-verifier", "omit verifier (V###) diagnostics from reports");
  Cli.intOption("threads", "n",
                "worker threads (default: METAOPT_THREADS, else hardware "
                "concurrency)",
                std::nullopt, 1, ThreadPool::MaxThreads);
  Cli.flag("list-passes", "print the pass registry and exit");
  Cli.stringOption("explain", "id",
                   "print the catalog entry for a diagnostic ID (any "
                   "family: V/L/A/X/I) and exit");
  Cli.positionalHelp("[<file.loop|file.mloop> ...]",
                     "loop files to lint (.mloop files are imported "
                     "first, see docs/IMPORT.md)");
  if (std::optional<int> Exit = Cli.parse(Argc, Argv))
    return *Exit;

  if (Cli.has("list-passes")) {
    listPasses();
    return 0;
  }

  if (Cli.has("explain")) {
    std::string Id = Cli.getString("explain");
    const DiagnosticCatalogEntry *Entry = findDiagnosticEntry(Id);
    if (!Entry) {
      std::cerr << "metaopt-lint: unknown diagnostic id '" << Id
                << "' (see docs/DIAGNOSTICS.md for the catalog)\n";
      return 2;
    }
    std::cout << Entry->Id << " (" << Entry->SevName << ")\n"
              << Entry->Explanation << "\n";
    return 0;
  }

  ToolOptions Options;
  Options.Corpus = Cli.has("corpus");
  Options.Json = Cli.has("json");
  Options.Lint.RunVerifier = !Cli.has("no-verifier");
  Options.Files = Cli.positional();
  if (Cli.has("passes")) {
    Options.Lint.Passes = splitList(Cli.getString("passes"));
    if (Options.Lint.Passes.empty()) {
      std::cerr << "metaopt-lint: --passes requires at least one id\n";
      return 2;
    }
  }
  if (Cli.has("threads"))
    ThreadPool::setGlobalThreads(
        static_cast<unsigned>(Cli.getInt("threads")));

  if (Options.Corpus && !Options.Files.empty()) {
    std::cerr << "metaopt-lint: --corpus and input files are exclusive\n";
    return 2;
  }
  if (!Options.Corpus && Options.Files.empty()) {
    std::cerr << "metaopt-lint: no input (pass loop files or --corpus)\n"
              << Cli.usage();
    return 2;
  }
  return Options.Corpus ? runCorpus(Options) : runFiles(Options);
}
