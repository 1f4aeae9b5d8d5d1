//===- corpus/CorpusAudit.h - Lint sweep over the corpus --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the lint engine (analysis/lint) over every loop of a built corpus,
/// in parallel on the thread pool. Loops are audited by stable
/// corpus index and the reports are concatenated in that order, so the
/// result — and anything rendered from it — is byte-identical whatever
/// the thread count. The metaopt-lint tool and the lint tests share this
/// sweep; the corpus generators are required to produce loops that lint
/// without errors.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORPUS_CORPUSAUDIT_H
#define METAOPT_CORPUS_CORPUSAUDIT_H

#include "analysis/lint/Lint.h"
#include "corpus/BenchmarkSuite.h"

#include <string>
#include <vector>

namespace metaopt {

/// One audited loop with a non-empty report.
struct AuditedLoop {
  std::string Benchmark;
  std::string LoopName;
  DiagnosticReport Report;
};

/// Result of sweeping a corpus.
struct CorpusAuditResult {
  /// Reports that contained at least one diagnostic, in stable corpus
  /// order (benchmark declaration order, then loop order).
  std::vector<AuditedLoop> Findings;
  size_t LoopsAudited = 0;
  size_t Errors = 0;
  size_t Warnings = 0;
  size_t Notes = 0;

  bool clean() const { return Errors == 0; }
};

/// Lints every loop in \p Corpus with \p Options on the global thread
/// pool. Deterministic: the result is independent of the thread count.
CorpusAuditResult auditBenchmarks(const std::vector<Benchmark> &Corpus,
                                  const LintOptions &Options = {});

} // namespace metaopt

#endif // METAOPT_CORPUS_CORPUSAUDIT_H
