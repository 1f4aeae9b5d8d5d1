//===- fuzz/Oracles.h - Differential correctness oracles --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-loop correctness oracles the fuzzer runs against every
/// generated loop. Each oracle states an invariant the rest of the system
/// promises and checks it with an independent mechanism — the reference
/// interpreter (exec/Interpreter.h) for semantic equivalence, the
/// standalone schedule validators for scheduler legality, byte comparison
/// for serialization round-trips:
///
///  - round-trip: printLoop -> parseLoops -> printLoop is byte-identical,
///    and so is every respelling the grammar allows (extra spaces around
///    ',' '=' '[' ']', comments and blank lines, header and memory
///    attributes in another order) parsed and printed back;
///  - import-round-trip: exportLoop -> importLoops -> printLoop matches
///    the original printLoop byte for byte, hammering the src/import
///    front door (parser, lowering, diagnostics) with generated loops;
///  - unroll-equivalence: unrollLoop(L, U) computes the same final state
///    as U iterations of L, for U = 1..MaxUnrollFactor, including split
///    accumulator lanes, early-exit mapping, and (for integer reductions)
///    full main-loop + epilogue composition against a straight run;
///  - memory-opt: optimizeMemory preserves final state;
///  - list-schedule / modulo-schedule: every schedule passes its
///    validator, and the modulo II respects the resource lower bound;
///  - sim-cache: the content key is stable under reparse and cached
///    results are byte-identical to fresh simulation;
///  - bundle: a serialized + reparsed model bundle predicts identically
///    to the original on the loop's feature vector;
///  - static-claims: every claim the symbolic analysis
///    (analysis/symbolic/StrideInterval.h) is prepared to defend —
///    guard verdicts, value ranges, cross-iteration disjointness — holds
///    on a traced reference execution, and the canonical simulation form
///    (analysis/symbolic/Canonical.h) receives the same SimResult as the
///    original loop, validating the labeling pruner's certificate.
///
/// Oracles never abort: every violation becomes an OracleFailure so the
/// campaign can count, minimize, and report them.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_FUZZ_ORACLES_H
#define METAOPT_FUZZ_ORACLES_H

#include "analysis/symbolic/StrideInterval.h"
#include "ir/Loop.h"

#include <cstdint>
#include <string>
#include <vector>

namespace metaopt {

/// One oracle violation on one loop.
struct OracleFailure {
  /// Stable oracle identifier ("unroll-equivalence", "sim-cache", ...).
  std::string Oracle;
  /// Human-readable description of the violated invariant.
  std::string Detail;
};

/// Which oracles to run; all on by default. The shrinker narrows to the
/// single failing oracle while minimizing.
struct OracleOptions {
  /// Interpreter seed (live-in synthesis, first-touch memory).
  uint64_t Seed = 1;
  bool CheckRoundTrip = true;
  bool CheckImportRoundTrip = true;
  bool CheckUnroll = true;
  bool CheckMemoryOpt = true;
  bool CheckSchedulers = true;
  bool CheckSimCache = true;
  bool CheckBundle = true;
  bool CheckStaticClaims = true;
};

/// Individual oracles; append violations to \p Out.
void oracleRoundTrip(const Loop &L, std::vector<OracleFailure> &Out);
void oracleImportRoundTrip(const Loop &L, std::vector<OracleFailure> &Out);
void oracleUnrollEquivalence(const Loop &L, uint64_t Seed,
                             std::vector<OracleFailure> &Out);
void oracleMemoryOpt(const Loop &L, uint64_t Seed,
                     std::vector<OracleFailure> &Out);
void oracleSchedulers(const Loop &L, std::vector<OracleFailure> &Out);
void oracleSimCache(const Loop &L, std::vector<OracleFailure> &Out);
void oracleBundle(const Loop &L, std::vector<OracleFailure> &Out);
void oracleStaticClaims(const Loop &L, uint64_t Seed,
                        std::vector<OracleFailure> &Out);

/// Trains the bundle oracle's models, once per process. The training runs
/// parallel regions on the global pool, so callers that fan oracles out
/// over the pool build it first: inside a pool task those regions would
/// run inline on one thread while the other cases wait for it.
void prepareBundleOracle();

/// The static-claims oracle's checking core: replays \p Claims (in the
/// shape SymbolicAnalysis::claims() produces) against a traced reference
/// execution of \p L and reports every refuted claim. Exposed separately
/// so tests can confirm the oracle refutes a deliberately unsound claim
/// set; oracleStaticClaims feeds it the real analysis and additionally
/// validates the canonical-form simulation certificate.
void checkClaimsAgainstExecution(const Loop &L,
                                 const std::vector<StaticClaim> &Claims,
                                 uint64_t Seed,
                                 std::vector<OracleFailure> &Out);

/// Runs the oracles selected by \p Options on \p L. The loop must be
/// verifier-clean (checked: a malformed input is itself reported as a
/// failure of oracle "well-formed" and nothing else runs).
std::vector<OracleFailure> runOracles(const Loop &L,
                                      const OracleOptions &Options = {});

} // namespace metaopt

#endif // METAOPT_FUZZ_ORACLES_H
