//===- analysis/symbolic/Canonical.h - Canonical sim-equivalence -*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical simulation form: a quotient of the loop IR by everything
/// simulateLoop() provably ignores. Two loops with equal canonical text
/// receive identical SimResults at every unroll factor, so the labeling
/// pipeline simulates one representative per equivalence class and reuses
/// the results for the rest (core/driver/LabelCollector.h; the pruning
/// rate is LabelingStats::pruningRate(), and perfbench reports the pruned
/// count as driver.sims_pruned).
///
/// The normalized dimensions — each one verified against the simulator
/// by the static-claims fuzz oracle on every campaign case:
///
///  - loop name, source file, header line, per-instruction source lines
///    (diagnostic metadata; the simulator prices structure only);
///  - register names (the sim path is RegId-structural; names only feed
///    interpreter live-in synthesis and diagnostics), renamed in
///    first-appearance order;
///  - base-symbol numbering (only compared for equality, never used as
///    an address), renumbered in first-use order;
///  - source language and nest level (classifier features, not machine
///    behavior).
///
/// Trip metadata (compile-time and runtime trip counts) is semantic and
/// survives into the canonical text. Measurement noise is applied per
/// (benchmark, loop) name *outside* the simulator, so label datasets are
/// byte-identical with pruning on or off.
///
/// IMPORTANT: the labeling pruner keys classes on canonicalSimKey(), not
/// on the simulation *context* — SimContext is deliberately excluded.
/// Every corpus loop carries its own randomized context, so folding the
/// context into the class key makes every class a singleton and kills the
/// pruning (the PR-7 regression: 0 of 2808 simulations pruned). Instead
/// the collector compiles one context-independent plan per structural
/// class and evaluates it under each member's own context
/// (sim/SimCompile.h), which keeps pruned and unpruned datasets
/// byte-identical even when class members disagree on context.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_ANALYSIS_SYMBOLIC_CANONICAL_H
#define METAOPT_ANALYSIS_SYMBOLIC_CANONICAL_H

#include "ir/Loop.h"
#include "support/Fingerprint.h"

#include <string>

namespace metaopt {

/// Returns a copy of \p L with every sim-irrelevant dimension normalized.
Loop canonicalSimForm(const Loop &L);

/// The canonical text: printLoop(canonicalSimForm(L)). Equal strings
/// certify equal SimResults for every (factor, machine, context) tuple —
/// up to the printer's 6-significant-digit formatting of ExitIf
/// probabilities; canonicalSimKey() closes that gap by hashing the exact
/// IEEE-754 bits alongside the text-equivalent structure.
std::string canonicalSimText(const Loop &L);

/// Structural fingerprint of canonicalSimForm(L): equal keys certify (up
/// to 128-bit collision odds) equal canonical forms *including* the exact
/// bits of every ExitIf TakenProb, and therefore equal SimResults at
/// every (factor, machine, context, swp) tuple. Computed by renumbering
/// registers and base symbols on the fly — no Loop clone, no printing —
/// so the labeling pruner can key hundreds of loops per millisecond.
Fingerprint canonicalSimKey(const Loop &L);

/// Feeds the trip-*independent* canonical structure of \p L into \p H:
/// phis, body (opcodes, renumbered registers and base symbols, immediates,
/// memory shapes, exact exit-probability bits, pairing), and referenced
/// register classes. canonicalSimKey() is this plus the trip metadata;
/// the body-level stats cache (sim/SimCompile.h) uses the structure alone,
/// because nothing downstream of the memory optimizer reads trip counts.
void hashCanonicalSimStructure(FingerprintHasher &H, const Loop &L);

} // namespace metaopt

#endif // METAOPT_ANALYSIS_SYMBOLIC_CANONICAL_H
