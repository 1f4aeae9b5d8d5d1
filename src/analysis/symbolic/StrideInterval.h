//===- analysis/symbolic/StrideInterval.h - Symbolic value domain *- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stride-interval abstract domain and the per-loop symbolic analysis
/// built on it. Every integer SSA value is abstracted as an affine form
///
///   value(i) = Base + Offset + Step * i
///
/// where i is the 0-based global iteration index, Base is an opaque
/// live-in register (NoReg when the value is iteration-affine over
/// constants alone), and Offset/Step are compile-time constants folded
/// with the interpreter's wrapping semantics, so the congruence is exact
/// mod 2^64 even when the concrete computation wraps. Values the domain
/// cannot represent (products of two variables, loads, predicated-off
/// merges) widen to Top. Loop-carried phis are resolved by a widening
/// fixpoint across the back-edge: the classic linear-induction
/// hypothesis (recur == phi + c) is verified by re-evaluation and
/// widened to Top when it does not hold. Range and comparison *proofs*
/// additionally demand that the real-arithmetic evaluation stays inside
/// int64 over the whole iteration range (checked at the endpoints), so
/// wrap-around can never fabricate an order fact.
///
/// On top of the value domain the analysis derives:
///  - symbolic access summaries: one per memory op, carrying the
///    *effective* affine address (indirect references whose index
///    register is affine are resolved into a direct-form summary),
///    the access width, and the guarding predicate's proven status;
///  - predicate facts: compare instructions over affine values with
///    comparable bases are proven always-true / always-false using the
///    induction-variable range (compile-time trip count when known);
///  - interval bounds: base-free affine values get [min, max] ranges
///    over the iteration space;
///  - a list of *checkable claims* (StaticClaim) consumed by the
///    static-claims fuzz oracle, which refutes any unsound claim against
///    the reference interpreter.
///
/// docs/ANALYSIS.md documents the domain, the widening strategy, and the
/// soundness contract in detail.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_ANALYSIS_SYMBOLIC_STRIDEINTERVAL_H
#define METAOPT_ANALYSIS_SYMBOLIC_STRIDEINTERVAL_H

#include "ir/Loop.h"

#include <cstdint>
#include <string>
#include <vector>

namespace metaopt {

/// Abstract value of one integer register: Base + Offset + Step * i.
struct AffineValue {
  enum class Kind {
    Top,    ///< Unknown / unrepresentable.
    Affine, ///< Base (optional) + Offset + Step * iteration.
  };
  Kind K = Kind::Top;
  RegId Base = NoReg; ///< Opaque live-in term, NoReg when absent.
  int64_t Offset = 0;
  int64_t Step = 0;

  bool isTop() const { return K == Kind::Top; }
  bool isAffine() const { return K == Kind::Affine; }
  /// Affine with neither a symbolic base nor an iteration term.
  bool isConstant() const {
    return isAffine() && Base == NoReg && Step == 0;
  }
  /// Affine without a symbolic base (range computable when the trip
  /// count is known).
  bool isBaseFree() const { return isAffine() && Base == NoReg; }

  static AffineValue top() { return {}; }
  static AffineValue constant(int64_t Value) {
    return {Kind::Affine, NoReg, Value, 0};
  }
  static AffineValue symbol(RegId Base) {
    return {Kind::Affine, Base, 0, 0};
  }

  bool operator==(const AffineValue &Other) const = default;
};

/// Three-valued verdict on a predicate register (or a guard).
enum class PredFact {
  Unknown,     ///< May vary at runtime.
  AlwaysTrue,  ///< Proven true on every iteration.
  AlwaysFalse, ///< Proven false on every iteration.
};

/// Returns "unknown" / "always-true" / "always-false".
const char *predFactName(PredFact Fact);

/// Symbolic summary of one memory operation: the effective affine byte
/// address Base + Offset + Stride * i, after resolving indirect
/// references with affine index registers.
struct AccessSummary {
  uint32_t BodyIndex = 0;
  int32_t Sym = 0;        ///< MemRef base symbol.
  bool IsStore = false;
  int32_t SizeBytes = 0;
  /// True when the effective address is affine (always true for direct
  /// references; true for an indirect reference whose index register is
  /// affine). When false, Base/Offset/Stride are meaningless and the
  /// access defeats every disjointness proof it participates in.
  bool AddressKnown = false;
  RegId Base = NoReg;     ///< Symbolic component of the address, if any.
  int64_t Offset = 0;     ///< Constant byte offset.
  int64_t Stride = 0;     ///< Effective bytes advanced per iteration.
  bool WasIndirect = false; ///< Summary was resolved from an indirect ref.
  /// Status of the guarding predicate; AlwaysTrue for unpredicated ops.
  PredFact Guard = PredFact::Unknown;
};

/// One machine-checkable statement the analysis proved. The static-claims
/// fuzz oracle (fuzz/Oracles.h) validates every claim against the
/// reference interpreter; a refuted claim is a shrinkable soundness bug.
struct StaticClaim {
  enum class Kind {
    /// Memory ops A (iteration i) and B (iteration i + Lag) never touch
    /// a common byte, for any i executed by the loop.
    Disjoint,
    /// The guard of body instruction A evaluates true on every iteration.
    GuardAlwaysTrue,
    /// The guard of body instruction A evaluates false on every iteration.
    GuardAlwaysFalse,
    /// Register Reg's value lies in [Lo, Hi] on every iteration.
    RangeBound,
  };
  Kind K = Kind::Disjoint;
  uint32_t A = 0;    ///< Body index (Disjoint: first op; guards: the op).
  uint32_t B = 0;    ///< Disjoint: second body index.
  unsigned Lag = 0;  ///< Disjoint: iteration distance (0 = same iteration).
  RegId Reg = NoReg; ///< RangeBound: the register.
  int64_t Lo = 0;    ///< RangeBound: inclusive lower bound.
  int64_t Hi = 0;    ///< RangeBound: inclusive upper bound.
};

/// Renders a claim as a stable one-line string (tests, oracle reports).
std::string describeClaim(const StaticClaim &Claim, const Loop &L);

/// Per-loop symbolic analysis: affine values, predicate facts, access
/// summaries, ranges, and claims. Constructing it runs the fixpoint; all
/// queries are O(1) or return precomputed tables. The loop must be
/// verifier-clean.
class SymbolicAnalysis {
public:
  explicit SymbolicAnalysis(const Loop &L);

  const Loop &loop() const { return L; }

  /// Abstract value of \p Reg (Top for float registers).
  const AffineValue &value(RegId Reg) const { return Values[Reg]; }

  /// Verdict on predicate register \p Reg.
  PredFact predFact(RegId Reg) const { return PredFacts[Reg]; }

  /// Verdict on the guard of \p Instr (AlwaysTrue when unpredicated).
  PredFact guardFact(const Instruction &Instr) const;

  /// All memory operations, in body order.
  const std::vector<AccessSummary> &accesses() const { return Accesses; }

  /// Iteration-index range [Lo, Hi] the analysis reasons over. Returns
  /// false when the trip count is not a compile-time constant (the range
  /// is then [0, +inf) and bounded queries fail).
  bool ivRange(int64_t &Lo, int64_t &Hi) const;

  /// Bounds of \p Reg's value over the iteration space. Only base-free
  /// affine values with a bounded iteration range (or Step == 0) have
  /// computable bounds; returns false otherwise.
  bool valueRange(RegId Reg, int64_t &Lo, int64_t &Hi) const;

  /// True when \p Reg's derivation provably wraps 64-bit arithmetic:
  /// either folding its constant parts overflowed, or its affine form
  /// evaluated at the iteration-range endpoints leaves the int64 range.
  /// The affine congruence itself stays exact mod 2^64 (every concrete
  /// integer op wraps), but range/compare proofs are refused for such
  /// values, and lint A003 reports them. Taints propagate to users.
  bool overflowProne(RegId Reg) const { return Overflowed[Reg]; }

  /// Every claim the analysis is prepared to defend, in deterministic
  /// order: guard verdicts, range bounds, and same-iteration / lagged
  /// disjointness up to MaxUnrollFactor - 1 for every provable pair.
  std::vector<StaticClaim> claims() const;

  /// Stable textual rendering of \p Reg's abstract value, e.g.
  /// "%i_x + 16 + 8*i", "42", or "top"; golden tests pin these.
  std::string describeValue(RegId Reg) const;

private:
  void runFixpoint();
  void evaluateBody();
  AffineValue transfer(const Instruction &Instr);
  void computePredFacts();
  void computeAccesses();
  PredFact compareFact(RegId A, RegId B) const;
  bool boundsOf(const AffineValue &V, int64_t &Lo, int64_t &Hi) const;

  const Loop &L;
  std::vector<char> LiveIn;        ///< Reg -> Loop::isLiveIn.
  std::vector<AffineValue> Values; ///< Reg -> abstract value.
  std::vector<PredFact> PredFacts; ///< Reg -> predicate verdict.
  std::vector<bool> Overflowed;    ///< Reg -> overflow-prone derivation.
  std::vector<AccessSummary> Accesses;
  bool TripKnown = false; ///< Compile-time trip count available.
  int64_t TripLo = 0;     ///< Iteration range lower bound (always 0).
  int64_t TripHi = 0;     ///< Inclusive upper iteration bound when known.
};

} // namespace metaopt

#endif // METAOPT_ANALYSIS_SYMBOLIC_STRIDEINTERVAL_H
