//===- analysis/symbolic/StrideInterval.cpp - Symbolic value domain -------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "analysis/symbolic/StrideInterval.h"

#include "analysis/symbolic/Disjointness.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace metaopt;

const char *metaopt::predFactName(PredFact Fact) {
  switch (Fact) {
  case PredFact::Unknown:
    return "unknown";
  case PredFact::AlwaysTrue:
    return "always-true";
  case PredFact::AlwaysFalse:
    return "always-false";
  }
  return "unknown";
}

namespace {

//===----------------------------------------------------------------------===//
// Arithmetic helpers
//===----------------------------------------------------------------------===//

// Wrapping mod-2^64 ops mirror exec/Interpreter.cpp exactly: the affine
// congruence stays a theorem of the reference semantics no matter what
// the constants are.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

// Checked real-arithmetic ops: return false on int64 overflow. Order and
// range proofs only fire when the whole real evaluation fits, so wrapped
// values can never fabricate a comparison fact.
bool checkedAdd(int64_t A, int64_t B, int64_t &Out) {
  return !__builtin_add_overflow(A, B, &Out);
}

bool checkedSub(int64_t A, int64_t B, int64_t &Out) {
  return !__builtin_sub_overflow(A, B, &Out);
}

bool checkedMul(int64_t A, int64_t B, int64_t &Out) {
  return !__builtin_mul_overflow(A, B, &Out);
}

/// Evaluates Offset + Step * Iter with checked arithmetic.
bool checkedEval(int64_t Offset, int64_t Step, int64_t Iter, int64_t &Out) {
  int64_t Scaled;
  return checkedMul(Step, Iter, Scaled) && checkedAdd(Offset, Scaled, Out);
}

/// Join of two abstract values: equal stays, anything else goes to Top
/// (the domain has no interval component at the value level; intervals
/// appear only in derived range queries).
AffineValue joinValues(const AffineValue &A, const AffineValue &B) {
  if (A == B)
    return A;
  return AffineValue::top();
}

/// The class-default value a predicated-off instruction writes (see
/// exec/Interpreter.h): integer destinations get 0.
AffineValue intDefault() { return AffineValue::constant(0); }

} // namespace

//===----------------------------------------------------------------------===//
// SymbolicAnalysis
//===----------------------------------------------------------------------===//

SymbolicAnalysis::SymbolicAnalysis(const Loop &L)
    : L(L), LiveIn(L.liveInTable()) {
  Values.assign(L.numRegs(), AffineValue::top());
  PredFacts.assign(L.numRegs(), PredFact::Unknown);
  Overflowed.assign(L.numRegs(), false);
  if (L.hasKnownTripCount()) {
    TripKnown = true;
    TripHi = L.tripCount() - 1; // May be -1: zero-trip, empty range.
  }
  runFixpoint();
  computePredFacts();
  // Predicate facts sharpen the transfer of predicated definitions
  // (always-true guards stop joining with the zero default), which can in
  // turn sharpen facts; one refinement round captures the common cases
  // and every round is independently sound.
  runFixpoint();
  computePredFacts();
  // Flag overflow-prone IV arithmetic: base-free iteration-dependent
  // values whose real evaluation leaves int64 somewhere in the iteration
  // range. (Base-carrying values get no range claims at all, so only the
  // base-free ones need the endpoint check.)
  if (TripKnown && TripHi >= TripLo)
    for (RegId Reg = 0; Reg < L.numRegs(); ++Reg) {
      const AffineValue &V = Values[Reg];
      if (!V.isBaseFree() || V.Step == 0)
        continue;
      int64_t E0, E1;
      if (!checkedEval(V.Offset, V.Step, TripLo, E0) ||
          !checkedEval(V.Offset, V.Step, TripHi, E1))
        Overflowed[Reg] = true;
    }
  computeAccesses();
}

void SymbolicAnalysis::runFixpoint() {
  // Optimistic start: live-ins are opaque symbols, phi destinations their
  // own symbol (so a simple induction shows up as "recur == self + c").
  Values.assign(L.numRegs(), AffineValue::top());
  for (RegId Reg = 0; Reg < L.numRegs(); ++Reg)
    if (L.regClass(Reg) == RegClass::Int && LiveIn[Reg])
      Values[Reg] = AffineValue::symbol(Reg);
  for (const PhiNode &Phi : L.phis())
    if (L.regClass(Phi.Dest) == RegClass::Int)
      Values[Phi.Dest] = AffineValue::symbol(Phi.Dest);

  evaluateBody();

  // Resolve phis: hypothesize linear induction, verify by re-evaluation,
  // widen to Top on any mismatch. Widening is monotone (Affine -> Top
  // only), so the loop terminates; the cap is belt and braces.
  const size_t MaxRounds = L.phis().size() + 3;
  for (size_t Round = 0; Round < MaxRounds; ++Round) {
    bool Changed = false;
    for (const PhiNode &Phi : L.phis()) {
      if (L.regClass(Phi.Dest) != RegClass::Int)
        continue;
      const AffineValue &Cur = Values[Phi.Dest];
      if (Cur.isTop())
        continue;
      const AffineValue &Recur = Values[Phi.Recur];
      AffineValue Next = AffineValue::top();
      if (Cur == AffineValue::symbol(Phi.Dest)) {
        // Unresolved. The hypothesis needs a live-in init (the value the
        // phi holds when i == 0) and a recurrence of the form self + c
        // with no direct iteration term.
        if (LiveIn[Phi.Init] && Recur.isAffine() &&
            Recur.Base == Phi.Dest && Recur.Step == 0)
          Next = AffineValue{AffineValue::Kind::Affine, Phi.Init, 0,
                             Recur.Offset};
      } else {
        // Resolved to Base + Offset + Step*i earlier; it stays only if
        // the recurrence still evaluates to its value at iteration i+1.
        if (Recur.isAffine() && Recur.Base == Cur.Base &&
            Recur.Offset == wrapAdd(Cur.Offset, Cur.Step) &&
            Recur.Step == Cur.Step)
          Next = Cur;
      }
      if (!(Next == Cur)) {
        Values[Phi.Dest] = Next;
        Changed = true;
      }
    }
    if (!Changed)
      return;
    evaluateBody();
  }
  // Round cap hit: drop anything still unresolved and settle once more.
  for (const PhiNode &Phi : L.phis())
    if (Values[Phi.Dest] == AffineValue::symbol(Phi.Dest))
      Values[Phi.Dest] = AffineValue::top();
  evaluateBody();
}

void SymbolicAnalysis::evaluateBody() {
  for (const Instruction &Instr : L.body()) {
    if (!Instr.hasDest())
      continue;
    if (L.regClass(Instr.Dest) != RegClass::Int) {
      Values[Instr.Dest] = AffineValue::top();
      continue;
    }
    // Overflow is recomputed from scratch per call (transfer may set it
    // again via markOverflow), then operand taint is OR-ed in.
    Overflowed[Instr.Dest] = false;
    AffineValue Result = transfer(Instr);
    // A predicated-off instruction writes the class default (0), so a
    // definition under a guard that is not proven always-true is the
    // join of the computed value and zero.
    if (Instr.Pred != NoReg) {
      PredFact Guard = PredFacts[Instr.Pred];
      if (Guard == PredFact::AlwaysFalse)
        Result = intDefault();
      else if (Guard != PredFact::AlwaysTrue)
        Result = joinValues(Result, intDefault());
    }
    Values[Instr.Dest] = Result;
    bool Taint = Overflowed[Instr.Dest];
    for (RegId Op : Instr.Operands)
      Taint = Taint || Overflowed[Op];
    Overflowed[Instr.Dest] = Taint;
  }
}

AffineValue SymbolicAnalysis::transfer(const Instruction &Instr) {
  auto Op = [&](size_t Index) -> const AffineValue & {
    return Values[Instr.Operands[Index]];
  };
  auto markOverflow = [&]() { Overflowed[Instr.Dest] = true; };

  // Addition/subtraction of affine forms; at most one side may carry a
  // symbolic base (for subtraction, equal bases cancel).
  auto addLike = [&](const AffineValue &A, const AffineValue &B,
                     bool Negate) -> AffineValue {
    if (!A.isAffine() || !B.isAffine())
      return AffineValue::top();
    RegId Base;
    if (!Negate && (A.Base == NoReg || B.Base == NoReg))
      Base = A.Base != NoReg ? A.Base : B.Base;
    else if (Negate && A.Base == B.Base)
      Base = NoReg; // x - x cancels the symbol.
    else if (Negate && B.Base == NoReg)
      Base = A.Base;
    else
      return AffineValue::top();
    int64_t Off = Negate ? wrapSub(A.Offset, B.Offset)
                         : wrapAdd(A.Offset, B.Offset);
    int64_t Step =
        Negate ? wrapSub(A.Step, B.Step) : wrapAdd(A.Step, B.Step);
    int64_t Check;
    if ((Negate ? !checkedSub(A.Offset, B.Offset, Check)
                : !checkedAdd(A.Offset, B.Offset, Check)) ||
        (Negate ? !checkedSub(A.Step, B.Step, Check)
                : !checkedAdd(A.Step, B.Step, Check)))
      markOverflow();
    return {AffineValue::Kind::Affine, Base, Off, Step};
  };

  // Scaling an affine form by a constant; a symbolic base survives only
  // scale 1 (its implicit coefficient must stay 1) and scale 0 kills it.
  auto scale = [&](const AffineValue &A, int64_t Factor) -> AffineValue {
    if (!A.isAffine())
      return AffineValue::top();
    if (Factor == 0)
      return AffineValue::constant(0);
    if (A.Base != NoReg && Factor != 1)
      return AffineValue::top();
    int64_t Check;
    if (!checkedMul(A.Offset, Factor, Check) ||
        !checkedMul(A.Step, Factor, Check))
      markOverflow();
    return {AffineValue::Kind::Affine, A.Base, wrapMul(A.Offset, Factor),
            wrapMul(A.Step, Factor)};
  };

  switch (Instr.Op) {
  case Opcode::IAdd:
    return addLike(Op(0), Op(1), /*Negate=*/false);
  case Opcode::ISub:
    return addLike(Op(0), Op(1), /*Negate=*/true);
  case Opcode::IMul: {
    const AffineValue &A = Op(0), &B = Op(1);
    if (A.isConstant())
      return scale(B, A.Offset);
    if (B.isConstant())
      return scale(A, B.Offset);
    return AffineValue::top();
  }
  case Opcode::Shl: {
    const AffineValue &A = Op(0), &B = Op(1);
    if (!B.isConstant())
      return AffineValue::top();
    int64_t Count = B.Offset & 63; // The interpreter masks shift counts.
    if (Count >= 63)
      return AffineValue::top(); // 2^63 is not an int64 scale factor.
    return scale(A, int64_t(1) << Count);
  }
  case Opcode::IDiv:
  case Opcode::IRem:
  case Opcode::Shr:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor: {
    // Exact only for constant operands; fold with the interpreter's
    // defined edge cases (safe division, arithmetic Shr, masked counts).
    const AffineValue &A = Op(0), &B = Op(1);
    if (!A.isConstant() || !B.isConstant())
      return AffineValue::top();
    int64_t X = A.Offset, Y = B.Offset;
    constexpr int64_t Min64 = std::numeric_limits<int64_t>::min();
    switch (Instr.Op) {
    case Opcode::IDiv:
      return AffineValue::constant(
          Y == 0 ? 0 : (X == Min64 && Y == -1) ? Min64 : X / Y);
    case Opcode::IRem:
      return AffineValue::constant(
          Y == 0 ? X : (X == Min64 && Y == -1) ? 0 : X % Y);
    case Opcode::Shr:
      return AffineValue::constant(X >> (Y & 63));
    case Opcode::And:
      return AffineValue::constant(X & Y);
    case Opcode::Or:
      return AffineValue::constant(X | Y);
    default:
      return AffineValue::constant(X ^ Y);
    }
  }
  case Opcode::IConst:
    return AffineValue::constant(Instr.Imm);
  case Opcode::Copy:
    return Op(0);
  case Opcode::Select: {
    // Dest = Pred ? A : B with operands (pred, a, b).
    switch (PredFacts[Instr.Operands[0]]) {
    case PredFact::AlwaysTrue:
      return Op(1);
    case PredFact::AlwaysFalse:
      return Op(2);
    case PredFact::Unknown:
      return joinValues(Op(1), Op(2));
    }
    return AffineValue::top();
  }
  case Opcode::AddrGen:
    return Instr.Operands.size() == 2 ? addLike(Op(0), Op(1), false)
                                      : Op(0);
  case Opcode::IvAdd:
    // Defined as GlobalIter + 1 regardless of its operand.
    return {AffineValue::Kind::Affine, NoReg, 1, 1};
  case Opcode::Load:
  case Opcode::FCvt:
  default:
    return AffineValue::top();
  }
}

PredFact SymbolicAnalysis::compareFact(RegId A, RegId B) const {
  // Proves "A < B on every iteration" / "never". Both sides must be
  // base-free (an opaque symbol near the int64 boundary can wrap either
  // side, so even equal bases are not cancellable under < ), their real
  // evaluations must stay in int64 over the whole iteration range, and
  // so must the difference.
  // Identical values compare false under strict <, wrap or no wrap: the
  // same register, or two registers proven equal at every iteration.
  if (A == B)
    return PredFact::AlwaysFalse;
  const AffineValue &VA = Values[A], &VB = Values[B];
  if (VA.isAffine() && VA == VB)
    return PredFact::AlwaysFalse;
  if (!VA.isBaseFree() || !VB.isBaseFree())
    return PredFact::Unknown;
  if (Overflowed[A] || Overflowed[B])
    return PredFact::Unknown;
  int64_t DOff, DStep;
  if (!checkedSub(VA.Offset, VB.Offset, DOff) ||
      !checkedSub(VA.Step, VB.Step, DStep))
    return PredFact::Unknown;
  int64_t Lo = TripLo, Hi;
  if (TripKnown) {
    Hi = TripHi;
    if (Hi < Lo)
      return PredFact::Unknown; // Zero-trip loop: nothing to prove.
  } else {
    if (VA.Step != 0 || VB.Step != 0 || DStep != 0)
      return PredFact::Unknown; // Unbounded range, varying values.
    Hi = Lo;
  }
  // Each side must evaluate without wrap so concrete == real.
  int64_t T;
  if (!checkedEval(VA.Offset, VA.Step, Lo, T) ||
      !checkedEval(VA.Offset, VA.Step, Hi, T) ||
      !checkedEval(VB.Offset, VB.Step, Lo, T) ||
      !checkedEval(VB.Offset, VB.Step, Hi, T))
    return PredFact::Unknown;
  int64_t D0, D1;
  if (!checkedEval(DOff, DStep, Lo, D0) || !checkedEval(DOff, DStep, Hi, D1))
    return PredFact::Unknown;
  int64_t DMin = std::min(D0, D1), DMax = std::max(D0, D1);
  if (DMax < 0)
    return PredFact::AlwaysTrue; // A - B < 0 everywhere.
  if (DMin >= 0)
    return PredFact::AlwaysFalse; // A >= B everywhere.
  return PredFact::Unknown;
}

void SymbolicAnalysis::computePredFacts() {
  PredFacts.assign(L.numRegs(), PredFact::Unknown);
  for (const Instruction &Instr : L.body()) {
    if (!Instr.hasDest() || L.regClass(Instr.Dest) != RegClass::Pred)
      continue;
    PredFact Fact = PredFact::Unknown;
    switch (Instr.Op) {
    case Opcode::ICmp:
      Fact = compareFact(Instr.Operands[0], Instr.Operands[1]);
      break;
    case Opcode::PredSet: {
      // Two operands combine with AND; one operand copies.
      PredFact FA = PredFacts[Instr.Operands[0]];
      if (Instr.Operands.size() == 2) {
        PredFact FB = PredFacts[Instr.Operands[1]];
        if (FA == PredFact::AlwaysFalse || FB == PredFact::AlwaysFalse)
          Fact = PredFact::AlwaysFalse;
        else if (FA == PredFact::AlwaysTrue && FB == PredFact::AlwaysTrue)
          Fact = PredFact::AlwaysTrue;
      } else {
        Fact = FA;
      }
      break;
    }
    case Opcode::Select: {
      PredFact FC = PredFacts[Instr.Operands[0]];
      PredFact FA = PredFacts[Instr.Operands[1]];
      PredFact FB = PredFacts[Instr.Operands[2]];
      if (FC == PredFact::AlwaysTrue)
        Fact = FA;
      else if (FC == PredFact::AlwaysFalse)
        Fact = FB;
      else if (FA == FB)
        Fact = FA;
      break;
    }
    case Opcode::FCmp:
      // Strict < of a float register against itself is false on every
      // iteration (NaNs are canonicalized away by the interpreter, and
      // x < x is false even for NaN).
      if (Instr.Operands[0] == Instr.Operands[1])
        Fact = PredFact::AlwaysFalse;
      break;
    case Opcode::Copy:
      Fact = PredFacts[Instr.Operands[0]];
      break;
    default:
      // IvCmp (true except on the final iteration), copies of unknown
      // predicates, ...: unknown.
      break;
    }
    // A predicated predicate definition writes false when guarded off:
    // always-false survives (false joins false); always-true degrades.
    if (Instr.Pred != NoReg) {
      PredFact Guard = PredFacts[Instr.Pred];
      if (Guard == PredFact::AlwaysFalse)
        Fact = PredFact::AlwaysFalse;
      else if (Guard != PredFact::AlwaysTrue &&
               Fact != PredFact::AlwaysFalse)
        Fact = PredFact::Unknown;
    }
    PredFacts[Instr.Dest] = Fact;
  }
}

void SymbolicAnalysis::computeAccesses() {
  Accesses.clear();
  for (uint32_t Index = 0; Index < L.body().size(); ++Index) {
    const Instruction &Instr = L.body()[Index];
    if (!Instr.isMemory())
      continue;
    AccessSummary S;
    S.BodyIndex = Index;
    S.Sym = Instr.Mem.BaseSym;
    S.IsStore = Instr.isStore();
    S.SizeBytes = Instr.Mem.SizeBytes;
    S.Guard = guardFact(Instr);
    if (!Instr.Mem.Indirect) {
      S.AddressKnown = true;
      S.Offset = Instr.Mem.Offset;
      S.Stride = Instr.Mem.Stride;
    } else {
      // The index register is the last operand; an affine index folds
      // into a direct-form effective address. The interpreter computes
      // addresses in real (non-wrapping) arithmetic, so demand checked
      // combination here.
      const AffineValue &Idx = Values[Instr.Operands.back()];
      S.WasIndirect = true;
      int64_t Off, Stride;
      if (Idx.isAffine() && !Overflowed[Instr.Operands.back()] &&
          checkedAdd(Instr.Mem.Offset, Idx.Offset, Off) &&
          checkedAdd(Instr.Mem.Stride, Idx.Step, Stride)) {
        S.AddressKnown = true;
        S.Base = Idx.Base;
        S.Offset = Off;
        S.Stride = Stride;
      }
    }
    Accesses.push_back(S);
  }
}

PredFact SymbolicAnalysis::guardFact(const Instruction &Instr) const {
  if (Instr.Pred == NoReg)
    return PredFact::AlwaysTrue;
  return PredFacts[Instr.Pred];
}

bool SymbolicAnalysis::ivRange(int64_t &Lo, int64_t &Hi) const {
  if (!TripKnown)
    return false;
  Lo = TripLo;
  Hi = TripHi;
  return true;
}

bool SymbolicAnalysis::valueRange(RegId Reg, int64_t &Lo, int64_t &Hi) const {
  const AffineValue &V = Values[Reg];
  if (!V.isBaseFree() || Overflowed[Reg])
    return false;
  if (V.Step == 0) {
    Lo = Hi = V.Offset;
    return true;
  }
  if (!TripKnown || TripHi < TripLo)
    return false;
  int64_t E0, E1;
  if (!checkedEval(V.Offset, V.Step, TripLo, E0) ||
      !checkedEval(V.Offset, V.Step, TripHi, E1))
    return false;
  Lo = std::min(E0, E1);
  Hi = std::max(E0, E1);
  return true;
}

std::vector<StaticClaim> SymbolicAnalysis::claims() const {
  std::vector<StaticClaim> Out;
  // Zero-trip loops never execute an iteration; every per-iteration claim
  // is vacuous, so emit none.
  if (TripKnown && TripHi < TripLo)
    return Out;

  // Guard verdicts, in body order.
  for (uint32_t Index = 0; Index < L.body().size(); ++Index) {
    const Instruction &Instr = L.body()[Index];
    if (Instr.Pred == NoReg)
      continue;
    PredFact Fact = PredFacts[Instr.Pred];
    if (Fact == PredFact::Unknown)
      continue;
    StaticClaim C;
    C.K = Fact == PredFact::AlwaysTrue ? StaticClaim::Kind::GuardAlwaysTrue
                                       : StaticClaim::Kind::GuardAlwaysFalse;
    C.A = Index;
    Out.push_back(C);
  }

  // Range bounds for iteration-dependent integer values defined in the
  // loop (live-ins are opaque, constants are uninteresting).
  for (RegId Reg = 0; Reg < L.numRegs(); ++Reg) {
    if (L.regClass(Reg) != RegClass::Int || LiveIn[Reg])
      continue;
    const AffineValue &V = Values[Reg];
    if (!V.isBaseFree() || V.Step == 0)
      continue;
    StaticClaim C;
    C.K = StaticClaim::Kind::RangeBound;
    C.Reg = Reg;
    if (!valueRange(Reg, C.Lo, C.Hi))
      continue;
    Out.push_back(C);
  }

  // Pairwise disjointness, lags 0 .. MaxUnrollFactor-1, dependence-
  // relevant pairs only (at least one store; same symbol — distinct
  // symbols never alias by construction).
  for (size_t I = 0; I < Accesses.size(); ++I)
    for (size_t J = 0; J < Accesses.size(); ++J)
      for (unsigned Lag = 0; Lag < MaxUnrollFactor; ++Lag) {
        if (Lag == 0 && J <= I)
          continue; // Same-iteration pairs are unordered; emit once.
        const AccessSummary &A = Accesses[I], &B = Accesses[J];
        if (!A.IsStore && !B.IsStore)
          continue;
        if (A.Sym != B.Sym)
          continue;
        if (!provesDisjoint(*this, A, B, Lag))
          continue;
        StaticClaim C;
        C.K = StaticClaim::Kind::Disjoint;
        C.A = A.BodyIndex;
        C.B = B.BodyIndex;
        C.Lag = Lag;
        Out.push_back(C);
      }
  return Out;
}

std::string SymbolicAnalysis::describeValue(RegId Reg) const {
  const AffineValue &V = Values[Reg];
  if (V.isTop())
    return "top";
  std::string Out;
  auto appendSigned = [&](int64_t Term, const char *Suffix) {
    if (Out.empty()) {
      Out += std::to_string(Term) + Suffix;
    } else if (Term < 0) {
      // Render INT64_MIN safely: "- 9223372036854775808".
      Out += " - " + std::to_string(static_cast<uint64_t>(
                         -static_cast<uint64_t>(Term))) +
             Suffix;
    } else {
      Out += " + " + std::to_string(Term) + Suffix;
    }
  };
  if (V.Base != NoReg)
    Out += "%" + std::string(regClassPrefix(L.regClass(V.Base))) + "_" +
           L.regName(V.Base);
  if (V.Offset != 0 || (V.Base == NoReg && V.Step == 0))
    appendSigned(V.Offset, "");
  if (V.Step != 0)
    appendSigned(V.Step, "*i");
  return Out;
}

std::string metaopt::describeClaim(const StaticClaim &Claim, const Loop &L) {
  auto instrAt = [&](uint32_t Index) {
    std::string Out = "body[" + std::to_string(Index) + "]";
    if (Index < L.body().size())
      Out += std::string(" ") + opcodeName(L.body()[Index].Op);
    return Out;
  };
  switch (Claim.K) {
  case StaticClaim::Kind::Disjoint:
    return "disjoint " + instrAt(Claim.A) + " vs " + instrAt(Claim.B) +
           " lag=" + std::to_string(Claim.Lag);
  case StaticClaim::Kind::GuardAlwaysTrue:
    return "guard-always-true " + instrAt(Claim.A);
  case StaticClaim::Kind::GuardAlwaysFalse:
    return "guard-always-false " + instrAt(Claim.A);
  case StaticClaim::Kind::RangeBound:
    return "range %" + L.regName(Claim.Reg) + " in [" +
           std::to_string(Claim.Lo) + ", " + std::to_string(Claim.Hi) + "]";
  }
  return "unknown-claim";
}
