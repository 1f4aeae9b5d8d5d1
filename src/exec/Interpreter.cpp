//===- exec/Interpreter.cpp - Reference loop IR interpreter ---------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"

#include "support/Rng.h"
#include "transform/Unroller.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

using namespace metaopt;

ExecValue metaopt::execInt(int64_t Value) {
  ExecValue V;
  V.I = Value;
  return V;
}

ExecValue metaopt::execFloat(double Value) {
  ExecValue V;
  V.F = Value;
  return V;
}

ExecValue metaopt::execPred(bool Value) {
  ExecValue V;
  V.P = Value;
  return V;
}

bool metaopt::execValueEquals(RegClass RC, const ExecValue &A,
                              const ExecValue &B) {
  switch (RC) {
  case RegClass::Int:
    return A.I == B.I;
  case RegClass::Float: {
    // Bit comparison: +0.0 vs -0.0 and (canonicalized-away) NaNs must not
    // silently compare equal.
    uint64_t BitsA, BitsB;
    std::memcpy(&BitsA, &A.F, sizeof(BitsA));
    std::memcpy(&BitsB, &B.F, sizeof(BitsB));
    return BitsA == BitsB;
  }
  case RegClass::Pred:
    return A.P == B.P;
  }
  return false;
}

namespace {

uint64_t doubleBits(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

uint64_t rotl64(uint64_t Value, int Shift) {
  return (Value << Shift) | (Value >> (64 - Shift));
}

/// Replaces a non-finite FP result with a finite stand-in derived from the
/// *operands* (never the result's NaN payload, which is platform-defined).
double canonicalizeFp(double Result, uint64_t Material) {
  if (std::isfinite(Result))
    return Result;
  return execNiceDouble(execMix(Material));
}

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

constexpr int64_t Int64Min = std::numeric_limits<int64_t>::min();

int64_t safeDiv(int64_t A, int64_t B) {
  if (B == 0)
    return 0;
  if (A == Int64Min && B == -1)
    return Int64Min;
  return A / B;
}

int64_t safeRem(int64_t A, int64_t B) {
  if (B == 0)
    return A;
  if (A == Int64Min && B == -1)
    return 0;
  return A % B;
}

struct Machine {
  const Loop &L;
  const ExecOptions &Opts;
  MemoryImage Mem;
  std::vector<ExecValue> R;
  int64_t Iterations;

  Machine(const Loop &L, const ExecOptions &Opts, MemoryImage Image)
      : L(L), Opts(Opts), Mem(std::move(Image)), R(L.numRegs()) {
    Iterations = Opts.Iterations >= 0 ? Opts.Iterations : L.runtimeTripCount();
  }

  ExecValue &value(RegId Reg) {
    assert(Reg < R.size() && "register out of range");
    return R[Reg];
  }

  bool predOn(const Instruction &Instr) {
    return Instr.Pred == NoReg || value(Instr.Pred).P;
  }

  int64_t address(const Instruction &Instr, int64_t GlobalIter) {
    int64_t Addr = Instr.Mem.Offset + Instr.Mem.Stride * GlobalIter;
    if (Instr.Mem.Indirect) {
      // The index register is the last operand (loads: the only one,
      // stores: after the value).
      assert(!Instr.Operands.empty());
      Addr += value(Instr.Operands.back()).I;
    }
    return Addr;
  }

  void writeDefault(const Instruction &Instr) {
    if (!Instr.hasDest())
      return;
    value(Instr.Dest) = ExecValue{};
  }

  /// Executes one instruction. Returns true when an ExitIf fired.
  bool step(const Instruction &Instr, int64_t LocalIter, int64_t GlobalIter) {
    if (!predOn(Instr)) {
      writeDefault(Instr);
      return false;
    }
    auto Op = [&](size_t Index) -> ExecValue & {
      return value(Instr.Operands[Index]);
    };
    switch (Instr.Op) {
    case Opcode::IAdd:
      value(Instr.Dest).I = wrapAdd(Op(0).I, Op(1).I);
      return false;
    case Opcode::ISub:
      value(Instr.Dest).I = wrapSub(Op(0).I, Op(1).I);
      return false;
    case Opcode::IMul:
      value(Instr.Dest).I = wrapMul(Op(0).I, Op(1).I);
      return false;
    case Opcode::IDiv:
      value(Instr.Dest).I = safeDiv(Op(0).I, Op(1).I);
      return false;
    case Opcode::IRem:
      value(Instr.Dest).I = safeRem(Op(0).I, Op(1).I);
      return false;
    case Opcode::Shl:
      value(Instr.Dest).I = static_cast<int64_t>(
          static_cast<uint64_t>(Op(0).I) << (Op(1).I & 63));
      return false;
    case Opcode::Shr:
      value(Instr.Dest).I = Op(0).I >> (Op(1).I & 63);
      return false;
    case Opcode::And:
      value(Instr.Dest).I = Op(0).I & Op(1).I;
      return false;
    case Opcode::Or:
      value(Instr.Dest).I = Op(0).I | Op(1).I;
      return false;
    case Opcode::Xor:
      value(Instr.Dest).I = Op(0).I ^ Op(1).I;
      return false;
    case Opcode::ICmp:
      value(Instr.Dest).P = Op(0).I < Op(1).I;
      return false;
    case Opcode::IConst:
      value(Instr.Dest).I = Instr.Imm;
      return false;
    case Opcode::FAdd:
      value(Instr.Dest).F =
          canonicalizeFp(Op(0).F + Op(1).F,
                         doubleBits(Op(0).F) ^ rotl64(doubleBits(Op(1).F), 13));
      return false;
    case Opcode::FSub:
      value(Instr.Dest).F =
          canonicalizeFp(Op(0).F - Op(1).F,
                         doubleBits(Op(0).F) ^ rotl64(doubleBits(Op(1).F), 17));
      return false;
    case Opcode::FMul:
      value(Instr.Dest).F =
          canonicalizeFp(Op(0).F * Op(1).F,
                         doubleBits(Op(0).F) ^ rotl64(doubleBits(Op(1).F), 21));
      return false;
    case Opcode::FMA:
      value(Instr.Dest).F = canonicalizeFp(
          std::fma(Op(0).F, Op(1).F, Op(2).F),
          doubleBits(Op(0).F) ^ rotl64(doubleBits(Op(1).F), 13) ^
              rotl64(doubleBits(Op(2).F), 26));
      return false;
    case Opcode::FDiv:
      value(Instr.Dest).F =
          canonicalizeFp(Op(0).F / Op(1).F,
                         doubleBits(Op(0).F) ^ rotl64(doubleBits(Op(1).F), 29));
      return false;
    case Opcode::FSqrt:
      value(Instr.Dest).F =
          canonicalizeFp(std::sqrt(Op(0).F), rotl64(doubleBits(Op(0).F), 7));
      return false;
    case Opcode::FCmp:
      value(Instr.Dest).P = Op(0).F < Op(1).F;
      return false;
    case Opcode::FConst:
      value(Instr.Dest).F = static_cast<double>(Instr.Imm);
      return false;
    case Opcode::FCvt:
      // Int -> float; always finite for any int64.
      value(Instr.Dest).F = static_cast<double>(Op(0).I);
      return false;
    case Opcode::Copy:
      value(Instr.Dest) = Op(0);
      return false;
    case Opcode::Select:
      value(Instr.Dest) = Op(0).P ? Op(1) : Op(2);
      return false;
    case Opcode::Load: {
      int64_t Addr = address(Instr, GlobalIter);
      if (L.regClass(Instr.Dest) == RegClass::Float)
        value(Instr.Dest).F = Mem.loadFloat(Instr.Mem.BaseSym, Addr,
                                            Instr.Mem.SizeBytes);
      else
        value(Instr.Dest).I =
            Mem.loadInt(Instr.Mem.BaseSym, Addr, Instr.Mem.SizeBytes);
      return false;
    }
    case Opcode::Store: {
      int64_t Addr = address(Instr, GlobalIter);
      const ExecValue &V = Op(0);
      if (L.regClass(Instr.Operands[0]) == RegClass::Float)
        Mem.storeFloat(Instr.Mem.BaseSym, Addr, Instr.Mem.SizeBytes, V.F);
      else
        Mem.storeInt(Instr.Mem.BaseSym, Addr, Instr.Mem.SizeBytes, V.I);
      return false;
    }
    case Opcode::AddrGen:
      value(Instr.Dest).I =
          Instr.Operands.size() == 2 ? wrapAdd(Op(0).I, Op(1).I) : Op(0).I;
      return false;
    case Opcode::PredSet:
      value(Instr.Dest).P =
          Instr.Operands.size() == 2 ? (Op(0).P && Op(1).P) : Op(0).P;
      return false;
    case Opcode::ExitIf:
      return Op(0).P;
    case Opcode::Call:
      // Opaque but pure: a scheduling barrier with no dataflow effect.
      return false;
    case Opcode::IvAdd:
      value(Instr.Dest).I = GlobalIter + 1;
      return false;
    case Opcode::IvCmp:
      value(Instr.Dest).P = LocalIter + 1 < Iterations;
      return false;
    case Opcode::BackBr:
      return false;
    }
    assert(false && "unhandled opcode");
    return false;
  }
};

} // namespace

ExecValue metaopt::synthesizeLiveIn(const Loop &L, RegId Reg, uint64_t Seed) {
  RegClass RC = L.regClass(Reg);
  uint64_t Tag = RC == RegClass::Int     ? 0x11aa77ULL
                 : RC == RegClass::Float ? 0xff0a77ULL
                                         : 0x90ed77ULL;
  uint64_t Hash = execMix(Seed ^ Tag ^ Rng::hashString(L.regName(Reg)));
  switch (RC) {
  case RegClass::Int:
    return execInt(execNiceInt(Hash));
  case RegClass::Float:
    return execFloat(execNiceDouble(Hash));
  case RegClass::Pred:
    return execPred((Hash >> 7) & 1);
  }
  return {};
}

bool metaopt::reductionIdentity(const Loop &L, const PhiNode &Phi,
                                ExecValue &Out) {
  if (!isSplittableReduction(L, Phi))
    return false;
  for (const Instruction &Instr : L.body()) {
    if (Instr.Dest != Phi.Recur)
      continue;
    switch (Instr.Op) {
    case Opcode::IAdd:
      Out = execInt(0);
      return true;
    case Opcode::IMul:
      Out = execInt(1);
      return true;
    case Opcode::FAdd:
    case Opcode::FMA:
      Out = execFloat(0.0);
      return true;
    case Opcode::FMul:
      Out = execFloat(1.0);
      return true;
    default:
      return false;
    }
  }
  return false;
}

ExecResult metaopt::interpretLoop(const Loop &L, const ExecOptions &Opts,
                                  MemoryImage Mem) {
  Machine M(L, Opts, std::move(Mem));

  // Live-in values: overrides first, then name-keyed synthesis.
  std::vector<char> LiveIn = L.liveInTable();
  for (RegId Reg = 0; Reg < L.numRegs(); ++Reg) {
    if (!LiveIn[Reg])
      continue;
    auto It = Opts.LiveInOverrides.find(Reg);
    M.value(Reg) =
        It != Opts.LiveInOverrides.end()
            ? It->second
            : synthesizeLiveIn(L, Reg, Opts.Seed);
  }

  const auto &Phis = L.phis();
  unsigned Lanes = Opts.SplitLanes > 1 ? Opts.SplitLanes : 0;

  // Split-lane state: lane 0 inherits the init, lanes k > 0 start at the
  // reduction's identity (matching the unroller's fresh accumulators).
  std::vector<std::vector<ExecValue>> LaneState(Phis.size());
  if (Lanes)
    for (size_t J = 0; J < Phis.size(); ++J) {
      ExecValue Identity;
      if (!reductionIdentity(L, Phis[J], Identity))
        continue;
      LaneState[J].assign(Lanes, Identity);
      LaneState[J][0] = M.value(Phis[J].Init);
    }

  // Top of the first iteration: phi dests take their init (or lane 0).
  for (size_t J = 0; J < Phis.size(); ++J)
    M.value(Phis[J].Dest) = M.value(Phis[J].Init);

  ExecResult Result;
  for (int64_t Iter = 0; Iter < M.Iterations; ++Iter) {
    int64_t Global = Opts.StartIteration + Iter;

    if (Lanes)
      for (size_t J = 0; J < Phis.size(); ++J)
        if (!LaneState[J].empty())
          M.value(Phis[J].Dest) = LaneState[J][Iter % Lanes];

    for (size_t I = 0; I < L.body().size(); ++I) {
      const Instruction &Instr = L.body()[I];
      // Trace observations that a step could clobber (the guard register
      // and an indirect index register can both be the destination) are
      // sampled before the step; the destination value after.
      ExecTraceStep TS;
      if (Opts.Trace) {
        TS.Iteration = Iter;
        TS.BodyIndex = static_cast<uint32_t>(I);
        TS.GuardOn = M.predOn(Instr);
        if (Instr.isMemory() && TS.GuardOn) {
          TS.IsMemory = true;
          TS.Address = M.address(Instr, Global);
        }
      }
      bool Fired = M.step(Instr, Iter, Global);
      if (Opts.Trace) {
        if (Instr.hasDest() && L.regClass(Instr.Dest) == RegClass::Int) {
          TS.HasIntDest = true;
          TS.IntDest = M.value(Instr.Dest).I;
        }
        Opts.Trace->Steps.push_back(TS);
      }
      if (Fired) {
        Result.Exited = true;
        Result.ExitIteration = Iter;
        Result.ExitBodyIndex = static_cast<int64_t>(I);
        break;
      }
    }
    if (Result.Exited)
      break;

    // Backedge: all phis rotate simultaneously (read every recur before
    // writing any dest, so phi-to-phi rotations behave).
    std::vector<ExecValue> Next(Phis.size());
    for (size_t J = 0; J < Phis.size(); ++J)
      Next[J] = M.value(Phis[J].Recur);
    for (size_t J = 0; J < Phis.size(); ++J) {
      if (Lanes && !LaneState[J].empty())
        LaneState[J][Iter % Lanes] = Next[J];
      else
        M.value(Phis[J].Dest) = Next[J];
    }
    Result.IterationsExecuted = Iter + 1;
  }

  Result.PhiFinal.resize(Phis.size());
  for (size_t J = 0; J < Phis.size(); ++J)
    Result.PhiFinal[J] = M.value(Phis[J].Dest);
  if (Lanes)
    Result.SplitLanes = std::move(LaneState);
  Result.Memory = std::move(M.Mem);
  return Result;
}

ExecResult metaopt::interpretLoop(const Loop &L, const ExecOptions &Opts) {
  return interpretLoop(L, Opts, MemoryImage(Opts.Seed));
}

Fingerprint ExecResult::digest(const Loop &L) const {
  FingerprintHasher Hasher;
  Hasher.i64(IterationsExecuted);
  Hasher.boolean(Exited);
  Hasher.i64(ExitIteration);
  Hasher.i64(ExitBodyIndex);
  const auto &Phis = L.phis();
  for (size_t J = 0; J < Phis.size() && J < PhiFinal.size(); ++J) {
    Hasher.str(L.regName(Phis[J].Dest));
    switch (L.regClass(Phis[J].Dest)) {
    case RegClass::Int:
      Hasher.i64(PhiFinal[J].I);
      break;
    case RegClass::Float:
      Hasher.f64(PhiFinal[J].F);
      break;
    case RegClass::Pred:
      Hasher.boolean(PhiFinal[J].P);
      break;
    }
  }
  Hasher.u64(SplitLanes.size());
  for (const auto &LanesForPhi : SplitLanes) {
    Hasher.u64(LanesForPhi.size());
    for (const ExecValue &V : LanesForPhi) {
      Hasher.i64(V.I);
      Hasher.f64(V.F);
      Hasher.boolean(V.P);
    }
  }
  Fingerprint MemFp = Memory.storeDigest();
  Hasher.u64(MemFp.Lo);
  Hasher.u64(MemFp.Hi);
  return Hasher.digest();
}
