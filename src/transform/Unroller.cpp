//===- transform/Unroller.cpp ---------------------------------------------===//

#include "transform/Unroller.h"

#include <atomic>
#include <cassert>
#include <vector>

using namespace metaopt;

namespace {
std::atomic<UnrollAuditHook> AuditHook{nullptr};
} // namespace

UnrollAuditHook metaopt::setUnrollAuditHook(UnrollAuditHook Hook) {
  return AuditHook.exchange(Hook, std::memory_order_acq_rel);
}

UnrolledTripInfo metaopt::unrolledTripInfo(int64_t TripCount,
                                           unsigned Factor) {
  assert(Factor >= 1 && "unroll factor must be at least one");
  UnrolledTripInfo Info;
  if (TripCount <= 0)
    return Info;
  Info.MainIterations = TripCount / Factor;
  Info.EpilogueIterations = TripCount % Factor;
  return Info;
}

bool metaopt::isSplittableReduction(const Loop &L, const PhiNode &Phi) {
  // Reassociation is only sound when the running value is not observed:
  // the phi must feed exactly the accumulating operation and the new value
  // must feed only the phi (not, say, a store of the running total).
  unsigned DestUses = 0, RecurUses = 0;
  for (const Instruction &Instr : L.body()) {
    for (RegId Operand : Instr.Operands) {
      DestUses += Operand == Phi.Dest;
      RecurUses += Operand == Phi.Recur;
    }
    if (Instr.Pred == Phi.Dest)
      ++DestUses;
  }
  if (DestUses != 1 || RecurUses != 0)
    return false;
  // A sibling phi whose recurrence reads this phi's running value (either
  // the carried register or the freshly accumulated one) observes every
  // partial sum, so splitting would hand it one lane's partial instead.
  // Found by differential fuzzing (tests/fuzz_seeds/).
  for (const PhiNode &Other : L.phis()) {
    if (Other.Dest == Phi.Dest)
      continue;
    if (Other.Recur == Phi.Dest || Other.Recur == Phi.Recur)
      return false;
  }
  for (const Instruction &Instr : L.body()) {
    if (Instr.Dest != Phi.Recur)
      continue;
    switch (Instr.Op) {
    case Opcode::FAdd:
    case Opcode::FMul:
    case Opcode::IAdd:
    case Opcode::IMul:
      return Instr.Operands.size() == 2 &&
             (Instr.Operands[0] == Phi.Dest ||
              Instr.Operands[1] == Phi.Dest);
    case Opcode::FMA:
      return Instr.Operands.size() == 3 && Instr.Operands[2] == Phi.Dest;
    default:
      return false;
    }
  }
  return false;
}

namespace {

/// Carries the register renaming state across body copies. All tables are
/// flat arrays indexed by source RegId (x copy where needed) with NoReg as
/// the "absent" sentinel — unrollLoop runs 8x per simulated loop on the
/// labeling hot path, and the node-keyed maps this class used to hold
/// dominated its profile. The tables are lookup-only (never iterated), so
/// the representation cannot change the output.
class UnrollContext {
public:
  UnrollContext(const Loop &Source, Loop &Target, unsigned Factor)
      : Source(Source), Target(Target),
        LiveInMap(Source.numRegs(), NoReg),
        PhiDestMap(Source.numRegs(), NoReg),
        SplitPhiDest(static_cast<size_t>(Source.numRegs()) * Factor, NoReg),
        IsPhiDest(Source.numRegs(), 0), RecurOf(Source.numRegs(), NoReg),
        DefMap(static_cast<size_t>(Source.numRegs()) * Factor, NoReg),
        NumRegs(Source.numRegs()), Factor(Factor) {
    for (const PhiNode &Phi : Source.phis()) {
      IsPhiDest[Phi.Dest] = 1;
      RecurOf[Phi.Dest] = Phi.Recur;
    }
  }

  /// Declares that source phi \p Dest was split: copy k reads its own
  /// per-copy phi destination.
  void setSplitPhiDest(RegId SourceDest, unsigned Copy, RegId TargetDest) {
    SplitPhiDest[static_cast<size_t>(SourceDest) * Factor + Copy] =
        TargetDest;
  }

  /// Maps a live-in register of the source into the target, creating it on
  /// first use.
  RegId mapLiveIn(RegId Reg) {
    if (LiveInMap[Reg] != NoReg)
      return LiveInMap[Reg];
    RegId NewReg = Target.addReg(Source.regClass(Reg), Source.regName(Reg));
    LiveInMap[Reg] = NewReg;
    return NewReg;
  }

  /// Registers the target-side phi destination for source phi \p Dest.
  void setPhiDest(RegId SourceDest, RegId TargetDest) {
    PhiDestMap[SourceDest] = TargetDest;
  }

  /// Records that copy \p Copy renamed defined register \p Reg to \p New.
  void setDef(unsigned Copy, RegId Reg, RegId New) {
    DefMap[static_cast<size_t>(Copy) * NumRegs + Reg] = New;
  }

  /// Resolves the target register holding the value of source register
  /// \p Reg as seen by body copy \p Copy.
  RegId resolve(RegId Reg, unsigned Copy) {
    RegId Split = SplitPhiDest[static_cast<size_t>(Reg) * Factor + Copy];
    if (Split != NoReg)
      return Split;
    if (IsPhiDest[Reg]) {
      // A phi destination: copy 0 reads the (single) target phi; copy k>0
      // reads the value the previous copy computed for the recurrence.
      if (Copy == 0) {
        assert(PhiDestMap[Reg] != NoReg && "phi not pre-created");
        return PhiDestMap[Reg];
      }
      return resolve(RecurOf[Reg], Copy - 1);
    }
    RegId Def = DefMap[static_cast<size_t>(Copy) * NumRegs + Reg];
    if (Def != NoReg)
      return Def;
    assert(Source.isLiveIn(Reg) &&
           "operand neither live-in, phi, nor defined in an earlier copy");
    return mapLiveIn(Reg);
  }

private:
  const Loop &Source;
  Loop &Target;
  std::vector<RegId> LiveInMap;
  std::vector<RegId> PhiDestMap;
  std::vector<RegId> SplitPhiDest; ///< [SourceDest * Factor + Copy].
  std::vector<char> IsPhiDest;
  std::vector<RegId> RecurOf;
  std::vector<RegId> DefMap; ///< [Copy * NumRegs + Reg].
  unsigned NumRegs;
  unsigned Factor;
};

} // namespace

Loop metaopt::unrollLoop(const Loop &L, unsigned Factor) {
  assert(Factor >= 1 && Factor <= MaxUnrollFactor &&
         "unroll factor out of range");

  int64_t NewTrip = L.hasKnownTripCount()
                        ? L.tripCount() / static_cast<int64_t>(Factor)
                        : Loop::UnknownTripCount;
  Loop Result(L.name() + ".u" + std::to_string(Factor), L.language(),
              L.nestLevel(), NewTrip);
  Result.setRuntimeTripCount(
      unrolledTripInfo(L.runtimeTripCount(), Factor).MainIterations);

  // About one target register per source register and copy, plus the
  // fresh loop-control tail's three; the reservations are only a hint.
  Result.reserveRegs(L.numRegs() * Factor + 3);
  Result.body().reserve(L.bodySizeWithoutControl() * Factor + 3);
  Result.phis().reserve(L.phis().size() * Factor);

  UnrollContext Ctx(L, Result, Factor);

  // Pre-create the phis; the recurrences are wired up after the copies
  // are emitted. Associative accumulations are split into one independent
  // accumulator per copy (reassociation) — this is how unrolling breaks a
  // reduction's recurrence and exposes ILP; the extra accumulators are
  // combined once after the loop, which the epilogue accounting absorbs.
  struct PendingPhi {
    RegId SourceRecur;
    size_t TargetIndex;
    unsigned Copy; ///< Which copy feeds this phi (Factor-1 when unsplit).
  };
  std::vector<PendingPhi> Pending;
  for (const PhiNode &Phi : L.phis()) {
    if (Factor > 1 && isSplittableReduction(L, Phi)) {
      for (unsigned Copy = 0; Copy < Factor; ++Copy) {
        PhiNode NewPhi;
        NewPhi.SrcLine = Phi.SrcLine;
        std::string Suffix = "." + std::to_string(Copy);
        NewPhi.Dest = Result.addReg(L.regClass(Phi.Dest),
                                    L.regName(Phi.Dest) + Suffix);
        // Copy 0 continues from the original initial value; the other
        // accumulators start from the operation's identity element,
        // modeled as fresh live-ins.
        NewPhi.Init =
            Copy == 0 ? Ctx.mapLiveIn(Phi.Init)
                      : Result.addReg(L.regClass(Phi.Init),
                                      L.regName(Phi.Init) + Suffix);
        NewPhi.Recur = NoReg;
        Ctx.setSplitPhiDest(Phi.Dest, Copy, NewPhi.Dest);
        Result.addPhi(NewPhi);
        Pending.push_back({Phi.Recur, Result.phis().size() - 1, Copy});
      }
      continue;
    }
    PhiNode NewPhi;
    NewPhi.SrcLine = Phi.SrcLine;
    NewPhi.Dest = Result.addReg(L.regClass(Phi.Dest), L.regName(Phi.Dest));
    NewPhi.Init = Ctx.mapLiveIn(Phi.Init);
    NewPhi.Recur = NoReg;
    Ctx.setPhiDest(Phi.Dest, NewPhi.Dest);
    Result.addPhi(NewPhi);
    Pending.push_back({Phi.Recur, Result.phis().size() - 1, Factor - 1});
  }

  for (unsigned Copy = 0; Copy < Factor; ++Copy) {
    for (const Instruction &Instr : L.body()) {
      if (Instr.isLoopControl())
        continue; // A single fresh tail is appended below.
      Instruction Clone = Instr;
      for (RegId &Operand : Clone.Operands)
        Operand = Ctx.resolve(Operand, Copy);
      if (Instr.Pred != NoReg)
        Clone.Pred = Ctx.resolve(Instr.Pred, Copy);
      if (Instr.hasDest()) {
        std::string NewName = L.regName(Instr.Dest);
        if (Factor > 1) {
          // Copy < MaxUnrollFactor: always a single digit.
          static_assert(MaxUnrollFactor <= 10);
          NewName += '.';
          NewName += static_cast<char>('0' + Copy);
        }
        Clone.Dest =
            Result.addReg(L.regClass(Instr.Dest), std::move(NewName));
        Ctx.setDef(Copy, Instr.Dest, Clone.Dest);
      }
      if (Instr.isMemory()) {
        Clone.Mem.Offset =
            Instr.Mem.Offset +
            Instr.Mem.Stride * static_cast<int64_t>(Copy);
        Clone.Mem.Stride = Instr.Mem.Stride * static_cast<int64_t>(Factor);
      }
      Result.addInstruction(std::move(Clone));
    }
  }

  // Wire the phi recurrences: split accumulators recur on their own
  // copy's value, unsplit phis on the last copy's.
  for (const PendingPhi &P : Pending)
    Result.phis()[P.TargetIndex].Recur =
        Ctx.resolve(P.SourceRecur, P.Copy);

  // Fresh canonical loop-control tail.
  RegId Iv = Result.addReg(RegClass::Int, "iv");
  Instruction Inc;
  Inc.Op = Opcode::IvAdd;
  Inc.Operands.push_back(Iv);
  Inc.Dest = Result.addReg(RegClass::Int, "iv.next");
  Result.addInstruction(Inc);

  Instruction Cmp;
  Cmp.Op = Opcode::IvCmp;
  Cmp.Operands.push_back(Result.body().back().Dest);
  Cmp.Dest = Result.addReg(RegClass::Pred, "iv.cond");
  Result.addInstruction(Cmp);

  Instruction Br;
  Br.Op = Opcode::BackBr;
  Br.Operands.push_back(Result.body().back().Dest);
  Result.addInstruction(Br);

  if (UnrollAuditHook Hook = AuditHook.load(std::memory_order_acquire))
    Hook(L, Result, Factor);

  return Result;
}
