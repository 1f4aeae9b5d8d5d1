//===- analysis/Liveness.cpp ----------------------------------------------===//

#include "analysis/Liveness.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>

using namespace metaopt;

namespace {

constexpr uint32_t NoPos = std::numeric_limits<uint32_t>::max();

constexpr uint8_t RegControl = 1;    ///< Dest or operand of loop control.
constexpr uint8_t RegPhiDest = 2;    ///< Loop::isPhiDest.
constexpr uint8_t RegDefined = 4;    ///< !Loop::isLiveIn.
constexpr uint8_t RegAcrossBack = 8; ///< Phi recurrence source.

} // namespace

// Every register gets one inclusive live interval [Begin, End] of
// positions in the evaluation order; the pass adds +1 at Begin and -1 at
// End + 1 of a per-class delta array and sweeps positions [0, N) once.
// End is at most N (recurrence sources), so the arrays hold N + 2 slots.
LivenessInfo metaopt::analyzeLiveness(const Loop &L,
                                      const std::vector<uint32_t> &Order) {
  const std::vector<Instruction> &Body = L.body();
  size_t N = Body.size();
  unsigned R = L.numRegs();
  assert((Order.empty() || Order.size() == N) &&
         "order must cover the whole body");

  // Position of each body instruction in the evaluation order.
  std::vector<uint32_t> Position(N);
  for (uint32_t Pos = 0; Pos < N; ++Pos)
    Position[Order.empty() ? Pos : Order[Pos]] = Pos;

  std::vector<uint8_t> Flags(R, 0);
  std::vector<uint32_t> DefPos(R, NoPos);
  std::vector<uint32_t> LastUse(R, NoPos);
  for (const PhiNode &Phi : L.phis()) {
    if (Phi.Recur != NoReg)
      Flags[Phi.Recur] |= RegAcrossBack;
    if (Phi.Dest != NoReg)
      Flags[Phi.Dest] |= RegPhiDest | RegDefined;
  }
  for (uint32_t I = 0; I < N; ++I) {
    const Instruction &Instr = Body[I];
    if (Instr.hasDest())
      Flags[Instr.Dest] |= RegDefined;
    // Loop-control registers (the induction variable and trip-test
    // predicate) live in dedicated machine state (counted-branch
    // registers) and do not contribute to allocatable pressure.
    if (Instr.isLoopControl()) {
      if (Instr.hasDest())
        Flags[Instr.Dest] |= RegControl;
      for (RegId Operand : Instr.Operands)
        Flags[Operand] |= RegControl;
      continue;
    }
    uint32_t Pos = Position[I];
    if (Instr.hasDest())
      DefPos[Instr.Dest] = Pos;
    auto NoteUse = [&](RegId Reg) {
      if (LastUse[Reg] == NoPos || LastUse[Reg] < Pos)
        LastUse[Reg] = Pos;
    };
    for (RegId Operand : Instr.Operands)
      NoteUse(Operand);
    if (Instr.Pred != NoReg)
      NoteUse(Instr.Pred);
  }

  LivenessInfo Info;
  uint32_t EndPos = static_cast<uint32_t>(N);
  std::array<std::vector<int>, 3> Delta;
  for (std::vector<int> &D : Delta)
    D.assign(N + 2, 0);

  for (RegId Reg = 0; Reg < R; ++Reg) {
    uint8_t F = Flags[Reg];
    if (F & RegControl)
      continue;
    if (!(F & RegDefined)) {
      // Invariant inputs occupy a register for the whole loop; only count
      // ones that are actually read (phi initial values are consumed
      // before the steady state and are not loop-long pressure).
      if (LastUse[Reg] != NoPos)
        ++Info.NumLiveIn;
      continue;
    }
    // Phi destinations are live from position 0; temporaries from their
    // definition to their last use (or just the definition when unread).
    uint32_t Begin = 0, End = 0;
    if (F & RegPhiDest) {
      End = LastUse[Reg] == NoPos ? 0 : LastUse[Reg];
    } else {
      if (DefPos[Reg] == NoPos)
        continue; // Unused register id.
      Begin = DefPos[Reg];
      End = LastUse[Reg] == NoPos ? Begin : std::max(Begin, LastUse[Reg]);
    }
    // Recurrence sources stay live to the end of the body.
    if (F & RegAcrossBack) {
      End = EndPos;
      ++Info.NumAcrossBack;
    }
    std::vector<int> &D = Delta[static_cast<unsigned>(L.regClass(Reg))];
    ++D[Begin];
    --D[End + 1];
  }

  int Live[3] = {0, 0, 0};
  double LiveSum = 0.0;
  for (uint32_t Pos = 0; Pos < EndPos; ++Pos) {
    for (unsigned C = 0; C < 3; ++C)
      Live[C] += Delta[C][Pos];
    unsigned LiveInt = static_cast<unsigned>(Live[0]);
    unsigned LiveFloat = static_cast<unsigned>(Live[1]);
    unsigned LivePred = static_cast<unsigned>(Live[2]);
    Info.MaxLiveInt = std::max(Info.MaxLiveInt, LiveInt);
    Info.MaxLiveFloat = std::max(Info.MaxLiveFloat, LiveFloat);
    Info.MaxLivePred = std::max(Info.MaxLivePred, LivePred);
    Info.MaxLiveTotal =
        std::max(Info.MaxLiveTotal, LiveInt + LiveFloat + LivePred);
    LiveSum += LiveInt + LiveFloat + LivePred;
  }
  if (EndPos > 0)
    Info.AvgLiveTotal = LiveSum / EndPos;
  return Info;
}
