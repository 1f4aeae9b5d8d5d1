//===- ir/Verifier.cpp ----------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Printer.h"

using namespace metaopt;

namespace {

class VerifierImpl {
public:
  VerifierImpl(const Loop &L, const VerifyOptions &Options)
      : L(L), Options(Options) {}

  DiagnosticReport run() {
    computeFirstDefs();
    checkRegisterIds();
    checkSingleDefinitions();
    checkPhis();
    checkInstructions();
    checkLoopControl();
    return std::move(Report);
  }

private:
  const Loop &L;
  const VerifyOptions &Options;
  DiagnosticReport Report;

  void error(const char *Id, const std::string &Message) {
    Diagnostic D;
    D.Id = Id;
    D.Sev = Severity::Error;
    D.LoopName = L.name();
    D.SrcLine = L.headerLine();
    D.Message = Message;
    Report.add(std::move(D));
  }

  void errorAt(const char *Id, size_t BodyIndex,
               const std::string &Message) {
    Diagnostic D;
    D.Id = Id;
    D.Sev = Severity::Error;
    D.LoopName = L.name();
    const Instruction &Instr = L.body()[BodyIndex];
    D.BodyIndex = static_cast<int>(BodyIndex);
    D.SrcLine = Instr.SrcLine;
    D.Message = Message;
    // The printer also reads a store's value and a memory access's index
    // operand by position.
    size_t Positional = (Instr.isStore() ? 1 : 0) +
                        (Instr.isMemory() && Instr.Mem.Indirect ? 1 : 0);
    if (instrPrintable(Instr) && Instr.Operands.size() >= Positional)
      D.Context = "instruction " + std::to_string(BodyIndex) + ": " +
                  printInstruction(L, Instr);
    else
      D.Context = "instruction " + std::to_string(BodyIndex);
    Report.add(std::move(D));
  }

  bool validReg(RegId Reg) const { return Reg < L.numRegs(); }

  /// True when every register the instruction mentions is in range, so
  /// the printer and class queries are safe.
  bool instrPrintable(const Instruction &Instr) const {
    if (Instr.Dest != NoReg && !validReg(Instr.Dest))
      return false;
    if (Instr.Pred != NoReg && !validReg(Instr.Pred))
      return false;
    for (RegId Operand : Instr.Operands)
      if (Operand == NoReg || !validReg(Operand))
        return false;
    return true;
  }

  bool phiRegsValid(const PhiNode &Phi) const {
    return validReg(Phi.Dest) && validReg(Phi.Init) && validReg(Phi.Recur);
  }

  void checkRegisterIds() {
    // The message is only materialized on the error path; passing the
    // role as a literal keeps the (overwhelmingly common) clean case
    // allocation-free.
    auto Check = [&](RegId Reg, const char *What, size_t BodyIndex) {
      if (Reg == NoReg || validReg(Reg))
        return;
      std::string Message = std::string(What) +
                            " references out-of-range register " +
                            std::to_string(Reg);
      if (BodyIndex != static_cast<size_t>(-1))
        errorAt(diag::RegOutOfRange, BodyIndex, Message);
      else
        error(diag::RegOutOfRange, Message);
    };
    for (const PhiNode &Phi : L.phis()) {
      Check(Phi.Dest, "phi dest", -1);
      Check(Phi.Init, "phi init", -1);
      Check(Phi.Recur, "phi recur", -1);
      if (Phi.Dest == NoReg || Phi.Init == NoReg || Phi.Recur == NoReg)
        error(diag::PhiUnsetReg, "phi has an unset register");
    }
    for (size_t I = 0; I < L.body().size(); ++I) {
      const Instruction &Instr = L.body()[I];
      Check(Instr.Dest, "dest", I);
      Check(Instr.Pred, "predicate", I);
      for (RegId Operand : Instr.Operands)
        Check(Operand, "operand", I);
    }
  }

  void checkSingleDefinitions() {
    std::vector<char> Defined(L.numRegs(), 0);
    auto Insert = [&](RegId Reg) {
      if (Defined[Reg])
        return false;
      Defined[Reg] = 1;
      return true;
    };
    for (const PhiNode &Phi : L.phis())
      if (validReg(Phi.Dest) && !Insert(Phi.Dest))
        error(diag::MultipleDef, "register " + L.regName(Phi.Dest) +
                                     " defined more than once");
    for (size_t I = 0; I < L.body().size(); ++I) {
      const Instruction &Instr = L.body()[I];
      if (Instr.hasDest() && validReg(Instr.Dest) && !Insert(Instr.Dest))
        errorAt(diag::MultipleDef, I,
                "register " + L.regName(Instr.Dest) +
                    " defined more than once");
    }
  }

  void checkPhis() {
    for (const PhiNode &Phi : L.phis()) {
      if (!phiRegsValid(Phi))
        continue; // V001/V002 reported already.
      RegClass RC = L.regClass(Phi.Dest);
      if (L.regClass(Phi.Init) != RC || L.regClass(Phi.Recur) != RC)
        error(diag::PhiClassMismatch,
              "phi " + L.regName(Phi.Dest) + " mixes register classes");
      if (!isLiveIn(Phi.Init))
        error(diag::PhiInitNotLiveIn,
              "phi " + L.regName(Phi.Dest) +
                  " initial value must be live-in");
      if (Phi.Recur == Phi.Dest)
        error(diag::PhiSelfRecurrence,
              "phi " + L.regName(Phi.Dest) + " recurs on itself directly");
      // The recurrence source must be computed by the body.
      bool DefinedInBody = FirstDef[Phi.Recur] != NoFirstDef;
      if (!DefinedInBody && !PhiDest[Phi.Recur])
        error(diag::PhiRecurNotComputed,
              "phi " + L.regName(Phi.Dest) +
                  " recurrence source is not computed in the loop");
    }
  }

  /// First body index defining each (in-range) register, or NoFirstDef,
  /// plus a phi-destination bitmap. Computed once: Loop::isLiveIn and
  /// Loop::isPhiDest rescan the body and phi list on every call, which
  /// made operand checking quadratic in the body size.
  static constexpr size_t NoFirstDef = static_cast<size_t>(-1);
  std::vector<size_t> FirstDef;
  std::vector<char> PhiDest;

  void computeFirstDefs() {
    FirstDef.assign(L.numRegs(), NoFirstDef);
    for (size_t I = 0; I < L.body().size(); ++I) {
      RegId Dest = L.body()[I].Dest;
      if (Dest != NoReg && validReg(Dest) && FirstDef[Dest] == NoFirstDef)
        FirstDef[Dest] = I;
    }
    PhiDest.assign(L.numRegs(), 0);
    for (const PhiNode &Phi : L.phis())
      if (validReg(Phi.Dest))
        PhiDest[Phi.Dest] = 1;
  }

  /// Mirrors Loop::isLiveIn over the precomputed tables: not a phi
  /// destination and never defined by the body.
  bool isLiveIn(RegId Reg) const {
    return !PhiDest[Reg] && FirstDef[Reg] == NoFirstDef;
  }

  /// True when \p Reg may be read by instruction \p BodyIndex: live-in,
  /// phi destination, or defined earlier in the body.
  bool availableAt(RegId Reg, size_t BodyIndex) const {
    if (PhiDest[Reg] || FirstDef[Reg] == NoFirstDef)
      return true;
    return FirstDef[Reg] < BodyIndex;
  }

  void checkOperandClass(size_t I, RegId Operand, RegClass Expected) {
    if (L.regClass(Operand) != Expected)
      errorAt(diag::OperandClass, I,
              "operand " + L.regName(Operand) + " has wrong class");
  }

  void checkInstructions() {
    for (size_t I = 0; I < L.body().size(); ++I) {
      const Instruction &Instr = L.body()[I];
      const OpcodeInfo &Info = opcodeInfo(Instr.Op);

      if (Info.HasDest != Instr.hasDest())
        errorAt(diag::DestArity, I,
                Info.HasDest ? "missing destination"
                             : "unexpected destination");

      if (Instr.Pred != NoReg && validReg(Instr.Pred)) {
        if (L.regClass(Instr.Pred) != RegClass::Pred)
          errorAt(diag::GuardNotPredicate, I,
                  "guard is not a predicate register");
        else if (!availableAt(Instr.Pred, I))
          errorAt(diag::GuardBeforeDef, I, "guard used before definition");
        if (Instr.isLoopControl() || Instr.Op == Opcode::ExitIf)
          errorAt(diag::PredicatedControl, I,
                  "control instructions must not be predicated");
      }

      for (RegId Operand : Instr.Operands)
        if (validReg(Operand) && !availableAt(Operand, I))
          errorAt(diag::UseBeforeDef, I,
                  "operand " + L.regName(Operand) +
                      " used before definition");

      // Class-sensitive signature checks need every register in range.
      if (instrPrintable(Instr))
        checkSignature(I, Instr, Info);
    }
  }

  void checkSignature(size_t I, const Instruction &Instr,
                      const OpcodeInfo &Info) {
    size_t NumOperands = Instr.Operands.size();
    switch (Instr.Op) {
    case Opcode::Load: {
      size_t Expected = Instr.Mem.Indirect ? 1 : 0;
      if (NumOperands != Expected) {
        errorAt(diag::OperandCount, I, "load operand count mismatch");
        return;
      }
      if (Instr.Mem.Indirect)
        checkOperandClass(I, Instr.Operands[0], RegClass::Int);
      if (Instr.hasDest() && L.regClass(Instr.Dest) == RegClass::Pred)
        errorAt(diag::DestClass, I, "load destination must be int or float");
      if (Instr.Mem.SizeBytes <= 0)
        errorAt(diag::MemSize, I, "load size must be positive");
      return;
    }
    case Opcode::Store: {
      size_t Expected = Instr.Mem.Indirect ? 2 : 1;
      if (NumOperands != Expected) {
        errorAt(diag::OperandCount, I, "store operand count mismatch");
        return;
      }
      if (L.regClass(Instr.Operands[0]) == RegClass::Pred)
        errorAt(diag::OperandClass, I, "stored value must be int or float");
      if (Instr.Mem.Indirect)
        checkOperandClass(I, Instr.Operands[1], RegClass::Int);
      if (Instr.Mem.SizeBytes <= 0)
        errorAt(diag::MemSize, I, "store size must be positive");
      return;
    }
    case Opcode::Copy: {
      if (NumOperands != 1) {
        errorAt(diag::OperandCount, I, "copy takes exactly one operand");
        return;
      }
      if (Instr.hasDest() &&
          L.regClass(Instr.Dest) != L.regClass(Instr.Operands[0]))
        errorAt(diag::DestClass, I, "copy register class mismatch");
      return;
    }
    case Opcode::Select: {
      if (NumOperands != 3) {
        errorAt(diag::OperandCount, I,
                "select takes exactly three operands");
        return;
      }
      checkOperandClass(I, Instr.Operands[0], RegClass::Pred);
      if (L.regClass(Instr.Operands[1]) != L.regClass(Instr.Operands[2]))
        errorAt(diag::OperandClass, I, "select arms have mismatched classes");
      else if (Instr.hasDest() &&
               L.regClass(Instr.Dest) != L.regClass(Instr.Operands[1]))
        errorAt(diag::DestClass, I, "select destination class mismatch");
      return;
    }
    case Opcode::PredSet: {
      if (NumOperands < 1 || NumOperands > 2) {
        errorAt(diag::OperandCount, I, "predset takes one or two operands");
        return;
      }
      for (RegId Operand : Instr.Operands)
        checkOperandClass(I, Operand, RegClass::Pred);
      return;
    }
    case Opcode::AddrGen: {
      if (NumOperands < 1 || NumOperands > 2) {
        errorAt(diag::OperandCount, I, "addrgen takes one or two operands");
        return;
      }
      for (RegId Operand : Instr.Operands)
        checkOperandClass(I, Operand, RegClass::Int);
      return;
    }
    case Opcode::Call: {
      if (NumOperands > 4)
        errorAt(diag::OperandCount, I, "call takes at most four operands");
      return;
    }
    case Opcode::ExitIf: {
      if (NumOperands != 1) {
        errorAt(diag::OperandCount, I, "exit_if takes exactly one operand");
        return;
      }
      checkOperandClass(I, Instr.Operands[0], RegClass::Pred);
      if (!(Instr.TakenProb >= 0.0 && Instr.TakenProb <= 1.0)) // NaN too.
        errorAt(diag::ExitProb, I, "exit probability out of [0,1]");
      return;
    }
    default: {
      if (Info.NumOperands >= 0 &&
          NumOperands != static_cast<size_t>(Info.NumOperands)) {
        errorAt(diag::OperandCount, I, "operand count mismatch");
        return;
      }
      for (size_t Slot = 0; Slot < NumOperands; ++Slot)
        checkOperandClass(
            I, Instr.Operands[Slot],
            opcodeOperandClass(Instr.Op, static_cast<int>(Slot)));
      if (Instr.hasDest() && L.regClass(Instr.Dest) != Info.DestClass &&
          Instr.Op != Opcode::Select && Instr.Op != Opcode::Copy)
        errorAt(diag::DestClass, I, "destination register class mismatch");
      return;
    }
    }
  }

  void checkLoopControl() {
    size_t NumControl = 0;
    for (const Instruction &Instr : L.body())
      if (Instr.isLoopControl())
        ++NumControl;

    if (!Options.RequireLoopControl) {
      if (NumControl != 0 && NumControl != 3)
        error(diag::LoopControl,
              "loop control tail must be complete (IvAdd, IvCmp, BackBr)");
      if (NumControl == 0)
        return;
    } else if (NumControl != 3) {
      error(diag::LoopControl, "missing canonical loop control tail");
      return;
    }

    size_t N = L.body().size();
    if (N < 3 || L.body()[N - 3].Op != Opcode::IvAdd ||
        L.body()[N - 2].Op != Opcode::IvCmp ||
        L.body()[N - 1].Op != Opcode::BackBr) {
      error(diag::LoopControl,
            "loop control tail must be the final IvAdd, IvCmp, BackBr "
            "sequence");
      return;
    }
    if (L.body()[N - 2].Operands.empty() || L.body()[N - 3].Dest == NoReg ||
        L.body()[N - 2].Operands[0] != L.body()[N - 3].Dest)
      error(diag::LoopControl,
            "IvCmp must test the incremented induction variable");
    if (L.body()[N - 1].Operands.empty() || L.body()[N - 2].Dest == NoReg ||
        L.body()[N - 1].Operands[0] != L.body()[N - 2].Dest)
      error(diag::LoopControl,
            "BackBr must branch on the trip test predicate");
  }
};

} // namespace

DiagnosticReport
metaopt::verifyLoopDiagnostics(const Loop &L, const VerifyOptions &Options) {
  return VerifierImpl(L, Options).run();
}

std::vector<std::string> metaopt::verifyLoop(const Loop &L,
                                             const VerifyOptions &Options) {
  DiagnosticReport Report = verifyLoopDiagnostics(L, Options);
  std::vector<std::string> Out;
  for (const Diagnostic &D : Report.diagnostics())
    Out.push_back(renderDiagnostic(D));
  return Out;
}

bool metaopt::isWellFormed(const Loop &L, const VerifyOptions &Options) {
  return verifyLoopDiagnostics(L, Options).empty();
}
