//===- ir/Printer.cpp -----------------------------------------------------===//
//
// Everything is appended to one caller-owned string. The output bytes are
// the format's contract: routing keys, sim-cache keys and bundle and corpus
// fingerprints hash them (tests/ir_text_identity_test.cpp).
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "support/StringUtils.h"

#include <cassert>
#include <charconv>
#include <functional>
#include <set>

using namespace metaopt;

namespace {

template <typename IntT> void appendInt(std::string &Out, IntT Value) {
  char Buffer[24];
  auto Result = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value);
  Out.append(Buffer, Result.ptr);
}

/// Every register prints as %<classprefix>_<name>. When an earlier
/// register already took that spelling, the later one gets a ".<id>"
/// suffix. The suffix rule is only evaluated for loops in which two
/// registers share a class and base name.
class RegisterNames {
public:
  explicit RegisterNames(const Loop &L) : L(L) {
    if (mayCollide())
      assignSuffixes();
  }

  void append(std::string &Out, RegId Reg) const {
    Out += '%';
    Out += *regClassPrefix(L.regClass(Reg));
    Out += '_';
    Out += L.regName(Reg);
    if (!Suffixed.empty() && Suffixed[Reg]) {
      Out += '.';
      appendInt(Out, Reg);
    }
  }

private:
  const Loop &L;
  std::vector<bool> Suffixed; ///< Empty when no spelling collides.

  /// False when every (class, name) pair is distinct, so that no register
  /// can need a suffix. Hash equality only sends the loop to the exact
  /// rule, which decides.
  bool mayCollide() const {
    size_t Size = 16;
    while (Size < 2 * L.numRegs())
      Size *= 2;
    thread_local std::vector<size_t> Seen;
    Seen.assign(Size, 0);
    for (RegId Reg = 0; Reg < L.numRegs(); ++Reg) {
      size_t Hash = std::hash<std::string_view>()(L.regName(Reg)) * 3 +
                    static_cast<size_t>(L.regClass(Reg));
      Hash |= 1; // 0 marks an empty slot.
      size_t I = Hash & (Size - 1);
      for (; Seen[I] != 0; I = (I + 1) & (Size - 1))
        if (Seen[I] == Hash)
          return true;
      Seen[I] = Hash;
    }
    return false;
  }

  void assignSuffixes() {
    Suffixed.assign(L.numRegs(), false);
    std::set<std::string> Used;
    std::string Spelling;
    for (RegId Reg = 0; Reg < L.numRegs(); ++Reg) {
      Spelling.clear();
      append(Spelling, Reg);
      if (!Used.insert(Spelling).second) {
        Suffixed[Reg] = true;
        Spelling.clear();
        append(Spelling, Reg);
        bool Inserted = Used.insert(Spelling).second;
        assert(Inserted && "suffixed register name still collides");
        (void)Inserted;
      }
    }
  }
};

void appendMemRef(std::string &Out, const MemRef &Ref) {
  Out += '@';
  appendInt(Out, Ref.BaseSym);
  Out += '[';
  if (Ref.Indirect)
    Out += "indirect, ";
  Out += "stride=";
  appendInt(Out, Ref.Stride);
  Out += ", offset=";
  appendInt(Out, Ref.Offset);
  Out += ", size=";
  appendInt(Out, Ref.SizeBytes);
  Out += ']';
}

void appendInstruction(std::string &Out, const Instruction &Instr,
                       const RegisterNames &Names) {
  if (Instr.Pred != NoReg) {
    Out += '(';
    Names.append(Out, Instr.Pred);
    Out += ") ";
  }
  if (Instr.hasDest()) {
    Names.append(Out, Instr.Dest);
    Out += " = ";
  }
  Out += opcodeName(Instr.Op);

  auto AppendOperands = [&] {
    for (size_t I = 0; I < Instr.Operands.size(); ++I) {
      Out += I == 0 ? " " : ", ";
      Names.append(Out, Instr.Operands[I]);
    }
  };
  auto AppendIndex = [&](size_t Operand) {
    if (Instr.Mem.Indirect) {
      Out += " ind(";
      Names.append(Out, Instr.Operands[Operand]);
      Out += ')';
    }
  };

  switch (Instr.Op) {
  case Opcode::Load:
    Out += ' ';
    appendMemRef(Out, Instr.Mem);
    AppendIndex(0);
    if (Instr.Paired)
      Out += " paired";
    break;
  case Opcode::Store:
    Out += ' ';
    Names.append(Out, Instr.Operands[0]);
    Out += ", ";
    appendMemRef(Out, Instr.Mem);
    AppendIndex(1);
    break;
  case Opcode::IConst:
  case Opcode::FConst:
    Out += ' ';
    appendInt(Out, Instr.Imm);
    break;
  case Opcode::ExitIf:
    AppendOperands();
    Out += " prob=";
    Out += formatDouble(Instr.TakenProb, 6);
    break;
  default:
    AppendOperands();
    break;
  }
}

} // namespace

std::string metaopt::printInstruction(const Loop &L,
                                      const Instruction &Instr) {
  std::string Out;
  appendInstruction(Out, Instr, RegisterNames(L));
  return Out;
}

std::vector<std::string> metaopt::printInstructions(const Loop &L) {
  RegisterNames Names(L);
  std::vector<std::string> Texts(L.body().size());
  for (size_t I = 0; I < Texts.size(); ++I)
    appendInstruction(Texts[I], L.body()[I], Names);
  return Texts;
}

void metaopt::appendLoop(std::string &Out, const Loop &L) {
  RegisterNames Names(L);
  // About 40 bytes per line on the corpus; one reservation covers most
  // loops.
  Out.reserve(Out.size() + 64 + L.name().size() +
              48 * (L.phis().size() + L.body().size()));
  Out += "loop \"";
  Out += L.name();
  Out += "\" lang=";
  Out += sourceLanguageName(L.language());
  Out += " nest=";
  appendInt(Out, L.nestLevel());
  Out += " trip=";
  appendInt(Out, L.tripCount());
  Out += " rtrip=";
  appendInt(Out, L.runtimeTripCount());
  Out += " {\n";
  for (const PhiNode &Phi : L.phis()) {
    Out += "  phi ";
    Names.append(Out, Phi.Dest);
    Out += " = [";
    Names.append(Out, Phi.Init);
    Out += ", ";
    Names.append(Out, Phi.Recur);
    Out += "]\n";
  }
  for (const Instruction &Instr : L.body()) {
    Out += "  ";
    appendInstruction(Out, Instr, Names);
    Out += '\n';
  }
  Out += "}\n";
}

std::string metaopt::printLoop(const Loop &L) {
  std::string Out;
  appendLoop(Out, L);
  return Out;
}
