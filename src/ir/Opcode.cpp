//===- ir/Opcode.cpp ------------------------------------------------------===//

#include "ir/Opcode.h"

#include <cassert>

using namespace metaopt;

const char *metaopt::regClassPrefix(RegClass RC) {
  switch (RC) {
  case RegClass::Int:
    return "i";
  case RegClass::Float:
    return "f";
  case RegClass::Pred:
    return "p";
  }
  assert(false && "unknown register class");
  return "?";
}

namespace {
constexpr RegClass RCI = RegClass::Int;
constexpr RegClass RCF = RegClass::Float;
constexpr RegClass RCP = RegClass::Pred;
} // namespace

/// Indexed by Opcode; order must match the enum declaration exactly.
const OpcodeInfo metaopt::detail::OpcodeInfos[NumOpcodes] = {
    //            Name      #Ops Dest DestC OperC  Flt    Mem    Br     Impl   LoopC
    /*IAdd*/ {"iadd", 2, true, RCI, RCI, false, false, false, false, false},
    /*ISub*/ {"isub", 2, true, RCI, RCI, false, false, false, false, false},
    /*IMul*/ {"imul", 2, true, RCI, RCI, false, false, false, false, false},
    /*IDiv*/ {"idiv", 2, true, RCI, RCI, false, false, false, false, false},
    /*IRem*/ {"irem", 2, true, RCI, RCI, false, false, false, false, false},
    /*Shl*/ {"shl", 2, true, RCI, RCI, false, false, false, false, false},
    /*Shr*/ {"shr", 2, true, RCI, RCI, false, false, false, false, false},
    /*And*/ {"and", 2, true, RCI, RCI, false, false, false, false, false},
    /*Or*/ {"or", 2, true, RCI, RCI, false, false, false, false, false},
    /*Xor*/ {"xor", 2, true, RCI, RCI, false, false, false, false, false},
    /*ICmp*/ {"icmp", 2, true, RCP, RCI, false, false, false, false, false},
    /*IConst*/
    {"iconst", 0, true, RCI, RCI, false, false, false, false, false},
    /*FAdd*/ {"fadd", 2, true, RCF, RCF, true, false, false, false, false},
    /*FSub*/ {"fsub", 2, true, RCF, RCF, true, false, false, false, false},
    /*FMul*/ {"fmul", 2, true, RCF, RCF, true, false, false, false, false},
    /*FMA*/ {"fma", 3, true, RCF, RCF, true, false, false, false, false},
    /*FDiv*/ {"fdiv", 2, true, RCF, RCF, true, false, false, false, false},
    /*FSqrt*/ {"fsqrt", 1, true, RCF, RCF, true, false, false, false, false},
    /*FCmp*/ {"fcmp", 2, true, RCP, RCF, true, false, false, false, false},
    /*FConst*/
    {"fconst", 0, true, RCF, RCF, true, false, false, false, false},
    /*FCvt*/ {"fcvt", 1, true, RCF, RCI, true, false, false, false, false},
    /*Copy*/ {"copy", 1, true, RCI, RCI, false, false, false, true, false},
    /*Select*/
    {"select", 3, true, RCI, RCI, false, false, false, false, false},
    /*Load*/ {"load", -1, true, RCI, RCI, false, true, false, false, false},
    /*Store*/
    {"store", -1, false, RCI, RCI, false, true, false, false, false},
    /*AddrGen*/
    {"addrgen", -1, true, RCI, RCI, false, false, false, true, false},
    /*PredSet*/
    {"predset", -1, true, RCP, RCP, false, false, false, true, false},
    /*ExitIf*/
    {"exit_if", 1, false, RCI, RCP, false, false, true, false, false},
    /*Call*/ {"call", -1, false, RCI, RCI, false, false, true, false, false},
    /*IvAdd*/ {"iv_add", 1, true, RCI, RCI, false, false, false, false, true},
    /*IvCmp*/ {"iv_cmp", 1, true, RCP, RCI, false, false, false, false, true},
    /*BackBr*/
    {"back_br", 1, false, RCI, RCP, false, false, true, false, true},
};

const char *metaopt::opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

bool metaopt::parseOpcode(std::string_view Name, Opcode &Out) {
  if (Name.empty())
    return false;
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    // The first byte rules out all but one or two mnemonics.
    const char *Mnemonic = detail::OpcodeInfos[I].Name;
    if (Mnemonic[0] == Name[0] && Name == Mnemonic) {
      Out = static_cast<Opcode>(I);
      return true;
    }
  }
  return false;
}

RegClass metaopt::opcodeOperandClass(Opcode Op, int Index) {
  // Heterogeneous signatures first.
  switch (Op) {
  case Opcode::Select:
    return Index == 0 ? RegClass::Pred : RegClass::Int;
  default:
    break;
  }
  return opcodeInfo(Op).OperandClass;
}
