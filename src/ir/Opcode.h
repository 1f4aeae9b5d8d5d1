//===- ir/Opcode.h - Loop IR opcodes ----------------------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The opcode set of the loop IR, together with static per-opcode traits
/// (operand signature, register classes, category flags). The set mirrors
/// the operations that matter to unrolling on an in-order EPIC machine:
/// integer/floating arithmetic, memory accesses with symbolic linear
/// addresses, predication (Itanium-style if-conversion), early loop exits,
/// and calls.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_IR_OPCODE_H
#define METAOPT_IR_OPCODE_H

#include <cassert>
#include <string_view>

namespace metaopt {

/// Register classes of the IR's virtual registers.
enum class RegClass { Int, Float, Pred };

/// Returns a one-letter prefix used in the textual format ("i"/"f"/"p").
const char *regClassPrefix(RegClass RC);

/// All IR opcodes.
enum class Opcode {
  // Integer arithmetic / logic.
  IAdd,
  ISub,
  IMul,
  IDiv,
  IRem,
  Shl,
  Shr,
  And,
  Or,
  Xor,
  ICmp, // Integer compare, defines a predicate register.
  IConst,
  // Floating point.
  FAdd,
  FSub,
  FMul,
  FMA, // Fused multiply-add: three operands.
  FDiv,
  FSqrt,
  FCmp, // FP compare, defines a predicate register.
  FConst,
  FCvt, // Int <-> float conversion.
  // Data movement.
  Copy,   // Register copy (compiler-inserted, "implicit").
  Select, // Dest = Pred ? A : B.
  // Memory.
  Load,
  Store,
  // Address arithmetic made explicit (compiler-inserted, "implicit").
  AddrGen,
  // Predicates and control.
  PredSet, // Combine/initialize predicate registers.
  ExitIf,  // Early loop exit, guarded by a predicate operand.
  Call,    // Opaque call; scheduling barrier.
  // Loop control (added by LoopBuilder::finalize, one copy per unrolled
  // body): induction increment, trip test, backedge branch.
  IvAdd,
  IvCmp,
  BackBr,
};

/// Number of distinct opcodes (for table sizing).
constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::BackBr) + 1;

/// Static information about an opcode.
struct OpcodeInfo {
  const char *Name;      ///< Mnemonic used by printer/parser.
  int NumOperands;       ///< Register operand count (-1: variable, not used).
  bool HasDest;          ///< Defines a destination register.
  RegClass DestClass;    ///< Class of the destination when HasDest.
  RegClass OperandClass; ///< Class of register operands (homogeneous except
                         ///< where noted in opcodeOperandClass()).
  bool IsFloat;          ///< Counts as a floating point operation.
  bool IsMemory;         ///< Load or store.
  bool IsBranchLike;     ///< Branch-category (ExitIf, BackBr, Call).
  bool IsImplicit;       ///< Compiler-inserted bookkeeping (Copy, AddrGen,
                         ///< PredSet).
  bool IsLoopControl;    ///< IvAdd/IvCmp/BackBr.
};

namespace detail {
/// The traits table, indexed by Opcode (ir/Opcode.cpp).
extern const OpcodeInfo OpcodeInfos[NumOpcodes];
} // namespace detail

/// Returns the static traits of \p Op. Inline because the instruction
/// predicates (isMemory, isLoad, isLoopControl, ...) ask on every pass
/// over a body.
inline const OpcodeInfo &opcodeInfo(Opcode Op) {
  assert(static_cast<unsigned>(Op) < NumOpcodes && "opcode out of range");
  return detail::OpcodeInfos[static_cast<unsigned>(Op)];
}

/// Returns the mnemonic of \p Op.
const char *opcodeName(Opcode Op);

/// Parses a mnemonic; returns false if unknown.
bool parseOpcode(std::string_view Name, Opcode &Out);

/// Returns the register class required for operand \p Index of \p Op.
/// Handles the heterogeneous cases (Select's predicate operand, FCvt, ...).
RegClass opcodeOperandClass(Opcode Op, int Index);

} // namespace metaopt

#endif // METAOPT_IR_OPCODE_H
