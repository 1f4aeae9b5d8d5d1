//===- ir/Instruction.h - Loop IR instructions ------------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction, memory reference, and loop-carried phi representations.
///
/// A loop body is a straight-line sequence of (optionally predicated)
/// instructions; internal control flow is expressed Itanium-style through
/// predicate registers, and early exits through ExitIf instructions. Memory
/// addresses are symbolic linear functions of the loop induction variable
/// (base symbol + stride * i + offset), which is what both the dependence
/// analysis and the unroller's address rewriting consume.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_IR_INSTRUCTION_H
#define METAOPT_IR_INSTRUCTION_H

#include "ir/Opcode.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>

namespace metaopt {

/// Virtual register id. Register classes live in the owning Loop.
using RegId = uint32_t;

/// Sentinel for "no register" (absent destination / unpredicated).
constexpr RegId NoReg = std::numeric_limits<RegId>::max();

/// A symbolic memory address: BaseSym + Stride * i + Offset (bytes), where
/// i is the innermost induction variable. Indirect references (a[b[i]])
/// additionally consume an index register operand and defeat dependence
/// distance computation.
struct MemRef {
  int32_t BaseSym = 0;   ///< Array/base identity; equal syms may alias.
  int64_t Stride = 0;    ///< Bytes advanced per loop iteration.
  int64_t Offset = 0;    ///< Constant byte offset.
  bool Indirect = false; ///< Address depends on a run-time value.
  int32_t SizeBytes = 8; ///< Access width in bytes.

  bool operator==(const MemRef &Other) const = default;
};

/// The register operands of one instruction: a vector that holds up to
/// InlineCapacity operands in place and spills longer lists to the heap.
/// A well-formed instruction has at most four operands (a call's limit;
/// every other opcode takes at most three), so copying one - each unroll
/// clone, each Loop copy - allocates nothing; only malformed input
/// spills. It offers only the std::vector members the code uses; clear()
/// keeps the capacity.
class OperandList {
public:
  static constexpr uint32_t InlineCapacity = 4;

  OperandList() = default;
  OperandList(std::initializer_list<RegId> Init) {
    assign(Init.begin(), Init.end());
  }
  OperandList(const OperandList &Other) { assign(Other.begin(), Other.end()); }
  OperandList(OperandList &&Other) noexcept { take(Other); }
  OperandList &operator=(const OperandList &Other) {
    if (this != &Other)
      assign(Other.begin(), Other.end());
    return *this;
  }
  OperandList &operator=(OperandList &&Other) noexcept {
    if (this != &Other) {
      freeHeap();
      take(Other);
    }
    return *this;
  }
  OperandList &operator=(std::initializer_list<RegId> Init) {
    assign(Init.begin(), Init.end());
    return *this;
  }
  ~OperandList() { freeHeap(); }

  /// Replaces the contents with [First, Last), which must not point into
  /// this list.
  template <typename It> void assign(It First, It Last) {
    Size = 0;
    reserve(static_cast<size_t>(std::distance(First, Last)));
    RegId *Out = data();
    for (; First != Last; ++First)
      Out[Size++] = *First;
  }

  void push_back(RegId Reg) {
    if (Size == Capacity)
      grow(2 * static_cast<size_t>(Capacity));
    data()[Size++] = Reg;
  }
  void reserve(size_t Count) {
    if (Count > Capacity)
      grow(Count);
  }
  void clear() { Size = 0; }

  bool empty() const { return Size == 0; }
  size_t size() const { return Size; }

  RegId &operator[](size_t Index) {
    assert(Index < Size && "operand index out of range");
    return data()[Index];
  }
  RegId operator[](size_t Index) const {
    assert(Index < Size && "operand index out of range");
    return data()[Index];
  }
  RegId back() const {
    assert(Size > 0 && "back() of an empty operand list");
    return data()[Size - 1];
  }

  RegId *begin() { return data(); }
  RegId *end() { return data() + Size; }
  const RegId *begin() const { return data(); }
  const RegId *end() const { return data() + Size; }

private:
  bool onHeap() const { return Capacity > InlineCapacity; }
  RegId *data() { return onHeap() ? Heap : Inline; }
  const RegId *data() const { return onHeap() ? Heap : Inline; }

  void grow(size_t NewCapacity) {
    RegId *Grown = new RegId[NewCapacity];
    const RegId *Old = data();
    for (uint32_t I = 0; I < Size; ++I)
      Grown[I] = Old[I];
    freeHeap();
    Heap = Grown;
    Capacity = static_cast<uint32_t>(NewCapacity);
  }
  void freeHeap() {
    if (onHeap())
      delete[] Heap;
    Capacity = InlineCapacity;
  }
  /// Moves \p Other's contents here (this list must hold no heap block)
  /// and leaves \p Other empty and inline.
  void take(OperandList &Other) {
    Size = Other.Size;
    if (Other.onHeap()) {
      Heap = Other.Heap;
      Capacity = Other.Capacity;
      Other.Capacity = InlineCapacity;
    } else {
      for (uint32_t I = 0; I < Size; ++I)
        Inline[I] = Other.Inline[I];
    }
    Other.Size = 0;
  }

  uint32_t Size = 0;
  uint32_t Capacity = InlineCapacity;
  union {
    RegId Inline[InlineCapacity];
    RegId *Heap;
  };
};

/// A single (optionally predicated) instruction.
struct Instruction {
  Opcode Op = Opcode::IAdd;
  RegId Dest = NoReg;          ///< Defined register, NoReg if none.
  OperandList Operands;        ///< Register operands.
  RegId Pred = NoReg;          ///< Guarding predicate, NoReg if always-on.
  int64_t Imm = 0;             ///< Immediate (constants, shift counts).
  MemRef Mem;                  ///< Valid when Op is Load/Store.
  double TakenProb = 0.0;      ///< ExitIf: per-iteration exit probability.
  /// Load only: second half of a merged wide access (Itanium ldfpd); it
  /// rides along with its partner and occupies no issue slot or M unit.
  bool Paired = false;
  /// 1-based source line in the textual loop format, 0 when the
  /// instruction was built programmatically. Transforms propagate the
  /// originating line to clones so diagnostics on transformed loops still
  /// point into the source.
  unsigned SrcLine = 0;

  bool isMemory() const { return opcodeInfo(Op).IsMemory; }
  bool isFloat() const { return opcodeInfo(Op).IsFloat; }
  bool isBranchLike() const { return opcodeInfo(Op).IsBranchLike; }
  bool isImplicit() const { return opcodeInfo(Op).IsImplicit; }
  bool isLoopControl() const { return opcodeInfo(Op).IsLoopControl; }
  bool hasDest() const { return Dest != NoReg; }
  bool isLoad() const { return Op == Opcode::Load; }
  bool isStore() const { return Op == Opcode::Store; }
  bool isCall() const { return Op == Opcode::Call; }
};

/// A loop-carried value: at the top of every iteration, \c Dest holds the
/// loop-live-in \c Init on the first iteration and the previous iteration's
/// \c Recur afterwards (dependence distance 1).
struct PhiNode {
  RegId Dest = NoReg;  ///< Register the body reads.
  RegId Init = NoReg;  ///< Live-in initial value.
  RegId Recur = NoReg; ///< Value computed by the body each iteration.
  unsigned SrcLine = 0; ///< 1-based source line, 0 when unknown.
};

} // namespace metaopt

#endif // METAOPT_IR_INSTRUCTION_H
