//===- analysis/DependenceGraph.cpp ---------------------------------------===//

#include "analysis/DependenceGraph.h"

#include <cassert>
#include <cstdlib>
#include <limits>

using namespace metaopt;

DependenceGraph::DependenceGraph(const Loop &L) {
  NumNodes = L.body().size();
  Edges.reserve(NumNodes * 6);
  buildRegisterDeps(L);
  buildMemoryDeps(L);
  buildControlDeps(L);

  // Both adjacencies are built by a counting sort after every edge
  // exists: count per node, prefix-sum into start offsets, then place the
  // edges in index order, so each node's indices come out ascending.
  // Placing advances Offsets[N] to node N's end, which is node N + 1's
  // start; one shift restores the starts.
  auto Build = [&](Adjacency &A, uint32_t DepEdge::*End) {
    A.Offsets.assign(NumNodes + 1, 0);
    for (const DepEdge &E : Edges)
      ++A.Offsets[E.*End + 1];
    for (size_t I = 0; I < NumNodes; ++I)
      A.Offsets[I + 1] += A.Offsets[I];
    A.Index.resize(Edges.size());
    for (uint32_t Index = 0; Index < Edges.size(); ++Index)
      A.Index[A.Offsets[Edges[Index].*End]++] = Index;
    for (size_t I = NumNodes; I-- > 1;)
      A.Offsets[I] = A.Offsets[I - 1];
    A.Offsets[0] = 0;
  };
  Build(Out, &DepEdge::Src);
  Build(In, &DepEdge::Dst);
}

void DependenceGraph::addEdge(uint32_t Src, uint32_t Dst, DepKind Kind,
                              uint32_t Distance, bool Speculatable) {
  assert(Src < NumNodes && Dst < NumNodes && "edge endpoint out of range");
  Edges.push_back({Src, Dst, Kind, Distance, Speculatable});
}

void DependenceGraph::buildRegisterDeps(const Loop &L) {
  // Map each register to its defining body instruction, if any. Flat
  // arrays indexed by RegId: this runs once per simulated body, and the
  // tables are lookup-only (no iteration), so the dense representation
  // changes nothing but the constant factor.
  constexpr uint32_t NoIndex = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> DefIndex(L.numRegs(), NoIndex);
  for (uint32_t I = 0; I < NumNodes; ++I)
    if (L.body()[I].hasDest())
      DefIndex[L.body()[I].Dest] = I;

  // Phi destinations read the previous iteration's recurrence value.
  // PhiCarriedSource[dest] = body index defining the recurrence.
  std::vector<uint32_t> PhiCarriedSource(L.numRegs(), NoIndex);
  for (const PhiNode &Phi : L.phis()) {
    if (Phi.Recur != NoReg && DefIndex[Phi.Recur] != NoIndex &&
        Phi.Dest != NoReg)
      PhiCarriedSource[Phi.Dest] = DefIndex[Phi.Recur];
  }

  auto AddUse = [&](RegId Reg, uint32_t User) {
    if (DefIndex[Reg] != NoIndex) {
      addEdge(DefIndex[Reg], User, DepKind::Data, /*Distance=*/0);
      return;
    }
    if (PhiCarriedSource[Reg] != NoIndex)
      addEdge(PhiCarriedSource[Reg], User, DepKind::Data, /*Distance=*/1);
    // Otherwise the register is live-in: no intra-loop dependence.
  };

  for (uint32_t I = 0; I < NumNodes; ++I) {
    const Instruction &Instr = L.body()[I];
    for (RegId Operand : Instr.Operands)
      AddUse(Operand, I);
    if (Instr.Pred != NoReg)
      AddUse(Instr.Pred, I);
  }
}

/// Computes the dependence between two accesses of the same base symbol
/// with linear addresses. Returns true and sets \p CarriedBy (0 for
/// intra-iteration) when the accesses can touch the same location;
/// \p FromFirst is true when the dependence runs first->second.
static bool memoryDistance(const MemRef &First, const MemRef &Second,
                           unsigned &CarriedBy, bool &FromFirst) {
  if (First.Stride != Second.Stride)
    return false; // Handled conservatively by the caller.
  int64_t Stride = First.Stride;
  int64_t Delta = Second.Offset - First.Offset;
  int64_t MaxSize = std::max(First.SizeBytes, Second.SizeBytes);
  if (Stride == 0) {
    // Same (induction-invariant) location every iteration when the byte
    // ranges overlap.
    if (std::llabs(Delta) >= MaxSize)
      return false;
    CarriedBy = 1;
    FromFirst = true; // Caller also adds the intra-iteration edge.
    return true;
  }
  // First touches Stride*i + OffFirst; Second touches Stride*j + OffSecond.
  // They collide when j - i = -Delta / Stride.
  if (Delta % Stride != 0) {
    // Never the exact same word (e.g. interleaved even/odd accesses) if
    // the leftover offset is at least the access size.
    int64_t Leftover = std::llabs(Delta % Stride);
    if (Leftover >= MaxSize && std::llabs(Stride) - Leftover >= MaxSize)
      return false;
    // Partial overlap is possible; be conservative.
    CarriedBy = 1;
    FromFirst = true;
    return true;
  }
  int64_t Lag = -Delta / Stride;
  if (Lag == 0) {
    CarriedBy = 0;
    FromFirst = true;
    return true;
  }
  if (Lag > 0) {
    // Second at iteration i+Lag touches First's iteration-i location.
    CarriedBy = static_cast<unsigned>(Lag);
    FromFirst = true;
    return true;
  }
  CarriedBy = static_cast<unsigned>(-Lag);
  FromFirst = false;
  return true;
}

void DependenceGraph::buildMemoryDeps(const Loop &L) {
  std::vector<uint32_t> MemOps;
  for (uint32_t I = 0; I < NumNodes; ++I)
    if (L.body()[I].isMemory())
      MemOps.push_back(I);

  MinCarriedMemoryDistance = 0;
  auto NoteCarried = [&](unsigned Distance) {
    if (Distance == 0)
      return;
    if (MinCarriedMemoryDistance == 0 ||
        Distance < MinCarriedMemoryDistance)
      MinCarriedMemoryDistance = Distance;
  };

  for (size_t A = 0; A < MemOps.size(); ++A) {
    for (size_t B = A + 1; B < MemOps.size(); ++B) {
      uint32_t First = MemOps[A];
      uint32_t Second = MemOps[B];
      const Instruction &FirstInstr = L.body()[First];
      const Instruction &SecondInstr = L.body()[Second];
      // Two loads never conflict.
      if (FirstInstr.isLoad() && SecondInstr.isLoad())
        continue;
      if (FirstInstr.Mem.BaseSym != SecondInstr.Mem.BaseSym)
        continue; // Distinct arrays never alias in this IR.

      if (FirstInstr.Mem.Indirect || SecondInstr.Mem.Indirect ||
          FirstInstr.Mem.Stride != SecondInstr.Mem.Stride) {
        // Conservative: may conflict in the same iteration and across
        // consecutive iterations.
        addEdge(First, Second, DepKind::Memory, /*Distance=*/0);
        addEdge(Second, First, DepKind::Memory, /*Distance=*/1);
        NumMemoryDeps += 2;
        NoteCarried(1);
        continue;
      }

      unsigned CarriedBy = 0;
      bool FromFirst = true;
      if (!memoryDistance(FirstInstr.Mem, SecondInstr.Mem, CarriedBy,
                          FromFirst))
        continue;
      if (CarriedBy == 0) {
        addEdge(First, Second, DepKind::Memory, 0);
        ++NumMemoryDeps;
        continue;
      }
      if (FromFirst)
        addEdge(First, Second, DepKind::Memory, CarriedBy);
      else
        addEdge(Second, First, DepKind::Memory, CarriedBy);
      ++NumMemoryDeps;
      NoteCarried(CarriedBy);
      // An invariant location additionally orders within the iteration.
      if (FirstInstr.Mem.Stride == 0) {
        addEdge(First, Second, DepKind::Memory, 0);
        ++NumMemoryDeps;
      }
    }
  }
}

void DependenceGraph::buildControlDeps(const Loop &L) {
  // Side effects may not move across early exits; pure computations may be
  // speculated above them (the edge is marked Speculatable so schedulers
  // can model an aggressively speculating compiler).
  auto HasSideEffects = [&](const Instruction &Instr) {
    return Instr.isStore() || Instr.isCall() ||
           Instr.Op == Opcode::ExitIf || Instr.isLoopControl();
  };

  std::vector<uint32_t> Exits;
  std::vector<uint32_t> Calls;
  uint32_t BackBranch = static_cast<uint32_t>(NumNodes);
  for (uint32_t I = 0; I < NumNodes; ++I) {
    const Instruction &Instr = L.body()[I];
    if (Instr.Op == Opcode::ExitIf)
      Exits.push_back(I);
    if (Instr.isCall())
      Calls.push_back(I);
    if (Instr.Op == Opcode::BackBr)
      BackBranch = I;
  }

  for (uint32_t Exit : Exits) {
    for (uint32_t I = 0; I < NumNodes; ++I) {
      if (I == Exit)
        continue;
      const Instruction &Instr = L.body()[I];
      if (I < Exit) {
        // Side effects before the exit must stay before it.
        if (Instr.isStore() || Instr.isCall())
          addEdge(I, Exit, DepKind::Control, 0);
      } else {
        addEdge(Exit, I, DepKind::Control, 0,
                /*Speculatable=*/!HasSideEffects(Instr));
      }
    }
  }

  for (uint32_t CallIdx : Calls) {
    for (uint32_t I = 0; I < NumNodes; ++I) {
      if (I == CallIdx)
        continue;
      const Instruction &Instr = L.body()[I];
      if (!Instr.isMemory() && !Instr.isCall())
        continue;
      if (I < CallIdx)
        addEdge(I, CallIdx, DepKind::Control, 0);
      else
        addEdge(CallIdx, I, DepKind::Control, 0);
    }
    // Calls serialize with themselves and with stores across iterations.
    addEdge(CallIdx, CallIdx, DepKind::Control, 1);
    for (uint32_t I = 0; I < NumNodes; ++I)
      if (L.body()[I].isStore())
        addEdge(CallIdx, I, DepKind::Control, 1);
  }

  // Everything executes no later than the backedge branch.
  if (BackBranch < NumNodes) {
    for (uint32_t I = 0; I < NumNodes; ++I)
      if (I != BackBranch && !L.body()[I].isLoopControl())
        addEdge(I, BackBranch, DepKind::Control, 0, /*Speculatable=*/true);
  }
}
