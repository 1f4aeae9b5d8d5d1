//===- ir/LoopBuilder.cpp -------------------------------------------------===//

#include "ir/LoopBuilder.h"

#include <algorithm>
#include <cassert>

using namespace metaopt;

LoopBuilder::LoopBuilder(std::string Name, SourceLanguage Lang, int NestLevel,
                         int64_t TripCount)
    : Result(std::move(Name), Lang, NestLevel, TripCount) {}

RegId LoopBuilder::liveIn(RegClass RC, std::string Name) {
  return Result.addReg(RC, std::move(Name));
}

RegId LoopBuilder::phi(RegClass RC, std::string Name) {
  RegId Dest = Result.addReg(RC, Name.empty() ? "phi" : Name);
  RegId Init = Result.addReg(RC, Result.regName(Dest) + ".init");
  PhiNode Phi;
  Phi.Dest = Dest;
  Phi.Init = Init;
  Phi.Recur = NoReg;
  Result.addPhi(Phi);
  OpenPhis.push_back(Dest);
  return Dest;
}

void LoopBuilder::setPhiRecur(RegId PhiDest, RegId Recur) {
  for (PhiNode &Phi : Result.phis()) {
    if (Phi.Dest != PhiDest)
      continue;
    assert(Phi.Recur == NoReg && "phi recurrence already set");
    assert(Result.regClass(Recur) == Result.regClass(PhiDest) &&
           "phi recurrence register class mismatch");
    Phi.Recur = Recur;
    OpenPhis.erase(std::find(OpenPhis.begin(), OpenPhis.end(), PhiDest));
    return;
  }
  assert(false && "setPhiRecur: no phi with this destination");
}

void LoopBuilder::setPredicate(RegId Pred) {
  assert(Result.regClass(Pred) == RegClass::Pred &&
         "predicate must be a predicate register");
  CurrentPred = Pred;
}

void LoopBuilder::clearPredicate() { CurrentPred = NoReg; }

RegId LoopBuilder::emitBinary(Opcode Op, RegId A, RegId B) {
  return emitTo(Op, opcodeInfo(Op).DestClass, {A, B});
}

RegId LoopBuilder::emitTo(Opcode Op, RegClass DestClass,
                          std::vector<RegId> Operands, int64_t Imm) {
  assert(!Finalized && "builder already finalized");
  Instruction Instr;
  Instr.Op = Op;
  Instr.Operands.assign(Operands.begin(), Operands.end());
  Instr.Imm = Imm;
  Instr.Pred = CurrentPred;
  Instr.Dest =
      opcodeInfo(Op).HasDest ? Result.addReg(DestClass) : NoReg;
  Result.addInstruction(std::move(Instr));
  return Result.body().back().Dest;
}

RegId LoopBuilder::iconst(int64_t Value) {
  return emitTo(Opcode::IConst, RegClass::Int, {}, Value);
}

RegId LoopBuilder::fma(RegId A, RegId B, RegId C) {
  return emitTo(Opcode::FMA, RegClass::Float, {A, B, C});
}

RegId LoopBuilder::fsqrt(RegId A) {
  return emitTo(Opcode::FSqrt, RegClass::Float, {A});
}

RegId LoopBuilder::fcvt(RegId IntValue) {
  return emitTo(Opcode::FCvt, RegClass::Float, {IntValue});
}

RegId LoopBuilder::fconst(int64_t Bits) {
  return emitTo(Opcode::FConst, RegClass::Float, {}, Bits);
}

RegId LoopBuilder::copy(RegId Src) {
  return emitTo(Opcode::Copy, Result.regClass(Src), {Src});
}

RegId LoopBuilder::select(RegId Pred, RegId A, RegId B) {
  assert(Result.regClass(A) == Result.regClass(B) &&
         "select arms must have matching classes");
  return emitTo(Opcode::Select, Result.regClass(A), {Pred, A, B});
}

RegId LoopBuilder::predAnd(RegId A, RegId B) {
  return emitTo(Opcode::PredSet, RegClass::Pred, {A, B});
}

RegId LoopBuilder::load(RegClass DestClass, MemRef Ref, RegId Index) {
  assert((DestClass == RegClass::Int || DestClass == RegClass::Float) &&
         "loads produce int or float values");
  assert(!Finalized && "builder already finalized");
  Instruction Instr;
  Instr.Op = Opcode::Load;
  Instr.Mem = Ref;
  Instr.Pred = CurrentPred;
  if (Ref.Indirect) {
    assert(Index != NoReg && "indirect load requires an index register");
    Instr.Operands.push_back(Index);
  }
  Instr.Dest = Result.addReg(DestClass);
  Result.addInstruction(std::move(Instr));
  return Result.body().back().Dest;
}

void LoopBuilder::store(RegId Value, MemRef Ref, RegId Index) {
  assert(!Finalized && "builder already finalized");
  Instruction Instr;
  Instr.Op = Opcode::Store;
  Instr.Mem = Ref;
  Instr.Pred = CurrentPred;
  Instr.Operands.push_back(Value);
  if (Ref.Indirect) {
    assert(Index != NoReg && "indirect store requires an index register");
    Instr.Operands.push_back(Index);
  }
  Result.addInstruction(std::move(Instr));
}

RegId LoopBuilder::addrGen(RegId A, RegId B) {
  std::vector<RegId> Operands = {A};
  if (B != NoReg)
    Operands.push_back(B);
  return emitTo(Opcode::AddrGen, RegClass::Int, std::move(Operands));
}

void LoopBuilder::exitIf(RegId Pred, double TakenProb) {
  assert(!Finalized && "builder already finalized");
  assert(TakenProb >= 0.0 && TakenProb <= 1.0 &&
         "exit probability must be in [0,1]");
  Instruction Instr;
  Instr.Op = Opcode::ExitIf;
  Instr.Operands.push_back(Pred);
  Instr.TakenProb = TakenProb;
  Result.addInstruction(std::move(Instr));
}

void LoopBuilder::call(std::vector<RegId> Args) {
  assert(!Finalized && "builder already finalized");
  Instruction Instr;
  Instr.Op = Opcode::Call;
  Instr.Operands.assign(Args.begin(), Args.end());
  Instr.Pred = CurrentPred;
  Result.addInstruction(std::move(Instr));
}

Loop LoopBuilder::finalize() {
  assert(!Finalized && "finalize() called twice");
  assert(OpenPhis.empty() && "finalize() with unclosed phi nodes");
  Finalized = true;

  // Canonical loop control tail. One copy survives per *unrolled* body,
  // which is exactly the branch-overhead amortization unrolling buys.
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

  return std::move(Result);
}
