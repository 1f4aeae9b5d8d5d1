//===- tests/ir_test.cpp - Unit tests for src/ir --------------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "ir/LoopBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

using namespace metaopt;

namespace {

/// y[i] = alpha * x[i] + y[i], the running example everywhere.
Loop makeDaxpy(int64_t Trip = 1024) {
  LoopBuilder B("daxpy", SourceLanguage::C, 1, Trip);
  RegId Alpha = B.liveIn(RegClass::Float, "alpha");
  MemRef X{0, 8, 0, false, 8};
  MemRef Y{1, 8, 0, false, 8};
  RegId Xv = B.load(RegClass::Float, X);
  RegId Yv = B.load(RegClass::Float, Y);
  B.store(B.fma(Alpha, Xv, Yv), Y);
  return B.finalize();
}

/// acc += x[i] * y[i] with a loop-carried phi.
Loop makeDot() {
  LoopBuilder B("dot", SourceLanguage::Fortran, 2, 512);
  RegId Acc = B.phi(RegClass::Float, "acc");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  RegId Y = B.load(RegClass::Float, {1, 8, 0, false, 8});
  B.setPhiRecur(Acc, B.fma(X, Y, Acc));
  return B.finalize();
}

} // namespace

//===----------------------------------------------------------------------===//
// Opcode traits
//===----------------------------------------------------------------------===//

TEST(OpcodeTest, NamesRoundTrip) {
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    Opcode Parsed;
    ASSERT_TRUE(parseOpcode(opcodeName(Op), Parsed)) << opcodeName(Op);
    EXPECT_EQ(Parsed, Op);
  }
}

TEST(OpcodeTest, UnknownNameRejected) {
  Opcode Op;
  EXPECT_FALSE(parseOpcode("frobnicate", Op));
  EXPECT_FALSE(parseOpcode("", Op));
}

TEST(OpcodeTest, CategoryFlags) {
  EXPECT_TRUE(opcodeInfo(Opcode::Load).IsMemory);
  EXPECT_TRUE(opcodeInfo(Opcode::Store).IsMemory);
  EXPECT_FALSE(opcodeInfo(Opcode::FAdd).IsMemory);
  EXPECT_TRUE(opcodeInfo(Opcode::FMA).IsFloat);
  EXPECT_FALSE(opcodeInfo(Opcode::IAdd).IsFloat);
  EXPECT_TRUE(opcodeInfo(Opcode::ExitIf).IsBranchLike);
  EXPECT_TRUE(opcodeInfo(Opcode::Call).IsBranchLike);
  EXPECT_TRUE(opcodeInfo(Opcode::Copy).IsImplicit);
  EXPECT_TRUE(opcodeInfo(Opcode::BackBr).IsLoopControl);
  EXPECT_FALSE(opcodeInfo(Opcode::Store).HasDest);
  EXPECT_TRUE(opcodeInfo(Opcode::Load).HasDest);
}

TEST(OpcodeTest, SelectOperandClasses) {
  EXPECT_EQ(opcodeOperandClass(Opcode::Select, 0), RegClass::Pred);
  EXPECT_EQ(opcodeOperandClass(Opcode::FAdd, 0), RegClass::Float);
  EXPECT_EQ(opcodeOperandClass(Opcode::IAdd, 1), RegClass::Int);
}

//===----------------------------------------------------------------------===//
// Loop and LoopBuilder
//===----------------------------------------------------------------------===//

TEST(LoopTest, MetadataAccessors) {
  Loop L = makeDaxpy(100);
  EXPECT_EQ(L.name(), "daxpy");
  EXPECT_EQ(L.language(), SourceLanguage::C);
  EXPECT_EQ(L.nestLevel(), 1);
  EXPECT_EQ(L.tripCount(), 100);
  EXPECT_TRUE(L.hasKnownTripCount());
  EXPECT_EQ(L.runtimeTripCount(), 100);
}

TEST(LoopTest, UnknownTripCountUsesRuntimeValue) {
  LoopBuilder B("wild", SourceLanguage::C, 1, Loop::UnknownTripCount);
  RegId V = B.load(RegClass::Int, {0, 4, 0, false, 4});
  B.store(V, {1, 4, 0, false, 4});
  Loop L = B.finalize();
  L.setRuntimeTripCount(77);
  EXPECT_FALSE(L.hasKnownTripCount());
  EXPECT_EQ(L.runtimeTripCount(), 77);
}

TEST(LoopTest, BuilderProducesCanonicalTail) {
  Loop L = makeDaxpy();
  ASSERT_GE(L.body().size(), 3u);
  size_t N = L.body().size();
  EXPECT_EQ(L.body()[N - 3].Op, Opcode::IvAdd);
  EXPECT_EQ(L.body()[N - 2].Op, Opcode::IvCmp);
  EXPECT_EQ(L.body()[N - 1].Op, Opcode::BackBr);
  EXPECT_EQ(L.bodySizeWithoutControl(), N - 3);
}

TEST(LoopTest, LiveInAndPhiClassification) {
  Loop L = makeDot();
  ASSERT_EQ(L.phis().size(), 1u);
  const PhiNode &Phi = L.phis()[0];
  EXPECT_TRUE(L.isPhiDest(Phi.Dest));
  EXPECT_FALSE(L.isLiveIn(Phi.Dest));
  EXPECT_TRUE(L.isLiveIn(Phi.Init));
  EXPECT_FALSE(L.isLiveIn(Phi.Recur));
  // The one-pass table agrees with isLiveIn on every register.
  std::vector<char> Table = L.liveInTable();
  ASSERT_EQ(Table.size(), L.numRegs());
  for (RegId Reg = 0; Reg < L.numRegs(); ++Reg)
    EXPECT_EQ(Table[Reg] != 0, L.isLiveIn(Reg)) << L.regName(Reg);
}

TEST(OperandListTest, InlineAndSpilledListsBehaveLikeVectors) {
  // Every length from empty through past the inline capacity, so both
  // the inline buffer and the heap path run through copy, move, assign
  // and growth.
  for (uint32_t Count = 0; Count <= 3 * OperandList::InlineCapacity;
       ++Count) {
    SCOPED_TRACE(Count);
    std::vector<RegId> Want;
    OperandList Ops;
    for (uint32_t I = 0; I < Count; ++I) {
      Ops.push_back(100 + I);
      Want.push_back(100 + I);
    }
    auto Same = [&](const OperandList &Got) {
      ASSERT_EQ(Got.size(), Want.size());
      EXPECT_EQ(Got.empty(), Want.empty());
      EXPECT_TRUE(std::equal(Got.begin(), Got.end(), Want.begin()));
      if (!Want.empty()) {
        EXPECT_EQ(Got.back(), Want.back());
      }
    };
    Same(Ops);

    OperandList Copy = Ops;
    Same(Copy);
    OperandList Moved = std::move(Copy);
    Same(Moved);
    EXPECT_TRUE(Copy.empty()); // NOLINT(bugprone-use-after-move)

    OperandList Assigned = {7, 8, 9, 10, 11, 12};
    Assigned = Ops;
    Same(Assigned);
    OperandList MoveAssigned = {1};
    MoveAssigned = std::move(Assigned);
    Same(MoveAssigned);
    const OperandList &Self = MoveAssigned;
    MoveAssigned = Self; // Self-assignment keeps the contents.
    Same(MoveAssigned);

    OperandList FromRange;
    FromRange.assign(Want.begin(), Want.end());
    Same(FromRange);
    for (RegId &Reg : FromRange)
      Reg += 1;
    for (uint32_t I = 0; I < Count; ++I)
      EXPECT_EQ(FromRange[I], Want[I] + 1);

    FromRange.clear();
    EXPECT_TRUE(FromRange.empty());
    FromRange.push_back(5);
    ASSERT_EQ(FromRange.size(), 1u);
    EXPECT_EQ(FromRange[0], 5u);
  }
}

TEST(OperandListTest, InstructionCopiesKeepOperands) {
  Instruction Call;
  Call.Op = Opcode::Call;
  for (RegId Reg = 0; Reg < 2 * OperandList::InlineCapacity; ++Reg)
    Call.Operands.push_back(Reg);
  std::vector<Instruction> Body(3, Call);
  Body.push_back(Call); // Reallocates: moves the spilled lists.
  for (const Instruction &Instr : Body) {
    ASSERT_EQ(Instr.Operands.size(), 2 * OperandList::InlineCapacity);
    for (RegId Reg = 0; Reg < Instr.Operands.size(); ++Reg)
      EXPECT_EQ(Instr.Operands[Reg], Reg);
  }
}

TEST(LoopTest, RegisterClassesTracked) {
  Loop L = makeDot();
  const PhiNode &Phi = L.phis()[0];
  EXPECT_EQ(L.regClass(Phi.Dest), RegClass::Float);
  // Backedge predicate is the second-to-last instruction's destination.
  size_t N = L.body().size();
  EXPECT_EQ(L.regClass(L.body()[N - 2].Dest), RegClass::Pred);
}

TEST(LoopBuilderTest, PredicatedEmission) {
  LoopBuilder B("pred", SourceLanguage::C, 1, 64);
  RegId T = B.liveIn(RegClass::Float, "t");
  RegId X = B.load(RegClass::Float, {0, 8, 0, false, 8});
  RegId Cond = B.fcmp(X, T);
  B.setPredicate(Cond);
  RegId Sum = B.fadd(X, T);
  B.clearPredicate();
  B.store(Sum, {1, 8, 0, false, 8});
  Loop L = B.finalize();
  // The fadd is guarded; the store is not.
  bool FoundGuarded = false;
  for (const Instruction &Instr : L.body()) {
    if (Instr.Op == Opcode::FAdd) {
      EXPECT_EQ(Instr.Pred, Cond);
      FoundGuarded = true;
    }
    if (Instr.isStore()) {
      EXPECT_EQ(Instr.Pred, NoReg);
    }
  }
  EXPECT_TRUE(FoundGuarded);
  EXPECT_TRUE(isWellFormed(L));
}

TEST(LoopBuilderTest, IndirectLoadTakesIndexOperand) {
  LoopBuilder B("gather", SourceLanguage::C, 1, 128);
  RegId Index = B.load(RegClass::Int, {0, 4, 0, false, 4});
  RegId Value = B.load(RegClass::Float, {1, 0, 0, true, 8}, Index);
  B.store(Value, {2, 8, 0, false, 8});
  Loop L = B.finalize();
  EXPECT_TRUE(isWellFormed(L));
  EXPECT_EQ(L.body()[1].Operands.size(), 1u);
  EXPECT_EQ(L.body()[1].Operands[0], Index);
}

//===----------------------------------------------------------------------===//
// Printer / Parser round trip
//===----------------------------------------------------------------------===//

TEST(PrinterTest, ContainsHeaderAndOpcodes) {
  std::string Text = printLoop(makeDaxpy());
  EXPECT_NE(Text.find("loop \"daxpy\""), std::string::npos);
  EXPECT_NE(Text.find("lang=C"), std::string::npos);
  EXPECT_NE(Text.find("trip=1024"), std::string::npos);
  EXPECT_NE(Text.find("fma"), std::string::npos);
  EXPECT_NE(Text.find("back_br"), std::string::npos);
}

TEST(PrinterTest, PhiSyntax) {
  std::string Text = printLoop(makeDot());
  EXPECT_NE(Text.find("phi %f_acc = ["), std::string::npos);
}

TEST(ParserTest, ParsesPrinterOutput) {
  Loop Original = makeDot();
  ParseResult Result = parseLoops(printLoop(Original));
  ASSERT_TRUE(Result.succeeded()) << Result.Error;
  ASSERT_EQ(Result.Loops.size(), 1u);
  const Loop &Parsed = Result.Loops[0];
  EXPECT_EQ(Parsed.name(), Original.name());
  EXPECT_EQ(Parsed.language(), Original.language());
  EXPECT_EQ(Parsed.tripCount(), Original.tripCount());
  EXPECT_EQ(Parsed.body().size(), Original.body().size());
  EXPECT_EQ(Parsed.phis().size(), Original.phis().size());
  EXPECT_TRUE(isWellFormed(Parsed));
}

TEST(ParserTest, PrintParsePrintIsStable) {
  Loop Original = makeDaxpy();
  std::string First = printLoop(Original);
  ParseResult Result = parseLoops(First);
  ASSERT_TRUE(Result.succeeded()) << Result.Error;
  std::string Second = printLoop(Result.Loops[0]);
  EXPECT_EQ(First, Second);
}

TEST(ParserTest, MultipleLoopsAndComments) {
  std::string Text = "# comment only line\n" + printLoop(makeDaxpy()) +
                     "\n# between\n" + printLoop(makeDot());
  ParseResult Result = parseLoops(Text);
  ASSERT_TRUE(Result.succeeded()) << Result.Error;
  EXPECT_EQ(Result.Loops.size(), 2u);
}

TEST(ParserTest, ReportsLineOfError) {
  std::string Text = "loop \"x\" lang=C nest=1 trip=4 rtrip=4 {\n"
                     "  %f_a = bogus_opcode %f_b\n"
                     "}\n";
  ParseResult Result = parseLoops(Text);
  EXPECT_FALSE(Result.succeeded());
  EXPECT_EQ(Result.ErrorLine, 2u);
  EXPECT_NE(Result.Error.find("bogus_opcode"), std::string::npos);
}

TEST(ParserTest, RejectsMalformedHeaders) {
  EXPECT_FALSE(parseLoops("loop daxpy {\n}\n").succeeded());
  EXPECT_FALSE(parseLoops("loop \"x\" lang=Cobol {\n}\n").succeeded());
  EXPECT_FALSE(parseLoops("loop \"x\" nest=abc {\n}\n").succeeded());
}

TEST(ParserTest, RejectsUnterminatedBody) {
  EXPECT_FALSE(
      parseLoops("loop \"x\" lang=C nest=1 trip=4 rtrip=4 {\n").succeeded());
}

TEST(ParserTest, ClassMismatchIsAVerifierError) {
  // The register prefix fixes each name's class, so "%f_a as an iadd
  // operand" parses fine syntactically; the verifier rejects it.
  std::string Text = "loop \"x\" lang=C nest=1 trip=4 rtrip=4 {\n"
                     "  %f_a = fadd %f_b, %f_c\n"
                     "  %i_d = iadd %f_a, %i_e\n"
                     "}\n";
  ParseResult Result = parseLoops(Text);
  ASSERT_TRUE(Result.succeeded()) << Result.Error;
  VerifyOptions Relaxed;
  Relaxed.RequireLoopControl = false;
  EXPECT_FALSE(verifyLoop(Result.Loops[0], Relaxed).empty());
}

TEST(ParserTest, ExitProbabilityValidated) {
  std::string Text = "loop \"x\" lang=C nest=1 trip=4 rtrip=4 {\n"
                     "  exit_if %p_c prob=1.5\n"
                     "}\n";
  EXPECT_FALSE(parseLoops(Text).succeeded());
}

TEST(ParserTest, NanExitProbabilityRejectedOnItsLine) {
  for (const char *Prob : {"nan", "NAN", "-nan", "nan(0x7)"}) {
    std::string Text = "loop \"x\" lang=C nest=1 trip=4 rtrip=4 {\n"
                       "  %i_a = iadd %i_b, %i_c\n"
                       "  exit_if %p_c prob=" +
                       std::string(Prob) + "\n}\n";
    ParseResult Result = parseLoops(Text);
    EXPECT_FALSE(Result.succeeded()) << Prob;
    EXPECT_EQ(Result.ErrorLine, 3u) << Prob;
    EXPECT_EQ(Result.Error, "exit probability must be in [0,1]") << Prob;
  }
}

/// Parses \p Line as line 2 of a loop whose header carries \p Header.
ParseResult parseWith(const std::string &Header, const std::string &Line) {
  return parseLoops("loop \"x\" " + Header + " {\n  " + Line + "\n}\n");
}

/// Each integer field rejects a value outside its type, naming the field,
/// where strtoll used to saturate and the narrowing casts to wrap; the
/// extreme values of each type still parse.
TEST(ParserTest, IntegerFieldsRejectValuesOutsideTheirType) {
  struct Case {
    std::string Header, Line, Error;
    size_t ErrorLine;
  };
  const std::string Load = "%f_v = load ";
  const Case Cases[] = {
      {"trip=99999999999999999999", "",
       "trip count '99999999999999999999' out of range", 1},
      {"trip=-9223372036854775809", "",
       "trip count '-9223372036854775809' out of range", 1},
      {"rtrip=9223372036854775808", "",
       "runtime trip count '9223372036854775808' out of range", 1},
      {"nest=4294967297", "", "nest level '4294967297' out of range", 1},
      {"nest=-2147483649", "", "nest level '-2147483649' out of range", 1},
      {"", Load + "@4294967298[stride=8]",
       "memory base symbol '4294967298' out of range", 2},
      {"", Load + "@0[size=4294967304]",
       "memory attribute 'size=4294967304' out of range", 2},
      {"", Load + "@0[stride=9223372036854775808]",
       "memory attribute 'stride=9223372036854775808' out of range", 2},
      {"", Load + "@0[offset=-99999999999999999999]",
       "memory attribute 'offset=-99999999999999999999' out of range", 2},
      {"", "%i_k = iconst 9223372036854775808",
       "constant '9223372036854775808' out of range", 2},
  };
  for (const Case &C : Cases) {
    ParseResult Result = parseWith(C.Header, C.Line);
    EXPECT_EQ(Result.Error, C.Error) << C.Header << C.Line;
    EXPECT_EQ(Result.ErrorLine, C.ErrorLine) << C.Header << C.Line;
  }

  ParseResult Extremes = parseWith(
      "nest=-2147483648 trip=9223372036854775807 "
      "rtrip=-9223372036854775808",
      Load + "@2147483647[stride=-9223372036854775808, "
             "offset=9223372036854775807, size=-2147483648]");
  ASSERT_TRUE(Extremes.succeeded()) << Extremes.Error;
  const Loop &L = Extremes.Loops[0];
  EXPECT_EQ(L.nestLevel(), INT32_MIN);
  EXPECT_EQ(L.tripCount(), INT64_MAX);
  const MemRef &Mem = L.body()[0].Mem;
  EXPECT_EQ(Mem.BaseSym, INT32_MAX);
  EXPECT_EQ(Mem.Stride, INT64_MIN);
  EXPECT_EQ(Mem.Offset, INT64_MAX);
  EXPECT_EQ(Mem.SizeBytes, INT32_MIN);

  // Malformed text keeps its own message, even when its digits overflow.
  EXPECT_EQ(parseWith("trip=99999999999999999999x", "").Error,
            "malformed trip count '99999999999999999999x'");
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(VerifierTest, AcceptsWellFormedLoops) {
  EXPECT_TRUE(verifyLoop(makeDaxpy()).empty());
  EXPECT_TRUE(verifyLoop(makeDot()).empty());
}

TEST(VerifierTest, CatchesUseBeforeDef) {
  Loop L = makeDaxpy();
  // Swap the fma before its load inputs.
  std::swap(L.body()[0], L.body()[2]);
  EXPECT_FALSE(verifyLoop(L).empty());
}

TEST(VerifierTest, CatchesDoubleDefinition) {
  Loop L = makeDaxpy();
  // Make the second load define the same register as the first.
  L.body()[1].Dest = L.body()[0].Dest;
  // Restore single-use of operands by repointing fma's operand.
  EXPECT_FALSE(verifyLoop(L).empty());
}

TEST(VerifierTest, CatchesMissingLoopControl) {
  LoopBuilder B("no_tail", SourceLanguage::C, 1, 8);
  RegId V = B.load(RegClass::Int, {0, 4, 0, false, 4});
  B.store(V, {1, 4, 0, false, 4});
  Loop L = B.finalize();
  L.body().pop_back(); // Drop BackBr.
  EXPECT_FALSE(verifyLoop(L).empty());
  VerifyOptions Relaxed;
  Relaxed.RequireLoopControl = false;
  // Still broken: a partial tail is never acceptable.
  EXPECT_FALSE(verifyLoop(L, Relaxed).empty());
}

TEST(VerifierTest, RelaxedModeAllowsNoTail) {
  Loop L;
  L.setName("bare");
  RegId A = L.addReg(RegClass::Int, "a");
  RegId B = L.addReg(RegClass::Int, "b");
  Instruction Add;
  Add.Op = Opcode::IAdd;
  Add.Operands = {A, A};
  Add.Dest = B;
  L.addInstruction(Add);
  VerifyOptions Relaxed;
  Relaxed.RequireLoopControl = false;
  EXPECT_TRUE(verifyLoop(L, Relaxed).empty());
  EXPECT_FALSE(verifyLoop(L).empty());
}

TEST(VerifierTest, CatchesWrongOperandClass) {
  Loop L = makeDaxpy();
  // fma's first operand forced to an integer register.
  RegId IntReg = L.addReg(RegClass::Int, "bad");
  for (Instruction &Instr : L.body())
    if (Instr.Op == Opcode::FMA)
      Instr.Operands[0] = IntReg;
  EXPECT_FALSE(verifyLoop(L).empty());
}

TEST(VerifierTest, CatchesPredicatedControl) {
  Loop L = makeDaxpy();
  RegId Pred = L.addReg(RegClass::Pred, "p");
  L.body().back().Pred = Pred; // Predicate the backedge branch.
  EXPECT_FALSE(verifyLoop(L).empty());
}

TEST(VerifierTest, CatchesBadPhiInit) {
  Loop L = makeDot();
  // Point the phi's init at a value computed in the body.
  L.phis()[0].Init = L.phis()[0].Recur;
  EXPECT_FALSE(verifyLoop(L).empty());
}

TEST(VerifierTest, CatchesOutOfRangeRegister) {
  Loop L = makeDaxpy();
  L.body()[0].Dest = 10000;
  EXPECT_FALSE(verifyLoop(L).empty());
}

TEST(VerifierTest, CatchesNanExitProbability) {
  LoopBuilder B("exits", SourceLanguage::C, 1, 64);
  RegId A = B.liveIn(RegClass::Int, "a");
  B.exitIf(B.icmp(A, A), 0.25);
  Loop L = B.finalize();
  ASSERT_TRUE(isWellFormed(L));
  for (Instruction &Instr : L.body())
    if (Instr.Op == Opcode::ExitIf)
      Instr.TakenProb = std::numeric_limits<double>::quiet_NaN();
  DiagnosticReport Report = verifyLoopDiagnostics(L);
  ASSERT_EQ(Report.errorCount(), 1u);
  EXPECT_STREQ(Report.diagnostics()[0].Id.c_str(), diag::ExitProb);
}

TEST(VerifierTest, CatchesStoreOperandCount) {
  Loop L = makeDaxpy();
  for (Instruction &Instr : L.body())
    if (Instr.isStore())
      Instr.Operands.clear();
  EXPECT_FALSE(verifyLoop(L).empty());
}
