//===- ir/Loop.h - Innermost loop representation ----------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Loop class: an innermost, unroll-candidate loop. It owns the body
/// instructions, the loop-carried phi nodes, per-register classes and
/// names, and the metadata the paper's feature vector draws on (nest
/// level, trip count, source language).
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_IR_LOOP_H
#define METAOPT_IR_LOOP_H

#include "ir/Instruction.h"

#include <string>
#include <string_view>
#include <vector>

namespace metaopt {

/// Maximum unroll factor considered anywhere in the system. The paper
/// fixes eight: "In all cases we set the maximum unroll factor to eight."
constexpr unsigned MaxUnrollFactor = 8;

/// Source language the loop was "written" in; a paper feature.
enum class SourceLanguage { C, Fortran, Fortran90 };

/// Returns "C" / "Fortran" / "Fortran90".
const char *sourceLanguageName(SourceLanguage Lang);

/// Parses a language name; returns false if unknown.
bool parseSourceLanguage(std::string_view Name, SourceLanguage &Out);

/// An innermost loop: straight-line predicated body + loop-carried phis.
///
/// Invariants (checked by verifyLoop):
///  - every register is defined at most once (by a phi or a body
///    instruction);
///  - operands are defined by a phi, an earlier body instruction, or are
///    live-in (defined nowhere in the loop);
///  - register classes match opcode signatures.
class Loop {
public:
  Loop() = default;
  Loop(std::string Name, SourceLanguage Lang, int NestLevel,
       int64_t TripCount)
      : Name(std::move(Name)), Lang(Lang), NestLevel(NestLevel),
        TripCount(TripCount) {}

  /// Trip count value meaning "unknown at compile time".
  static constexpr int64_t UnknownTripCount = -1;

  const std::string &name() const { return Name; }
  void setName(std::string NewName) { Name = std::move(NewName); }

  /// Source file the loop was parsed from ("" when built
  /// programmatically) and the 1-based line of its "loop" header (0 when
  /// unknown). Diagnostics use these to anchor loop-level findings.
  const std::string &sourceFile() const { return SourceFile; }
  void setSourceFile(std::string File) { SourceFile = std::move(File); }
  unsigned headerLine() const { return HeaderLine; }
  void setHeaderLine(unsigned Line) { HeaderLine = Line; }

  SourceLanguage language() const { return Lang; }
  void setLanguage(SourceLanguage NewLang) { Lang = NewLang; }

  int nestLevel() const { return NestLevel; }
  void setNestLevel(int Level) { NestLevel = Level; }

  /// Compile-time trip count, or UnknownTripCount.
  int64_t tripCount() const { return TripCount; }
  void setTripCount(int64_t Count) { TripCount = Count; }
  bool hasKnownTripCount() const { return TripCount >= 0; }

  /// The trip count the measurement harness executes. For loops with a
  /// known compile-time trip count this equals tripCount(); for unknown
  /// ones the corpus assigns a concrete runtime value here.
  int64_t runtimeTripCount() const {
    return hasKnownTripCount() ? TripCount : RuntimeTripCount;
  }
  void setRuntimeTripCount(int64_t Count) { RuntimeTripCount = Count; }

  //===--------------------------------------------------------------------===
  // Registers
  //===--------------------------------------------------------------------===

  /// Creates a fresh register of class \p RC; \p BaseName is used by the
  /// printer (a unique numeric suffix is appended automatically on
  /// collisions by the printer, not here).
  RegId addReg(RegClass RC, std::string BaseName = "");

  unsigned numRegs() const { return static_cast<unsigned>(Classes.size()); }
  /// Reserves room for \p Count registers in total.
  void reserveRegs(unsigned Count);
  RegClass regClass(RegId Reg) const;
  const std::string &regName(RegId Reg) const;
  void setRegName(RegId Reg, std::string NewName);

  //===--------------------------------------------------------------------===
  // Body and phis
  //===--------------------------------------------------------------------===

  std::vector<Instruction> &body() { return Body; }
  const std::vector<Instruction> &body() const { return Body; }

  std::vector<PhiNode> &phis() { return Phis; }
  const std::vector<PhiNode> &phis() const { return Phis; }

  /// Appends \p Instr and returns its body index.
  size_t addInstruction(Instruction Instr);

  /// Appends a phi node.
  void addPhi(PhiNode Phi);

  /// Returns true if \p Reg is defined by some phi node. Scans the phis.
  bool isPhiDest(RegId Reg) const;

  /// Returns true if \p Reg is not defined by any phi or body instruction,
  /// i.e. it is live into the loop (loop-invariant). Scans the phis and
  /// the body on every call; a pass that asks about every register uses
  /// liveInTable() instead.
  bool isLiveIn(RegId Reg) const;

  /// isLiveIn for every register at once: entry Reg is 1 when \p Reg is
  /// live in, 0 when a phi or body instruction defines it. One pass over
  /// the phis and the body.
  std::vector<char> liveInTable() const;

  /// Number of non-loop-control body instructions.
  size_t bodySizeWithoutControl() const;

private:
  std::string Name = "loop";
  std::string SourceFile;
  unsigned HeaderLine = 0;
  SourceLanguage Lang = SourceLanguage::C;
  int NestLevel = 1;
  int64_t TripCount = UnknownTripCount;
  int64_t RuntimeTripCount = 256;

  std::vector<Instruction> Body;
  std::vector<PhiNode> Phis;
  std::vector<RegClass> Classes;
  std::vector<std::string> Names;
};

} // namespace metaopt

#endif // METAOPT_IR_LOOP_H
