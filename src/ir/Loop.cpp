//===- ir/Loop.cpp --------------------------------------------------------===//

#include "ir/Loop.h"

#include <cassert>

using namespace metaopt;

const char *metaopt::sourceLanguageName(SourceLanguage Lang) {
  switch (Lang) {
  case SourceLanguage::C:
    return "C";
  case SourceLanguage::Fortran:
    return "Fortran";
  case SourceLanguage::Fortran90:
    return "Fortran90";
  }
  assert(false && "unknown source language");
  return "?";
}

bool metaopt::parseSourceLanguage(std::string_view Name,
                                  SourceLanguage &Out) {
  if (Name == "C") {
    Out = SourceLanguage::C;
    return true;
  }
  if (Name == "Fortran") {
    Out = SourceLanguage::Fortran;
    return true;
  }
  if (Name == "Fortran90") {
    Out = SourceLanguage::Fortran90;
    return true;
  }
  return false;
}

RegId Loop::addReg(RegClass RC, std::string BaseName) {
  RegId Reg = static_cast<RegId>(Classes.size());
  Classes.push_back(RC);
  if (BaseName.empty())
    BaseName = "r" + std::to_string(Reg);
  Names.push_back(std::move(BaseName));
  return Reg;
}

void Loop::reserveRegs(unsigned Count) {
  Classes.reserve(Count);
  Names.reserve(Count);
}

RegClass Loop::regClass(RegId Reg) const {
  assert(Reg < Classes.size() && "register id out of range");
  return Classes[Reg];
}

const std::string &Loop::regName(RegId Reg) const {
  assert(Reg < Names.size() && "register id out of range");
  return Names[Reg];
}

void Loop::setRegName(RegId Reg, std::string NewName) {
  assert(Reg < Names.size() && "register id out of range");
  Names[Reg] = std::move(NewName);
}

size_t Loop::addInstruction(Instruction Instr) {
  Body.push_back(std::move(Instr));
  return Body.size() - 1;
}

void Loop::addPhi(PhiNode Phi) { Phis.push_back(Phi); }

bool Loop::isPhiDest(RegId Reg) const {
  for (const PhiNode &Phi : Phis)
    if (Phi.Dest == Reg)
      return true;
  return false;
}

bool Loop::isLiveIn(RegId Reg) const {
  if (isPhiDest(Reg))
    return false;
  for (const Instruction &Instr : Body)
    if (Instr.Dest == Reg)
      return false;
  return true;
}

std::vector<char> Loop::liveInTable() const {
  // Out-of-range ids (a malformed loop) are skipped, as isLiveIn never
  // matches them against an in-range register.
  std::vector<char> LiveIn(numRegs(), 1);
  auto Define = [&](RegId Reg) {
    if (Reg < LiveIn.size())
      LiveIn[Reg] = 0;
  };
  for (const PhiNode &Phi : Phis)
    Define(Phi.Dest);
  for (const Instruction &Instr : Body)
    Define(Instr.Dest);
  return LiveIn;
}

size_t Loop::bodySizeWithoutControl() const {
  size_t Count = 0;
  for (const Instruction &Instr : Body)
    if (!Instr.isLoopControl())
      ++Count;
  return Count;
}
