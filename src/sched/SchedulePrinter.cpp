//===- sched/SchedulePrinter.cpp ------------------------------------------===//

#include "sched/SchedulePrinter.h"

#include "ir/Printer.h"

#include <map>

using namespace metaopt;

namespace {

const char *unitName(UnitKind Kind) {
  switch (Kind) {
  case UnitKind::Mem:
    return "M";
  case UnitKind::Int:
    return "I";
  case UnitKind::Fp:
    return "F";
  case UnitKind::Br:
    return "B";
  }
  return "?";
}

/// \p Texts is printInstructions(L).
std::string describe(const Loop &L, const std::vector<std::string> &Texts,
                     uint32_t Node, const MachineModel &Machine) {
  const Instruction &Instr = L.body()[Node];
  std::string Text = "[";
  Text += occupiesIssueSlot(Instr) ? unitName(Machine.unitFor(Instr.Op))
                                   : "-";
  Text += "] ";
  Text += Texts[Node];
  return Text;
}

} // namespace

std::string metaopt::printSchedule(const Loop &L, const Schedule &Sched,
                                   const MachineModel &Machine) {
  std::map<uint32_t, std::vector<uint32_t>> ByCycle;
  for (uint32_t Node = 0; Node < Sched.CycleOf.size(); ++Node)
    ByCycle[Sched.CycleOf[Node]].push_back(Node);

  std::vector<std::string> Texts = printInstructions(L);
  std::string Out = "schedule, " + std::to_string(Sched.Length) +
                    " cycles:\n";
  for (uint32_t Cycle = 0; Cycle < Sched.Length; ++Cycle) {
    Out += "  c" + std::to_string(Cycle) + ":";
    auto It = ByCycle.find(Cycle);
    if (It == ByCycle.end()) {
      Out += "  (stall)\n";
      continue;
    }
    bool First = true;
    for (uint32_t Node : It->second) {
      Out += First ? "  " : "\n      ";
      Out += describe(L, Texts, Node, Machine);
      First = false;
    }
    Out += "\n";
  }
  return Out;
}

std::string
metaopt::printModuloSchedule(const Loop &L,
                             const ModuloScheduleResult &Sched,
                             const MachineModel &Machine) {
  if (!Sched.Succeeded)
    return "no modulo schedule\n";
  std::string Out = "modulo kernel, II=" + std::to_string(Sched.II) +
                    ", " + std::to_string(Sched.StageCount) + " stage(s):\n";
  std::vector<std::string> Texts = printInstructions(L);
  std::map<int, std::vector<uint32_t>> BySlot;
  for (uint32_t Node = 0; Node < Sched.CycleOf.size(); ++Node)
    BySlot[Sched.CycleOf[Node] % Sched.II].push_back(Node);
  for (int Slot = 0; Slot < Sched.II; ++Slot) {
    Out += "  s" + std::to_string(Slot) + ":";
    auto It = BySlot.find(Slot);
    if (It == BySlot.end()) {
      Out += "  (empty)\n";
      continue;
    }
    bool First = true;
    for (uint32_t Node : It->second) {
      Out += First ? "  " : "\n      ";
      Out += "(stage " +
             std::to_string(Sched.CycleOf[Node] / Sched.II) + ") " +
             describe(L, Texts, Node, Machine);
      First = false;
    }
    Out += "\n";
  }
  return Out;
}
