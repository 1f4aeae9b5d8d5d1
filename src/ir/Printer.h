//===- ir/Printer.h - Textual loop format emission --------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes loops to the textual loop format that Parser.h reads back.
/// Round-tripping (print -> parse -> print) is stable and is covered by
/// property tests.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_IR_PRINTER_H
#define METAOPT_IR_PRINTER_H

#include "ir/Loop.h"

#include <string>
#include <vector>

namespace metaopt {

/// Returns the textual form of \p L, e.g.:
/// \code
/// loop "daxpy" lang=C nest=1 trip=1024 rtrip=1024 {
///   phi %f_acc = [%f_acc.init, %f_s3]
///   %f_s1 = load.f @0[stride=8, offset=0]
///   %f_s3 = fma %f_alpha, %f_s1, %f_acc
///   store %f_s3, @1[stride=8, offset=0]
///   ...loop control tail...
/// }
/// \endcode
std::string printLoop(const Loop &L);

/// Appends printLoop(L) to \p Out, so that a caller printing many loops
/// can reuse one buffer.
void appendLoop(std::string &Out, const Loop &L);

/// Prints a single instruction (as it would appear inside a loop body);
/// useful in diagnostics and tests.
std::string printInstruction(const Loop &L, const Instruction &Instr);

/// printInstruction of every body instruction, in body order, naming the
/// registers once for the whole loop.
std::vector<std::string> printInstructions(const Loop &L);

} // namespace metaopt

#endif // METAOPT_IR_PRINTER_H
