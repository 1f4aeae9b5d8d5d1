//===- import/Import.cpp --------------------------------------------------===//
//
// The mloop parser and lowering pipeline. Parsing is line-oriented like
// ir/Parser.cpp, but instead of stopping at the first error it collects
// every finding into a DiagnosticReport with stable I-series IDs, so a
// batch import of a real-code corpus reports all problems in one pass.
// Lowering runs per loop after its statements parsed cleanly: def-use is
// checked (uses of later defs must go through phis), registers are
// created in first-occurrence order with the printer's class-prefix
// convention stripped, named memory symbols are interned, and the
// canonical loop-control tail is synthesized unless the input carried an
// explicit one. Accepted loops are re-verified; a verifier error on a
// lowered loop (which indicates an importer bug, not bad input) is
// escalated into the report rather than silently shipped.
//
//===----------------------------------------------------------------------===//

#include "import/Import.h"

#include "ir/Verifier.h"
#include "support/FileIO.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace metaopt;

namespace {

/// Supported format version.
constexpr int64_t FormatVersion = 1;

/// Bounds enforced by I010: compile-time trip counts any positive value a
/// 32-bit extractor can emit; runtime trips capped so the reference
/// interpreter (which really executes them) stays fast; nest depth sane.
constexpr int64_t MaxTrip = int64_t(1) << 31;
constexpr int64_t MaxRuntimeTrip = 1000000;
constexpr int MaxDepth = 64;

//===----------------------------------------------------------------------===//
// Parsed (pre-lowering) statement model
//===----------------------------------------------------------------------===//

struct POperand {
  std::string Name;
  RegClass RC = RegClass::Int;
};

struct PStmt {
  unsigned Line = 0;
  bool IsPhi = false;
  Opcode Op = Opcode::IAdd;
  bool HasDest = false;
  std::string Dest;
  RegClass DestClass = RegClass::Int;
  std::vector<POperand> Ops; ///< Value operands (phi: init, recur).
  std::string Guard;         ///< when(%g), "" if none.
  int64_t Imm = 0;
  bool HasMem = false;
  MemRef Mem;         ///< BaseSym only valid when MemSym is empty.
  std::string MemSym; ///< Named base symbol, interned during lowering.
  std::string Index;  ///< ind(%x), "" if none.
  bool Paired = false;
  double Prob = 0.0;
};

/// One "array" directive: a declared symbol, parsed but not yet resolved
/// against the loop's interned symbol ids.
struct PArray {
  std::string Name;   ///< Named symbol; "" when declared numerically.
  int32_t Sym = 0;    ///< Numeric symbol id (valid when Name is empty).
  int64_t Extent = -1;
  int64_t Stride = 0;
  bool HasStride = false;
  unsigned Line = 0;
};

struct PLoop {
  unsigned HeaderLine = 0;
  std::string Name;
  SourceLanguage Lang = SourceLanguage::C;
  int Depth = 1;
  int64_t Trip = Loop::UnknownTripCount;
  int64_t RTrip = 256;
  std::vector<PStmt> Phis;
  std::vector<PStmt> Body;
  ImportProvenance Prov;
  SimContext Ctx;
  int64_t Executions = 1;
  std::vector<PArray> Arrays;
  bool Dirty = false; ///< Had at least one error; never lowered/emitted.
};

//===----------------------------------------------------------------------===//
// Character cursor over one line
//===----------------------------------------------------------------------===//

bool isIdentChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_' || C == '.';
}

class Cursor {
public:
  explicit Cursor(std::string_view Line) : S(Line) {}

  void skipWs() {
    while (P < S.size() && (S[P] == ' ' || S[P] == '\t'))
      ++P;
  }

  bool atEnd() {
    skipWs();
    return P >= S.size();
  }

  char peek() {
    skipWs();
    return P < S.size() ? S[P] : '\0';
  }

  /// Consumes \p C if it is next (after whitespace).
  bool lit(char C) {
    skipWs();
    if (P < S.size() && S[P] == C) {
      ++P;
      return true;
    }
    return false;
  }

  /// Reads a run of identifier characters ("" if none).
  std::string ident() {
    skipWs();
    size_t Begin = P;
    while (P < S.size() && isIdentChar(S[P]))
      ++P;
    return std::string(S.substr(Begin, P - Begin));
  }

  /// Reads a signed decimal integer token.
  std::optional<int64_t> number() {
    skipWs();
    size_t Begin = P;
    if (P < S.size() && (S[P] == '-' || S[P] == '+'))
      ++P;
    while (P < S.size() && S[P] >= '0' && S[P] <= '9')
      ++P;
    if (P == Begin)
      return std::nullopt;
    return parseInt(S.substr(Begin, P - Begin));
  }

  /// Reads a floating point token (digits, sign, '.', exponent).
  std::optional<double> real() {
    skipWs();
    size_t Begin = P;
    auto Ok = [&](char C) {
      return (C >= '0' && C <= '9') || C == '-' || C == '+' || C == '.' ||
             C == 'e' || C == 'E';
    };
    while (P < S.size() && Ok(S[P]))
      ++P;
    if (P == Begin)
      return std::nullopt;
    return parseDouble(S.substr(Begin, P - Begin));
  }

  /// Reads a double-quoted string (no escapes, like the .loop format).
  std::optional<std::string> quoted() {
    if (!lit('"'))
      return std::nullopt;
    size_t Close = S.find('"', P);
    if (Close == std::string_view::npos)
      return std::nullopt;
    std::string Out(S.substr(P, Close - P));
    P = Close + 1;
    return Out;
  }

  /// Reads a %value token; returns the name after '%'.
  std::optional<std::string> value() {
    if (!lit('%'))
      return std::nullopt;
    std::string Name = ident();
    if (Name.empty())
      return std::nullopt;
    return Name;
  }

  std::string_view rest() {
    skipWs();
    return S.substr(P);
  }

private:
  std::string_view S;
  size_t P = 0;
};

/// Maps an mloop type token to a register class. Narrower integer and
/// float widths are accepted and lower to the IR's single 64-bit class
/// per category (the access width of memory ops comes from size=, not
/// the value type).
std::optional<RegClass> parseTypeToken(const std::string &Tok) {
  if (Tok == "i64" || Tok == "i32" || Tok == "i16" || Tok == "i8")
    return RegClass::Int;
  if (Tok == "f64" || Tok == "f32")
    return RegClass::Float;
  if (Tok == "i1")
    return RegClass::Pred;
  return std::nullopt;
}

const char *typeTokenFor(RegClass RC) {
  switch (RC) {
  case RegClass::Int:
    return "i64";
  case RegClass::Float:
    return "f64";
  case RegClass::Pred:
    return "i1";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// The importer
//===----------------------------------------------------------------------===//

class Importer {
public:
  Importer(std::string_view Text, std::string FileName,
           const ImportOptions &Options, ImportResult &Result)
      : Text(Text), FileName(std::move(FileName)), Options(Options),
        Result(Result) {}

  void run() {
    if (!parseHeader())
      return;
    std::string_view Line;
    while (nextMeaningfulLine(Line)) {
      Cursor C(Line);
      std::string Word = C.ident();
      if (Word == "loop") {
        parseAndLowerLoop(C);
      } else if (Word == "source") {
        parseSourceDirective(C);
      } else if (Word == "context") {
        parseContextDirective(C);
      } else if (Word == "array") {
        parseArrayDirective(C);
      } else {
        error(idiag::UnknownDirective, CurLine,
              "unknown directive '" + Word + "' (expected source, "
              "context, array, or loop)");
      }
    }
    if (!Options.Lenient && Result.Report.hasErrors())
      Result.Loops.clear();
  }

private:
  //===--------------------------------------------------------------------===
  // Diagnostics and line scanning
  //===--------------------------------------------------------------------===

  void error(const char *Id, unsigned Line, std::string Message,
             const std::string &LoopName = "") {
    Diagnostic D;
    D.Id = Id;
    D.Sev = Severity::Error;
    D.LoopName = LoopName;
    D.SrcLine = Line;
    D.Message = std::move(Message);
    Result.Report.add(std::move(D));
  }

  /// Advances to the next non-empty, non-comment line. Returns false at
  /// end of input. CurLine is the 1-based line number of the result.
  bool nextMeaningfulLine(std::string_view &Out) {
    while (Pos < Text.size()) {
      size_t End = Text.find('\n', Pos);
      if (End == std::string_view::npos)
        End = Text.size();
      std::string_view Line = Text.substr(Pos, End - Pos);
      Pos = End + 1;
      ++CurLine;
      size_t Hash = Line.find('#');
      if (Hash != std::string_view::npos)
        Line = Line.substr(0, Hash);
      Line = trim(Line);
      if (!Line.empty()) {
        Out = Line;
        return true;
      }
    }
    return false;
  }

  bool parseHeader() {
    std::string_view Line;
    if (!nextMeaningfulLine(Line)) {
      error(idiag::MissingHeader, CurLine,
            "empty input: expected 'mloop " +
                std::to_string(FormatVersion) + "' header");
      return false;
    }
    Cursor C(Line);
    if (C.ident() != "mloop") {
      error(idiag::MissingHeader, CurLine,
            "first line must be 'mloop <version>'");
      return false;
    }
    std::optional<int64_t> Version = C.number();
    if (!Version || !C.atEnd()) {
      error(idiag::MissingHeader, CurLine,
            "malformed mloop header (expected 'mloop <version>')");
      return false;
    }
    if (*Version != FormatVersion) {
      error(idiag::BadVersion, CurLine,
            "unsupported mloop version " + std::to_string(*Version) +
                " (this importer reads version " +
                std::to_string(FormatVersion) + ")");
      return false;
    }
    return true;
  }

  //===--------------------------------------------------------------------===
  // Directives
  //===--------------------------------------------------------------------===

  void parseSourceDirective(Cursor &C) {
    while (!C.atEnd()) {
      std::string Key = C.ident();
      if (Key.empty() || !C.lit('=')) {
        error(idiag::BadDirectiveArg, CurLine,
              "malformed source directive (expected key=value pairs)");
        return;
      }
      if (Key == "file" || Key == "function" || Key == "extractor") {
        std::optional<std::string> Value = C.quoted();
        if (!Value) {
          error(idiag::BadDirectiveArg, CurLine,
                "source " + Key + "= expects a quoted string");
          return;
        }
        if (Key == "file")
          PendingProv.SourceFile = *Value;
        else if (Key == "function")
          PendingProv.Function = *Value;
        else
          PendingProv.Extractor = *Value;
      } else if (Key == "line") {
        std::optional<int64_t> Value = C.number();
        if (!Value || *Value < 0) {
          error(idiag::BadDirectiveArg, CurLine,
                "source line= expects a non-negative integer");
          return;
        }
        PendingProv.SourceLine = static_cast<unsigned>(*Value);
      } else {
        error(idiag::BadDirectiveArg, CurLine,
              "unknown source key '" + Key + "'");
        return;
      }
    }
  }

  void parseContextDirective(Cursor &C) {
    while (!C.atEnd()) {
      std::string Key = C.ident();
      if (Key.empty() || !C.lit('=')) {
        error(idiag::BadDirectiveArg, CurLine,
              "malformed context directive (expected key=value pairs)");
        return;
      }
      auto IntField = [&](int &Slot, int64_t Min, int64_t Max) {
        std::optional<int64_t> Value = C.number();
        if (!Value || *Value < Min || *Value > Max) {
          error(idiag::BadDirectiveArg, CurLine,
                "context " + Key + "= out of range");
          return false;
        }
        Slot = static_cast<int>(*Value);
        return true;
      };
      auto RealField = [&](double &Slot, double Min, double Max) {
        std::optional<double> Value = C.real();
        if (!Value || *Value < Min || *Value > Max) {
          error(idiag::BadDirectiveArg, CurLine,
                "context " + Key + "= out of range");
          return false;
        }
        Slot = *Value;
        return true;
      };
      bool Ok = true;
      if (Key == "icache")
        Ok = IntField(PendingCtx.EffectiveIcacheBytes, 64, 1 << 24);
      else if (Key == "dmiss")
        Ok = RealField(PendingCtx.DcacheMissRate, 0.0, 1.0);
      else if (Key == "dmiss_cycles")
        Ok = IntField(PendingCtx.DcacheMissCycles, 0, 10000);
      else if (Key == "dvisible")
        Ok = RealField(PendingCtx.DcacheVisibleFraction, 0.0, 1.0);
      else if (Key == "iregs")
        Ok = IntField(PendingCtx.IntRegBudget, 1, 1 << 16);
      else if (Key == "fregs")
        Ok = IntField(PendingCtx.FpRegBudget, 1, 1 << 16);
      else if (Key == "execs") {
        std::optional<int64_t> Value = C.number();
        if (!Value || *Value < 1 || *Value > (int64_t(1) << 40)) {
          error(idiag::BadDirectiveArg, CurLine,
                "context execs= out of range");
          Ok = false;
        } else {
          PendingExecutions = *Value;
        }
      } else {
        error(idiag::BadDirectiveArg, CurLine,
              "unknown context key '" + Key + "'");
        return;
      }
      if (!Ok)
        return;
    }
  }

  /// array @sym [extent=<bytes>] [stride=<bytes>]
  /// Declares the object behind a memory symbol of the next loop: its
  /// byte extent and/or the stride the surrounding code walks it with.
  void parseArrayDirective(Cursor &C) {
    PArray Decl;
    Decl.Line = CurLine;
    if (!C.lit('@')) {
      error(idiag::BadDirectiveArg, CurLine,
            "array directive expects '@sym' first");
      return;
    }
    char Next = C.peek();
    if (Next == '-' || (Next >= '0' && Next <= '9')) {
      std::optional<int64_t> Sym = C.number();
      if (!Sym || *Sym < INT32_MIN || *Sym > INT32_MAX) {
        error(idiag::BadDirectiveArg, CurLine,
              "array symbol id out of range");
        return;
      }
      Decl.Sym = static_cast<int32_t>(*Sym);
    } else {
      Decl.Name = C.ident();
      if (Decl.Name.empty()) {
        error(idiag::BadDirectiveArg, CurLine,
              "expected a symbol name after '@'");
        return;
      }
    }
    bool SawAny = false;
    while (!C.atEnd()) {
      std::string Key = C.ident();
      if (Key.empty() || !C.lit('=')) {
        error(idiag::BadDirectiveArg, CurLine,
              "malformed array directive (expected key=value pairs)");
        return;
      }
      std::optional<int64_t> Value = C.number();
      if (!Value) {
        error(idiag::BadDirectiveArg, CurLine,
              "array " + Key + "= expects an integer");
        return;
      }
      if (Key == "extent") {
        if (*Value < 0) {
          error(idiag::BadDirectiveArg, CurLine,
                "array extent= must be non-negative");
          return;
        }
        Decl.Extent = *Value;
      } else if (Key == "stride") {
        Decl.Stride = *Value;
        Decl.HasStride = true;
      } else {
        error(idiag::BadDirectiveArg, CurLine,
              "unknown array key '" + Key + "'");
        return;
      }
      SawAny = true;
    }
    if (!SawAny) {
      error(idiag::BadDirectiveArg, CurLine,
            "array directive declares nothing (add extent= or stride=)");
      return;
    }
    for (const PArray &Prior : PendingArrays)
      if (Prior.Name == Decl.Name && (!Decl.Name.empty() ||
                                      Prior.Sym == Decl.Sym)) {
        error(idiag::BadDirectiveArg, CurLine,
              "duplicate array declaration for '@" +
                  (Decl.Name.empty() ? std::to_string(Decl.Sym)
                                     : Decl.Name) +
                  "'");
        return;
      }
    PendingArrays.push_back(std::move(Decl));
  }

  //===--------------------------------------------------------------------===
  // Loop parsing
  //===--------------------------------------------------------------------===

  void parseAndLowerLoop(Cursor &Header) {
    ++Result.ParsedLoops;
    PLoop PL;
    PL.HeaderLine = CurLine;
    PL.Prov = PendingProv;
    PL.Prov.ImportFile = FileName;
    PL.Ctx = PendingCtx;
    PL.Executions = PendingExecutions;
    PL.Arrays = std::move(PendingArrays);
    PendingProv = ImportProvenance{};
    PendingCtx = SimContext{};
    PendingExecutions = 1;
    PendingArrays.clear();

    bool HeaderOk = parseLoopHeader(Header, PL);
    if (!HeaderOk)
      PL.Dirty = true;

    // Statements until '}'. Parse errors mark the loop dirty but do not
    // stop the scan, so one import reports every problem in the file.
    bool Closed = false;
    std::string_view Line;
    while (nextMeaningfulLine(Line)) {
      if (trim(Line) == "}") {
        Closed = true;
        break;
      }
      parseStatement(Line, PL);
    }
    if (!Closed) {
      error(idiag::Truncated, CurLine,
            "input ends inside loop \"" + PL.Name +
                "\" (missing '}')", PL.Name);
      return;
    }
    if (PL.Phis.empty() && PL.Body.empty()) {
      error(idiag::EmptyLoop, PL.HeaderLine,
            "loop \"" + PL.Name + "\" has no instructions", PL.Name);
      return;
    }
    if (PL.Dirty)
      return;
    lowerLoop(PL);
  }

  bool parseLoopHeader(Cursor &C, PLoop &PL) {
    std::optional<std::string> Name = C.quoted();
    if (!Name) {
      error(idiag::Syntax, CurLine,
            "expected quoted loop name after 'loop'");
      return false;
    }
    PL.Name = *Name;
    bool RTripSet = false;
    while (!C.atEnd()) {
      if (C.peek() == '{') {
        C.lit('{');
        if (!C.atEnd()) {
          error(idiag::Syntax, CurLine, "trailing text after '{'");
          return false;
        }
        if (PL.Trip >= 0 && !RTripSet)
          PL.RTrip = PL.Trip;
        if (PL.Trip >= 0 && RTripSet && PL.RTrip != PL.Trip) {
          error(idiag::TripOutOfRange, CurLine,
                "rtrip= must equal trip= when the trip count is known",
                PL.Name);
          return false;
        }
        return true;
      }
      std::string Key = C.ident();
      if (Key.empty() || !C.lit('=')) {
        error(idiag::Syntax, CurLine,
              "malformed loop header (expected key=value or '{')");
        return false;
      }
      if (Key == "lang") {
        std::string Value = C.ident();
        if (!parseSourceLanguage(Value, PL.Lang)) {
          error(idiag::Syntax, CurLine,
                "unknown language '" + Value + "'");
          return false;
        }
      } else if (Key == "depth") {
        std::optional<int64_t> Value = C.number();
        if (!Value || *Value < 1 || *Value > MaxDepth) {
          error(idiag::TripOutOfRange, CurLine,
                "depth= must be in [1, " + std::to_string(MaxDepth) + "]",
                PL.Name);
          return false;
        }
        PL.Depth = static_cast<int>(*Value);
      } else if (Key == "trip") {
        if (C.lit('?')) {
          PL.Trip = Loop::UnknownTripCount;
        } else {
          std::optional<int64_t> Value = C.number();
          // 0 is legal: a compile-time-known loop that never runs.
          if (!Value || *Value < 0 || *Value > MaxTrip) {
            error(idiag::TripOutOfRange, CurLine,
                  "trip= must be '?' or in [0, 2^31]", PL.Name);
            return false;
          }
          PL.Trip = *Value;
        }
      } else if (Key == "rtrip") {
        std::optional<int64_t> Value = C.number();
        if (!Value || *Value < 1 || *Value > MaxRuntimeTrip) {
          error(idiag::TripOutOfRange, CurLine,
                "rtrip= must be in [1, " +
                    std::to_string(MaxRuntimeTrip) +
                    "] (the reference interpreter executes it)",
                PL.Name);
          return false;
        }
        PL.RTrip = *Value;
        RTripSet = true;
      } else {
        error(idiag::Syntax, CurLine,
              "unknown loop header key '" + Key + "'");
        return false;
      }
    }
    error(idiag::Syntax, CurLine, "loop header missing '{'");
    return false;
  }

  //===--------------------------------------------------------------------===
  // Statement parsing
  //===--------------------------------------------------------------------===

  /// Marks the loop dirty and reports an error anchored to it.
  void stmtError(PLoop &PL, const char *Id, std::string Message) {
    error(Id, CurLine, std::move(Message), PL.Name);
    PL.Dirty = true;
  }

  void parseStatement(std::string_view Line, PLoop &PL) {
    Cursor C(Line);
    PStmt St;
    St.Line = CurLine;

    if (C.peek() == '%') {
      std::optional<std::string> Dest = C.value();
      if (!Dest || !C.lit('=')) {
        stmtError(PL, idiag::Syntax,
                  "malformed destination (expected '%name = ...')");
        return;
      }
      St.HasDest = true;
      St.Dest = *Dest;
    }

    std::string Mn = C.ident();
    if (Mn == "phi") {
      if (parsePhi(C, PL, St))
        PL.Phis.push_back(std::move(St));
      return;
    }
    if (!parseInstruction(C, PL, St, Mn))
      return;
    PL.Body.push_back(std::move(St));
  }

  bool parsePhi(Cursor &C, PLoop &PL, PStmt &St) {
    St.IsPhi = true;
    if (!St.HasDest) {
      stmtError(PL, idiag::Syntax, "phi requires a destination");
      return false;
    }
    if (!PL.Body.empty()) {
      stmtError(PL, idiag::Syntax,
                "phi must precede all instructions");
      return false;
    }
    std::string Ty = C.ident();
    std::optional<RegClass> RC = parseTypeToken(Ty);
    if (!RC) {
      stmtError(PL, idiag::BadType, "unknown phi type '" + Ty + "'");
      return false;
    }
    St.DestClass = *RC;
    if (!C.lit('[')) {
      stmtError(PL, idiag::Syntax, "phi expects '[%init, %recur]'");
      return false;
    }
    std::optional<std::string> Init = C.value();
    if (!Init || !C.lit(',')) {
      stmtError(PL, idiag::Syntax, "phi expects '[%init, %recur]'");
      return false;
    }
    std::optional<std::string> Recur = C.value();
    if (!Recur || !C.lit(']') || !C.atEnd()) {
      stmtError(PL, idiag::Syntax, "phi expects '[%init, %recur]'");
      return false;
    }
    St.Ops.push_back({*Init, *RC});
    St.Ops.push_back({*Recur, *RC});
    return true;
  }

  /// Parses the type token and reports I006 on failure.
  std::optional<RegClass> typeOf(Cursor &C, PLoop &PL,
                                 const std::string &Mn) {
    std::string Ty = C.ident();
    std::optional<RegClass> RC = parseTypeToken(Ty);
    if (!RC)
      stmtError(PL, idiag::BadType,
                "unknown type '" + Ty + "' after '" + Mn + "'");
    return RC;
  }

  /// Parses "%a, %b, ..." — exactly \p Count operands of class \p RC.
  bool operandList(Cursor &C, PLoop &PL, PStmt &St, unsigned Count,
                   RegClass RC, const std::string &Mn) {
    for (unsigned I = 0; I < Count; ++I) {
      if (I > 0 && !C.lit(',')) {
        stmtError(PL, idiag::OperandCount,
                  "'" + Mn + "' expects " + std::to_string(Count) +
                      " operands");
        return false;
      }
      std::optional<std::string> Name = C.value();
      if (!Name) {
        stmtError(PL, idiag::OperandCount,
                  "'" + Mn + "' expects " + std::to_string(Count) +
                      " operands");
        return false;
      }
      St.Ops.push_back({*Name, RC});
    }
    return true;
  }

  bool requireDest(PLoop &PL, PStmt &St, const std::string &Mn,
                   RegClass RC) {
    if (!St.HasDest) {
      stmtError(PL, idiag::Syntax,
                "'" + Mn + "' produces a value (expected '%dest = ...')");
      return false;
    }
    St.DestClass = RC;
    return true;
  }

  bool forbidDest(PLoop &PL, PStmt &St, const std::string &Mn) {
    if (St.HasDest) {
      stmtError(PL, idiag::Syntax,
                "'" + Mn + "' does not produce a value");
      return false;
    }
    return true;
  }

  bool parseInstruction(Cursor &C, PLoop &PL, PStmt &St,
                        const std::string &Mn) {
    // Integer arithmetic family ('and i1' doubles as the predicate
    // combinator, matching PredSet's AND semantics).
    static const std::map<std::string, Opcode> IntBin = {
        {"add", Opcode::IAdd},  {"sub", Opcode::ISub},
        {"mul", Opcode::IMul},  {"sdiv", Opcode::IDiv},
        {"srem", Opcode::IRem}, {"shl", Opcode::Shl},
        {"ashr", Opcode::Shr},  {"and", Opcode::And},
        {"or", Opcode::Or},     {"xor", Opcode::Xor}};
    static const std::map<std::string, Opcode> FloatBin = {
        {"fadd", Opcode::FAdd},
        {"fsub", Opcode::FSub},
        {"fmul", Opcode::FMul},
        {"fdiv", Opcode::FDiv}};

    if (auto It = IntBin.find(Mn); It != IntBin.end()) {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      if (*RC == RegClass::Pred) {
        if (Mn != "and") {
          stmtError(PL, idiag::BadType,
                    "i1 arithmetic is limited to 'and' (the IR combines "
                    "predicates with AND)");
          return false;
        }
        St.Op = Opcode::PredSet;
        if (!requireDest(PL, St, Mn, RegClass::Pred))
          return false;
        std::optional<std::string> A = C.value();
        if (!A) {
          stmtError(PL, idiag::OperandCount,
                    "'and i1' expects one or two operands");
          return false;
        }
        St.Ops.push_back({*A, RegClass::Pred});
        if (C.lit(',')) {
          std::optional<std::string> B = C.value();
          if (!B) {
            stmtError(PL, idiag::OperandCount,
                      "'and i1' expects one or two operands");
            return false;
          }
          St.Ops.push_back({*B, RegClass::Pred});
        }
        return finishClauses(C, PL, St);
      }
      if (*RC != RegClass::Int) {
        stmtError(PL, idiag::BadType,
                  "'" + Mn + "' expects an integer type");
        return false;
      }
      St.Op = It->second;
      return requireDest(PL, St, Mn, RegClass::Int) &&
             operandList(C, PL, St, 2, RegClass::Int, Mn) &&
             finishClauses(C, PL, St);
    }

    if (auto It = FloatBin.find(Mn); It != FloatBin.end()) {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      if (*RC != RegClass::Float) {
        stmtError(PL, idiag::BadType,
                  "'" + Mn + "' expects a floating point type");
        return false;
      }
      St.Op = It->second;
      return requireDest(PL, St, Mn, RegClass::Float) &&
             operandList(C, PL, St, 2, RegClass::Float, Mn) &&
             finishClauses(C, PL, St);
    }

    if (Mn == "icmp" || Mn == "fcmp") {
      bool IsFloat = Mn == "fcmp";
      std::string Cond = C.ident();
      // The IR models exactly one comparison: A < B (signed / ordered).
      const char *Want = IsFloat ? "olt" : "slt";
      if (Cond != Want) {
        stmtError(PL, idiag::UnknownOpcode,
                  "unsupported " + Mn + " condition '" + Cond +
                      "' (the IR models only '" + Want + "')");
        return false;
      }
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      RegClass Expect = IsFloat ? RegClass::Float : RegClass::Int;
      if (*RC != Expect) {
        stmtError(PL, idiag::BadType,
                  "'" + Mn + "' operand type mismatch");
        return false;
      }
      St.Op = IsFloat ? Opcode::FCmp : Opcode::ICmp;
      return requireDest(PL, St, Mn, RegClass::Pred) &&
             operandList(C, PL, St, 2, Expect, Mn) &&
             finishClauses(C, PL, St);
    }

    if (Mn == "fma" || Mn == "sqrt") {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      if (*RC != RegClass::Float) {
        stmtError(PL, idiag::BadType,
                  "'" + Mn + "' expects a floating point type");
        return false;
      }
      St.Op = Mn == "fma" ? Opcode::FMA : Opcode::FSqrt;
      return requireDest(PL, St, Mn, RegClass::Float) &&
             operandList(C, PL, St, Mn == "fma" ? 3 : 1, RegClass::Float,
                         Mn) &&
             finishClauses(C, PL, St);
    }

    if (Mn == "sitofp") {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      if (*RC != RegClass::Float) {
        stmtError(PL, idiag::BadType,
                  "'sitofp' converts to a floating point type");
        return false;
      }
      St.Op = Opcode::FCvt;
      return requireDest(PL, St, Mn, RegClass::Float) &&
             operandList(C, PL, St, 1, RegClass::Int, Mn) &&
             finishClauses(C, PL, St);
    }

    if (Mn == "const") {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      if (*RC == RegClass::Pred) {
        stmtError(PL, idiag::BadType,
                  "predicate constants are not representable; use "
                  "'icmp'/'fcmp' or 'and i1'");
        return false;
      }
      std::optional<int64_t> Value = C.number();
      if (!Value) {
        stmtError(PL, idiag::Syntax, "'const' expects an integer literal");
        return false;
      }
      St.Op = *RC == RegClass::Int ? Opcode::IConst : Opcode::FConst;
      St.Imm = *Value;
      return requireDest(PL, St, Mn, *RC) && finishClauses(C, PL, St);
    }

    if (Mn == "copy") {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      St.Op = Opcode::Copy;
      return requireDest(PL, St, Mn, *RC) &&
             operandList(C, PL, St, 1, *RC, Mn) && finishClauses(C, PL, St);
    }

    if (Mn == "select") {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      St.Op = Opcode::Select;
      if (!requireDest(PL, St, Mn, *RC))
        return false;
      std::optional<std::string> P = C.value();
      if (!P || !C.lit(',')) {
        stmtError(PL, idiag::OperandCount,
                  "'select' expects '%pred, %a, %b'");
        return false;
      }
      St.Ops.push_back({*P, RegClass::Pred});
      std::optional<std::string> A = C.value();
      if (!A || !C.lit(',')) {
        stmtError(PL, idiag::OperandCount,
                  "'select' expects '%pred, %a, %b'");
        return false;
      }
      std::optional<std::string> B = C.value();
      if (!B) {
        stmtError(PL, idiag::OperandCount,
                  "'select' expects '%pred, %a, %b'");
        return false;
      }
      St.Ops.push_back({*A, *RC});
      St.Ops.push_back({*B, *RC});
      return finishClauses(C, PL, St);
    }

    if (Mn == "gep") {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      if (*RC != RegClass::Int) {
        stmtError(PL, idiag::BadType, "'gep' computes integer addresses");
        return false;
      }
      St.Op = Opcode::AddrGen;
      if (!requireDest(PL, St, Mn, RegClass::Int))
        return false;
      std::optional<std::string> A = C.value();
      if (!A) {
        stmtError(PL, idiag::OperandCount,
                  "'gep' expects one or two operands");
        return false;
      }
      St.Ops.push_back({*A, RegClass::Int});
      if (C.lit(',')) {
        std::optional<std::string> B = C.value();
        if (!B) {
          stmtError(PL, idiag::OperandCount,
                    "'gep' expects one or two operands");
          return false;
        }
        St.Ops.push_back({*B, RegClass::Int});
      }
      return finishClauses(C, PL, St);
    }

    if (Mn == "load") {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      if (*RC == RegClass::Pred) {
        stmtError(PL, idiag::BadType,
                  "loads produce integer or floating point values");
        return false;
      }
      St.Op = Opcode::Load;
      return requireDest(PL, St, Mn, *RC) && parseMemRef(C, PL, St) &&
             finishClauses(C, PL, St);
    }

    if (Mn == "store") {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      if (*RC == RegClass::Pred) {
        stmtError(PL, idiag::BadType,
                  "stores write integer or floating point values");
        return false;
      }
      St.Op = Opcode::Store;
      if (!forbidDest(PL, St, Mn))
        return false;
      std::optional<std::string> Value = C.value();
      if (!Value || !C.lit(',')) {
        stmtError(PL, idiag::OperandCount,
                  "'store' expects '%value, @sym[...]'");
        return false;
      }
      St.Ops.push_back({*Value, *RC});
      return parseMemRef(C, PL, St) && finishClauses(C, PL, St);
    }

    if (Mn == "exit") {
      St.Op = Opcode::ExitIf;
      if (!forbidDest(PL, St, Mn))
        return false;
      std::optional<std::string> P = C.value();
      if (!P) {
        stmtError(PL, idiag::OperandCount,
                  "'exit' expects a predicate operand");
        return false;
      }
      St.Ops.push_back({*P, RegClass::Pred});
      return finishClauses(C, PL, St);
    }

    if (Mn == "call") {
      St.Op = Opcode::Call;
      if (!forbidDest(PL, St, Mn))
        return false;
      if (!C.lit('@') || C.ident().empty() || !C.lit('(')) {
        stmtError(PL, idiag::Syntax,
                  "'call' expects '@callee(type %arg, ...)'");
        return false;
      }
      if (!C.lit(')')) {
        while (true) {
          std::string Ty = C.ident();
          std::optional<RegClass> RC = parseTypeToken(Ty);
          if (!RC) {
            stmtError(PL, idiag::BadType,
                      "unknown call argument type '" + Ty + "'");
            return false;
          }
          std::optional<std::string> Arg = C.value();
          if (!Arg) {
            stmtError(PL, idiag::Syntax,
                      "'call' expects '@callee(type %arg, ...)'");
            return false;
          }
          St.Ops.push_back({*Arg, *RC});
          if (C.lit(')'))
            break;
          if (!C.lit(',')) {
            stmtError(PL, idiag::Syntax,
                      "'call' expects '@callee(type %arg, ...)'");
            return false;
          }
        }
      }
      if (St.Ops.size() > 4) {
        stmtError(PL, idiag::OperandCount,
                  "'call' passes at most 4 register arguments");
        return false;
      }
      return finishClauses(C, PL, St);
    }

    // Explicit canonical loop-control tail (emitted by the exporter so
    // round-trips are exact; hand-written files normally omit it and get
    // the synthesized tail).
    if (Mn == "iv_add" || Mn == "iv_cmp" || Mn == "back_br") {
      std::optional<RegClass> RC = typeOf(C, PL, Mn);
      if (!RC)
        return false;
      if (Mn == "back_br") {
        St.Op = Opcode::BackBr;
        if (*RC != RegClass::Pred) {
          stmtError(PL, idiag::BadType, "'back_br' expects an i1 operand");
          return false;
        }
        return forbidDest(PL, St, Mn) &&
               operandList(C, PL, St, 1, RegClass::Pred, Mn) &&
               finishClauses(C, PL, St);
      }
      if (*RC != RegClass::Int) {
        stmtError(PL, idiag::BadType,
                  "'" + Mn + "' expects an i64 operand");
        return false;
      }
      St.Op = Mn == "iv_add" ? Opcode::IvAdd : Opcode::IvCmp;
      return requireDest(PL, St, Mn,
                         Mn == "iv_add" ? RegClass::Int : RegClass::Pred) &&
             operandList(C, PL, St, 1, RegClass::Int, Mn) &&
             finishClauses(C, PL, St);
    }

    stmtError(PL, idiag::UnknownOpcode, "unknown opcode '" + Mn + "'");
    return false;
  }

  bool parseMemRef(Cursor &C, PLoop &PL, PStmt &St) {
    if (!C.lit('@')) {
      stmtError(PL, idiag::BadMemRef, "expected '@sym[...]' memory ref");
      return false;
    }
    St.HasMem = true;
    char Next = C.peek();
    if (Next == '-' || (Next >= '0' && Next <= '9')) {
      std::optional<int64_t> Sym = C.number();
      if (!Sym || *Sym < INT32_MIN || *Sym > INT32_MAX) {
        stmtError(PL, idiag::BadMemRef, "numeric base symbol out of range");
        return false;
      }
      St.Mem.BaseSym = static_cast<int32_t>(*Sym);
    } else {
      St.MemSym = C.ident();
      if (St.MemSym.empty()) {
        stmtError(PL, idiag::BadMemRef, "expected base symbol after '@'");
        return false;
      }
    }
    if (!C.lit('['))
      return true; // Bare '@sym': all attributes default.
    if (C.lit(']'))
      return true;
    while (true) {
      std::string Key = C.ident();
      if (Key == "indirect") {
        St.Mem.Indirect = true;
      } else if (Key == "stride" || Key == "offset" || Key == "size") {
        if (!C.lit('=')) {
          stmtError(PL, idiag::BadMemRef,
                    "memory ref attribute '" + Key + "' expects a value");
          return false;
        }
        std::optional<int64_t> Value = C.number();
        if (!Value) {
          stmtError(PL, idiag::BadMemRef,
                    "memory ref attribute '" + Key +
                        "' expects an integer");
          return false;
        }
        if (Key == "stride") {
          St.Mem.Stride = *Value;
        } else if (Key == "offset") {
          St.Mem.Offset = *Value;
        } else {
          if (*Value != 1 && *Value != 2 && *Value != 4 && *Value != 8 &&
              *Value != 16) {
            stmtError(PL, idiag::BadMemRef,
                      "size= must be 1, 2, 4, 8, or 16 bytes");
            return false;
          }
          St.Mem.SizeBytes = static_cast<int32_t>(*Value);
        }
      } else {
        stmtError(PL, idiag::BadMemRef,
                  "unknown memory ref attribute '" + Key + "'");
        return false;
      }
      if (C.lit(']'))
        return true;
      if (!C.lit(',')) {
        stmtError(PL, idiag::BadMemRef, "malformed memory ref");
        return false;
      }
    }
  }

  /// Parses the trailing clauses shared by all instructions:
  ///   [prob=P] [ind(%x)] [paired] [when(%p)]
  /// in any order, each at most once.
  bool finishClauses(Cursor &C, PLoop &PL, PStmt &St) {
    bool ProbSeen = false;
    while (!C.atEnd()) {
      std::string Word = C.ident();
      if (Word == "when") {
        if (!C.lit('(')) {
          stmtError(PL, idiag::Syntax, "'when' expects '(%pred)'");
          return false;
        }
        std::optional<std::string> G = C.value();
        if (!G || !C.lit(')')) {
          stmtError(PL, idiag::Syntax, "'when' expects '(%pred)'");
          return false;
        }
        if (St.Op == Opcode::ExitIf || St.Op == Opcode::IvAdd ||
            St.Op == Opcode::IvCmp || St.Op == Opcode::BackBr) {
          stmtError(PL, idiag::BadGuard,
                    "loop-control and exit instructions must not be "
                    "predicated");
          return false;
        }
        St.Guard = *G;
      } else if (Word == "ind") {
        if (!C.lit('(')) {
          stmtError(PL, idiag::BadIndex, "'ind' expects '(%index)'");
          return false;
        }
        std::optional<std::string> Index = C.value();
        if (!Index || !C.lit(')')) {
          stmtError(PL, idiag::BadIndex, "'ind' expects '(%index)'");
          return false;
        }
        if (!St.HasMem) {
          stmtError(PL, idiag::BadIndex,
                    "'ind' is only valid on loads and stores");
          return false;
        }
        St.Index = *Index;
      } else if (Word == "paired") {
        if (St.Op != Opcode::Load) {
          stmtError(PL, idiag::Syntax, "'paired' is only valid on loads");
          return false;
        }
        St.Paired = true;
      } else if (Word == "prob") {
        if (St.Op != Opcode::ExitIf || !C.lit('=')) {
          stmtError(PL, idiag::Syntax, "'prob=' is only valid on 'exit'");
          return false;
        }
        std::optional<double> P = C.real();
        if (!P || !(*P >= 0.0 && *P <= 1.0)) {
          stmtError(PL, idiag::BadProbability,
                    "exit probability must be in [0, 1]");
          return false;
        }
        St.Prob = *P;
        ProbSeen = true;
      } else {
        stmtError(PL, idiag::Syntax,
                  "unexpected trailing text '" + Word + "'");
        return false;
      }
    }
    if (St.Op == Opcode::ExitIf && !ProbSeen) {
      stmtError(PL, idiag::BadProbability,
                "'exit' requires a prob= clause");
      return false;
    }
    // Structural index checks (class/def checks happen in lowering).
    if (St.HasMem) {
      if (St.Mem.Indirect && St.Index.empty()) {
        stmtError(PL, idiag::BadIndex,
                  "indirect memory ref requires an ind(%index) clause");
        return false;
      }
      if (!St.Mem.Indirect && !St.Index.empty()) {
        stmtError(PL, idiag::BadIndex,
                  "ind(%index) requires the 'indirect' attribute");
        return false;
      }
    }
    return true;
  }

  //===--------------------------------------------------------------------===
  // Lowering
  //===--------------------------------------------------------------------===

  void lowerLoop(PLoop &PL) {
    // Definition table: name -> (class, body index or -1 for phi).
    struct Def {
      RegClass RC;
      int BodyIndex; ///< -1 when defined by a phi.
    };
    std::map<std::string, Def> Defs;
    auto Define = [&](const std::string &Name, RegClass RC, int BodyIndex,
                      unsigned Line) {
      auto [It, Inserted] = Defs.emplace(Name, Def{RC, BodyIndex});
      (void)It;
      if (!Inserted) {
        stmtError(PL, idiag::DuplicateValue,
                  "value '%" + Name + "' defined more than once");
        return false;
      }
      (void)Line;
      return true;
    };
    for (const PStmt &Phi : PL.Phis)
      if (!Define(Phi.Dest, Phi.DestClass, -1, Phi.Line))
        return;
    for (size_t I = 0; I < PL.Body.size(); ++I)
      if (PL.Body[I].HasDest)
        if (!Define(PL.Body[I].Dest, PL.Body[I].DestClass,
                    static_cast<int>(I), PL.Body[I].Line))
          return;

    // Def-use legality. A body instruction may read phis, live-ins
    // (never-defined names), and earlier body defs; reading a later body
    // def is a cyclic dependence the format can only express via a phi.
    auto CheckUse = [&](const std::string &Name, RegClass Expect,
                        int UserIndex, unsigned Line) {
      auto It = Defs.find(Name);
      if (It == Defs.end())
        return true; // Live-in; class fixed at first use.
      if (It->second.RC != Expect) {
        CurLine = Line;
        stmtError(PL, idiag::ClassMismatch,
                  "value '%" + Name + "' has class " +
                      typeTokenFor(It->second.RC) + " but is used as " +
                      typeTokenFor(Expect));
        return false;
      }
      if (It->second.BodyIndex >= 0 && It->second.BodyIndex >= UserIndex) {
        CurLine = Line;
        stmtError(PL, idiag::DefUseCycle,
                  "value '%" + Name + "' is used before its definition; "
                  "loop-carried dependences need a phi");
        return false;
      }
      return true;
    };

    for (const PStmt &Phi : PL.Phis) {
      const std::string &Init = Phi.Ops[0].Name;
      const std::string &Recur = Phi.Ops[1].Name;
      if (Defs.count(Init)) {
        CurLine = Phi.Line;
        stmtError(PL, idiag::PhiInitDefined,
                  "phi initial value '%" + Init +
                      "' must be live-in, not defined in the loop");
        return;
      }
      auto It = Defs.find(Recur);
      if (It == Defs.end()) {
        CurLine = Phi.Line;
        stmtError(PL, idiag::PhiRecurUndefined,
                  "phi recurrence '%" + Recur +
                      "' is not computed in the loop");
        return;
      }
      if (It->second.RC != Phi.DestClass) {
        CurLine = Phi.Line;
        stmtError(PL, idiag::ClassMismatch,
                  "phi '%" + Phi.Dest + "' mixes register classes");
        return;
      }
      if (Recur == Phi.Dest) {
        CurLine = Phi.Line;
        stmtError(PL, idiag::DefUseCycle,
                  "phi '%" + Phi.Dest + "' recurs on itself directly");
        return;
      }
    }
    for (size_t I = 0; I < PL.Body.size(); ++I) {
      const PStmt &St = PL.Body[I];
      for (const POperand &Op : St.Ops)
        if (!CheckUse(Op.Name, Op.RC, static_cast<int>(I), St.Line))
          return;
      if (!St.Index.empty() &&
          !CheckUse(St.Index, RegClass::Int, static_cast<int>(I), St.Line))
        return;
      if (!St.Guard.empty()) {
        auto It = Defs.find(St.Guard);
        if (It != Defs.end() && It->second.RC != RegClass::Pred) {
          CurLine = St.Line;
          stmtError(PL, idiag::ClassMismatch,
                    "guard '%" + St.Guard +
                        "' is not a predicate value");
          return;
        }
        if (!CheckUse(St.Guard, RegClass::Pred, static_cast<int>(I),
                      St.Line))
          return;
      }
    }

    // Explicit loop-control tail: all three, in order, last, chained.
    size_t FirstControl = PL.Body.size();
    for (size_t I = 0; I < PL.Body.size(); ++I)
      if (opcodeInfo(PL.Body[I].Op).IsLoopControl) {
        FirstControl = I;
        break;
      }
    bool ExplicitTail = FirstControl != PL.Body.size();
    if (ExplicitTail) {
      bool Shape = PL.Body.size() - FirstControl == 3 &&
                   PL.Body[FirstControl].Op == Opcode::IvAdd &&
                   PL.Body[FirstControl + 1].Op == Opcode::IvCmp &&
                   PL.Body[FirstControl + 2].Op == Opcode::BackBr;
      if (Shape) {
        const PStmt &Add = PL.Body[FirstControl];
        const PStmt &Cmp = PL.Body[FirstControl + 1];
        const PStmt &Br = PL.Body[FirstControl + 2];
        Shape = Cmp.Ops[0].Name == Add.Dest && Br.Ops[0].Name == Cmp.Dest;
      }
      if (!Shape) {
        CurLine = PL.Body[FirstControl].Line;
        stmtError(PL, idiag::Syntax,
                  "loop-control tail must be exactly 'iv_add', 'iv_cmp', "
                  "'back_br' as the last three instructions, each "
                  "consuming the previous result");
        return;
      }
    }

    // Intern named memory symbols: numeric literals keep their ids, named
    // symbols get the smallest unused non-negative ids in first-use order.
    std::set<int32_t> UsedSyms;
    for (const PStmt &St : PL.Body)
      if (St.HasMem && St.MemSym.empty())
        UsedSyms.insert(St.Mem.BaseSym);
    std::map<std::string, int32_t> SymIds;
    int32_t NextSym = 0;
    for (PStmt &St : PL.Body) {
      if (!St.HasMem || St.MemSym.empty())
        continue;
      auto It = SymIds.find(St.MemSym);
      if (It == SymIds.end()) {
        while (UsedSyms.count(NextSym))
          ++NextSym;
        It = SymIds.emplace(St.MemSym, NextSym).first;
        UsedSyms.insert(NextSym);
      }
      St.Mem.BaseSym = It->second;
    }

    // Resolve array declarations against the interned ids. Named
    // declarations the loop never references are dropped (the context
    // may describe arrays this particular loop does not touch); numeric
    // ones are kept verbatim since numeric refs keep their ids.
    LoopSymbolContext Symbols;
    for (const PArray &Decl : PL.Arrays) {
      SymbolDecl Out;
      Out.Name = Decl.Name;
      Out.ExtentBytes = Decl.Extent;
      Out.DeclaredStride = Decl.Stride;
      Out.HasStride = Decl.HasStride;
      if (Decl.Name.empty()) {
        Out.Sym = Decl.Sym;
      } else {
        auto It = SymIds.find(Decl.Name);
        if (It == SymIds.end())
          continue;
        Out.Sym = It->second;
      }
      Symbols.Decls.push_back(std::move(Out));
    }

    // Build the Loop. Registers are created at first textual occurrence;
    // names arriving with the printer's class prefix (the exporter writes
    // printed names) have it stripped, mirroring ir/Parser.cpp.
    Loop L(PL.Name, PL.Lang, PL.Depth, PL.Trip);
    L.setRuntimeTripCount(PL.RTrip);
    L.setSourceFile(FileName);
    L.setHeaderLine(PL.HeaderLine);

    std::map<std::string, RegId> ByName;
    bool LowerOk = true;
    auto GetReg = [&](const std::string &Name, RegClass RC,
                      unsigned Line) -> RegId {
      auto It = ByName.find(Name);
      if (It != ByName.end()) {
        if (L.regClass(It->second) != RC) {
          CurLine = Line;
          stmtError(PL, idiag::ClassMismatch,
                    "value '%" + Name + "' is used with two classes");
          LowerOk = false;
        }
        return It->second;
      }
      std::string Base = Name;
      const char *Prefix = regClassPrefix(RC);
      if (Base.size() >= 2 && Base[0] == Prefix[0] && Base[1] == '_')
        Base = Base.substr(2);
      RegId Reg = L.addReg(RC, std::move(Base));
      ByName.emplace(Name, Reg);
      return Reg;
    };

    for (const PStmt &Phi : PL.Phis) {
      PhiNode Node;
      Node.Dest = GetReg(Phi.Dest, Phi.DestClass, Phi.Line);
      Node.Init = GetReg(Phi.Ops[0].Name, Phi.DestClass, Phi.Line);
      Node.Recur = GetReg(Phi.Ops[1].Name, Phi.DestClass, Phi.Line);
      Node.SrcLine = Phi.Line;
      L.addPhi(Node);
    }
    for (const PStmt &St : PL.Body) {
      Instruction Instr;
      Instr.Op = St.Op;
      Instr.SrcLine = St.Line;
      Instr.Imm = St.Imm;
      Instr.TakenProb = St.Prob;
      Instr.Paired = St.Paired;
      if (St.HasMem)
        Instr.Mem = St.Mem;
      if (!St.Guard.empty())
        Instr.Pred = GetReg(St.Guard, RegClass::Pred, St.Line);
      if (St.HasDest)
        Instr.Dest = GetReg(St.Dest, St.DestClass, St.Line);
      for (const POperand &Op : St.Ops)
        Instr.Operands.push_back(GetReg(Op.Name, Op.RC, St.Line));
      if (!St.Index.empty())
        Instr.Operands.push_back(
            GetReg(St.Index, RegClass::Int, St.Line));
      L.addInstruction(std::move(Instr));
    }
    if (!LowerOk)
      return;

    if (!ExplicitTail) {
      // Same canonical tail LoopBuilder::finalize() appends.
      RegId Iv = L.addReg(RegClass::Int, "iv");
      Instruction Inc;
      Inc.Op = Opcode::IvAdd;
      Inc.Operands.push_back(Iv);
      Inc.Dest = L.addReg(RegClass::Int, "iv.next");
      L.addInstruction(Inc);
      Instruction Cmp;
      Cmp.Op = Opcode::IvCmp;
      Cmp.Operands.push_back(L.body().back().Dest);
      Cmp.Dest = L.addReg(RegClass::Pred, "iv.cond");
      L.addInstruction(Cmp);
      Instruction Br;
      Br.Op = Opcode::BackBr;
      Br.Operands.push_back(L.body().back().Dest);
      L.addInstruction(Br);
    }

    // Safety net: anything the importer's own checks missed surfaces as
    // a verifier diagnostic here instead of escaping downstream. The
    // accepted-loops invariant is "verifier-clean", unconditionally.
    DiagnosticReport Verify = verifyLoopDiagnostics(L);
    if (Verify.hasErrors()) {
      Result.Report.append(Verify);
      PL.Dirty = true;
      return;
    }

    ImportedLoop Out;
    Out.TheLoop = std::move(L);
    Out.Prov = PL.Prov;
    Out.Ctx = PL.Ctx;
    Out.Executions = PL.Executions;
    Out.Symbols = std::move(Symbols);
    Result.Loops.push_back(std::move(Out));
  }

  std::string_view Text;
  std::string FileName;
  ImportOptions Options;
  ImportResult &Result;
  size_t Pos = 0;
  unsigned CurLine = 0;
  ImportProvenance PendingProv;
  SimContext PendingCtx;
  int64_t PendingExecutions = 1;
  std::vector<PArray> PendingArrays;
};

} // namespace

ImportResult metaopt::importLoops(std::string_view Text,
                                  std::string FileName,
                                  const ImportOptions &Options) {
  ImportResult Result;
  Importer(Text, std::move(FileName), Options, Result).run();
  return Result;
}

ImportResult metaopt::importFile(const std::string &Path,
                                 const ImportOptions &Options) {
  std::string Error;
  std::optional<std::string> Text = readFile(Path, &Error);
  if (!Text) {
    ImportResult Result;
    Diagnostic D;
    D.Id = idiag::IoError;
    D.Sev = Severity::Error;
    D.Message = Error;
    Result.Report.add(std::move(D));
    return Result;
  }
  return importLoops(*Text, Path, Options);
}
