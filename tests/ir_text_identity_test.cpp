//===- tests/ir_text_identity_test.cpp - Loop text byte identity ----------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
// The loop text parser and printer are hashed into routing keys, sim-cache
// keys, canonical class keys and bundle and corpus fingerprints, so their
// behaviour is a contract: the same input gives the same ParseResult (every
// field of every loop, Error and ErrorLine) and every loop prints to the
// same bytes. The oracle below is the earlier string-splitting
// implementation (ir/Parser.cpp, ir/Printer.cpp and the support/StringUtils
// helpers they used), kept verbatim except for the lines marked EDIT:
//
//  * EDIT(range): integer fields outside their type are parse errors
//    naming the field, where strtoll used to saturate and casts to wrap;
//  * EDIT(nan): prob=nan is rejected like any probability outside [0,1].
//
// Inputs: the full and quick corpora, corpus/imported, tests/fuzz_seeds,
// FuzzLoopGen loops, hand-picked edge cases, every truncation point of a
// text sample, and seeded byte substitutions drawn from the grammar's
// alphabet. The quick corpus's routing-key and sim-cache-key digests are
// pinned to the values the oracle implementation produced, so shard
// assignment and persisted sim-cache entries survive any rewrite.
//
// The suite carries the ctest label `ir` (`ctest -L ir`), which the CI
// sanitizer job runs: the parser's register table holds views into the
// caller's buffer.
//
//===----------------------------------------------------------------------===//

#include "cache/SimCache.h"
#include "corpus/BenchmarkSuite.h"
#include "fuzz/FuzzLoopGen.h"
#include "gateway/HashRing.h"
#include "import/Import.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "machine/Machine.h"
#include "support/Fingerprint.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#ifndef METAOPT_FUZZ_SEED_DIR
#error "METAOPT_FUZZ_SEED_DIR must point at tests/fuzz_seeds"
#endif
#ifndef METAOPT_IMPORTED_CORPUS_DIR
#error "METAOPT_IMPORTED_CORPUS_DIR must point at corpus/imported"
#endif

using namespace metaopt;
using namespace std::string_literals;

namespace oracle {

// ---- support/StringUtils.cpp -------------------------------------------

std::string_view trim(std::string_view Str) {
  size_t Begin = 0;
  size_t End = Str.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Str[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Str[End - 1])))
    --End;
  return Str.substr(Begin, End - Begin);
}

std::vector<std::string> split(std::string_view Str, char Sep) {
  std::vector<std::string> Pieces;
  size_t Start = 0;
  for (size_t I = 0; I <= Str.size(); ++I) {
    if (I == Str.size() || Str[I] == Sep) {
      Pieces.emplace_back(Str.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Pieces;
}

std::vector<std::string> splitWhitespace(std::string_view Str) {
  std::vector<std::string> Pieces;
  size_t I = 0;
  while (I < Str.size()) {
    while (I < Str.size() &&
           std::isspace(static_cast<unsigned char>(Str[I])))
      ++I;
    size_t Start = I;
    while (I < Str.size() &&
           !std::isspace(static_cast<unsigned char>(Str[I])))
      ++I;
    if (I > Start)
      Pieces.emplace_back(Str.substr(Start, I - Start));
  }
  return Pieces;
}

// EDIT(range): *OutOfRange reports strtoll's ERANGE instead of a
// saturated value.
std::optional<int64_t> parseInt(std::string_view Str,
                                bool *OutOfRange = nullptr) {
  Str = trim(Str);
  if (Str.empty())
    return std::nullopt;
  std::string Buffer(Str);
  char *End = nullptr;
  errno = 0; // EDIT(range)
  long long Value = std::strtoll(Buffer.c_str(), &End, 10);
  if (End != Buffer.c_str() + Buffer.size())
    return std::nullopt;
  if (errno == ERANGE) { // EDIT(range)
    if (OutOfRange)
      *OutOfRange = true;
    return std::nullopt;
  }
  return static_cast<int64_t>(Value);
}

std::optional<double> parseDouble(std::string_view Str) {
  Str = trim(Str);
  if (Str.empty())
    return std::nullopt;
  std::string Buffer(Str);
  char *End = nullptr;
  double Value = std::strtod(Buffer.c_str(), &End);
  if (End != Buffer.c_str() + Buffer.size())
    return std::nullopt;
  return Value;
}

std::string formatDouble(double Value, int Digits) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Digits, Value);
  return Buffer;
}

// ---- ir/Parser.cpp -----------------------------------------------------

namespace {

/// Line-oriented recursive-descent parser for the loop format.
class LoopParser {
public:
  LoopParser(std::string_view Text, std::string FileName)
      : Lines(split(Text, '\n')), FileName(std::move(FileName)) {}

  ParseResult run() {
    ParseResult Result;
    while (true) {
      std::string_view Line = nextMeaningfulLine();
      if (AtEnd)
        break;
      Loop L;
      if (!parseHeader(Line, L) || !parseBody(L)) {
        Result.Error = ErrorMessage;
        Result.ErrorLine = CurrentLine;
        return Result;
      }
      Result.Loops.push_back(std::move(L));
    }
    return Result;
  }

private:
  std::vector<std::string> Lines;
  std::string FileName;
  size_t NextLine = 0;
  size_t CurrentLine = 0;
  bool AtEnd = false;
  std::string ErrorMessage;

  std::map<std::string, RegId> RegByName;

  bool fail(const std::string &Message) {
    ErrorMessage = Message;
    return false;
  }

  /// Returns the next non-empty, non-comment line (comment stripped),
  /// or sets AtEnd.
  std::string_view nextMeaningfulLine() {
    while (NextLine < Lines.size()) {
      CurrentLine = NextLine + 1;
      std::string_view Line = Lines[NextLine++];
      size_t Hash = Line.find('#');
      if (Hash != std::string_view::npos)
        Line = Line.substr(0, Hash);
      Line = trim(Line);
      if (!Line.empty())
        return Line;
    }
    AtEnd = true;
    return {};
  }

  /// Resolves "%f_name" to a register, creating it on first sight.
  bool parseReg(std::string_view Token, Loop &L, RegId &Out) {
    Token = trim(Token);
    if (Token.size() < 4 || Token[0] != '%' || Token[2] != '_')
      return fail("malformed register '" + std::string(Token) +
                  "' (expected %<c>_<name>)");
    RegClass RC;
    switch (Token[1]) {
    case 'i':
      RC = RegClass::Int;
      break;
    case 'f':
      RC = RegClass::Float;
      break;
    case 'p':
      RC = RegClass::Pred;
      break;
    default:
      return fail("unknown register class prefix in '" + std::string(Token) +
                  "'");
    }
    std::string Key(Token);
    auto It = RegByName.find(Key);
    if (It != RegByName.end()) {
      if (L.regClass(It->second) != RC)
        return fail("register '" + Key + "' used with two classes");
      Out = It->second;
      return true;
    }
    Out = L.addReg(RC, std::string(Token.substr(3)));
    RegByName.emplace(std::move(Key), Out);
    return true;
  }

  bool parseKeyValue(std::string_view Token, std::string_view ExpectedKey,
                     std::string &Value) {
    size_t Eq = Token.find('=');
    if (Eq == std::string_view::npos ||
        trim(Token.substr(0, Eq)) != ExpectedKey)
      return fail("expected '" + std::string(ExpectedKey) + "=<value>', got '" +
                  std::string(Token) + "'");
    Value = std::string(trim(Token.substr(Eq + 1)));
    return true;
  }

  bool parseHeader(std::string_view Line, Loop &L) {
    RegByName.clear();
    L.setSourceFile(FileName);
    L.setHeaderLine(static_cast<unsigned>(CurrentLine));
    if (Line.substr(0, 4) != "loop")
      return fail("expected 'loop' header");
    Line = trim(Line.substr(4));
    if (Line.empty() || Line[0] != '"')
      return fail("expected quoted loop name");
    size_t CloseQuote = Line.find('"', 1);
    if (CloseQuote == std::string_view::npos)
      return fail("unterminated loop name");
    L.setName(std::string(Line.substr(1, CloseQuote - 1)));
    Line = trim(Line.substr(CloseQuote + 1));
    if (Line.empty() || Line.back() != '{')
      return fail("expected '{' at end of loop header");
    Line = trim(Line.substr(0, Line.size() - 1));

    for (const std::string &Token : splitWhitespace(Line)) {
      size_t Eq = Token.find('=');
      if (Eq == std::string::npos)
        return fail("malformed header attribute '" + Token + "'");
      std::string Key = Token.substr(0, Eq);
      std::string Value = Token.substr(Eq + 1);
      if (Key == "lang") {
        SourceLanguage Lang;
        if (!parseSourceLanguage(Value, Lang))
          return fail("unknown language '" + Value + "'");
        L.setLanguage(Lang);
      } else if (Key == "nest") {
        bool OutOfRange = false; // EDIT(range)
        auto Parsed = parseInt(Value, &OutOfRange);
        if (OutOfRange || (Parsed && (*Parsed < INT_MIN || *Parsed > INT_MAX)))
          // EDIT(range)
          return fail("nest level '" + Value + "' out of range");
        if (!Parsed)
          return fail("malformed nest level '" + Value + "'");
        L.setNestLevel(static_cast<int>(*Parsed));
      } else if (Key == "trip") {
        bool OutOfRange = false; // EDIT(range)
        auto Parsed = parseInt(Value, &OutOfRange);
        if (OutOfRange)
          // EDIT(range)
          return fail("trip count '" + Value + "' out of range");
        if (!Parsed)
          return fail("malformed trip count '" + Value + "'");
        L.setTripCount(*Parsed);
      } else if (Key == "rtrip") {
        bool OutOfRange = false; // EDIT(range)
        auto Parsed = parseInt(Value, &OutOfRange);
        if (OutOfRange) // EDIT(range)
          return fail("runtime trip count '" + Value + "' out of range");
        if (!Parsed)
          return fail("malformed runtime trip count '" + Value + "'");
        L.setRuntimeTripCount(*Parsed);
      } else {
        return fail("unknown header attribute '" + Key + "'");
      }
    }
    return true;
  }

  bool parseMemRef(std::string_view &Line, MemRef &Ref) {
    Line = trim(Line);
    if (Line.empty() || Line[0] != '@')
      return fail("expected memory reference '@sym[...]'");
    size_t Bracket = Line.find('[');
    if (Bracket == std::string_view::npos)
      return fail("expected '[' in memory reference");
    bool SymOutOfRange = false; // EDIT(range)
    auto Sym = parseInt(Line.substr(1, Bracket - 1), &SymOutOfRange);
    if (SymOutOfRange || (Sym && (*Sym < INT32_MIN || *Sym > INT32_MAX)))
      return fail("memory base symbol '" + // EDIT(range)
                  std::string(trim(Line.substr(1, Bracket - 1))) +
                  "' out of range");
    if (!Sym)
      return fail("malformed memory base symbol");
    Ref.BaseSym = static_cast<int32_t>(*Sym);
    size_t CloseBracket = Line.find(']', Bracket);
    if (CloseBracket == std::string_view::npos)
      return fail("expected ']' in memory reference");
    std::string_view Attrs = Line.substr(Bracket + 1,
                                         CloseBracket - Bracket - 1);
    Line = Line.substr(CloseBracket + 1);

    for (const std::string &Attr : split(Attrs, ',')) {
      std::string_view Token = trim(Attr);
      if (Token == "indirect") {
        Ref.Indirect = true;
        continue;
      }
      size_t Eq = Token.find('=');
      if (Eq == std::string_view::npos)
        return fail("malformed memory attribute '" + std::string(Token) +
                    "'");
      std::string_view Key = trim(Token.substr(0, Eq));
      bool OutOfRange = false; // EDIT(range)
      auto Value = parseInt(Token.substr(Eq + 1), &OutOfRange);
      if (OutOfRange || (Value && Key == "size" &&
                         (*Value < INT32_MIN || *Value > INT32_MAX)))
        return fail("memory attribute '" + std::string(Token) + // EDIT(range)
                    "' out of range");
      if (!Value)
        return fail("malformed memory attribute value in '" +
                    std::string(Token) + "'");
      if (Key == "stride")
        Ref.Stride = *Value;
      else if (Key == "offset")
        Ref.Offset = *Value;
      else if (Key == "size")
        Ref.SizeBytes = static_cast<int32_t>(*Value);
      else
        return fail("unknown memory attribute '" + std::string(Key) + "'");
    }
    return true;
  }

  /// Parses a trailing " ind(%i_x)" clause if present.
  bool parseIndexClause(std::string_view &Line, Loop &L, bool Expected,
                        Instruction &Instr) {
    Line = trim(Line);
    if (Line.empty())
      return !Expected ||
             fail("indirect memory reference requires an ind(...) clause");
    if (Line.substr(0, 4) != "ind(" || Line.back() != ')')
      return fail("trailing garbage '" + std::string(Line) + "'");
    if (!Expected)
      return fail("ind(...) clause on a non-indirect memory reference");
    RegId Index;
    if (!parseReg(Line.substr(4, Line.size() - 5), L, Index))
      return false;
    Instr.Operands.push_back(Index);
    return true;
  }

  bool parsePhi(std::string_view Line, Loop &L) {
    // phi %f_x = [%f_init, %f_next]
    Line = trim(Line.substr(3));
    size_t Eq = Line.find('=');
    if (Eq == std::string_view::npos)
      return fail("expected '=' in phi");
    PhiNode Phi;
    if (!parseReg(Line.substr(0, Eq), L, Phi.Dest))
      return false;
    std::string_view Rest = trim(Line.substr(Eq + 1));
    if (Rest.size() < 2 || Rest.front() != '[' || Rest.back() != ']')
      return fail("expected '[init, recur]' in phi");
    std::vector<std::string> Parts = split(Rest.substr(1, Rest.size() - 2),
                                           ',');
    if (Parts.size() != 2)
      return fail("phi requires exactly two sources");
    if (!parseReg(Parts[0], L, Phi.Init) || !parseReg(Parts[1], L, Phi.Recur))
      return false;
    if (L.regClass(Phi.Dest) != L.regClass(Phi.Init) ||
        L.regClass(Phi.Dest) != L.regClass(Phi.Recur))
      return fail("phi register class mismatch");
    Phi.SrcLine = static_cast<unsigned>(CurrentLine);
    L.addPhi(Phi);
    return true;
  }

  bool parseInstruction(std::string_view Line, Loop &L) {
    Instruction Instr;
    Instr.SrcLine = static_cast<unsigned>(CurrentLine);

    // Optional "(%p_x) " predicate guard.
    if (!Line.empty() && Line[0] == '(') {
      size_t Close = Line.find(')');
      if (Close == std::string_view::npos)
        return fail("unterminated predicate guard");
      if (!parseReg(Line.substr(1, Close - 1), L, Instr.Pred))
        return false;
      if (L.regClass(Instr.Pred) != RegClass::Pred)
        return fail("guard register is not a predicate");
      Line = trim(Line.substr(Close + 1));
    }

    // Optional "%x = " destination.
    std::string_view DestToken;
    if (!Line.empty() && Line[0] == '%') {
      size_t Eq = Line.find('=');
      if (Eq == std::string_view::npos)
        return fail("register at start of line but no '='");
      DestToken = trim(Line.substr(0, Eq));
      Line = trim(Line.substr(Eq + 1));
    }

    // Mnemonic.
    size_t MnemonicEnd = 0;
    while (MnemonicEnd < Line.size() && Line[MnemonicEnd] != ' ')
      ++MnemonicEnd;
    std::string Mnemonic(Line.substr(0, MnemonicEnd));
    if (!parseOpcode(Mnemonic, Instr.Op))
      return fail("unknown opcode '" + Mnemonic + "'");
    Line = trim(Line.substr(MnemonicEnd));

    const OpcodeInfo &Info = opcodeInfo(Instr.Op);
    if (Info.HasDest != !DestToken.empty())
      return fail(std::string("opcode '") + Mnemonic +
                  (Info.HasDest ? "' requires" : "' forbids") +
                  " a destination");
    if (Info.HasDest && !parseReg(DestToken, L, Instr.Dest))
      return false;

    switch (Instr.Op) {
    case Opcode::Load: {
      if (!parseMemRef(Line, Instr.Mem))
        return false;
      Line = trim(Line);
      if (Line.size() >= 6 && Line.substr(Line.size() - 6) == "paired") {
        Instr.Paired = true;
        Line = trim(Line.substr(0, Line.size() - 6));
      }
      if (!parseIndexClause(Line, L, Instr.Mem.Indirect, Instr))
        return false;
      break;
    }
    case Opcode::Store: {
      size_t Comma = Line.find(',');
      if (Comma == std::string_view::npos)
        return fail("store requires '<value>, @sym[...]'");
      RegId Value;
      if (!parseReg(Line.substr(0, Comma), L, Value))
        return false;
      Instr.Operands.push_back(Value);
      Line = Line.substr(Comma + 1);
      if (!parseMemRef(Line, Instr.Mem))
        return false;
      if (!parseIndexClause(Line, L, Instr.Mem.Indirect, Instr))
        return false;
      break;
    }
    case Opcode::IConst:
    case Opcode::FConst: {
      bool OutOfRange = false; // EDIT(range)
      auto Value = parseInt(Line, &OutOfRange);
      if (OutOfRange) // EDIT(range)
        return fail("constant '" + std::string(Line) + "' out of range");
      if (!Value)
        return fail("malformed constant '" + std::string(Line) + "'");
      Instr.Imm = *Value;
      break;
    }
    case Opcode::ExitIf: {
      std::vector<std::string> Tokens = splitWhitespace(Line);
      if (Tokens.size() != 2)
        return fail("exit_if requires '<pred> prob=<p>'");
      RegId Pred;
      if (!parseReg(Tokens[0], L, Pred))
        return false;
      Instr.Operands.push_back(Pred);
      std::string ProbValue;
      if (!parseKeyValue(Tokens[1], "prob", ProbValue))
        return false;
      auto Prob = parseDouble(ProbValue);
      if (!Prob || !(*Prob >= 0.0 && *Prob <= 1.0)) // EDIT(nan)
        return fail("exit probability must be in [0,1]");
      Instr.TakenProb = *Prob;
      break;
    }
    default: {
      if (!Line.empty()) {
        for (const std::string &Token : split(Line, ',')) {
          RegId Operand;
          if (!parseReg(Token, L, Operand))
            return false;
          Instr.Operands.push_back(Operand);
        }
      }
      break;
    }
    }

    L.addInstruction(std::move(Instr));
    return true;
  }

  bool parseBody(Loop &L) {
    while (true) {
      std::string_view Line = nextMeaningfulLine();
      if (AtEnd)
        return fail("unexpected end of input inside loop body");
      if (Line == "}")
        return true;
      bool Ok = Line.substr(0, 4) == "phi " ? parsePhi(Line, L)
                                            : parseInstruction(Line, L);
      if (!Ok)
        return false;
    }
  }
};

} // namespace

ParseResult parseLoops(std::string_view Text,
                                std::string FileName) {
  return LoopParser(Text, std::move(FileName)).run();
}

// ---- ir/Printer.cpp ----------------------------------------------------

namespace {

/// Assigns every register a unique printable name of the form
/// %<classprefix>_<name>. Register base names may collide; collisions get a
/// ".<id>" suffix.
class NameTable {
public:
  explicit NameTable(const Loop &L) {
    std::set<std::string> Used;
    for (RegId Reg = 0; Reg < L.numRegs(); ++Reg) {
      std::string Candidate = std::string("%") +
                              regClassPrefix(L.regClass(Reg)) + "_" +
                              L.regName(Reg);
      if (!Used.insert(Candidate).second) {
        Candidate += "." + std::to_string(Reg);
        bool Inserted = Used.insert(Candidate).second;
        assert(Inserted && "suffixed register name still collides");
        (void)Inserted;
      }
      Names[Reg] = Candidate;
    }
  }

  const std::string &name(RegId Reg) const {
    auto It = Names.find(Reg);
    assert(It != Names.end() && "register has no name");
    return It->second;
  }

private:
  std::map<RegId, std::string> Names;
};

std::string printMemRef(const MemRef &Ref) {
  std::string Out = "@" + std::to_string(Ref.BaseSym) + "[";
  if (Ref.Indirect)
    Out += "indirect, ";
  Out += "stride=" + std::to_string(Ref.Stride);
  Out += ", offset=" + std::to_string(Ref.Offset);
  Out += ", size=" + std::to_string(Ref.SizeBytes);
  Out += "]";
  return Out;
}

std::string printOneInstruction(const Instruction &Instr,
                                const NameTable &Names) {
  std::string Out;
  if (Instr.Pred != NoReg)
    Out += "(" + Names.name(Instr.Pred) + ") ";
  if (Instr.hasDest())
    Out += Names.name(Instr.Dest) + " = ";
  Out += opcodeName(Instr.Op);

  auto AppendOperands = [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      Out += I == Begin ? " " : ", ";
      Out += Names.name(Instr.Operands[I]);
    }
  };

  switch (Instr.Op) {
  case Opcode::Load:
    Out += " " + printMemRef(Instr.Mem);
    if (Instr.Mem.Indirect)
      Out += " ind(" + Names.name(Instr.Operands[0]) + ")";
    if (Instr.Paired)
      Out += " paired";
    break;
  case Opcode::Store:
    Out += " " + Names.name(Instr.Operands[0]) + ", " +
           printMemRef(Instr.Mem);
    if (Instr.Mem.Indirect)
      Out += " ind(" + Names.name(Instr.Operands[1]) + ")";
    break;
  case Opcode::IConst:
  case Opcode::FConst:
    Out += " " + std::to_string(Instr.Imm);
    break;
  case Opcode::ExitIf:
    AppendOperands(0, Instr.Operands.size());
    Out += " prob=" + formatDouble(Instr.TakenProb, 6);
    break;
  default:
    AppendOperands(0, Instr.Operands.size());
    break;
  }
  return Out;
}

} // namespace

std::string printInstruction(const Loop &L,
                                      const Instruction &Instr) {
  NameTable Names(L);
  return printOneInstruction(Instr, Names);
}

std::string printLoop(const Loop &L) {
  NameTable Names(L);
  std::string Out = "loop \"" + L.name() + "\"";
  Out += " lang=" + std::string(sourceLanguageName(L.language()));
  Out += " nest=" + std::to_string(L.nestLevel());
  Out += " trip=" + std::to_string(L.tripCount());
  Out += " rtrip=" + std::to_string(L.runtimeTripCount());
  Out += " {\n";
  for (const PhiNode &Phi : L.phis()) {
    Out += "  phi " + Names.name(Phi.Dest) + " = [" + Names.name(Phi.Init) +
           ", " + Names.name(Phi.Recur) + "]\n";
  }
  for (const Instruction &Instr : L.body())
    Out += "  " + printOneInstruction(Instr, Names) + "\n";
  Out += "}\n";
  return Out;
}

} // namespace oracle

namespace {

/// Every field of \p L, doubles by bit pattern, one line per item.
std::string dumpLoop(const Loop &L) {
  std::ostringstream Out;
  // runtimeTripCount() hides the stored value behind a known trip count.
  Loop Raw = L;
  Raw.setTripCount(Loop::UnknownTripCount);
  Out << "loop " << L.name() << " file=" << L.sourceFile()
      << " header=" << L.headerLine()
      << " lang=" << sourceLanguageName(L.language())
      << " nest=" << L.nestLevel() << " trip=" << L.tripCount()
      << " rtrip=" << Raw.runtimeTripCount() << '\n';
  for (RegId Reg = 0; Reg < L.numRegs(); ++Reg)
    Out << "reg " << Reg << ' ' << regClassPrefix(L.regClass(Reg)) << ' '
        << L.regName(Reg) << '\n';
  for (const PhiNode &Phi : L.phis())
    Out << "phi " << Phi.Dest << ' ' << Phi.Init << ' ' << Phi.Recur
        << " line=" << Phi.SrcLine << '\n';
  for (const Instruction &I : L.body()) {
    uint64_t ProbBits;
    std::memcpy(&ProbBits, &I.TakenProb, sizeof(ProbBits));
    Out << opcodeName(I.Op) << " dest=" << I.Dest << " pred=" << I.Pred
        << " ops=";
    for (RegId Operand : I.Operands)
      Out << Operand << ',';
    Out << " imm=" << I.Imm << " mem=" << I.Mem.BaseSym << '/'
        << I.Mem.Stride << '/' << I.Mem.Offset << '/' << I.Mem.Indirect
        << '/' << I.Mem.SizeBytes << " prob=" << std::hex << ProbBits
        << std::dec << " paired=" << I.Paired << " line=" << I.SrcLine
        << '\n';
  }
  return Out.str();
}

std::string dumpResult(const ParseResult &R) {
  std::string Out = "error=" + R.Error + " line=" +
                    std::to_string(R.ErrorLine) + " loops=" +
                    std::to_string(R.Loops.size()) + '\n';
  for (const Loop &L : R.Loops)
    Out += dumpLoop(L);
  return Out;
}

/// Runs inputs through both implementations, counting inputs and
/// mismatches and reporting the first few of the latter in full.
class IdentityCheck {
public:
  /// parseLoops on \p Text.
  void parse(std::string_view Text, const std::string &File = "") {
    ++Inputs;
    std::string Got = dumpResult(parseLoops(Text, File));
    std::string Want = dumpResult(oracle::parseLoops(Text, File));
    if (Got != Want)
      mismatch("parse", Text, Got, Want);
  }

  /// printLoop, appendLoop, printInstruction and printInstructions on \p L;
  /// the oracle's instruction lines are those of its printLoop.
  void print(const Loop &L) {
    ++Printed;
    std::string Want = oracle::printLoop(L);
    std::string Got = printLoop(L);
    if (Got != Want)
      mismatch("printLoop", Want, Got, Want);
    std::string Appended = "prefix\n";
    appendLoop(Appended, L);
    if (Appended != "prefix\n" + Want)
      mismatch("appendLoop", Want, Appended, "prefix\n" + Want);
    std::vector<std::string> Lines = printInstructions(L);
    // After the header and the phi lines, one "  <instruction>\n" per
    // body entry.
    size_t Pos = Want.find(" {\n") + 3;
    for (size_t I = 0; I < L.body().size(); ++I) {
      while (Want.compare(Pos, 6, "  phi ") == 0)
        Pos = Want.find('\n', Pos) + 1;
      size_t End = Want.find('\n', Pos);
      std::string WantLine = Want.substr(Pos + 2, End - Pos - 2);
      Pos = End + 1;
      if (printInstruction(L, L.body()[I]) != WantLine ||
          Lines[I] != WantLine) {
        mismatch("printInstruction", Want, Lines[I], WantLine);
        break;
      }
    }
  }

  /// Prints \p L, then parses its text and prints the loops parsed.
  void parseAndPrint(const Loop &L, const std::string &File = "") {
    print(L);
    std::string Text = printLoop(L);
    parse(Text, File);
    for (const Loop &Parsed : parseLoops(Text, File).Loops)
      print(Parsed);
  }

  void expectClean(size_t MinInputs) const {
    EXPECT_GE(Inputs + Printed, MinInputs);
    EXPECT_EQ(Failures, 0u) << "of " << Inputs << " parsed inputs and "
                            << Printed << " printed loops";
  }

  size_t Inputs = 0;
  size_t Printed = 0;
  size_t Failures = 0;

private:
  void mismatch(const char *What, std::string_view Input,
                const std::string &Got, const std::string &Want) {
    if (++Failures <= 3)
      ADD_FAILURE() << What << " differs from the oracle on input:\n"
                    << Input << "\n--- got:\n"
                    << Got << "\n--- oracle:\n"
                    << Want;
  }
};

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::vector<std::filesystem::path> filesIn(const char *Dir,
                                           const char *Extension) {
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == Extension)
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

CorpusOptions quickCorpus() {
  CorpusOptions Options;
  Options.MinLoopsPerBenchmark = 6;
  Options.MaxLoopsPerBenchmark = 10;
  return Options;
}

/// Corpus loop texts, each benchmark also as one multi-loop text.
void checkCorpus(IdentityCheck &Check, const CorpusOptions &Options) {
  for (const Benchmark &Bench : buildCorpus(Options)) {
    std::string All;
    for (const CorpusLoop &Entry : Bench.Loops) {
      Check.parseAndPrint(Entry.TheLoop, Bench.Name + ".loop");
      All += oracle::printLoop(Entry.TheLoop) + "\n# next loop\n";
    }
    Check.parse(All, Bench.Name + ".loop");
  }
}

/// Texts whose every prefix and many mutants are checked: every fuzz
/// seed, one loop of every eighth quick-corpus benchmark, and one
/// multi-loop text with comments, blank lines and CRLF endings.
std::vector<std::string> sampleTexts() {
  std::vector<std::string> Texts;
  for (const auto &Path : filesIn(METAOPT_FUZZ_SEED_DIR, ".loop"))
    Texts.push_back(readFile(Path));
  std::vector<Benchmark> Corpus = buildCorpus(quickCorpus());
  for (size_t I = 0; I < Corpus.size(); I += 8)
    Texts.push_back(oracle::printLoop(Corpus[I].Loops.front().TheLoop));
  std::string Multi = "# two loops\n\n" + Texts.back() + "\r\n  # gap\n" +
                      oracle::printLoop(Corpus[1].Loops.back().TheLoop);
  for (size_t Pos = Multi.find('\n'); Pos != std::string::npos;
       Pos = Multi.find('\n', Pos + 2))
    Multi.replace(Pos, 1, "\r\n");
  Texts.push_back(Multi);
  return Texts;
}

//===----------------------------------------------------------------------===//
// Differential identity
//===----------------------------------------------------------------------===//

TEST(IrTextIdentity, FullCorpus) {
  IdentityCheck Check;
  checkCorpus(Check, CorpusOptions{});
  Check.expectClean(2500);
}

TEST(IrTextIdentity, QuickCorpus) {
  IdentityCheck Check;
  checkCorpus(Check, quickCorpus());
  Check.expectClean(500);
}

TEST(IrTextIdentity, ImportedCorpus) {
  IdentityCheck Check;
  for (const auto &Path : filesIn(METAOPT_IMPORTED_CORPUS_DIR, ".mloop")) {
    ImportResult Imported = importFile(Path.string());
    for (const ImportedLoop &Entry : Imported.Loops)
      Check.parseAndPrint(Entry.TheLoop, Path.filename().string());
  }
  Check.expectClean(10);
}

TEST(IrTextIdentity, FuzzSeeds) {
  IdentityCheck Check;
  for (const auto &Path : filesIn(METAOPT_FUZZ_SEED_DIR, ".loop")) {
    std::string Text = readFile(Path);
    Check.parse(Text, Path.filename().string());
    for (const Loop &L : parseLoops(Text).Loops)
      Check.print(L);
  }
  Check.expectClean(5);
}

TEST(IrTextIdentity, FuzzGeneratedLoops) {
  IdentityCheck Check;
  for (uint64_t Seed : {1u, 20050320u}) {
    FuzzGenOptions Options;
    Options.Seed = Seed;
    for (uint64_t Index = 0; Index < 300; ++Index)
      Check.parseAndPrint(generateFuzzLoop(Options, Index));
  }
  Check.expectClean(600);
}

TEST(IrTextIdentity, EdgeCases) {
  const std::string Head = "loop \"e\" lang=C nest=1 trip=4 rtrip=4 {\n";
  const std::string Tail = "  %i_iv.next = iv_add %i_iv\n"
                           "  %p_c = iv_cmp %i_iv.next\n"
                           "  back_br %p_c\n}\n";
  const char *Headers[] = {
      "loop \"e\" lang=C nest=1 trip=4 rtrip=4 {",
      "loop\"e\"{",
      "loopy \"e\" {",
      "loop \"e\" trip=9223372036854775807 rtrip=-9223372036854775808 {",
      "loop \"e\" trip=9223372036854775808 {",
      "loop \"e\" trip=99999999999999999999 {",
      "loop \"e\" rtrip=-9223372036854775809 {",
      "loop \"e\" nest=2147483647 {",
      "loop \"e\" nest=2147483648 {",
      "loop \"e\" nest=-2147483649 {",
      "loop \"e\" nest=4294967297 {",
      "loop \"e\" nest=+3 trip=-0 rtrip=007 {",
      "loop \"e\" nest=- {",
      "loop \"e\" nest=+ {",
      "loop \"e\" nest=+-1 {",
      "loop \"e\" nest=0x10 {",
      "loop \"e\" nest=1e3 {",
      "loop \"e\" trip=99999999999999999999x {",
      "loop \"e\" lang=Fortran90 lang=C nest=1 nest=2 {",
      "loop \"e\" lang= {",
      "loop \"e\" =1 {",
      "loop \"e\" nest {",
      "loop \"e\" lang=C{",
      "loop \"e\" lang={ {",
      "loop \"e\"\tnest=1\ttrip=2\t{",
      "loop \"a b\" {",
      "loop \"\" {",
      "loop \"e",
      "loop e {",
      "loop \"e\" {{",
      "loop \"e\" nest=1",
  };
  const char *Lines[] = {
      "%f_x = load @0[stride=8, offset=0, size=8]",
      "%f_x = load @-2147483648[stride=-9223372036854775808, "
      "offset=9223372036854775807, size=2147483647]",
      "%f_x = load @2147483648[stride=8]",
      "%f_x = load @4294967298[stride=8]",
      "%f_x = load @-2147483649[stride=8]",
      "%f_x = load @99999999999999999999[stride=8]",
      "%f_x = load @0[size=4294967304]",
      "%f_x = load @0[size=-2147483649]",
      "%f_x = load @0[stride=9223372036854775808]",
      "%f_x = load @0[offset=-99999999999999999999]",
      "%f_x = load @0[bogus=99999999999999999999]",
      "%f_x = load @0[bogus=1]",
      "%f_x = load @0[stride=8x]",
      "%f_x = load @0[stride=]",
      "%f_x = load @0[]",
      "%f_x = load @0[,]",
      "%f_x = load @0[indirect, indirect, stride = 8 , size= 4] ind( %i_k )",
      "%f_x = load @0[indirect]",
      "%f_x = load @0[stride=8] ind(%i_k)",
      "%f_x = load @0[stride=8] paired",
      "%f_x = load @0[stride=8] xpaired",
      "%f_x = load @0[stride=8] ind()",
      "%f_x = load @ 0 [stride=8]",
      "%f_x = load @[stride=8]",
      "%f_x = load @0 stride=8",
      "%f_x = load @0[stride=8",
      "%f_x = load 0[stride=8]",
      "store %f_x, @1[stride=8, offset=0, size=8]",
      "store %f_x @1[stride=8]",
      "store , @1[stride=8]",
      "store %f_x, @1[indirect, stride=8] ind(%i_k)",
      "%i_k = iconst 9223372036854775807",
      "%i_k = iconst -9223372036854775808",
      "%i_k = iconst 9223372036854775808",
      "%i_k = iconst +12",
      "%i_k = iconst 12 13",
      "%i_k = iconst",
      "%f_k = fconst -3",
      "exit_if %p_c prob=0.5",
      "exit_if %p_c prob=nan",
      "exit_if %p_c prob=NAN",
      "exit_if %p_c prob=-nan",
      "exit_if %p_c prob=nan(0x7)",
      "exit_if %p_c prob=inf",
      "exit_if %p_c prob=-0",
      "exit_if %p_c prob=1.0000001",
      "exit_if %p_c prob=0x1p-3",
      "exit_if %p_c prob=1e-300",
      "exit_if %p_c prob= 0.5",
      "exit_if %p_c prob =0.5",
      "exit_if %p_c\tprob=0.25",
      "exit_if %p_c odds=0.5",
      "exit_if %p_c",
      "exit_if %p_c prob=0.5 extra",
      "(%p_c) %i_y = iadd %i_a, %i_b",
      "(%p_c %i_y = iadd %i_a, %i_b",
      "(%i_c) %i_y = iadd %i_a, %i_b",
      "%i_y = iadd %i_a,%i_b",
      "%i_y = iadd %i_a, , %i_b",
      "%i_y = iadd %i_a,",
      "%i_y = iadd",
      "%i_y iadd %i_a",
      "%i_y = bogus %i_a",
      "%i_y = iadd\t%i_a",
      "iadd %i_a, %i_b",
      "store = iadd",
      "%q_y = iadd %i_a, %i_b",
      "%i = iadd %i_a, %i_b",
      "%iy = iadd %i_a, %i_b",
      "%i_y = iadd %i_a b, %i_b",
      "%i_y = iadd %f_a, %i_a",
      "phi %f_acc = [%f_init, %f_next]",
      "phi %f_acc = [%f_init, %i_next]",
      "phi %f_acc = [%f_init]",
      "phi %f_acc = [%f_a, %f_b, %f_c]",
      "phi %f_acc = %f_init, %f_next",
      "phi %f_acc [%f_init, %f_next]",
      "phi %f_acc = []",
      "phi\t%f_acc = [%f_init, %f_next]",
      "}}",
      "} # done",
      "%i_a = iadd %i_a, %i_a # self",
  };
  IdentityCheck Check;
  for (const char *Header : Headers)
    Check.parse(std::string(Header) + "\n" + Tail);
  for (const char *Line : Lines)
    Check.parse(Head + "  " + Line + "\n" + Tail);
  // Embedded NUL bytes: strtoll and strtod stop at them.
  Check.parse(Head + "  %i_y = iadd %i_a, %i_b\0junk\n"s + Tail);
  Check.parse(Head + "  %i_k = iconst 1\0"s + "2\n" + Tail);
  Check.parse(Head + "  exit_if %p_c prob=0.5\0\n"s + Tail);
  Check.parse(Head + "  %f_x = load @0\0[stride=8]\n"s + Tail);
  for (const char *Text : {"", "\n", "\n\n# only a comment", "}", "loop",
                           "loop \"e\" {", "loop \"e\" {\n", "\r\n\r\n"})
    Check.parse(Text);
  Check.expectClean(100);
}

TEST(IrTextIdentity, EveryTruncationPoint) {
  IdentityCheck Check;
  for (const std::string &Text : sampleTexts())
    for (size_t Length = 0; Length <= Text.size(); ++Length)
      Check.parse(std::string_view(Text).substr(0, Length));
  Check.expectClean(5000);
}

TEST(IrTextIdentity, GrammarAlphabetSubstitutions) {
  // Every byte the grammar gives meaning to, digits, class letters, a NUL
  // and a byte with the high bit set.
  static const char Alphabet[] = " \t\n\r\v#%_=,[]{}()@\".+-0123456789"
                                 "ifpxeanodlrsty\x80";
  const std::string_view Bytes(Alphabet, sizeof(Alphabet)); // Keeps the NUL.
  Rng Draw(20050320);
  IdentityCheck Check;
  for (const std::string &Text : sampleTexts()) {
    for (int Mutant = 0; Mutant < 1000; ++Mutant) {
      std::string Mutated = Text;
      int Edits = 1 + static_cast<int>(Draw.nextBelow(3));
      for (int E = 0; E < Edits && !Mutated.empty(); ++E) {
        size_t Pos = Draw.nextBelow(Mutated.size());
        char Byte = Bytes[Draw.nextBelow(Bytes.size())];
        switch (Draw.nextBelow(4)) {
        case 0:
          Mutated.insert(Mutated.begin() + static_cast<long>(Pos), Byte);
          break;
        case 1:
          Mutated.erase(Pos, 1);
          break;
        default:
          Mutated[Pos] = Byte;
          break;
        }
      }
      Check.parse(Mutated);
    }
  }
  Check.expectClean(5000);
}

TEST(IrTextIdentity, CollidingRegisterNames) {
  // Two %i_x, a register literally named "x.1" that meets the first
  // suffixed spelling, a float of the same base name, and an empty name.
  Loop L("clash", SourceLanguage::C, 1, 8);
  RegId X0 = L.addReg(RegClass::Int, "x");
  RegId X1 = L.addReg(RegClass::Int, "x");
  RegId X2 = L.addReg(RegClass::Int, "x.1");
  RegId F = L.addReg(RegClass::Float, "x");
  RegId E = L.addReg(RegClass::Int, "e");
  L.setRegName(E, "");
  Instruction Add;
  Add.Op = Opcode::IAdd;
  Add.Dest = X2;
  Add.Operands = {X0, X1};
  L.addInstruction(Add);
  Instruction Cvt;
  Cvt.Op = Opcode::FCvt;
  Cvt.Dest = F;
  Cvt.Operands = {E};
  L.addInstruction(Cvt);

  IdentityCheck Check;
  Check.parseAndPrint(L);
  Check.expectClean(2);
  EXPECT_EQ(printInstruction(L, L.body()[0]), "%i_x.1.2 = iadd %i_x, %i_x.1");
  EXPECT_EQ(printInstruction(L, L.body()[1]), "%f_x = fcvt %i_");
}

//===----------------------------------------------------------------------===//
// Key pins
//===----------------------------------------------------------------------===//

std::string hex(const Fingerprint &D) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx%016llx",
                static_cast<unsigned long long>(D.Hi),
                static_cast<unsigned long long>(D.Lo));
  return Buffer;
}

/// loopRoutingKey of every quick-corpus loop text and simCacheKey of every
/// loop at factors 1-8 with SWP off and on, each folded in corpus order.
/// The goldens were taken with the oracle implementation: a new digest
/// reshards the fleet and orphans every persisted sim-cache entry.
TEST(IrTextIdentity, QuickCorpusRoutingAndSimCacheKeysArePinned) {
  FingerprintHasher Routing, Sim;
  MachineModel Machine(itanium2Config());
  for (const Benchmark &Bench : buildCorpus(quickCorpus())) {
    for (const CorpusLoop &Entry : Bench.Loops) {
      Fingerprint Route = loopRoutingKey(printLoop(Entry.TheLoop));
      Routing.u64(Route.Lo);
      Routing.u64(Route.Hi);
      for (unsigned Factor = 1; Factor <= MaxUnrollFactor; ++Factor) {
        for (bool Swp : {false, true}) {
          SimKey Key =
              simCacheKey(Entry.TheLoop, Factor, Machine, Entry.Ctx, Swp);
          Sim.u64(Key.Lo);
          Sim.u64(Key.Hi);
        }
      }
    }
  }
  EXPECT_EQ(hex(Routing.digest()), "da09a3ec90cded9b1cc70e0d99ce9e23");
  EXPECT_EQ(hex(Sim.digest()), "5c6ff640f1509713263c5d1ca28528cb");
}

} // namespace
