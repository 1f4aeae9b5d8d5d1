//===- ir/Parser.cpp ------------------------------------------------------===//
//
// One pass over the input. Lines, tokens and register spellings are
// string_views into the caller's text, so a loop costs only the
// allocations of the Loop it builds. Every message, its precedence and its
// line number are part of the format's contract: the same input must give
// the same ParseResult, field for field (tests/ir_text_identity_test.cpp).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <climits>
#include <functional>

using namespace metaopt;

namespace {

/// Calls \p Fn on every piece of \p Str between \p Sep bytes, empty pieces
/// included (an empty \p Str is one empty piece); stops at the first piece
/// \p Fn rejects and returns false.
template <typename FnT>
bool forEachPiece(std::string_view Str, char Sep, FnT Fn) {
  size_t Start = 0;
  while (true) {
    size_t End = Str.find(Sep, Start);
    if (!Fn(Str.substr(Start, End == std::string_view::npos
                                  ? std::string_view::npos
                                  : End - Start)))
      return false;
    if (End == std::string_view::npos)
      return true;
    Start = End + 1;
  }
}

/// Pops the next whitespace-delimited token off \p Rest; empty at the end.
std::string_view nextWord(std::string_view &Rest) {
  Rest = trim(Rest);
  size_t End = 0;
  while (End < Rest.size() && !isSpace(Rest[End]))
    ++End;
  std::string_view Word = Rest.substr(0, End);
  Rest = Rest.substr(End);
  return Word;
}

/// Register spelling ("%f_x") -> RegId for the loop being parsed:
/// open addressing over views into the input, storage reused across
/// loops.
class RegisterTable {
public:
  void clear() {
    Slots.assign(Slots.empty() ? 64 : Slots.size(), Slot());
    Used = 0;
  }

  /// Returns the id slot of \p Spelling, NoReg when it is new; the caller
  /// stores the new register's id in it.
  RegId &operator[](std::string_view Spelling) {
    if (2 * (Used + 1) > Slots.size())
      grow();
    Slot &S = probe(Spelling);
    if (S.Id == NoReg) {
      S.Spelling = Spelling;
      ++Used;
    }
    return S.Id;
  }

private:
  struct Slot {
    std::string_view Spelling;
    RegId Id = NoReg;
  };
  std::vector<Slot> Slots;
  size_t Used = 0;

  Slot &probe(std::string_view Spelling) {
    size_t Mask = Slots.size() - 1;
    for (size_t I = std::hash<std::string_view>()(Spelling) & Mask;;
         I = (I + 1) & Mask)
      if (Slots[I].Id == NoReg || Slots[I].Spelling == Spelling)
        return Slots[I];
  }

  void grow() {
    std::vector<Slot> Old(std::max<size_t>(64, 2 * Slots.size()));
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Id != NoReg)
        probe(S.Spelling) = S;
  }
};

/// Line-oriented recursive-descent parser for the loop format.
class LoopParser {
public:
  LoopParser(std::string_view Text, std::string FileName)
      : Rest(Text), FileName(std::move(FileName)) {}

  ParseResult run() {
    ParseResult Result;
    while (true) {
      std::string_view Line = nextMeaningfulLine();
      if (AtEnd)
        break;
      Loop L;
      if (!parseHeader(Line, L) || !parseBody(L)) {
        Result.Error = std::move(ErrorMessage);
        Result.ErrorLine = CurrentLine;
        return Result;
      }
      Result.Loops.push_back(std::move(L));
    }
    return Result;
  }

private:
  /// Unread input; HasMore stays true until the last line (the piece after
  /// the final '\n', possibly empty) has been handed out.
  std::string_view Rest;
  bool HasMore = true;
  std::string FileName;
  size_t CurrentLine = 0;
  bool AtEnd = false;
  std::string ErrorMessage;

  RegisterTable Registers;

  bool fail(std::string Message) {
    ErrorMessage = std::move(Message);
    return false;
  }

  /// Returns the next non-empty, non-comment line (comment stripped),
  /// or sets AtEnd.
  std::string_view nextMeaningfulLine() {
    while (HasMore) {
      ++CurrentLine;
      size_t Newline = Rest.find('\n');
      std::string_view Line = Rest.substr(0, Newline);
      if (Newline == std::string_view::npos)
        HasMore = false;
      else
        Rest.remove_prefix(Newline + 1);
      Line = trim(Line.substr(0, Line.find('#')));
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
    // The spelling carries the class letter, so a known spelling always
    // names a register of class RC.
    RegId &Id = Registers[Token];
    if (Id == NoReg)
      Id = L.addReg(RC, std::string(Token.substr(3)));
    Out = Id;
    return true;
  }

  /// Parses the integer \p Text into [Min, Max]. Text that is not an
  /// integer fails with \p Malformed(); an integer outside the field's
  /// type fails with "<Field> '<Quoted>' out of range".
  template <typename MessageFnT>
  bool parseIntField(std::string_view Text, int64_t Min, int64_t Max,
                     const char *Field, std::string_view Quoted,
                     MessageFnT Malformed, int64_t &Out) {
    int64_t Value = 0;
    IntScan Scan = scanInt(Text, Value);
    if (Scan == IntScan::Malformed)
      return fail(Malformed());
    if (Scan == IntScan::OutOfRange || Value < Min || Value > Max)
      return fail(std::string(Field) + " '" + std::string(Quoted) +
                  "' out of range");
    Out = Value;
    return true;
  }

  bool parseHeader(std::string_view Line, Loop &L) {
    Registers.clear();
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
    Line.remove_suffix(1);

    for (std::string_view Token = nextWord(Line); !Token.empty();
         Token = nextWord(Line)) {
      size_t Eq = Token.find('=');
      if (Eq == std::string_view::npos)
        return fail("malformed header attribute '" + std::string(Token) +
                    "'");
      std::string_view Key = Token.substr(0, Eq);
      std::string_view Value = Token.substr(Eq + 1);
      int64_t Parsed = 0;
      if (Key == "lang") {
        SourceLanguage Lang;
        if (!parseSourceLanguage(Value, Lang))
          return fail("unknown language '" + std::string(Value) + "'");
        L.setLanguage(Lang);
      } else if (Key == "nest") {
        if (!parseIntField(
                Value, INT_MIN, INT_MAX, "nest level", Value,
                [&] {
                  return "malformed nest level '" + std::string(Value) + "'";
                },
                Parsed))
          return false;
        L.setNestLevel(static_cast<int>(Parsed));
      } else if (Key == "trip") {
        if (!parseIntField(
                Value, INT64_MIN, INT64_MAX, "trip count", Value,
                [&] {
                  return "malformed trip count '" + std::string(Value) + "'";
                },
                Parsed))
          return false;
        L.setTripCount(Parsed);
      } else if (Key == "rtrip") {
        if (!parseIntField(
                Value, INT64_MIN, INT64_MAX, "runtime trip count", Value,
                [&] {
                  return "malformed runtime trip count '" +
                         std::string(Value) + "'";
                },
                Parsed))
          return false;
        L.setRuntimeTripCount(Parsed);
      } else {
        return fail("unknown header attribute '" + std::string(Key) + "'");
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
    std::string_view SymText = Line.substr(1, Bracket - 1);
    int64_t Sym = 0;
    if (!parseIntField(
            SymText, INT32_MIN, INT32_MAX, "memory base symbol",
            trim(SymText),
            [] { return std::string("malformed memory base symbol"); }, Sym))
      return false;
    Ref.BaseSym = static_cast<int32_t>(Sym);
    size_t CloseBracket = Line.find(']', Bracket);
    if (CloseBracket == std::string_view::npos)
      return fail("expected ']' in memory reference");
    std::string_view Attrs = Line.substr(Bracket + 1,
                                         CloseBracket - Bracket - 1);
    Line = Line.substr(CloseBracket + 1);

    return forEachPiece(Attrs, ',', [&](std::string_view Token) {
      Token = trim(Token);
      if (Token == "indirect") {
        Ref.Indirect = true;
        return true;
      }
      size_t Eq = Token.find('=');
      if (Eq == std::string_view::npos)
        return fail("malformed memory attribute '" + std::string(Token) +
                    "'");
      std::string_view Key = trim(Token.substr(0, Eq));
      bool IsSize = Key == "size";
      int64_t Value = 0;
      if (!parseIntField(Token.substr(Eq + 1), IsSize ? INT32_MIN : INT64_MIN,
                         IsSize ? INT32_MAX : INT64_MAX, "memory attribute",
                         Token,
                         [&] {
                           return "malformed memory attribute value in '" +
                                  std::string(Token) + "'";
                         },
                         Value))
        return false;
      if (Key == "stride")
        Ref.Stride = Value;
      else if (Key == "offset")
        Ref.Offset = Value;
      else if (IsSize)
        Ref.SizeBytes = static_cast<int32_t>(Value);
      else
        return fail("unknown memory attribute '" + std::string(Key) + "'");
      return true;
    });
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
    std::string_view Sources = trim(Line.substr(Eq + 1));
    if (Sources.size() < 2 || Sources.front() != '[' || Sources.back() != ']')
      return fail("expected '[init, recur]' in phi");
    Sources = Sources.substr(1, Sources.size() - 2);
    size_t Comma = Sources.find(',');
    if (Comma == std::string_view::npos ||
        Sources.find(',', Comma + 1) != std::string_view::npos)
      return fail("phi requires exactly two sources");
    if (!parseReg(Sources.substr(0, Comma), L, Phi.Init) ||
        !parseReg(Sources.substr(Comma + 1), L, Phi.Recur))
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
    std::string_view Mnemonic = Line.substr(0, Line.find(' '));
    if (!parseOpcode(Mnemonic, Instr.Op))
      return fail("unknown opcode '" + std::string(Mnemonic) + "'");
    Line = trim(Line.substr(Mnemonic.size()));

    const OpcodeInfo &Info = opcodeInfo(Instr.Op);
    if (Info.HasDest != !DestToken.empty())
      return fail("opcode '" + std::string(Mnemonic) +
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
      Instr.Operands.reserve(2);
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
      if (!parseIntField(
              Line, INT64_MIN, INT64_MAX, "constant", Line,
              [&] { return "malformed constant '" + std::string(Line) + "'"; },
              Instr.Imm))
        return false;
      break;
    }
    case Opcode::ExitIf: {
      std::string_view Words = Line;
      std::string_view PredToken = nextWord(Words);
      std::string_view ProbToken = nextWord(Words);
      if (ProbToken.empty() || !nextWord(Words).empty())
        return fail("exit_if requires '<pred> prob=<p>'");
      RegId Pred;
      if (!parseReg(PredToken, L, Pred))
        return false;
      Instr.Operands.push_back(Pred);
      size_t Eq = ProbToken.find('=');
      if (Eq == std::string_view::npos ||
          trim(ProbToken.substr(0, Eq)) != "prob")
        return fail("expected 'prob=<value>', got '" +
                    std::string(ProbToken) + "'");
      auto Prob = parseDouble(ProbToken.substr(Eq + 1));
      // Written so that NaN fails too.
      if (!Prob || !(*Prob >= 0.0 && *Prob <= 1.0))
        return fail("exit probability must be in [0,1]");
      Instr.TakenProb = *Prob;
      break;
    }
    default: {
      if (!Line.empty()) {
        Instr.Operands.reserve(
            1 + static_cast<size_t>(std::count(Line.begin(), Line.end(), ',')));
        if (!forEachPiece(Line, ',', [&](std::string_view Token) {
              RegId Operand;
              if (!parseReg(Token, L, Operand))
                return false;
              Instr.Operands.push_back(Operand);
              return true;
            }))
          return false;
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

ParseResult metaopt::parseLoops(std::string_view Text,
                                std::string FileName) {
  return LoopParser(Text, std::move(FileName)).run();
}
