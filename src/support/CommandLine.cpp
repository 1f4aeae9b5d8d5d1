//===- support/CommandLine.cpp --------------------------------------------===//

#include "support/CommandLine.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace metaopt;

const char *metaopt::metaoptVersion() { return "0.4.0"; }

namespace {

/// The shortest spelling that parses back to exactly \p Value.
std::string spellNumber(double Value) {
  char Buffer[64];
  auto Result = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value);
  return std::string(Buffer, Result.ptr);
}

[[noreturn]] void misuse(const std::string &Tool, const std::string &Name,
                         const char *What) {
  std::fprintf(stderr, "%s: internal error: option '--%s' %s\n",
               Tool.c_str(), Name.c_str(), What);
  std::abort();
}

} // namespace

CliParser::CliParser(std::string ToolIn, std::string SummaryIn)
    : Tool(std::move(ToolIn)), Summary(std::move(SummaryIn)) {}

void CliParser::add(OptionSpec Spec) {
  if (find(Spec.Name))
    misuse(Tool, Spec.Name, "is registered twice");
  Specs.push_back(std::move(Spec));
}

void CliParser::flag(std::string Name, std::string Help) {
  add({std::move(Name), Kind::Flag, "", std::move(Help), std::nullopt});
}

void CliParser::stringOption(std::string Name, std::string ValueName,
                             std::string Help, std::string Default) {
  add({std::move(Name), Kind::String, std::move(ValueName), std::move(Help),
       std::move(Default)});
}

void CliParser::intOption(std::string Name, std::string ValueName,
                          std::string Help, std::optional<int64_t> Default,
                          int64_t Min, int64_t Max) {
  std::optional<std::string> Spelled;
  if (Default)
    Spelled = std::to_string(*Default);
  add({std::move(Name), Kind::Int, std::move(ValueName), std::move(Help),
       std::move(Spelled), Min, Max});
}

void CliParser::numberOption(std::string Name, std::string ValueName,
                             std::string Help,
                             std::optional<double> Default) {
  std::optional<std::string> Spelled;
  if (Default)
    Spelled = spellNumber(*Default);
  add({std::move(Name), Kind::Number, std::move(ValueName), std::move(Help),
       std::move(Spelled)});
}

void CliParser::positionalHelp(std::string Placeholder, std::string Help) {
  PositionalPlaceholder = std::move(Placeholder);
  PositionalHelp = std::move(Help);
}

const CliParser::OptionSpec *CliParser::find(const std::string &Name) const {
  auto It = std::find_if(Specs.begin(), Specs.end(),
                         [&](const OptionSpec &S) { return S.Name == Name; });
  return It == Specs.end() ? nullptr : &*It;
}

std::string CliParser::usage() const {
  std::string Out = "usage: " + Tool + " [options]";
  if (!PositionalPlaceholder.empty())
    Out += " " + PositionalPlaceholder;
  Out += "\n\n" + Summary + "\n";
  if (!PositionalHelp.empty())
    Out += "\n  " + PositionalPlaceholder + "\n      " + PositionalHelp +
           "\n";
  Out += "\noptions:\n";
  std::vector<std::pair<std::string, std::string>> Rows;
  for (const OptionSpec &Spec : Specs) {
    std::string Left = "--" + Spec.Name;
    if (Spec.TheKind != Kind::Flag)
      Left += "=<" + Spec.ValueName + ">";
    std::string Help = Spec.Help;
    if (Spec.Default && !Spec.Default->empty())
      Help += " (default: " + *Spec.Default + ")";
    Rows.emplace_back(std::move(Left), std::move(Help));
  }
  Rows.emplace_back("--help", "print this message and exit");
  Rows.emplace_back("--version", "print the version and exit");
  size_t Widest = 0;
  for (const auto &Row : Rows)
    Widest = std::max(Widest, Row.first.size());
  for (const auto &[Left, Help] : Rows) {
    Out += "  " + Left;
    Out.append(Widest - Left.size() + 2, ' ');
    Out += Help + "\n";
  }
  return Out;
}

std::string CliParser::checkValue(const OptionSpec &Spec,
                                  const std::string &Value) const {
  std::string Prefix = Tool + ": option '--" + Spec.Name + "' ";
  if (Spec.TheKind == Kind::Int) {
    int64_t Parsed = 0;
    IntScan Scan = scanInt(Value, Parsed);
    if (Scan == IntScan::Malformed)
      return Prefix + "expects an integer, got '" + Value + "'";
    if (Scan == IntScan::OutOfRange || Parsed < Spec.Min ||
        Parsed > Spec.Max) {
      std::string Range =
          Spec.Max == std::numeric_limits<int64_t>::max()
              ? ">= " + std::to_string(Spec.Min)
              : "in [" + std::to_string(Spec.Min) + ", " +
                    std::to_string(Spec.Max) + "]";
      return Prefix + "must be " + Range + ", got '" + Value + "'";
    }
  }
  if (Spec.TheKind == Kind::Number) {
    std::optional<double> Parsed = parseDouble(Value);
    if (!Parsed || !std::isfinite(*Parsed))
      return Prefix + "expects a finite number, got '" + Value + "'";
  }
  return "";
}

std::optional<int> CliParser::parse(int Argc, const char *const *Argv) {
  // --help/-h and --version win over everything else on the line, before
  // unknown-option checking, so "tool --whatever --help" still helps.
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return 0;
    }
    if (Arg == "--version") {
      std::printf("%s (metaopt) %s\n", Tool.c_str(), metaoptVersion());
      return 0;
    }
  }
  Given.clear();
  Positional.clear();
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.size() < 3 || Arg.compare(0, 2, "--") != 0) {
      Positional.push_back(std::move(Arg)); // Also "-" and "--".
      continue;
    }
    size_t Eq = Arg.find('=');
    std::string Name = Arg.substr(2, Eq == std::string::npos ? Eq : Eq - 2);
    const OptionSpec *Spec = find(Name);
    if (!Spec) {
      std::fprintf(stderr, "%s: unknown option '%s'\n%s", Tool.c_str(),
                   Arg.c_str(), usage().c_str());
      return 2;
    }
    bool IsFlag = Spec->TheKind == Kind::Flag;
    if (!IsFlag && Eq == std::string::npos) {
      std::fprintf(stderr, "%s: option '--%s' requires a value (--%s=<%s>)\n",
                   Tool.c_str(), Name.c_str(), Name.c_str(),
                   Spec->ValueName.c_str());
      return 2;
    }
    if (IsFlag && Eq != std::string::npos) {
      std::fprintf(stderr, "%s: option '--%s' does not take a value\n",
                   Tool.c_str(), Name.c_str());
      return 2;
    }
    std::string Value = IsFlag ? "" : Arg.substr(Eq + 1);
    std::string Error = checkValue(*Spec, Value);
    if (!Error.empty()) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 2;
    }
    Given[Name] = std::move(Value); // The last occurrence wins.
  }
  return std::nullopt;
}

bool CliParser::has(const std::string &Name) const {
  if (!find(Name))
    misuse(Tool, Name, "is not registered");
  return Given.count(Name) != 0;
}

const std::string &CliParser::valueOf(const std::string &Name,
                                      Kind K) const {
  const OptionSpec *Spec = find(Name);
  if (!Spec)
    misuse(Tool, Name, "is not registered");
  if (Spec->TheKind != K)
    misuse(Tool, Name, "is read as the wrong kind");
  auto It = Given.find(Name);
  if (It != Given.end())
    return It->second;
  if (!Spec->Default)
    misuse(Tool, Name, "has no default; test has() first");
  return *Spec->Default;
}

std::string CliParser::getString(const std::string &Name) const {
  return valueOf(Name, Kind::String);
}

int64_t CliParser::getInt(const std::string &Name) const {
  return *parseInt(valueOf(Name, Kind::Int));
}

double CliParser::getDouble(const std::string &Name) const {
  return *parseDouble(valueOf(Name, Kind::Number));
}
