//===- support/CommandLine.h - The flag parser ------------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CliParser, the one command-line parser of every tool, bench and example.
/// Each option is declared once, with its kind, its default and its help,
/// in the spirit of LLVM's cl::opt. parse() generates --help from those
/// declarations, answers --version, and rejects an unknown option, a
/// malformed value or an out-of-range value with a diagnostic and exit 2,
/// so bad input is never silently absorbed.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SUPPORT_COMMANDLINE_H
#define METAOPT_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace metaopt {

/// The project version reported by every tool's --version.
const char *metaoptVersion();

/// Declarative command-line front-end.
///
/// Usage:
///   CliParser Cli("metaopt-foo", "one-line summary");
///   Cli.flag("corpus", "sweep the built-in corpus");
///   Cli.intOption("bins", "n", "histogram bins", 10, 1, 1000);
///   Cli.positionalHelp("<file.loop> ...", "loop files to process");
///   if (std::optional<int> Exit = Cli.parse(Argc, Argv))
///     return *Exit;
///   int64_t Bins = Cli.getInt("bins"); // validated, or the default 10
///
/// The syntax is "--flag" and "--key=value"; everything else is
/// positional. "--key value" is deliberately not supported: it is
/// ambiguous with a following positional ("--orc file.loop").
///
/// parse() handles --help/-h and --version itself (exit 0) and rejects any
/// option that was not registered, a value option without a value, a flag
/// with one, and a value its kind or bounds do not admit (error to stderr,
/// exit 2), so a typo like --treads=4 or --bins=abc never runs.
class CliParser {
public:
  CliParser(std::string Tool, std::string Summary);

  /// Registers a boolean flag (--name); test it with has().
  void flag(std::string Name, std::string Help);

  /// Registers a string option (--name=<ValueName>). getString() returns
  /// \p Default when the option is absent; --help shows a non-empty one.
  void stringOption(std::string Name, std::string ValueName,
                    std::string Help, std::string Default = "");

  /// Registers an integer option whose value must lie in the inclusive
  /// range [\p Min, \p Max]. Without a \p Default, test has() before
  /// getInt().
  void intOption(std::string Name, std::string ValueName, std::string Help,
                 std::optional<int64_t> Default,
                 int64_t Min = std::numeric_limits<int64_t>::min(),
                 int64_t Max = std::numeric_limits<int64_t>::max());

  /// Registers a finite floating-point option. Without a \p Default, test
  /// has() before getDouble().
  void numberOption(std::string Name, std::string ValueName,
                    std::string Help, std::optional<double> Default);

  /// Describes the positional arguments in the usage line (help only;
  /// positionals are always accepted).
  void positionalHelp(std::string Placeholder, std::string Help);

  /// Parses argv. Returns the process exit code when the program should
  /// stop (0 after --help/--version, 2 on a bad option or value) and
  /// std::nullopt when parsing succeeded and the program should run.
  std::optional<int> parse(int Argc, const char *const *Argv);

  /// Renders the generated usage/help text, defaults included.
  std::string usage() const;

  const std::string &summary() const { return Summary; }

  // Queries; valid after a successful parse(). Asking for a name that was
  // never registered, or with the getter of another kind, aborts: it is a
  // bug in the program, not in its input.

  /// True when the option was given on the command line.
  bool has(const std::string &Name) const;
  /// The given value, or the registered default.
  std::string getString(const std::string &Name) const;
  int64_t getInt(const std::string &Name) const;
  double getDouble(const std::string &Name) const;
  const std::vector<std::string> &positional() const { return Positional; }

private:
  enum class Kind { Flag, String, Int, Number };

  struct OptionSpec {
    std::string Name;
    Kind TheKind;
    std::string ValueName; ///< "" for flags.
    std::string Help;
    std::optional<std::string> Default; ///< Spelled as on the command line.
    int64_t Min = 0, Max = 0;            ///< Integer bounds, inclusive.
  };

  void add(OptionSpec Spec);
  const OptionSpec *find(const std::string &Name) const;
  /// The given or default spelling of a value option of kind \p K.
  const std::string &valueOf(const std::string &Name, Kind K) const;
  /// Diagnoses \p Value for \p Spec; "" when it is admitted.
  std::string checkValue(const OptionSpec &Spec,
                         const std::string &Value) const;

  std::string Tool;
  std::string Summary;
  std::string PositionalPlaceholder;
  std::string PositionalHelp;
  std::vector<OptionSpec> Specs;
  std::map<std::string, std::string> Given;
  std::vector<std::string> Positional;
};

} // namespace metaopt

#endif // METAOPT_SUPPORT_COMMANDLINE_H
