//===- support/StringUtils.h - String helpers ------------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared by the IR text parser, the CSV writer, and
/// the console table printer.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SUPPORT_STRINGUTILS_H
#define METAOPT_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace metaopt {

/// std::isspace in the C locale (space, \t, \n, \v, \f, \r), without
/// the locale lookup.
inline bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

/// Removes leading and trailing whitespace (isSpace).
std::string_view trim(std::string_view Str);

/// Splits \p Str on \p Sep; does not merge adjacent separators. An empty
/// input yields a single empty piece.
std::vector<std::string> split(std::string_view Str, char Sep);

/// Splits on arbitrary whitespace runs, discarding empty pieces.
std::vector<std::string> splitWhitespace(std::string_view Str);

/// Outcome of scanInt.
enum class IntScan { Ok, Malformed, OutOfRange };

/// Parses a signed decimal integer in strtoll's syntax (surrounding
/// whitespace, an optional '+' or '-', then digits) without allocating.
/// Text that is not such an integer is Malformed, even when its digits
/// would also overflow; an integer outside int64_t is OutOfRange. \p Out
/// is written only on Ok.
IntScan scanInt(std::string_view Str, int64_t &Out);

/// Parses a signed integer; returns std::nullopt on any trailing garbage
/// and on a value outside int64_t (scanInt).
std::optional<int64_t> parseInt(std::string_view Str);

/// Parses a double; returns std::nullopt on any trailing garbage.
std::optional<double> parseDouble(std::string_view Str);

/// Returns \p Value formatted with \p Digits digits after the point.
std::string formatDouble(double Value, int Digits);

/// Returns a percent string like "12.3%" from a ratio (0.123 -> "12.3%").
std::string formatPercent(double Ratio, int Digits = 1);

/// Returns true if \p Str consists solely of an identifier:
/// [A-Za-z_][A-Za-z0-9_.]*.
bool isIdentifier(std::string_view Str);

/// Joins the pieces with \p Sep between them.
std::string join(const std::vector<std::string> &Pieces,
                 std::string_view Sep);

} // namespace metaopt

#endif // METAOPT_SUPPORT_STRINGUTILS_H
