//===- support/StringUtils.cpp --------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>

using namespace metaopt;

std::string_view metaopt::trim(std::string_view Str) {
  size_t Begin = 0;
  size_t End = Str.size();
  while (Begin < End && isSpace(Str[Begin]))
    ++Begin;
  while (End > Begin && isSpace(Str[End - 1]))
    --End;
  return Str.substr(Begin, End - Begin);
}

std::vector<std::string> metaopt::split(std::string_view Str, char Sep) {
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

std::vector<std::string> metaopt::splitWhitespace(std::string_view Str) {
  std::vector<std::string> Pieces;
  size_t I = 0;
  while (I < Str.size()) {
    while (I < Str.size() && isSpace(Str[I]))
      ++I;
    size_t Start = I;
    while (I < Str.size() && !isSpace(Str[I]))
      ++I;
    if (I > Start)
      Pieces.emplace_back(Str.substr(Start, I - Start));
  }
  return Pieces;
}

IntScan metaopt::scanInt(std::string_view Str, int64_t &Out) {
  Str = trim(Str);
  size_t I = 0;
  bool Negative = false;
  if (I < Str.size() && (Str[I] == '+' || Str[I] == '-'))
    Negative = Str[I++] == '-';
  if (I == Str.size())
    return IntScan::Malformed;
  uint64_t Magnitude = 0;
  bool Overflow = false;
  for (; I < Str.size(); ++I) {
    unsigned Digit = static_cast<unsigned char>(Str[I]) - '0';
    if (Digit > 9)
      return IntScan::Malformed;
    if (Magnitude > (UINT64_MAX - Digit) / 10)
      Overflow = true;
    else
      Magnitude = Magnitude * 10 + Digit;
  }
  uint64_t Limit = Negative ? uint64_t(1) << 63 : (uint64_t(1) << 63) - 1;
  if (Overflow || Magnitude > Limit)
    return IntScan::OutOfRange;
  Out = Negative ? static_cast<int64_t>(0 - Magnitude)
                 : static_cast<int64_t>(Magnitude);
  return IntScan::Ok;
}

std::optional<int64_t> metaopt::parseInt(std::string_view Str) {
  int64_t Value = 0;
  if (scanInt(Str, Value) != IntScan::Ok)
    return std::nullopt;
  return Value;
}

std::optional<double> metaopt::parseDouble(std::string_view Str) {
  Str = trim(Str);
  if (Str.empty())
    return std::nullopt;
  // strtod needs a terminator; short numbers (all the IR ever holds) are
  // copied to the stack instead of the heap.
  char Small[64];
  std::string Large;
  const char *Begin;
  if (Str.size() < sizeof(Small)) {
    std::memcpy(Small, Str.data(), Str.size());
    Small[Str.size()] = '\0';
    Begin = Small;
  } else {
    Large.assign(Str);
    Begin = Large.c_str();
  }
  char *End = nullptr;
  double Value = std::strtod(Begin, &End);
  if (End != Begin + Str.size())
    return std::nullopt;
  return Value;
}

std::string metaopt::formatDouble(double Value, int Digits) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Digits, Value);
  return Buffer;
}

std::string metaopt::formatPercent(double Ratio, int Digits) {
  return formatDouble(Ratio * 100.0, Digits) + "%";
}

bool metaopt::isIdentifier(std::string_view Str) {
  if (Str.empty())
    return false;
  unsigned char First = static_cast<unsigned char>(Str[0]);
  if (!std::isalpha(First) && Str[0] != '_')
    return false;
  for (char C : Str.substr(1)) {
    unsigned char U = static_cast<unsigned char>(C);
    if (!std::isalnum(U) && C != '_' && C != '.')
      return false;
  }
  return true;
}

std::string metaopt::join(const std::vector<std::string> &Pieces,
                          std::string_view Sep) {
  std::string Result;
  for (size_t I = 0; I < Pieces.size(); ++I) {
    if (I)
      Result += Sep;
    Result += Pieces[I];
  }
  return Result;
}
