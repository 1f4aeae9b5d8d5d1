//===- support/Csv.h - CSV emission -----------------------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CSV writing for experiment outputs (figure series, raw loop data).
/// `Dataset::toCsv` uses this writer for the labeled dataset, in the shape
/// of the raw loop data the paper released. Nothing reads these files
/// back: labels are reused only through the simulation cache.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SUPPORT_CSV_H
#define METAOPT_SUPPORT_CSV_H

#include <string>
#include <vector>

namespace metaopt {

/// Accumulates rows and serializes them as RFC-4180-ish CSV (quotes fields
/// containing commas, quotes, or newlines).
class CsvWriter {
public:
  /// Appends a row of cells.
  void addRow(const std::vector<std::string> &Cells);

  /// Serializes all rows.
  std::string str() const;

  /// Writes the CSV to \p Path. Returns false (and leaves no partial file
  /// guarantee) if the file cannot be opened or written.
  bool writeToFile(const std::string &Path) const;

  size_t numRows() const { return Rows.size(); }

private:
  std::vector<std::vector<std::string>> Rows;
};

} // namespace metaopt

#endif // METAOPT_SUPPORT_CSV_H
