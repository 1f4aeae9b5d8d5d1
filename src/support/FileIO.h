//===- support/FileIO.h - Whole-file reads and publishes --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one code that reads or writes whole files: every input file and
/// every artifact (simulation cache, model bundles, bench rows, CSVs, fuzz
/// reproducers). Failures return false or nullopt with an error naming
/// the path and the OS reason. A publish is crash-safe: readers, and a
/// crash at any point, see the old complete file or the new one.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SUPPORT_FILEIO_H
#define METAOPT_SUPPORT_FILEIO_H

#include <functional>
#include <optional>
#include <string>

namespace metaopt {

/// Reads all of \p Path; fails on an open or read error, a directory
/// included.
std::optional<std::string> readFile(const std::string &Path,
                                    std::string *Error = nullptr);

/// Publishes \p Content as \p Path, creating missing parent directories:
/// the bytes go to a temporary name unique to the process and call
/// (`<path>.tmp.<pid>.<n>`), are fsynced and renamed over \p Path, and the
/// directory is fsynced. On failure \p Path is unchanged and the
/// temporary file is removed.
bool publishFile(const std::string &Path, const std::string &Content,
                 std::string *Error = nullptr);

/// Publishes Merge(current file, "" when absent) as \p Path, holding an
/// exclusive flock on the directory from the read to the rename, so
/// concurrent updaters in any process lose none of each other's updates.
/// No lock file is left behind.
bool updateFile(const std::string &Path,
                const std::function<std::string(const std::string &)> &Merge,
                std::string *Error = nullptr);

} // namespace metaopt

#endif // METAOPT_SUPPORT_FILEIO_H
