//===- perfbench/src/LoadGen.h - Open-loop request generator ----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-threaded open-loop load generator. Request i of a phase is due
/// at Start + i / Rate whatever happened to earlier requests; it is
/// written to connection i mod C (requests pipeline on a connection, and
/// the daemon answers each connection in order). With several addresses a
/// route table picks each request's address, and the request goes to the
/// next of that address's connections. Latency is measured from
/// the due time, so a stall is charged to every request it delays, and
/// the generator's own lateness (send time minus due time) is reported.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include "Harness.h"

#include <string>
#include <vector>

namespace perfbench {

/// One distinct request the generator can send.
struct PoolEntry {
  std::string Id;
  std::string LoopText;
  std::string Line; ///< Rendered wire request (no newline).
  bool WantScores = false;
  bool Malformed = false;
  size_t Loops = 0;
};

/// Outcome of one phase at one rate.
struct PhaseResult {
  std::string Name;
  double OfferedRps = 0;
  uint64_t Sent = 0, Succeeded = 0, Failed = 0;
  /// Due time to response of each success, in completion order.
  std::vector<double> LatencyMs;
  std::vector<double> LagMs;     ///< Send time minus due time.
  double AchievedRps = 0; ///< Responses / (last response - first due).

  double p50Ms() const;
  /// Median over consecutive 1000-response windows of each window's p99
  /// (the plain p99 when fewer than two windows were collected).
  double p99Ms() const;
  /// p99 within the §5.1 budget, nothing failed, and completions kept up
  /// with the offered rate (the backlog did not grow).
  bool meetsBudget(double BudgetMs) const;
  std::string json() const;
};

class LoadGen {
public:
  /// \p Pool must outlive the generator.
  LoadGen(const std::vector<PoolEntry> &Pool, uint64_t Seed);
  ~LoadGen();

  LoadGen(const LoadGen &) = delete;
  LoadGen &operator=(const LoadGen &) = delete;

  /// Opens \p PerAddress unix-socket connections to each of
  /// \p Addresses.
  bool connect(const std::vector<std::string> &Addresses,
               unsigned PerAddress, std::string *Error);
  void close();

  /// Sends \p Count requests at \p Rate per second; returns when every
  /// request is answered or has failed. \p Route, when given, holds the
  /// address index of each pool entry.
  PhaseResult run(const std::string &Name, double Rate, size_t Count,
                  const std::vector<size_t> *Route = nullptr);

  /// First response seen for each pool entry ("" when never sent); every
  /// later response to the same entry is checked against it.
  const std::vector<std::string> &firstResponses() const { return First; }
  uint64_t inconsistent() const { return Inconsistent; }

private:
  const std::vector<PoolEntry> &Pool;
  uint64_t Seed;
  uint64_t Cursor = 0; ///< Position in the seeded request sequence.
  std::vector<int> Fds;
  unsigned PerAddress = 1;
  std::vector<std::string> First;
  uint64_t Inconsistent = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
