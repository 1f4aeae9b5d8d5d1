//===- perfbench/src/Harness.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's parts: the workload description, the
/// metric sink the final JSON line is printed from, the span tracer, and
/// small statistics helpers. See perfbench/README.md for the design.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "corpus/BenchmarkSuite.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Median of \p Values (0 when empty).
double median(std::vector<double> Values);

/// The \p P quantile (0..1) of \p Values by linear interpolation between
/// order statistics (0 when empty).
double quantile(std::vector<double> Values, double P);

/// CPU seconds (user + system) this process has used so far.
double processCpuSeconds();

/// Peak resident set of this process in MiB.
double selfPeakRssMb();

/// Share (%) of all CPU ticks the hypervisor stole since the previous call
/// with the same counters (from /proc/stat); -1 when unreadable. Updates
/// \p Steal and \p Total to the current readings.
double stealTicksShare(uint64_t &Steal, uint64_t &Total);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One recorded span: a layer call made from the benchmark's own code.
struct Span {
  std::string Name;
  double Start = 0; ///< Seconds since the tracer was created.
  double End = 0;
  int Parent = -1;  ///< Index of the enclosing span, -1 at top level.
};

/// Per-name aggregate derived from spans.
struct SpanTotals {
  double SelfSeconds = 0;
  uint64_t Calls = 0;
};

/// In-memory span recorder for single-threaded replays. Spans nest by a
/// stack: a span opened while another is open becomes its child. Disabled
/// tracers record nothing, so the same replay code runs traced and
/// untraced.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  int open(const char *Name);
  void close(int Index);
  /// Renames an open span, for calls whose outcome names them.
  void rename(int Index, const char *Name) { Spans[Index].Name = Name; }

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its direct children.
  std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as one JSON object per line; false on I/O error.
  bool write(const std::string &Path) const;

  /// Appends spans directly (tests of the self-time arithmetic).
  void add(Span S) { Spans.push_back(std::move(S)); }

private:
  bool Enabled;
  Clock::time_point Origin = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span; a no-op on a disabled tracer.
class Scoped {
public:
  Scoped(Tracer &T, const char *Name)
      : T(T), Index(T.enabled() ? T.open(Name) : -1) {}
  ~Scoped() {
    if (Index >= 0)
      T.close(Index);
  }
  void rename(const char *Name) {
    if (Index >= 0)
      T.rename(Index, Name);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer &T;
  int Index;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// Everything a run prints: metrics by name, operation counts, gate
/// failures, and informational records (one JSON object per line).
struct Report {
  struct Metric {
    double Value = 0;
    std::string Unit;
  };
  std::map<std::string, Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> GateFailures;
  std::vector<std::string> Info;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void gate(bool Ok, const std::string &What) {
    if (!Ok)
      GateFailures.push_back(What);
  }
  /// The final result line.
  std::string resultJson() const;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// How the serving part reaches the model.
enum class Topology { Direct, Gateway };

/// One workload: the same program shape with different inputs and
/// emphasis (README.md, "Workloads").
struct Workload {
  std::string Name;
  /// Corpus the pipeline part labels and trains on.
  metaopt::CorpusOptions TrainCorpus;
  /// Corpus the served NN is trained on in set-up. The same deployed
  /// model in every workload: the quick corpus at the default seed.
  metaopt::CorpusOptions ServingCorpus;
  /// Wall-clock share of --seconds given to the pipeline part; the serving
  /// part gets the rest.
  double PipelineShare = 0.75;
  /// At least this many timed pipeline iterations.
  int MinPipelineIterations = 2;
  Topology Serving = Topology::Direct;
  /// Prediction threads of the single worker (Direct) or of each of the
  /// two workers (Gateway).
  unsigned WorkerThreads = 2;
  /// Load-generator connections, capped at nproc in main(). Four is an
  /// assumption: the most the reference 4-vCPU host allows.
  unsigned Connections = 4;
  /// Nominal open-loop rate for p50/p99, an assumption (README.md,
  /// "Serving traffic"): about half the budget's saturation point the
  /// ladder measures on the reference host, so p50 is mostly unqueued.
  double NominalRps = 2000;
  /// Rate ladder for max_rps: starts here and climbs by 25% a step until
  /// a step misses the budget twice, with no ceiling of its own.
  double LadderStartRps = 500;
  /// Each ladder step sends at least this many requests and lasts at least
  /// LadderStepSeconds.
  size_t LadderStepRequests = 1000;
  double LadderStepSeconds = 0.5;
  /// Loops the traced replays sample.
  size_t ReplayLoops = 200;
  size_t ReplayRequests = 400;
};

/// Command-line configuration of one run.
struct RunConfig {
  Workload W;
  uint64_t Seed = 1;
  bool Trace = false;
  unsigned Threads = 1;   ///< Labeling/training threads in this process.
  unsigned HwThreads = 1; ///< std::thread::hardware_concurrency().
  std::string BinDir;     ///< Where metaopt-serve / metaopt-gateway live.
  std::string ImportedDir;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
