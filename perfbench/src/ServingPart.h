//===- perfbench/src/ServingPart.h - Daemons under load --------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving half of a run: a seeded request pool, the daemons (one
/// metaopt-serve worker, or metaopt-gateway in front of two single-thread
/// workers), the open-loop phases (warm-up, nominal rate, and in traced
/// runs the hop comparison and the rate ladder), the daemons' own stats,
/// and the byte-identity gate against PredictionService::predictUnbatched
/// on the served bundle.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVINGPART_H
#define PERFBENCH_SERVINGPART_H

#include "Harness.h"
#include "LoadGen.h"

#include <memory>
#include <sys/types.h>

namespace perfbench {

class ServingPart {
public:
  ServingPart(const RunConfig &Cfg, Report &Out);
  /// Stops any daemon still running.
  ~ServingPart();

  ServingPart(const ServingPart &) = delete;
  ServingPart &operator=(const ServingPart &) = delete;

  /// Builds the request pool: loops from a corpus built with a different
  /// seed than training, plus the imported kernels.
  void buildPool();
  const std::vector<PoolEntry> &pool() const { return Pool; }

  /// Starts the daemons on \p BundlePath and waits until a prediction
  /// round-trips. False (with a gate failure) when they do not come up.
  bool start(const std::string &BundlePath);

  /// Stops every daemon (SIGTERM, then SIGKILL after a grace period) and
  /// records its peak RSS.
  void stop();

  /// The timed phases; \p Seconds is this part's share of the run. Only
  /// the traced run compares the gateway path with the direct one and
  /// climbs the rate ladder.
  void run(double Seconds);

  /// Byte-identity gate and this part's metrics. Call after stop().
  void finish(const std::string &BundlePath);

  /// Peak RSS of every daemon started by the last start(), summed.
  double daemonsPeakRssMb() const { return DaemonRssMb; }

private:
  struct Daemon {
    pid_t Pid = -1;
    std::string Name;
  };
  bool spawn(const std::string &Name, const std::vector<std::string> &Args);
  bool answers(const std::string &Address);
  std::string queryStats(const std::string &Address);
  std::string address() const;
  std::vector<std::string> workers() const;
  /// A gateway runs in fleet, and in traced runs of a direct workload
  /// (in front of its one worker) to measure the hop.
  bool hasGateway() const;

  const RunConfig &Cfg;
  Report &Out;
  std::vector<PoolEntry> Pool;
  std::vector<Daemon> Daemons;
  double DaemonRssMb = 0;
  double DaemonCpuSeconds = 0; ///< User + system time of those daemons.
  std::unique_ptr<LoadGen> Gen;
  std::vector<PhaseResult> Phases;
  std::vector<std::string> WorkerStats;
  std::string GatewayStats;
};

} // namespace perfbench

#endif // PERFBENCH_SERVINGPART_H
