//===- cache/SimCache.h - Content-addressed simulation cache ----*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, sharded, content-addressed cache for simulateLoop()
/// results — the labeling/evaluation hot path. Every pipeline stage
/// re-"compiles" the same loops (collectLabels at all 8 factors, the
/// leave-one-benchmark-out speedup protocol per row and policy, the
/// fig/table benches once more per process); since simulateLoop is a pure
/// function of (loop, unroll factor, machine config, program context, SWP
/// flag), its results can be memoized under a fingerprint of exactly those
/// inputs.
///
/// Key = 128-bit fingerprint of the loop's canonical textual print
/// (ir/Printer.h, the same representation the parser round-trips) x unroll
/// factor x every MachineConfig field x the SWP flag x every SimContext
/// field. Value = the SimResult. Because the key covers every input the
/// simulator reads, a hit returns the byte-identical SimResult the
/// simulator would have produced: cache-on and cache-off runs — at any
/// thread count — produce byte-identical datasets and reports. That
/// invariant is enforced by tests/cache_test.cpp.
///
/// Tiers:
///  - In-memory: a striped (sharded) hash map safe under the work-stealing
///    pool; locks are per-shard so concurrent labeling threads rarely
///    contend. Hit/miss/insert statistics are kept with relaxed atomics.
///  - Persistent (optional): a versioned, checksummed, atomically-written
///    binary file under a cache directory (--cache-dir on the bench
///    harnesses, METAOPT_CACHE_DIR for any process), so repeated pipeline,
///    LOOCV, and bench runs warm-start across processes. Corrupt,
///    truncated, or version-mismatched files are rejected wholesale and
///    the cache starts cold — never trusted partially.
///
/// See docs/CACHING.md for the design rationale.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CACHE_SIMCACHE_H
#define METAOPT_CACHE_SIMCACHE_H

#include "support/Fingerprint.h"
#include "sim/Simulator.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace metaopt {

/// The cache key: a content fingerprint of every simulateLoop input.
using SimKey = Fingerprint;

/// Hash adaptor for unordered containers; the fingerprint lanes are
/// already avalanched, so the low lane is a ready-made hash.
struct SimKeyHash {
  size_t operator()(const SimKey &Key) const {
    return static_cast<size_t>(Key.Lo);
  }
};

/// Computes the content address of one simulateLoop invocation.
SimKey simCacheKey(const Loop &L, unsigned Factor,
                   const MachineModel &Machine, const SimContext &Ctx,
                   bool EnableSwp);

/// Same key, but with printLoop(L) precomputed by the caller. The printed
/// text dominates the key-derivation cost, and every labeling sweep needs
/// all eight factor keys of each loop — printing once and deriving eight
/// keys from the same text keeps key derivation off the hot path's
/// profile. \p PrintedLoop must be exactly printLoop(L).
SimKey simCacheKey(const Loop &L, const std::string &PrintedLoop,
                   unsigned Factor, const MachineModel &Machine,
                   const SimContext &Ctx, bool EnableSwp);

/// Cache counters. Totals are exact; under concurrency the individual
/// counters are each exact but are sampled without a global lock.
struct SimCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Inserts = 0;
  uint64_t PersistentLoaded = 0; ///< Entries adopted from the disk tier.

  uint64_t lookups() const { return Hits + Misses; }
  double hitRate() const {
    uint64_t Total = lookups();
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

/// Construction-time configuration of a cache handle.
struct SimCacheConfig {
  /// When false the handle is a pure pass-through to simulateLoop: no
  /// lookups, no storage, no statistics. Used to A/B the determinism
  /// invariant and by METAOPT_SIM_CACHE=0.
  bool Enabled = true;
  /// Directory of the persistent tier; empty keeps the cache in-memory
  /// only. Loaded on construction, written by savePersistent().
  std::string PersistentDir;
  /// Stripe count for the in-memory tier; rounded up to a power of two.
  unsigned Shards = 64;
};

/// Result of probing a persistent cache file without loading it.
struct SimCacheFileInfo {
  bool Valid = false;
  std::string Error;   ///< Why the file was rejected (when !Valid).
  uint64_t Version = 0;
  uint64_t Entries = 0;
};

/// Parses and validates the header/checksum of \p Path. Shared by
/// loadPersistent() and the metaopt-simcache inspection tool.
SimCacheFileInfo inspectSimCacheFile(const std::string &Path);

/// File-format version; bumped whenever the record layout or the key
/// derivation changes so stale files are rejected instead of misread.
/// v2: key derivation gained exact exit-probability bits (domain tag
/// "metaopt-simcache-key-v2"); v1 files hold keys no current lookup can
/// produce, so they are rejected wholesale rather than carried as dead
/// weight.
constexpr uint64_t SimCacheFileVersion = 2;

/// The cache handle. All member functions are thread-safe except where
/// noted; a single instance is intended to be shared by every thread of a
/// parallel region (that is the point of the striping).
class SimCache {
public:
  explicit SimCache(SimCacheConfig Config = {});
  ~SimCache();

  SimCache(const SimCache &) = delete;
  SimCache &operator=(const SimCache &) = delete;

  bool enabled() const { return Config.Enabled; }
  const SimCacheConfig &config() const { return Config; }

  /// simulateLoop through the cache: compute the key, return the stored
  /// result on a hit, otherwise simulate and store. Byte-identical to a
  /// direct simulateLoop call in all cases.
  SimResult simulate(const Loop &L, unsigned Factor,
                     const MachineModel &Machine, const SimContext &Ctx,
                     bool EnableSwp);

  /// Probes the in-memory tier; counts a hit or a miss.
  std::optional<SimResult> lookup(const SimKey &Key);

  /// Stores \p Result under \p Key. First writer wins (all writers of one
  /// key necessarily carry the identical result); counts an insert only
  /// when the key was new.
  void insert(const SimKey &Key, const SimResult &Result);

  /// Number of cached entries.
  size_t size() const;

  SimCacheStats stats() const;
  void resetStats();

  /// Drops every entry (statistics are kept).
  void clear();

  /// Path of the persistent file ("" when no PersistentDir).
  std::string persistentPath() const;

  /// Re-reads the persistent tier into memory. Returns false (leaving the
  /// in-memory tier unchanged) when the file is absent, corrupt,
  /// truncated, or of a different version.
  bool loadPersistent();

  /// Atomically rewrites the persistent file with the current contents in
  /// sorted key order, so the file bytes are deterministic regardless of
  /// thread count or insertion order. Writes a temp file unique to this
  /// process and call, fsyncs it, renames it over the file and fsyncs the
  /// directory: concurrent savers into one directory never share a temp
  /// file, and a crash leaves the old or the new file, whole. Returns
  /// false when no PersistentDir is configured or on I/O error.
  bool savePersistent();

  /// savePersistent(), but only when entries were inserted since the last
  /// save; cheap to call after every labeling or evaluation sweep.
  bool savePersistentIfDirty();

  /// The process-wide cache used when call sites do not pass one.
  /// Configured from the environment on first use: METAOPT_SIM_CACHE=0
  /// (or "off") disables it, METAOPT_CACHE_DIR=<dir> attaches the
  /// persistent tier.
  static SimCache &global();

  /// Replaces the global cache with a fresh one built from \p Config
  /// (dropping the old contents). Must not be called while a parallel
  /// region is using the global cache — same contract as
  /// ThreadPool::setGlobalThreads.
  static void configureGlobal(SimCacheConfig Config);

private:
  struct Shard {
    mutable std::mutex Mutex;
    std::unordered_map<SimKey, SimResult, SimKeyHash> Map;
  };

  Shard &shardFor(const SimKey &Key);

  SimCacheConfig Config;
  std::vector<std::unique_ptr<Shard>> Shards;
  unsigned ShardMask = 0;

  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Inserts{0};
  std::atomic<uint64_t> PersistentLoaded{0};
  std::atomic<bool> Dirty{false};
  std::mutex SaveMutex;
};

/// simulateLoop through \p Cache; a null \p Cache means the process-wide
/// SimCache::global(). This is the call every labeling/evaluation/bench
/// site uses in place of a raw simulateLoop.
SimResult cachedSimulateLoop(const Loop &L, unsigned Factor,
                             const MachineModel &Machine,
                             const SimContext &Ctx, bool EnableSwp,
                             SimCache *Cache = nullptr);

} // namespace metaopt

#endif // METAOPT_CACHE_SIMCACHE_H
