//===- cache/SimCache.cpp -------------------------------------------------===//

#include "cache/SimCache.h"

#include "ir/Printer.h"
#include "support/FileIO.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

using namespace metaopt;

//===----------------------------------------------------------------------===//
// Key derivation
//===----------------------------------------------------------------------===//

SimKey metaopt::simCacheKey(const Loop &L, unsigned Factor,
                            const MachineModel &Machine,
                            const SimContext &Ctx, bool EnableSwp) {
  return simCacheKey(L, printLoop(L), Factor, Machine, Ctx, EnableSwp);
}

SimKey metaopt::simCacheKey(const Loop &L, const std::string &PrintedLoop,
                            unsigned Factor, const MachineModel &Machine,
                            const SimContext &Ctx, bool EnableSwp) {
  FingerprintHasher H;
  // Domain tag: a key-derivation change must never collide with the old
  // scheme inside one persistent file generation. v2: exit probabilities
  // are additionally hashed as exact IEEE-754 bits — the printed text
  // truncates them to six significant digits, which could alias two loops
  // whose exit-penalty terms differ below that precision.
  H.str("metaopt-simcache-key-v2");

  // The loop, as its canonical textual print — the exact representation
  // the parser round-trips, covering name, language, nest level, trip and
  // runtime-trip counts, phis, predication, memory shapes, exit
  // probabilities, and pairing. Everything simulateLoop reads from the
  // Loop is in this string (with the exit probabilities re-hashed exactly
  // below). Hot callers print once per loop and reuse the text across the
  // eight factor keys.
  H.str(PrintedLoop);
  for (const Instruction &Instr : L.body())
    if (Instr.Op == Opcode::ExitIf)
      H.f64(Instr.TakenProb);

  H.u64(Factor);
  H.boolean(EnableSwp);

  // Every MachineConfig field: the schedulers and the cost model read all
  // of them, so all of them are fingerprint inputs.
  const MachineConfig &C = Machine.config();
  H.str(C.Name);
  H.i64(C.IssueWidth);
  H.u64(C.UnitCount.size());
  for (int Units : C.UnitCount)
    H.i64(Units);
  H.i64(C.IntRegs);
  H.i64(C.FloatRegs);
  H.i64(C.PredRegs);
  H.u64(C.Latency.size());
  for (int Latency : C.Latency)
    H.i64(Latency);
  H.i64(C.BundleBytes);
  H.i64(C.SlotsPerBundle);
  H.i64(C.L1ICapacityBytes);
  H.i64(C.L1ILineBytes);
  H.i64(C.L1IMissCycles);
  H.i64(C.MispredictPenalty);
  H.i64(C.SpillCycles);

  // Every SimContext field, likewise.
  H.i64(Ctx.EffectiveIcacheBytes);
  H.f64(Ctx.DcacheMissRate);
  H.i64(Ctx.DcacheMissCycles);
  H.f64(Ctx.DcacheVisibleFraction);
  H.i64(Ctx.IntRegBudget);
  H.i64(Ctx.FpRegBudget);

  return H.digest();
}

//===----------------------------------------------------------------------===//
// In-memory tier
//===----------------------------------------------------------------------===//

namespace {

unsigned roundUpPow2(unsigned Value) {
  unsigned Pow = 1;
  while (Pow < Value && Pow < (1u << 16))
    Pow <<= 1;
  return Pow;
}

} // namespace

SimCache::SimCache(SimCacheConfig ConfigIn) : Config(std::move(ConfigIn)) {
  unsigned Count = roundUpPow2(std::max(1u, Config.Shards));
  ShardMask = Count - 1;
  Shards.reserve(Count);
  for (unsigned I = 0; I < Count; ++I)
    Shards.push_back(std::make_unique<Shard>());
  if (Config.Enabled && !Config.PersistentDir.empty())
    loadPersistent();
}

SimCache::~SimCache() = default;

SimCache::Shard &SimCache::shardFor(const SimKey &Key) {
  return *Shards[static_cast<unsigned>(Key.Lo) & ShardMask];
}

std::optional<SimResult> SimCache::lookup(const SimKey &Key) {
  if (!Config.Enabled)
    return std::nullopt;
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Map.find(Key);
    if (It != S.Map.end()) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void SimCache::insert(const SimKey &Key, const SimResult &Result) {
  if (!Config.Enabled)
    return;
  Shard &S = shardFor(Key);
  bool Fresh;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Fresh = S.Map.emplace(Key, Result).second;
  }
  if (Fresh) {
    Inserts.fetch_add(1, std::memory_order_relaxed);
    Dirty.store(true, std::memory_order_relaxed);
  }
}

SimResult SimCache::simulate(const Loop &L, unsigned Factor,
                             const MachineModel &Machine,
                             const SimContext &Ctx, bool EnableSwp) {
  if (!Config.Enabled)
    return simulateLoop(L, Factor, Machine, Ctx, EnableSwp);
  SimKey Key = simCacheKey(L, Factor, Machine, Ctx, EnableSwp);
  if (std::optional<SimResult> Found = lookup(Key))
    return *Found;
  // Concurrent misses on one key may both simulate; both produce the
  // identical result (the simulator is pure), so first-writer-wins below
  // cannot change any observable output.
  SimResult Result = simulateLoop(L, Factor, Machine, Ctx, EnableSwp);
  insert(Key, Result);
  return Result;
}

size_t SimCache::size() const {
  size_t Total = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total += S->Map.size();
  }
  return Total;
}

SimCacheStats SimCache::stats() const {
  SimCacheStats Stats;
  Stats.Hits = Hits.load(std::memory_order_relaxed);
  Stats.Misses = Misses.load(std::memory_order_relaxed);
  Stats.Inserts = Inserts.load(std::memory_order_relaxed);
  Stats.PersistentLoaded = PersistentLoaded.load(std::memory_order_relaxed);
  return Stats;
}

void SimCache::resetStats() {
  Hits.store(0, std::memory_order_relaxed);
  Misses.store(0, std::memory_order_relaxed);
  Inserts.store(0, std::memory_order_relaxed);
  PersistentLoaded.store(0, std::memory_order_relaxed);
}

void SimCache::clear() {
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    S->Map.clear();
  }
}

//===----------------------------------------------------------------------===//
// Persistent tier
//===----------------------------------------------------------------------===//

namespace {

constexpr char SimCacheMagic[8] = {'M', 'O', 'S', 'I', 'M', 'C', 'C', 'H'};
constexpr size_t HeaderBytes = 8 + 3 * 8; // magic, version, count, checksum.
constexpr size_t RecordWords = 9;
constexpr size_t RecordBytes = RecordWords * 8;

void appendU64(std::string &Out, uint64_t Value) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>(Value >> (8 * I)));
}

uint64_t readU64(const unsigned char *Data) {
  uint64_t Value = 0;
  for (int I = 0; I < 8; ++I)
    Value |= static_cast<uint64_t>(Data[I]) << (8 * I);
  return Value;
}

uint64_t doubleBits(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

double bitsDouble(uint64_t Bits) {
  double Value;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return Value;
}

void appendRecord(std::string &Out, const SimKey &Key,
                  const SimResult &Result) {
  appendU64(Out, Key.Lo);
  appendU64(Out, Key.Hi);
  appendU64(Out, doubleBits(Result.Cycles));
  appendU64(Out, doubleBits(Result.CyclesPerIteration));
  appendU64(Out, Result.UsedSwp ? 1 : 0);
  appendU64(Out, static_cast<uint64_t>(static_cast<int64_t>(Result.II)));
  appendU64(Out, Result.SpillPairs);
  appendU64(Out, Result.ScheduleLength);
  appendU64(Out,
            static_cast<uint64_t>(static_cast<int64_t>(Result.CodeBytes)));
}

void parseRecord(const unsigned char *Data, SimKey &Key, SimResult &Result) {
  Key.Lo = readU64(Data + 0 * 8);
  Key.Hi = readU64(Data + 1 * 8);
  Result.Cycles = bitsDouble(readU64(Data + 2 * 8));
  Result.CyclesPerIteration = bitsDouble(readU64(Data + 3 * 8));
  Result.UsedSwp = readU64(Data + 4 * 8) != 0;
  Result.II = static_cast<int>(static_cast<int64_t>(readU64(Data + 5 * 8)));
  Result.SpillPairs = static_cast<unsigned>(readU64(Data + 6 * 8));
  Result.ScheduleLength = static_cast<uint32_t>(readU64(Data + 7 * 8));
  Result.CodeBytes =
      static_cast<int>(static_cast<int64_t>(readU64(Data + 8 * 8)));
}

uint64_t payloadChecksum(const unsigned char *Data, size_t Size) {
  FingerprintHasher H;
  H.str("metaopt-simcache-file-v1");
  H.bytes(Data, Size);
  return H.digest().Lo;
}

/// Validates the container and returns the payload pointer/size, or an
/// error. Shared by inspectSimCacheFile and loadPersistent.
SimCacheFileInfo parseContainer(const std::string &Content,
                                const unsigned char **OutPayload) {
  SimCacheFileInfo Info;
  const unsigned char *Data =
      reinterpret_cast<const unsigned char *>(Content.data());
  if (Content.empty()) {
    Info.Error = "file missing or empty";
    return Info;
  }
  if (Content.size() < HeaderBytes) {
    Info.Error = "truncated header";
    return Info;
  }
  if (std::memcmp(Data, SimCacheMagic, sizeof(SimCacheMagic)) != 0) {
    Info.Error = "bad magic (not a metaopt simulation cache)";
    return Info;
  }
  Info.Version = readU64(Data + 8);
  if (Info.Version != SimCacheFileVersion) {
    Info.Error = "version mismatch (file v" + std::to_string(Info.Version) +
                 ", expected v" + std::to_string(SimCacheFileVersion) + ")";
    return Info;
  }
  Info.Entries = readU64(Data + 16);
  uint64_t Checksum = readU64(Data + 24);
  size_t PayloadSize = Content.size() - HeaderBytes;
  if (PayloadSize != Info.Entries * RecordBytes) {
    Info.Error = "payload size does not match the entry count";
    return Info;
  }
  if (payloadChecksum(Data + HeaderBytes, PayloadSize) != Checksum) {
    Info.Error = "checksum mismatch (corrupt payload)";
    return Info;
  }
  Info.Valid = true;
  if (OutPayload)
    *OutPayload = Data + HeaderBytes;
  return Info;
}

} // namespace

SimCacheFileInfo metaopt::inspectSimCacheFile(const std::string &Path) {
  std::string Error;
  std::optional<std::string> Content = readFile(Path, &Error);
  if (!Content) {
    SimCacheFileInfo Info;
    Info.Error = "file missing or unreadable: " + Error;
    return Info;
  }
  return parseContainer(*Content, nullptr);
}

std::string SimCache::persistentPath() const {
  if (Config.PersistentDir.empty())
    return "";
  return Config.PersistentDir + "/sim_cache.bin";
}

bool SimCache::loadPersistent() {
  std::string Path = persistentPath();
  if (Path.empty())
    return false;
  std::optional<std::string> Content = readFile(Path);
  if (!Content)
    return false;
  const unsigned char *Payload = nullptr;
  SimCacheFileInfo Info = parseContainer(*Content, &Payload);
  if (!Info.Valid)
    return false;
  for (uint64_t I = 0; I < Info.Entries; ++I) {
    SimKey Key;
    SimResult Result;
    parseRecord(Payload + I * RecordBytes, Key, Result);
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    S.Map.emplace(Key, Result);
  }
  PersistentLoaded.fetch_add(Info.Entries, std::memory_order_relaxed);
  return true;
}

bool SimCache::savePersistent() {
  std::string Path = persistentPath();
  if (Path.empty() || !Config.Enabled)
    return false;

  auto Merge = [this](const std::string &Current) {
    // The in-memory entries first, then the file's: after the stable sort
    // an equal key keeps the in-memory entry (both carry the identical
    // result). A file the container checks reject is replaced, not merged.
    std::vector<std::pair<SimKey, SimResult>> Entries;
    for (const std::unique_ptr<Shard> &S : Shards) {
      std::lock_guard<std::mutex> Lock(S->Mutex);
      Entries.insert(Entries.end(), S->Map.begin(), S->Map.end());
    }
    const unsigned char *Stored = nullptr;
    SimCacheFileInfo Info = parseContainer(Current, &Stored);
    for (uint64_t I = 0; Info.Valid && I < Info.Entries; ++I) {
      Entries.emplace_back();
      parseRecord(Stored + I * RecordBytes, Entries.back().first,
                  Entries.back().second);
    }
    // Sorted, so the file bytes are a pure function of the union, not of
    // insertion order or thread interleaving.
    std::stable_sort(
        Entries.begin(), Entries.end(),
        [](const auto &A, const auto &B) { return A.first < B.first; });
    Entries.erase(std::unique(Entries.begin(), Entries.end(),
                              [](const auto &A, const auto &B) {
                                return A.first == B.first;
                              }),
                  Entries.end());

    std::string Payload;
    Payload.reserve(Entries.size() * RecordBytes);
    for (const auto &[Key, Result] : Entries)
      appendRecord(Payload, Key, Result);

    std::string Content;
    Content.reserve(HeaderBytes + Payload.size());
    Content.append(SimCacheMagic, sizeof(SimCacheMagic));
    appendU64(Content, SimCacheFileVersion);
    appendU64(Content, Entries.size());
    appendU64(Content,
              payloadChecksum(
                  reinterpret_cast<const unsigned char *>(Payload.data()),
                  Payload.size()));
    Content += Payload;
    return Content;
  };
  if (!updateFile(Path, Merge))
    return false;
  Dirty.store(false, std::memory_order_relaxed);
  return true;
}

bool SimCache::savePersistentIfDirty() {
  if (persistentPath().empty() || !Dirty.load(std::memory_order_relaxed))
    return false;
  return savePersistent();
}

//===----------------------------------------------------------------------===//
// Process-global cache
//===----------------------------------------------------------------------===//

namespace {

SimCacheConfig configFromEnvironment() {
  SimCacheConfig Config;
  if (const char *Env = std::getenv("METAOPT_SIM_CACHE")) {
    std::string Value(Env);
    if (Value == "0" || Value == "off" || Value == "OFF")
      Config.Enabled = false;
  }
  if (const char *Dir = std::getenv("METAOPT_CACHE_DIR"))
    Config.PersistentDir = Dir;
  return Config;
}

std::unique_ptr<SimCache> &globalSlot() {
  static std::unique_ptr<SimCache> Cache =
      std::make_unique<SimCache>(configFromEnvironment());
  return Cache;
}

} // namespace

SimCache &SimCache::global() { return *globalSlot(); }

void SimCache::configureGlobal(SimCacheConfig Config) {
  globalSlot() = std::make_unique<SimCache>(std::move(Config));
}

SimResult metaopt::cachedSimulateLoop(const Loop &L, unsigned Factor,
                                      const MachineModel &Machine,
                                      const SimContext &Ctx, bool EnableSwp,
                                      SimCache *Cache) {
  return (Cache ? *Cache : SimCache::global())
      .simulate(L, Factor, Machine, Ctx, EnableSwp);
}
