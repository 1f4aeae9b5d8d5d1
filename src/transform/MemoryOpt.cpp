//===- transform/MemoryOpt.cpp --------------------------------------------===//

#include "transform/MemoryOpt.h"

#include "analysis/symbolic/Disjointness.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <vector>

using namespace metaopt;

namespace {

/// Exact-address key for forwarding and redundancy: two direct references
/// with equal keys touch the same bytes every iteration.
struct AddressKey {
  int32_t Sym;
  int64_t Stride;
  int64_t Offset;
  int32_t Size;

  bool operator==(const AddressKey &) const = default;
};

AddressKey keyOf(const MemRef &Ref) {
  return {Ref.BaseSym, Ref.Stride, Ref.Offset, Ref.SizeBytes};
}

/// True when two same-iteration references may touch common bytes.
bool mayOverlap(const MemRef &A, const MemRef &B) {
  if (A.BaseSym != B.BaseSym)
    return false;
  if (A.Indirect || B.Indirect)
    return true;
  if (A.Stride != B.Stride)
    return true; // Conservative: different walks can cross.
  int64_t Delta = std::llabs(A.Offset - B.Offset);
  return Delta < std::max(A.SizeBytes, B.SizeBytes);
}

/// Availability tables for one forward walk. Entries remember the access
/// summary of the instruction that produced them (null without a symbolic
/// analysis) so a later store can be proven disjoint instead of killing.
/// Each table holds at most one entry per key in a flat vector: the
/// tables stay small, nothing depends on their order, and a linear scan
/// beats a node-based map at these sizes.
class AvailabilityState {
public:
  AvailabilityState(const SymbolicAnalysis *SA, MemoryOptStats &Stats)
      : SA(SA), Stats(Stats) {}

  /// Kills every entry a write to \p Store could touch, then (for a clean
  /// direct store) records the stored value.
  void onStore(const Instruction &Store, const AccessSummary *Summary) {
    // A store proven never to execute writes nothing: it invalidates no
    // availability entry and provides no value.
    if (Summary && Summary->Guard == PredFact::AlwaysFalse) {
      ++Stats.DeadStoresIgnored;
      return;
    }
    killOverlapping(Store.Mem, Summary);
    bool Unpredicated = Store.Pred == NoReg;
    if (!Unpredicated && Summary &&
        Summary->Guard == PredFact::AlwaysTrue) {
      Unpredicated = true;
      ++Stats.PromotedGuards;
    }
    // A narrow store truncates the register on the way to memory (int64
    // to int32, double to float), so the stored register does not hold
    // the bytes a later load of the slot would produce; only full-width
    // stores may forward. Found by differential fuzzing
    // (tests/fuzz_seeds/). Load-to-load redundancy stays width-agnostic:
    // two loads of one slot narrow identically.
    if (!Store.Mem.Indirect && Unpredicated && Store.Mem.SizeBytes == 8)
      record(StoredValue, {keyOf(Store.Mem), Store.Operands[0], Store.Mem,
                           Summary});
  }

  void onCall() {
    StoredValue.clear();
    LoadedValue.clear();
  }

  /// Returns the register already holding the bytes \p Ref would load, or
  /// NoReg.
  RegId lookup(const MemRef &Ref, bool &FromStore) const {
    AddressKey Key = keyOf(Ref);
    if (const Entry *Store = find(StoredValue, Key)) {
      FromStore = true;
      return Store->Value;
    }
    if (const Entry *Load = find(LoadedValue, Key)) {
      FromStore = false;
      return Load->Value;
    }
    return NoReg;
  }

  void recordLoad(const Instruction &Load, const AccessSummary *Summary) {
    record(LoadedValue, {keyOf(Load.Mem), Load.Dest, Load.Mem, Summary});
  }

private:
  struct Entry {
    AddressKey Key;
    RegId Value = NoReg;
    MemRef Ref;
    const AccessSummary *Summary = nullptr;
  };

  static const Entry *find(const std::vector<Entry> &Table,
                           const AddressKey &Key) {
    for (const Entry &E : Table)
      if (E.Key == Key)
        return &E;
    return nullptr;
  }

  /// Inserts \p New, replacing the entry with the same key if any.
  static void record(std::vector<Entry> &Table, const Entry &New) {
    for (Entry &E : Table)
      if (E.Key == New.Key) {
        E = New;
        return;
      }
    Table.push_back(New);
  }

  void killOverlapping(const MemRef &Ref,
                       const AccessSummary *StoreSummary) {
    auto Sweep = [&](std::vector<Entry> &Table) {
      std::erase_if(Table, [&](const Entry &E) {
        if (!mayOverlap(E.Ref, Ref))
          return false;
        // Same-iteration disjointness proof: the write cannot touch the
        // bytes this entry holds, so the entry survives.
        if (SA && StoreSummary && E.Summary &&
            provesDisjoint(*SA, *E.Summary, *StoreSummary, 0)) {
          ++Stats.DisjointnessWins;
          return false;
        }
        return true;
      });
    };
    Sweep(StoredValue);
    Sweep(LoadedValue);
  }

  const SymbolicAnalysis *SA;
  MemoryOptStats &Stats;
  std::vector<Entry> StoredValue;
  std::vector<Entry> LoadedValue;
};

/// A pairing candidate: an unpredicated, direct, 8-byte strided load.
struct PairCandidate {
  int32_t Sym;
  int64_t Stride;
  int64_t Offset;
  uint32_t Index;

  auto operator<=>(const PairCandidate &) const = default;
};

} // namespace

MemoryOptStats metaopt::optimizeMemory(Loop &L,
                                       const SymbolicAnalysis *Symbolic) {
  MemoryOptStats Stats;
  std::vector<Instruction> &Body = L.body();

  //===------------------------------------------------------------------===
  // Pass 1: store-to-load forwarding and redundant load elimination.
  //===------------------------------------------------------------------===
  AvailabilityState Avail(Symbolic, Stats);
  // Replacement[R] is the register a dropped load's destination R now
  // reads from, NoReg for registers that were not replaced (and NoReg
  // itself resolves to NoReg).
  std::vector<RegId> Replacement(L.numRegs(), NoReg);
  auto Resolve = [&](RegId Reg) {
    while (Reg < Replacement.size() && Replacement[Reg] != NoReg)
      Reg = Replacement[Reg];
    return Reg;
  };

  // The body is compacted in place: surviving instructions move down to
  // Kept. Summaries ride along with them so pass 2 can consult the prover
  // by post-rewrite body index.
  std::vector<const AccessSummary *> Summaries;
  Summaries.reserve(Body.size());
  // The analysis's summaries are in body order; NextAccess walks them
  // alongside the body.
  const AccessSummary *NextAccess =
      Symbolic ? Symbolic->accesses().data() : nullptr;
  const AccessSummary *AccessEnd =
      Symbolic ? NextAccess + Symbolic->accesses().size() : nullptr;
  size_t Kept = 0;
  auto Keep = [&](Instruction &Instr, const AccessSummary *Summary) {
    if (&Body[Kept] != &Instr)
      Body[Kept] = std::move(Instr);
    ++Kept;
    Summaries.push_back(Summary);
  };
  for (uint32_t Index = 0; Index < Body.size(); ++Index) {
    Instruction &Instr = Body[Index];
    const AccessSummary *Summary = nullptr;
    if (NextAccess != AccessEnd && NextAccess->BodyIndex == Index)
      Summary = NextAccess++;
    // Rewrite operands through the replacement map first. (Replacements
    // preserve values, so the pre-pass summaries remain accurate.)
    for (RegId &Operand : Instr.Operands)
      Operand = Resolve(Operand);
    if (Instr.Pred != NoReg)
      Instr.Pred = Resolve(Instr.Pred);

    if (Instr.isCall()) {
      Avail.onCall();
      Keep(Instr, Summary);
      continue;
    }
    if (Instr.isStore()) {
      Avail.onStore(Instr, Summary);
      Keep(Instr, Summary);
      continue;
    }
    bool Predicated = Instr.Pred != NoReg;
    if (Predicated && Summary && Summary->Guard == PredFact::AlwaysTrue) {
      // The guard is proven true on every iteration: the load always
      // executes and its destination always holds the loaded bytes.
      Predicated = false;
      ++Stats.PromotedGuards;
    }
    if (!Instr.isLoad() || Instr.Mem.Indirect || Predicated) {
      Keep(Instr, Summary);
      continue;
    }

    bool FromStore = false;
    RegId Known = Avail.lookup(Instr.Mem, FromStore);
    if (Known != NoReg && L.regClass(Known) == L.regClass(Instr.Dest)) {
      // The bytes are already in a register: drop the load.
      Replacement[Instr.Dest] = Known;
      if (FromStore)
        ++Stats.ForwardedLoads;
      else
        ++Stats.RedundantLoads;
      continue;
    }
    Avail.recordLoad(Instr, Summary);
    Keep(Instr, Summary);
  }
  Body.erase(Body.begin() + static_cast<std::ptrdiff_t>(Kept), Body.end());
  for (PhiNode &Phi : L.phis())
    Phi.Recur = Resolve(Phi.Recur);

  //===------------------------------------------------------------------===
  // Pass 2: pair adjacent 8-byte loads into one wide access.
  //===------------------------------------------------------------------===
  // Candidates sorted by (sym, stride, offset, index): each (sym, stride)
  // group is one run, in ascending offset order.
  std::vector<PairCandidate> Candidates;
  for (uint32_t Index = 0; Index < Body.size(); ++Index) {
    const Instruction &Instr = Body[Index];
    bool Predicated = Instr.Pred != NoReg;
    if (Predicated && Summaries[Index] &&
        Summaries[Index]->Guard == PredFact::AlwaysTrue) {
      Predicated = false;
      ++Stats.PromotedGuards;
    }
    if (!Instr.isLoad() || Instr.Mem.Indirect || Predicated ||
        Instr.Paired || Instr.Mem.SizeBytes != 8 || Instr.Mem.Stride == 0)
      continue;
    Candidates.push_back(
        {Instr.Mem.BaseSym, Instr.Mem.Stride, Instr.Mem.Offset, Index});
  }
  std::sort(Candidates.begin(), Candidates.end());

  // A pair is only legal when no store to the same symbol sits between
  // the two loads (the wide access would read stale bytes) — unless the
  // prover certifies the store touches neither load's bytes on any
  // iteration.
  auto StoreBetween = [&](int32_t Sym, uint32_t Lo, uint32_t Hi) {
    for (uint32_t Index = Lo + 1; Index < Hi; ++Index) {
      const Instruction &Instr = Body[Index];
      if (Instr.isCall())
        return true;
      if (!Instr.isStore() ||
          (Instr.Mem.BaseSym != Sym && !Instr.Mem.Indirect))
        continue;
      if (Symbolic && Summaries[Index] && Summaries[Lo] && Summaries[Hi] &&
          provesDisjoint(*Symbolic, *Summaries[Lo], *Summaries[Index], 0) &&
          provesDisjoint(*Symbolic, *Summaries[Hi], *Summaries[Index], 0)) {
        ++Stats.DisjointnessWins;
        continue;
      }
      return true;
    }
    return false;
  };

  for (size_t I = 0; I + 1 < Candidates.size(); ++I) {
    const PairCandidate &A = Candidates[I], &B = Candidates[I + 1];
    if (A.Sym != B.Sym || A.Stride != B.Stride)
      continue; // B starts the next group.
    if (B.Offset - A.Offset != 8)
      continue;
    if (Body[A.Index].Paired || Body[B.Index].Paired)
      continue;
    uint32_t Lo = std::min(A.Index, B.Index);
    uint32_t Hi = std::max(A.Index, B.Index);
    if (StoreBetween(A.Sym, Lo, Hi))
      continue;
    // The later body position rides along with the earlier one.
    Body[Hi].Paired = true;
    ++Stats.PairedLoads;
    ++I; // Neither half may join another pair.
  }
  return Stats;
}
