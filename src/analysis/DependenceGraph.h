//===- analysis/DependenceGraph.h - Loop dependence graph -------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the dependence graph of a loop body: register flow dependences
/// (including loop-carried ones through phis), memory dependences with
/// symbolic distance computation from the linear address forms, and
/// control dependences around early exits and calls. The graph drives the
/// schedulers, the recurrence-MII computation, and several paper features
/// (dependence heights, number of "computations", memory-to-memory
/// dependence counts and minimum distance).
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_ANALYSIS_DEPENDENCEGRAPH_H
#define METAOPT_ANALYSIS_DEPENDENCEGRAPH_H

#include "ir/Loop.h"

#include <cstdint>
#include <span>
#include <vector>

namespace metaopt {

/// Kind of a dependence edge.
enum class DepKind {
  Data,    ///< Register flow dependence.
  Memory,  ///< Memory ordering/flow dependence.
  Control, ///< Ordering around exits, calls, and the backedge.
};

/// A dependence from body instruction Src (iteration i) to body
/// instruction Dst (iteration i + Distance).
struct DepEdge {
  uint32_t Src = 0;
  uint32_t Dst = 0;
  DepKind Kind = DepKind::Data;
  /// Iteration distance: 0 for intra-iteration, >= 1 for loop-carried.
  uint32_t Distance = 0;
  /// True for Control edges a scheduler may ignore by speculating the
  /// destination (pure computations hoisted above a possible early exit).
  bool Speculatable = false;
};

/// The dependence graph over the body instructions of one loop.
class DependenceGraph {
public:
  /// Analyzes \p L. The loop must be well-formed.
  explicit DependenceGraph(const Loop &L);

  size_t numNodes() const { return NumNodes; }
  const std::vector<DepEdge> &edges() const { return Edges; }

  /// Outgoing edge indices of node \p Node, ascending.
  std::span<const uint32_t> successors(uint32_t Node) const {
    return Out.of(Node);
  }
  /// Incoming edge indices of node \p Node, ascending.
  std::span<const uint32_t> predecessors(uint32_t Node) const {
    return In.of(Node);
  }

  const DepEdge &edge(uint32_t Index) const { return Edges[Index]; }

  /// Number of memory-to-memory dependences (any distance). Paper feature.
  unsigned numMemoryDeps() const { return NumMemoryDeps; }

  /// Minimum loop-carried memory-to-memory dependence distance, or 0 when
  /// there is none. Paper feature ("min. memory-to-memory loop-carried
  /// dependence").
  unsigned minCarriedMemoryDistance() const {
    return MinCarriedMemoryDistance;
  }

private:
  void addEdge(uint32_t Src, uint32_t Dst, DepKind Kind, uint32_t Distance,
               bool Speculatable = false);
  void buildRegisterDeps(const Loop &L);
  void buildMemoryDeps(const Loop &L);
  void buildControlDeps(const Loop &L);

  /// Compressed adjacency of one direction: node N's edge indices are
  /// Index[Offsets[N] .. Offsets[N + 1]).
  struct Adjacency {
    std::vector<uint32_t> Offsets;
    std::vector<uint32_t> Index;

    std::span<const uint32_t> of(uint32_t Node) const {
      return {Index.data() + Offsets[Node], Index.data() + Offsets[Node + 1]};
    }
  };

  size_t NumNodes = 0;
  std::vector<DepEdge> Edges;
  Adjacency Out;
  Adjacency In;
  unsigned NumMemoryDeps = 0;
  unsigned MinCarriedMemoryDistance = 0;
};

} // namespace metaopt

#endif // METAOPT_ANALYSIS_DEPENDENCEGRAPH_H
