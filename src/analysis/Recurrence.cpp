//===- analysis/Recurrence.cpp --------------------------------------------===//

#include "analysis/Recurrence.h"

#include "analysis/Latency.h"

#include <algorithm>
#include <vector>

using namespace metaopt;

double metaopt::recurrenceMII(const Loop &L, const DependenceGraph &DG) {
  return recurrenceMII(L, DG, [](Opcode Op) { return defaultLatency(Op); });
}

double metaopt::recurrenceMII(const Loop &L, const DependenceGraph &DG,
                              const std::function<int(Opcode)> &LatencyFn) {
  size_t N = DG.numNodes();
  constexpr int Unreachable = -1;

  auto EdgeDelay = [&](const DepEdge &Edge) {
    switch (Edge.Kind) {
    case DepKind::Data:
      return LatencyFn(L.body()[Edge.Src].Op);
    case DepKind::Memory:
      return 1;
    case DepKind::Control:
      return 0;
    }
    return 0;
  };

  // Longest intra-iteration delay path from a given source to every node;
  // memoized per source (an empty entry is not computed yet) since several
  // carried edges may share one.
  std::vector<std::vector<int>> PathCache(N);
  auto LongestFrom = [&](uint32_t Source) -> const std::vector<int> & {
    std::vector<int> &Dist = PathCache[Source];
    if (!Dist.empty())
      return Dist;
    Dist.assign(N, Unreachable);
    Dist[Source] = 0;
    // Body order is a topological order of the distance-0 subgraph.
    for (uint32_t Node = Source; Node < N; ++Node) {
      if (Dist[Node] == Unreachable)
        continue;
      for (uint32_t EdgeIdx : DG.successors(Node)) {
        const DepEdge &Edge = DG.edge(EdgeIdx);
        if (Edge.Distance != 0)
          continue;
        Dist[Edge.Dst] = std::max(Dist[Edge.Dst],
                                  Dist[Node] + EdgeDelay(Edge));
      }
    }
    return Dist;
  };

  double MII = 1.0;
  for (const DepEdge &Edge : DG.edges()) {
    if (Edge.Distance == 0)
      continue;
    int BackDelay = EdgeDelay(Edge);
    // Carried control edges (call-to-call serialization) wait out the full
    // latency of the source, unlike intra-iteration ordering.
    if (Edge.Kind == DepKind::Control)
      BackDelay = LatencyFn(L.body()[Edge.Src].Op);
    if (Edge.Src == Edge.Dst) {
      // Self-recurrence (e.g. a call serializing with itself).
      MII = std::max(MII, static_cast<double>(BackDelay) / Edge.Distance);
      continue;
    }
    const std::vector<int> &Dist = LongestFrom(Edge.Dst);
    if (Dist[Edge.Src] == Unreachable)
      continue; // Not part of a single-carried-edge cycle.
    double CycleLatency = Dist[Edge.Src] + BackDelay;
    MII = std::max(MII, CycleLatency / Edge.Distance);
  }
  return MII;
}
