//===- gateway/HashRing.cpp -----------------------------------------------===//

#include "gateway/HashRing.h"

#include "ir/Parser.h"
#include "ir/Printer.h"

#include <algorithm>

using namespace metaopt;

void HashRing::addNode(const std::string &Name, unsigned VirtualNodes) {
  size_t Index = Nodes.size();
  Nodes.push_back(Name);
  if (VirtualNodes == 0)
    VirtualNodes = 1;
  for (unsigned Replica = 0; Replica < VirtualNodes; ++Replica) {
    FingerprintHasher H;
    H.str("metaopt-hash-ring-v1");
    H.str(Name);
    H.u64(Replica);
    Fingerprint Fp = H.digest();
    // Fold both lanes so the point position uses the full fingerprint.
    Points.push_back({Fp.Lo ^ (Fp.Hi * 0x9e3779b97f4a7c15ULL), Index});
  }
  std::sort(Points.begin(), Points.end());
}

std::vector<size_t> HashRing::route(const Fingerprint &Key) const {
  std::vector<size_t> Order;
  if (Nodes.empty())
    return Order;
  Order.reserve(Nodes.size());
  std::vector<bool> Seen(Nodes.size(), false);

  uint64_t Position = Key.Lo ^ (Key.Hi * 0x9e3779b97f4a7c15ULL);
  size_t Start = 0;
  // First point at or after the key's position (wrapping at the top).
  auto It = std::lower_bound(
      Points.begin(), Points.end(), Point{Position, 0},
      [](const Point &A, const Point &B) { return A.Position < B.Position; });
  if (It != Points.end())
    Start = static_cast<size_t>(It - Points.begin());

  for (size_t I = 0; I < Points.size() && Order.size() < Nodes.size(); ++I) {
    const Point &P = Points[(Start + I) % Points.size()];
    if (Seen[P.Node])
      continue;
    Seen[P.Node] = true;
    Order.push_back(P.Node);
  }
  return Order;
}

Fingerprint metaopt::loopRoutingKey(const std::string &LoopText) {
  FingerprintHasher H;
  H.str("metaopt-routing-key-v1");
  ParseResult Parsed = parseLoops(LoopText);
  if (Parsed.succeeded() && !Parsed.Loops.empty()) {
    std::string Printed;
    for (const Loop &L : Parsed.Loops) {
      Printed.clear();
      appendLoop(Printed, L);
      H.str(Printed);
    }
  } else {
    H.str(LoopText);
  }
  return H.digest();
}
