//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//

#include "Harness.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

int Tracer::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Start = std::chrono::duration<double>(Clock::now() - Origin).count();
  Spans.push_back(std::move(S));
  int Index = static_cast<int>(Spans.size()) - 1;
  Stack.push_back(Index);
  return Index;
}

void Tracer::close(int Index) {
  Spans[Index].End =
      std::chrono::duration<double>(Clock::now() - Origin).count();
  // Spans close in LIFO order; tolerate a mismatch by unwinding to Index.
  while (!Stack.empty()) {
    int Top = Stack.back();
    Stack.pop_back();
    if (Top == Index)
      break;
  }
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[S.Parent].emplace_back(S.Start, S.End);

  std::map<std::string, SpanTotals> Totals;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Covered = length of the union of the children's intervals, clipped
    // to this span (children of one thread never overlap, but the union
    // keeps the arithmetic right for any input).
    std::vector<std::pair<double, double>> &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    double Covered = 0, RunStart = 0, RunEnd = 0;
    bool InRun = false;
    for (auto [Lo, Hi] : Kids) {
      Lo = std::max(Lo, S.Start);
      Hi = std::min(Hi, S.End);
      if (Hi <= Lo)
        continue;
      if (InRun && Lo <= RunEnd) {
        RunEnd = std::max(RunEnd, Hi);
        continue;
      }
      if (InRun)
        Covered += RunEnd - RunStart;
      RunStart = Lo;
      RunEnd = Hi;
      InRun = true;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    SpanTotals &T = Totals[S.Name];
    T.SelfSeconds += std::max(0.0, (S.End - S.Start) - Covered);
    ++T.Calls;
  }
  return Totals;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I)
    std::fprintf(Out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d}\n",
                 I, Spans[I].Name.c_str(), Spans[I].Start, Spans[I].End,
                 Spans[I].Parent);
  return std::fclose(Out) == 0;
}
