//===- perfbench/src/Stats.cpp - Statistics and the result line -----------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::quantile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = P * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double perfbench::median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double perfbench::processCpuSeconds() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Secs(Usage.ru_utime) + Secs(Usage.ru_stime);
}

double perfbench::selfPeakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

double perfbench::stealTicksShare(uint64_t &Steal, uint64_t &Total) {
  std::FILE *In = std::fopen("/proc/stat", "r");
  unsigned long long Field[8] = {};
  bool Ok = In && std::fscanf(In, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &Field[0], &Field[1], &Field[2], &Field[3],
                              &Field[4], &Field[5], &Field[6], &Field[7]) == 8;
  if (In)
    std::fclose(In);
  if (!Ok)
    return -1;
  uint64_t NowTotal = 0;
  for (unsigned long long F : Field)
    NowTotal += F;
  double Share = NowTotal > Total ? 100.0 *
                                        static_cast<double>(Field[7] - Steal) /
                                        static_cast<double>(NowTotal - Total)
                                  : 0;
  Steal = Field[7];
  Total = NowTotal;
  return Share;
}

std::string Report::resultJson() const {
  std::string Out = "{\"correct\": ";
  Out += GateFailures.empty() && Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  char Buffer[64];
  for (const auto &[Name, M] : Metrics) {
    std::snprintf(Buffer, sizeof(Buffer), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Out += First ? "" : ", ";
    Out += "\"" + Name + "\": {\"value\": " + Buffer + ", \"unit\": \"" +
           M.Unit + "\"}";
    First = false;
  }
  Out += "}}";
  return Out;
}
