//===- core/ml/Kernel.cpp -------------------------------------------------===//

#include "core/ml/Kernel.h"

#include "concurrency/Parallel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace metaopt;

RbfKernel::RbfKernel(double SigmaSquaredIn) : SigmaSquared(SigmaSquaredIn) {
  assert(SigmaSquared > 0.0 && "kernel width must be positive");
}

double RbfKernel::operator()(const std::vector<double> &A,
                             const std::vector<double> &B) const {
  return std::exp(-squaredDistance(A, B) / (2.0 * SigmaSquared));
}

Matrix metaopt::kernelMatrix(
    const RbfKernel &Kernel,
    const std::vector<std::vector<double>> &Points) {
  size_t N = Points.size();
  Matrix K(N, N);
  if (N == 0)
    return K;
  size_t Dim = Points[0].size();
  std::vector<double> Flat(N * Dim);
  for (size_t I = 0; I < N; ++I) {
    assert(Points[I].size() == Dim && "points of different dimensions");
    std::copy(Points[I].begin(), Points[I].end(), Flat.begin() + I * Dim);
  }
  // Entry (I, J < I) is Kernel(Points[J], Points[I]): the same
  // differences, squares and sum as squaredDistance, in the same order,
  // then the same exp. Four such sums run side by side. Row I holds I
  // entries, so the rows go to the pool longest first.
  double Denominator = 2.0 * Kernel.sigmaSquared();
  parallelFor(0, N, [&](size_t Index) {
    size_t I = N - 1 - Index;
    const double *PI = Flat.data() + I * Dim;
    double *Row = K.rowPtr(I);
    size_t J = 0;
    for (; J + 4 <= I; J += 4) {
      const double *P0 = Flat.data() + J * Dim, *P1 = P0 + Dim, *P2 = P1 + Dim,
                   *P3 = P2 + Dim;
      double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
      for (size_t D = 0; D < Dim; ++D) {
        double D0 = P0[D] - PI[D], D1 = P1[D] - PI[D], D2 = P2[D] - PI[D],
               D3 = P3[D] - PI[D];
        S0 += D0 * D0;
        S1 += D1 * D1;
        S2 += D2 * D2;
        S3 += D3 * D3;
      }
      Row[J] = std::exp(-S0 / Denominator);
      Row[J + 1] = std::exp(-S1 / Denominator);
      Row[J + 2] = std::exp(-S2 / Denominator);
      Row[J + 3] = std::exp(-S3 / Denominator);
    }
    for (; J < I; ++J) {
      const double *PJ = Flat.data() + J * Dim;
      double Sum = 0.0;
      for (size_t D = 0; D < Dim; ++D) {
        double Diff = PJ[D] - PI[D];
        Sum += Diff * Diff;
      }
      Row[J] = std::exp(-Sum / Denominator);
    }
    Row[I] = 1.0; // RBF kernel of a point with itself.
  });
  return K;
}

std::vector<double> metaopt::kernelVector(
    const RbfKernel &Kernel, const std::vector<std::vector<double>> &Points,
    const std::vector<double> &Query) {
  std::vector<double> Values;
  Values.reserve(Points.size());
  for (const std::vector<double> &Point : Points)
    Values.push_back(Kernel(Point, Query));
  return Values;
}
