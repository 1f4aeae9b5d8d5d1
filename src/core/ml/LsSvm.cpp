//===- core/ml/LsSvm.cpp --------------------------------------------------===//

#include "core/ml/LsSvm.h"

#include <cassert>

using namespace metaopt;

double LsSvmBinary::decision(const std::vector<double> &KernelValues) const {
  assert(KernelValues.size() == Alpha.size() &&
         "kernel vector size mismatch");
  return dotProduct(Alpha, KernelValues) + Bias;
}

LsSvmSolver::LsSvmSolver(Cholesky FactorIn, std::vector<double> VIn,
                         double SIn)
    : Factor(std::move(FactorIn)), V(std::move(VIn)), S(SIn) {}

std::optional<LsSvmSolver>
LsSvmSolver::create(const std::vector<std::vector<double>> &Points,
                    const RbfKernel &Kernel, double Gamma,
                    const std::vector<std::vector<double>> &Labels,
                    std::vector<LsSvmBinary> *Machines) {
  assert(!Points.empty() && "cannot train on an empty set");
  assert(Gamma > 0.0 && "regularization must be positive");
  Matrix A = kernelMatrix(Kernel, Points);
  A.addToDiagonal(1.0 / Gamma);
  std::optional<Cholesky> Factor = Cholesky::factor(std::move(A));
  if (!Factor)
    return std::nullopt;
  assert((Machines || Labels.empty()) && "labels given without Machines");
  // Column 0 is the ones vector; column 1 + b holds Labels[b].
  size_t N = Points.size();
  Matrix Rhs(N, 1 + Labels.size());
  for (size_t I = 0; I < N; ++I) {
    Rhs.at(I, 0) = 1.0;
    for (size_t B = 0; B < Labels.size(); ++B) {
      assert(Labels[B].size() == N && "label vector size mismatch");
      Rhs.at(I, 1 + B) = Labels[B][I];
    }
  }
  Matrix Solved = Factor->solve(Rhs);
  std::vector<double> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = Solved.at(I, 0);
  double S = 0.0;
  for (double Value : V)
    S += Value;
  if (S <= 0.0)
    return std::nullopt; // A^{-1} is PD, so s > 0 always holds.
  LsSvmSolver Solver(std::move(*Factor), std::move(V), S);
  if (Machines) {
    Machines->clear();
    for (size_t B = 0; B < Labels.size(); ++B) {
      std::vector<double> Eta(N);
      for (size_t I = 0; I < N; ++I)
        Eta[I] = Solved.at(I, 1 + B);
      Machines->push_back(Solver.fromEta(std::move(Eta)));
    }
  }
  return Solver;
}

LsSvmBinary LsSvmSolver::solve(const std::vector<double> &Y) const {
  assert(Y.size() == V.size() && "label vector size mismatch");
  return fromEta(Factor.solve(Y));
}

LsSvmBinary LsSvmSolver::fromEta(std::vector<double> Eta) const {
  // b = (1^T eta) / (1^T A^{-1} 1); alpha = eta - b * v.
  double EtaSum = 0.0;
  for (double Value : Eta)
    EtaSum += Value;
  LsSvmBinary Result;
  Result.Bias = EtaSum / S;
  Result.Alpha = std::move(Eta);
  addScaled(Result.Alpha, -Result.Bias, V);
  return Result;
}

std::vector<double>
LsSvmSolver::looDecisions(const std::vector<double> &Y,
                          const LsSvmBinary &Trained) {
  assert(Y.size() == V.size() && Trained.Alpha.size() == V.size() &&
         "LOOCV input size mismatch");
  if (BorderedInverseDiag.empty()) {
    // One-time O(n^3): diag(C^{-1}) from the block inverse of the bordered
    // system, diag(A^{-1}) - v_i^2 / s.
    BorderedInverseDiag = Factor.inverseDiagonal();
    for (size_t I = 0; I < V.size(); ++I)
      BorderedInverseDiag[I] -= V[I] * V[I] / S;
  }
  std::vector<double> Decisions(V.size());
  for (size_t I = 0; I < V.size(); ++I) {
    assert(BorderedInverseDiag[I] > 0.0 &&
           "bordered inverse diagonal must stay positive");
    Decisions[I] = Y[I] - Trained.Alpha[I] / BorderedInverseDiag[I];
  }
  return Decisions;
}
