//===- core/ml/LsSvm.h - Least squares SVM ----------------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Least-squares support vector machine machinery. The paper prototyped
/// its SVM with the LS-SVMlab Matlab toolkit [13]; the LS-SVM formulation
/// turns training into one symmetric positive-definite linear solve
///
///     [ K + I/gamma   1 ] [alpha]   [y]
///     [ 1^T           0 ] [  b  ] = [0]
///
/// which this class solves via a Cholesky factorization of A = K + I/gamma
/// and the bordered-system identities. Because the factorization depends
/// only on the inputs (not the labels), all binary problems of a
/// multi-class output code share one factorization, and the exact
/// closed-form leave-one-out decision values
///
///     f_{-i}(x_i) = y_i - alpha_i / (C^{-1})_{ii}
///
/// (Cawley's LS-SVM LOO identity, with C the bordered matrix) make
/// full-dataset LOOCV cost one inverse diagonal total.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_LSSVM_H
#define METAOPT_CORE_ML_LSSVM_H

#include "core/ml/Kernel.h"
#include "linalg/Cholesky.h"

#include <memory>
#include <optional>
#include <vector>

namespace metaopt {

/// One trained binary LS-SVM: dual weights plus bias. Decision values are
/// computed against the shared training points.
struct LsSvmBinary {
  std::vector<double> Alpha;
  double Bias = 0.0;

  /// f(x) = sum_i Alpha_i * K(x_i, x) + Bias given precomputed kernel
  /// evaluations K(x_i, query).
  double decision(const std::vector<double> &KernelValues) const;
};

/// The label-independent part of LS-SVM training, shared by all binary
/// subproblems on the same training points.
class LsSvmSolver {
public:
  /// Factors A = K + I/gamma over \p Points. Returns std::nullopt when the
  /// system is not positive definite (for gamma > 0 only a non-finite
  /// point makes it so). When \p Machines is given, the
  /// bordered system is also solved for every label vector in \p Labels,
  /// in the same sweep over the factor that computes A^{-1} 1, and the
  /// results replace *Machines in order; each equals solve(Labels[b]).
  static std::optional<LsSvmSolver>
  create(const std::vector<std::vector<double>> &Points,
         const RbfKernel &Kernel, double Gamma,
         const std::vector<std::vector<double>> &Labels = {},
         std::vector<LsSvmBinary> *Machines = nullptr);

  /// Solves the bordered system for labels \p Y (+1/-1).
  LsSvmBinary solve(const std::vector<double> &Y) const;

  /// Exact leave-one-out decision values for a trained binary problem.
  /// Triggers the one-time O(n^3) inverse diagonal on first call.
  std::vector<double> looDecisions(const std::vector<double> &Y,
                                   const LsSvmBinary &Trained);

  size_t numPoints() const { return V.size(); }

private:
  LsSvmSolver(Cholesky Factor, std::vector<double> V, double S);

  /// The machine for labels y from eta = A^{-1} y.
  LsSvmBinary fromEta(std::vector<double> Eta) const;

  Cholesky Factor;        ///< Cholesky of A = K + I/gamma.
  std::vector<double> V;  ///< A^{-1} * 1.
  double S = 0.0;         ///< 1^T A^{-1} 1.
  /// diag(C^{-1}) = diag(A^{-1}) - v_i^2 / s; cached after first LOOCV.
  std::vector<double> BorderedInverseDiag;
};

} // namespace metaopt

#endif // METAOPT_CORE_ML_LSSVM_H
