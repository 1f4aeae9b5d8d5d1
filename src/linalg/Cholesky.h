//===- linalg/Cholesky.h - Cholesky factorization ---------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cholesky factorization of symmetric positive-definite matrices, used to
/// train the LS-SVM (the regularized kernel system (K + I/gamma) a = y) and
/// to compute the inverse diagonal needed by the exact leave-one-out
/// shortcut. The factorization is cache-blocked, split over a thread pool
/// and, on x86 CPUs with AVX2, register-tiled in 4-wide vectors; its
/// contract is bit identity with the plain column-by-column loop at any
/// thread count and on either path: every entry of L sees the same
/// multiplies and subtracts in the same order.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_LINALG_CHOLESKY_H
#define METAOPT_LINALG_CHOLESKY_H

#include "linalg/Matrix.h"

#include <optional>
#include <vector>

namespace metaopt {

class Cholesky;

namespace detail {
struct CholeskyKernels;
std::optional<Cholesky> factorWith(Matrix A, const CholeskyKernels &Kernels);
} // namespace detail

/// Holds the lower-triangular Cholesky factor L with A = L * L^T.
class Cholesky {
public:
  /// Factors the symmetric positive-definite matrix \p A in place; only
  /// its lower triangle is read. Returns std::nullopt if A is not
  /// (numerically) positive definite. Each block step's panel solve and
  /// trailing update run on the global pool; inside a task of that pool
  /// they run inline.
  static std::optional<Cholesky> factor(Matrix A);

  /// Solves A x = b given the factorization.
  std::vector<double> solve(const std::vector<double> &B) const;

  /// Solves A X = B in one sweep over L for all columns; each column sees
  /// exactly the operations of a one-column forward and back substitution.
  Matrix solve(const Matrix &B) const;

  /// Returns the diagonal of A^-1. O(n^3) split over the global pool; the
  /// exact LOOCV shortcut needs nothing else of the inverse.
  std::vector<double> inverseDiagonal() const;

  size_t order() const { return Factor.rows(); }
  const Matrix &factorMatrix() const { return Factor; }

private:
  friend std::optional<Cholesky>
  detail::factorWith(Matrix A, const detail::CholeskyKernels &Kernels);

  explicit Cholesky(Matrix L) : Factor(std::move(L)) {}
  Matrix Factor;
};

} // namespace metaopt

#endif // METAOPT_LINALG_CHOLESKY_H
