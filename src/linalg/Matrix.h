//===- linalg/Matrix.h - Dense matrix and vector ops ------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dense row-major matrix class plus the handful of vector
/// operations the learning algorithms need (LS-SVM kernel systems, LDA
/// scatter matrices). No expression templates, no cleverness: the matrices
/// are at most a few thousand square and the code favors clarity. The one
/// deliberate exception is Cholesky::factor, which is cache-blocked
/// because it dominates LS-SVM training; its contract is bit identity
/// with the plain scalar loop.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_LINALG_MATRIX_H
#define METAOPT_LINALG_MATRIX_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace metaopt {

/// Dense row-major matrix of doubles.
class Matrix {
public:
  Matrix() = default;

  /// Creates a Rows x Cols matrix filled with \p Fill.
  Matrix(size_t Rows, size_t Cols, double Fill = 0.0)
      : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, Fill) {}

  /// Returns the identity matrix of the given order.
  static Matrix identity(size_t N);

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }

  double &at(size_t Row, size_t Col) {
    assert(Row < NumRows && Col < NumCols && "matrix index out of range");
    return Data[Row * NumCols + Col];
  }
  double at(size_t Row, size_t Col) const {
    assert(Row < NumRows && Col < NumCols && "matrix index out of range");
    return Data[Row * NumCols + Col];
  }

  /// Raw row pointer; rows are contiguous.
  double *rowPtr(size_t Row) { return &Data[Row * NumCols]; }
  const double *rowPtr(size_t Row) const { return &Data[Row * NumCols]; }

  /// Returns this * Other. Dimensions must agree.
  Matrix multiply(const Matrix &Other) const;

  /// Returns the transpose.
  Matrix transpose() const;

  /// Returns this * V. V.size() must equal cols().
  std::vector<double> multiply(const std::vector<double> &V) const;

  /// Adds Value to every diagonal entry (must be square).
  void addToDiagonal(double Value);

  /// Frobenius-norm of (this - Other); dimensions must agree.
  double distanceFrom(const Matrix &Other) const;

private:
  size_t NumRows = 0;
  size_t NumCols = 0;
  std::vector<double> Data;
};

/// Dot product of two equal-length vectors.
double dotProduct(const std::vector<double> &A, const std::vector<double> &B);

/// Squared Euclidean distance between two equal-length vectors.
double squaredDistance(const std::vector<double> &A,
                       const std::vector<double> &B);

/// Euclidean norm.
double vectorNorm(const std::vector<double> &A);

/// A += Scale * B (in place); sizes must agree.
void addScaled(std::vector<double> &A, double Scale,
               const std::vector<double> &B);

} // namespace metaopt

#endif // METAOPT_LINALG_MATRIX_H
