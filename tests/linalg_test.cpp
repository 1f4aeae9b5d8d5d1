//===- tests/linalg_test.cpp - Unit tests for src/linalg ------------------===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//

#include "concurrency/ThreadPool.h"
#include "core/ml/Kernel.h"
#include "linalg/Cholesky.h"
#include "linalg/CholeskyKernels.h"
#include "linalg/Eigen.h"
#include "linalg/Matrix.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

using namespace metaopt;

namespace {

/// Random symmetric positive-definite matrix A = B^T B + eps I.
Matrix randomSpd(size_t N, Rng &Generator, double Ridge = 0.5) {
  Matrix B(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      B.at(I, J) = Generator.nextGaussian();
  Matrix A = B.transpose().multiply(B);
  A.addToDiagonal(Ridge);
  return A;
}

std::vector<double> randomVector(size_t N, Rng &Generator) {
  std::vector<double> V(N);
  for (double &X : V)
    X = Generator.nextGaussian();
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Matrix
//===----------------------------------------------------------------------===//

TEST(MatrixTest, IdentityMultiplication) {
  Rng Generator(1);
  Matrix A = randomSpd(5, Generator);
  Matrix I = Matrix::identity(5);
  EXPECT_LT(A.multiply(I).distanceFrom(A), 1e-12);
  EXPECT_LT(I.multiply(A).distanceFrom(A), 1e-12);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix A(2, 3);
  A.at(0, 0) = 1;
  A.at(0, 1) = 2;
  A.at(0, 2) = 3;
  A.at(1, 0) = 4;
  A.at(1, 1) = 5;
  A.at(1, 2) = 6;
  Matrix B(3, 1);
  B.at(0, 0) = 7;
  B.at(1, 0) = 8;
  B.at(2, 0) = 9;
  Matrix C = A.multiply(B);
  EXPECT_DOUBLE_EQ(C.at(0, 0), 50.0);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 122.0);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng Generator(2);
  Matrix A(3, 7);
  for (size_t I = 0; I < 3; ++I)
    for (size_t J = 0; J < 7; ++J)
      A.at(I, J) = Generator.nextGaussian();
  EXPECT_LT(A.transpose().transpose().distanceFrom(A), 1e-15);
}

TEST(MatrixTest, MatrixVectorAgainstMatrixMatrix) {
  Rng Generator(3);
  Matrix A = randomSpd(6, Generator);
  std::vector<double> V = randomVector(6, Generator);
  std::vector<double> Direct = A.multiply(V);
  Matrix Column(6, 1);
  for (size_t I = 0; I < 6; ++I)
    Column.at(I, 0) = V[I];
  Matrix Product = A.multiply(Column);
  for (size_t I = 0; I < 6; ++I)
    EXPECT_NEAR(Direct[I], Product.at(I, 0), 1e-12);
}

TEST(MatrixTest, VectorHelpers) {
  std::vector<double> A = {1, 2, 3};
  std::vector<double> B = {4, -5, 6};
  EXPECT_DOUBLE_EQ(dotProduct(A, B), 12.0);
  EXPECT_DOUBLE_EQ(squaredDistance(A, B), 9 + 49 + 9);
  EXPECT_DOUBLE_EQ(vectorNorm({3, 4}), 5.0);
  addScaled(A, 2.0, B);
  EXPECT_DOUBLE_EQ(A[0], 9.0);
  EXPECT_DOUBLE_EQ(A[1], -8.0);
}

//===----------------------------------------------------------------------===//
// Cholesky
//===----------------------------------------------------------------------===//

TEST(CholeskyTest, FactorReconstructs) {
  Rng Generator(4);
  Matrix A = randomSpd(8, Generator);
  auto Factor = Cholesky::factor(A);
  ASSERT_TRUE(Factor.has_value());
  const Matrix &L = Factor->factorMatrix();
  Matrix Reconstructed = L.multiply(L.transpose());
  EXPECT_LT(Reconstructed.distanceFrom(A), 1e-9);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix A(2, 2);
  A.at(0, 0) = 1;
  A.at(0, 1) = 2;
  A.at(1, 0) = 2;
  A.at(1, 1) = 1; // Eigenvalues 3 and -1.
  EXPECT_FALSE(Cholesky::factor(A).has_value());
}

TEST(CholeskyTest, SolveSatisfiesSystem) {
  Rng Generator(5);
  for (size_t N : {1u, 2u, 5u, 20u}) {
    Matrix A = randomSpd(N, Generator);
    std::vector<double> B = randomVector(N, Generator);
    auto Factor = Cholesky::factor(A);
    ASSERT_TRUE(Factor.has_value());
    std::vector<double> X = Factor->solve(B);
    std::vector<double> Residual = A.multiply(X);
    addScaled(Residual, -1.0, B);
    EXPECT_LT(vectorNorm(Residual), 1e-8) << "order " << N;
  }
}

TEST(CholeskyTest, MatrixSolveMatchesColumnSolves) {
  Rng Generator(6);
  Matrix A = randomSpd(6, Generator);
  Matrix B(6, 3);
  for (size_t I = 0; I < 6; ++I)
    for (size_t J = 0; J < 3; ++J)
      B.at(I, J) = Generator.nextGaussian();
  auto Factor = Cholesky::factor(A);
  ASSERT_TRUE(Factor.has_value());
  Matrix X = Factor->solve(B);
  for (size_t J = 0; J < 3; ++J) {
    std::vector<double> Column(6);
    for (size_t I = 0; I < 6; ++I)
      Column[I] = B.at(I, J);
    std::vector<double> Xj = Factor->solve(Column);
    for (size_t I = 0; I < 6; ++I)
      EXPECT_NEAR(X.at(I, J), Xj[I], 1e-10);
  }
}

TEST(CholeskyTest, InverseTimesOriginalIsIdentity) {
  Rng Generator(7);
  Matrix A = randomSpd(10, Generator);
  auto Factor = Cholesky::factor(A);
  ASSERT_TRUE(Factor.has_value());
  // Column j of A^-1 solves A x = e_j; the diagonal must match those
  // columns' j-th entries, and the columns must invert A.
  Matrix Inverse = Factor->solve(Matrix::identity(10));
  EXPECT_LT(A.multiply(Inverse).distanceFrom(Matrix::identity(10)), 1e-8);
  std::vector<double> Diagonal = Factor->inverseDiagonal();
  ASSERT_EQ(Diagonal.size(), 10u);
  for (size_t J = 0; J < 10; ++J)
    EXPECT_NEAR(Diagonal[J], Inverse.at(J, J), 1e-10) << "entry " << J;
}

/// Property: solve(A, A*x) == x for random systems of several orders.
class CholeskyRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRoundTrip, SolveInvertsMultiply) {
  Rng Generator(100 + GetParam());
  size_t N = static_cast<size_t>(GetParam());
  Matrix A = randomSpd(N, Generator);
  std::vector<double> X = randomVector(N, Generator);
  std::vector<double> B = A.multiply(X);
  auto Factor = Cholesky::factor(A);
  ASSERT_TRUE(Factor.has_value());
  std::vector<double> Solved = Factor->solve(B);
  addScaled(Solved, -1.0, X);
  EXPECT_LT(vectorNorm(Solved), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Orders, CholeskyRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===//
// Cholesky bit identity
//===----------------------------------------------------------------------===//

namespace {

/// The plain column-by-column loops the blocked factorization, the
/// one-sweep solve and inverseDiagonal() must reproduce to the last bit.
/// Kept verbatim from the original scalar implementation.
namespace oracle {

std::optional<Matrix> factor(const Matrix &A) {
  size_t N = A.rows();
  Matrix L(N, N);
  for (size_t J = 0; J < N; ++J) {
    double Diag = A.at(J, J);
    const double *LRowJ = L.rowPtr(J);
    for (size_t K = 0; K < J; ++K)
      Diag -= LRowJ[K] * LRowJ[K];
    if (Diag <= 0.0 || !std::isfinite(Diag))
      return std::nullopt;
    double Pivot = std::sqrt(Diag);
    L.at(J, J) = Pivot;
    for (size_t I = J + 1; I < N; ++I) {
      double Sum = A.at(I, J);
      const double *LRowI = L.rowPtr(I);
      for (size_t K = 0; K < J; ++K)
        Sum -= LRowI[K] * LRowJ[K];
      L.at(I, J) = Sum / Pivot;
    }
  }
  return L;
}

std::vector<double> solve(const Matrix &Factor, const std::vector<double> &B) {
  size_t N = Factor.rows();
  std::vector<double> Y(N);
  for (size_t I = 0; I < N; ++I) {
    double Sum = B[I];
    const double *Row = Factor.rowPtr(I);
    for (size_t K = 0; K < I; ++K)
      Sum -= Row[K] * Y[K];
    Y[I] = Sum / Row[I];
  }
  std::vector<double> X(N);
  for (size_t I = N; I-- > 0;) {
    double Sum = Y[I];
    for (size_t K = I + 1; K < N; ++K)
      Sum -= Factor.at(K, I) * X[K];
    X[I] = Sum / Factor.at(I, I);
  }
  return X;
}

/// The diagonal of the original full inverse: L^-1 column by column, then
/// the J == I entries of L^-T L^-1.
std::vector<double> inverseDiagonal(const Matrix &Factor) {
  size_t N = Factor.rows();
  Matrix Linv(N, N);
  for (size_t J = 0; J < N; ++J) {
    Linv.at(J, J) = 1.0 / Factor.at(J, J);
    for (size_t I = J + 1; I < N; ++I) {
      double Sum = 0.0;
      const double *Row = Factor.rowPtr(I);
      for (size_t K = J; K < I; ++K)
        Sum -= Row[K] * Linv.at(K, J);
      Linv.at(I, J) = Sum / Row[I];
    }
  }
  std::vector<double> Diagonal(N);
  for (size_t I = 0; I < N; ++I) {
    double Sum = 0.0;
    for (size_t K = I; K < N; ++K)
      Sum += Linv.at(K, I) * Linv.at(K, I);
    Diagonal[I] = Sum;
  }
  return Diagonal;
}

} // namespace oracle

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

bool sameBits(const Matrix &A, const Matrix &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    return false;
  for (size_t I = 0; I < A.rows(); ++I)
    if (std::memcmp(A.rowPtr(I), B.rowPtr(I), A.cols() * sizeof(double)))
      return false;
  return true;
}

/// A symmetric matrix with uniform off-diagonal entries in (-1, 1) and N on
/// the diagonal: positive definite by diagonal dominance, and cheap to
/// build at order 1000.
Matrix dominantSpd(size_t N, Rng &Generator) {
  Matrix A(N, N);
  for (size_t I = 0; I < N; ++I) {
    A.at(I, I) = static_cast<double>(N);
    for (size_t J = 0; J < I; ++J)
      A.at(I, J) = A.at(J, I) = Generator.nextDoubleInRange(-1.0, 1.0);
  }
  return A;
}

/// The LS-SVM system K + I/gamma for N Gaussian points in 10-D, with the
/// RBF width the SVM uses on 10 features and gamma = 10. Like every
/// kernelMatrix it fills only the lower triangle, all the factor reads.
Matrix rbfSystem(size_t N, Rng &Generator) {
  std::vector<std::vector<double>> Points(N);
  for (std::vector<double> &Point : Points)
    Point = randomVector(10, Generator);
  Matrix A = kernelMatrix(RbfKernel(10.0), Points);
  A.addToDiagonal(1.0 / 10.0);
  return A;
}

/// Factors \p A with \p Kernels (the public entry points, and so the set
/// this process picked, when null) and with the oracle, and memcmps the
/// factor and the inverse diagonal on global pools of 1, 2 and 4 threads,
/// then a vector solve and a three-column solve (column by column against
/// the oracle's vector solve).
void expectMatchesOracle(const Matrix &A, Rng &Generator,
                         const detail::CholeskyKernels *Kernels = nullptr) {
  size_t N = A.rows();
  auto Factor = [&] {
    return Kernels ? detail::factorWith(A, *Kernels) : Cholesky::factor(A);
  };
  auto InverseDiagonal = [&](const Cholesky &F) {
    return Kernels ? detail::inverseDiagonalWith(F, *Kernels)
                   : F.inverseDiagonal();
  };
  std::optional<Matrix> Expected = oracle::factor(A);
  ASSERT_TRUE(Expected.has_value());
  std::vector<double> ExpectedDiagonal = oracle::inverseDiagonal(*Expected);
  for (unsigned Threads : {1u, 2u, 4u}) {
    ThreadPool::setGlobalThreads(Threads);
    std::optional<Cholesky> Factored = Factor();
    std::vector<double> Diagonal;
    if (Factored)
      Diagonal = InverseDiagonal(*Factored);
    ThreadPool::setGlobalThreads(0); // Restore the default pool.
    ASSERT_TRUE(Factored.has_value()) << Threads << " threads";
    EXPECT_TRUE(sameBits(Factored->factorMatrix(), *Expected))
        << Threads << " threads";
    EXPECT_TRUE(sameBits(Diagonal, ExpectedDiagonal)) << Threads << " threads";
  }

  std::optional<Cholesky> Factored = Factor();
  ASSERT_TRUE(Factored.has_value());
  std::vector<double> B = randomVector(N, Generator);
  EXPECT_TRUE(sameBits(Factored->solve(B), oracle::solve(*Expected, B)));

  Matrix Rhs(N, 3);
  for (size_t I = 0; I < N; ++I)
    for (size_t C = 0; C < 3; ++C)
      Rhs.at(I, C) = Generator.nextGaussian();
  Matrix X = Factored->solve(Rhs);
  for (size_t C = 0; C < 3; ++C) {
    std::vector<double> Column(N), Solved(N);
    for (size_t I = 0; I < N; ++I) {
      Column[I] = Rhs.at(I, C);
      Solved[I] = X.at(I, C);
    }
    EXPECT_TRUE(sameBits(Solved, oracle::solve(*Expected, Column)))
        << "column " << C;
  }
}

/// Both test systems of order \p N through one kernel set.
void expectKernelsMatchOracle(size_t N,
                              const detail::CholeskyKernels &Kernels) {
  Rng Generator(500 + N);
  {
    SCOPED_TRACE("diagonally dominant");
    expectMatchesOracle(dominantSpd(N, Generator), Generator, &Kernels);
  }
  {
    SCOPED_TRACE("RBF kernel system");
    expectMatchesOracle(rbfSystem(N, Generator), Generator, &Kernels);
  }
}

} // namespace

/// Orders around the register tile (4), the old (32) and current (64)
/// block widths and two blocks, a multi-block order that leaves ragged
/// tiles, and the Figure 4 fit size. Below 64 there is one block and no
/// trailing update; 5 to 9 give the inverse's first column group a lone
/// row past its head, then one pair, a pair and a lone row, and so on,
/// and all but 8 a last group of fewer than 4 columns. Past one block,
/// the first pass has ceil((N - 64) / 4) trailing strips: 1 at 65 and 67,
/// 2 at 71 and 72, 3 at 76 and 17 at 129; 65, 67, 71 and 129 end in a
/// ragged strip. Strip SI updates SI + 1 tiles, which the AVX2 kernel
/// takes two column strips at a time, so every even SI ends on a lone
/// diagonal tile.
class CholeskyBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyBitIdentity, RandomSpdMatchesOracle) {
  Rng Generator(300 + GetParam());
  expectMatchesOracle(dominantSpd(static_cast<size_t>(GetParam()), Generator),
                      Generator);
}

TEST_P(CholeskyBitIdentity, RbfKernelSystemMatchesOracle) {
  Rng Generator(400 + GetParam());
  expectMatchesOracle(rbfSystem(static_cast<size_t>(GetParam()), Generator),
                      Generator);
}

TEST_P(CholeskyBitIdentity, ScalarKernelsMatchOracle) {
  expectKernelsMatchOracle(static_cast<size_t>(GetParam()),
                           detail::scalarCholeskyKernels());
}

TEST_P(CholeskyBitIdentity, Avx2KernelsMatchOracle) {
  const detail::CholeskyKernels *Avx2 = detail::avx2CholeskyKernels();
  if (!Avx2)
    GTEST_SKIP() << "AVX2 Cholesky kernels not available: the build is not "
                    "for x86 with GCC or Clang, or the CPU has no AVX2";
  expectKernelsMatchOracle(static_cast<size_t>(GetParam()), *Avx2);
}

INSTANTIATE_TEST_SUITE_P(Orders, CholeskyBitIdentity,
                         ::testing::Values(1, 2, 3, 5, 6, 7, 8, 9, 31, 32, 33,
                                           63, 64, 65, 67, 71, 72, 76, 127,
                                           128, 129, 257, 1000));

TEST(CholeskyTest, RejectsIndefinitePivotInSecondBlockLikeOracle) {
  Rng Generator(8);
  Matrix A = dominantSpd(131, Generator);
  A.at(100, 100) = -1.0; // Column 100 is in the second 64-column block.
  EXPECT_FALSE(oracle::factor(A).has_value());
  for (unsigned Threads : {1u, 2u, 4u}) {
    ThreadPool::setGlobalThreads(Threads);
    bool Factored = Cholesky::factor(A).has_value();
    ThreadPool::setGlobalThreads(0); // Restore the default pool.
    EXPECT_FALSE(Factored) << Threads << " threads";
  }
  // Every column before the bad pivot factors: the leading 100x100 block
  // is positive definite both ways.
  Matrix Leading(100, 100);
  for (size_t I = 0; I < 100; ++I)
    for (size_t J = 0; J < 100; ++J)
      Leading.at(I, J) = A.at(I, J);
  EXPECT_TRUE(oracle::factor(Leading).has_value());
  EXPECT_TRUE(Cholesky::factor(Leading).has_value());
}

//===----------------------------------------------------------------------===//
// Eigen
//===----------------------------------------------------------------------===//

TEST(EigenTest, DiagonalMatrix) {
  Matrix A(3, 3);
  A.at(0, 0) = 3;
  A.at(1, 1) = 1;
  A.at(2, 2) = 2;
  EigenDecomposition E = symmetricEigen(A);
  ASSERT_EQ(E.Values.size(), 3u);
  EXPECT_NEAR(E.Values[0], 3.0, 1e-12);
  EXPECT_NEAR(E.Values[1], 2.0, 1e-12);
  EXPECT_NEAR(E.Values[2], 1.0, 1e-12);
}

TEST(EigenTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix A(2, 2);
  A.at(0, 0) = 2;
  A.at(0, 1) = 1;
  A.at(1, 0) = 1;
  A.at(1, 1) = 2;
  EigenDecomposition E = symmetricEigen(A);
  EXPECT_NEAR(E.Values[0], 3.0, 1e-10);
  EXPECT_NEAR(E.Values[1], 1.0, 1e-10);
}

TEST(EigenTest, ReconstructionProperty) {
  Rng Generator(8);
  Matrix A = randomSpd(7, Generator);
  EigenDecomposition E = symmetricEigen(A);
  // A == V diag(w) V^T.
  Matrix D(7, 7);
  for (size_t I = 0; I < 7; ++I)
    D.at(I, I) = E.Values[I];
  Matrix Reconstructed =
      E.Vectors.multiply(D).multiply(E.Vectors.transpose());
  EXPECT_LT(Reconstructed.distanceFrom(A), 1e-8);
}

TEST(EigenTest, VectorsAreOrthonormal) {
  Rng Generator(9);
  Matrix A = randomSpd(6, Generator);
  EigenDecomposition E = symmetricEigen(A);
  Matrix Gram = E.Vectors.transpose().multiply(E.Vectors);
  EXPECT_LT(Gram.distanceFrom(Matrix::identity(6)), 1e-9);
}

TEST(EigenTest, TraceEqualsEigenvalueSum) {
  Rng Generator(10);
  Matrix A = randomSpd(9, Generator);
  EigenDecomposition E = symmetricEigen(A);
  double Trace = 0.0, Sum = 0.0;
  for (size_t I = 0; I < 9; ++I) {
    Trace += A.at(I, I);
    Sum += E.Values[I];
  }
  EXPECT_NEAR(Trace, Sum, 1e-9);
}

TEST(EigenTest, SpdMatrixHasPositiveEigenvalues) {
  Rng Generator(11);
  Matrix A = randomSpd(8, Generator);
  EigenDecomposition E = symmetricEigen(A);
  for (double Value : E.Values)
    EXPECT_GT(Value, 0.0);
}
