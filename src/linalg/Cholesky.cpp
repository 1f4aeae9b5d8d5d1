//===- linalg/Cholesky.cpp ------------------------------------------------===//

#include "linalg/Cholesky.h"

#include <algorithm>
#include <cmath>

using namespace metaopt;

namespace {

/// Columns per block step of the factorization. A constant, not a tuning
/// knob: 32 measured faster than 64 and 128 at the orders the LS-SVM fits.
constexpr size_t BlockWidth = 32;

/// Rows and columns of one register tile of the trailing update.
constexpr size_t TileWidth = 4;

/// Factors the diagonal block of columns [K0, K1) left-looking, as the
/// unblocked loop does, over the k >= K0 terms the earlier blocks' trailing
/// updates have not applied yet. Returns false on a non-positive pivot.
bool factorDiagonalBlock(Matrix &A, size_t K0, size_t K1) {
  for (size_t J = K0; J < K1; ++J) {
    double *RowJ = A.rowPtr(J);
    double Diag = RowJ[J];
    for (size_t K = K0; K < J; ++K)
      Diag -= RowJ[K] * RowJ[K];
    if (Diag <= 0.0 || !std::isfinite(Diag))
      return false;
    double Pivot = std::sqrt(Diag);
    RowJ[J] = Pivot;
    for (size_t I = J + 1; I < K1; ++I) {
      double *RowI = A.rowPtr(I);
      double Sum = RowI[J];
      for (size_t K = K0; K < J; ++K)
        Sum -= RowI[K] * RowJ[K];
      RowI[J] = Sum / Pivot;
    }
  }
  return true;
}

/// Solves the panel rows [K1, N) against the factored diagonal block of
/// columns [K0, K1), one row at a time so the row stays in L1.
void solvePanel(Matrix &A, size_t K0, size_t K1) {
  for (size_t I = K1; I < A.rows(); ++I) {
    double *RowI = A.rowPtr(I);
    for (size_t J = K0; J < K1; ++J) {
      const double *RowJ = A.rowPtr(J);
      double Sum = RowI[J];
      for (size_t K = K0; K < J; ++K)
        Sum -= RowI[K] * RowJ[K];
      RowI[J] = Sum / RowJ[J];
    }
  }
}

/// Subtracts the panel's contribution L(i,k) L(j,k), k in [K0, K1), from
/// every lower-triangle entry of the trailing matrix [K1, N)^2, in
/// increasing k. The panel is packed into TileWidth-row strips, each
/// K-major, so a 4x4 tile of the update streams two contiguous strips.
void updateTrailing(Matrix &A, size_t K0, size_t K1,
                    std::vector<double> &Packed) {
  size_t N = A.rows();
  size_t Width = K1 - K0;
  size_t Strips = (N - K1 + TileWidth - 1) / TileWidth;
  size_t StripSize = Width * TileWidth;
  // Rows past N pad the last strip with zeros; their results are dropped.
  Packed.assign(Strips * StripSize, 0.0);
  for (size_t I = K1; I < N; ++I) {
    size_t Offset = I - K1;
    double *Strip = &Packed[Offset / TileWidth * StripSize];
    const double *Row = A.rowPtr(I);
    for (size_t K = 0; K < Width; ++K)
      Strip[K * TileWidth + Offset % TileWidth] = Row[K0 + K];
  }

  for (size_t SI = 0; SI < Strips; ++SI) {
    const double *StripI = &Packed[SI * StripSize];
    size_t I0 = K1 + SI * TileWidth;
    size_t RowsI = std::min(TileWidth, N - I0);
    for (size_t SJ = 0; SJ <= SI; ++SJ) {
      const double *StripJ = &Packed[SJ * StripSize];
      size_t J0 = K1 + SJ * TileWidth;
      // Only entries with J <= I are loaded and stored; the rest of the
      // tile runs on zeros so the kernel below has no branches.
      double Tile[TileWidth][TileWidth] = {};
      for (size_t R = 0; R < RowsI; ++R)
        for (size_t C = 0; C < TileWidth && J0 + C <= I0 + R; ++C)
          Tile[R][C] = A.at(I0 + R, J0 + C);
      for (size_t K = 0; K < Width; ++K) {
        const double *LI = StripI + K * TileWidth;
        const double *LJ = StripJ + K * TileWidth;
        for (size_t R = 0; R < TileWidth; ++R)
          for (size_t C = 0; C < TileWidth; ++C)
            Tile[R][C] -= LI[R] * LJ[C];
      }
      for (size_t R = 0; R < RowsI; ++R)
        for (size_t C = 0; C < TileWidth && J0 + C <= I0 + R; ++C)
          A.at(I0 + R, J0 + C) = Tile[R][C];
    }
  }
}

} // namespace

std::optional<Cholesky> Cholesky::factor(Matrix A) {
  assert(A.rows() == A.cols() && "Cholesky requires a square matrix");
  size_t N = A.rows();
  // Right-looking and blocked, in place over A's lower triangle. Every
  // entry still sees the unblocked recurrence
  //   L(i,j) = (A(i,j) - L(i,0)L(j,0) - L(i,1)L(j,1) - ...) / L(j,j)
  // with one multiply and one subtract per k, in increasing k: the
  // trailing updates of earlier blocks apply the k below a block, and the
  // block applies the rest. So L is bit-identical to the unblocked loop's,
  // and a matrix that is not positive definite fails at the same column.
  std::vector<double> Packed;
  for (size_t K0 = 0; K0 < N; K0 += BlockWidth) {
    size_t K1 = std::min(N, K0 + BlockWidth);
    if (!factorDiagonalBlock(A, K0, K1))
      return std::nullopt;
    solvePanel(A, K0, K1);
    updateTrailing(A, K0, K1, Packed);
  }
  for (size_t I = 0; I + 1 < N; ++I)
    std::fill(A.rowPtr(I) + I + 1, A.rowPtr(I) + N, 0.0);
  return Cholesky(std::move(A));
}

std::vector<double> Cholesky::solve(const std::vector<double> &B) const {
  assert(B.size() == order() && "right-hand side size mismatch");
  Matrix Column(B.size(), 1);
  for (size_t I = 0; I < B.size(); ++I)
    Column.at(I, 0) = B[I];
  Matrix Solved = solve(Column);
  std::vector<double> X(B.size());
  for (size_t I = 0; I < B.size(); ++I)
    X[I] = Solved.at(I, 0);
  return X;
}

Matrix Cholesky::solve(const Matrix &B) const {
  size_t N = order();
  size_t Cols = B.cols();
  assert(B.rows() == N && "right-hand side rows mismatch");
  Matrix X(N, Cols);
  if (N == 0 || Cols == 0)
    return X;
  // One sweep over L per substitution serves every column, with one
  // running sum per column in the single-column order, so each column of
  // X is bit-identical to solving it alone.
  std::vector<double> Sum(Cols);
  // Forward substitution: L Y = B, with Y stored in X.
  for (size_t I = 0; I < N; ++I) {
    const double *Row = Factor.rowPtr(I);
    std::copy_n(B.rowPtr(I), Cols, Sum.begin());
    for (size_t K = 0; K < I; ++K) {
      const double *YK = X.rowPtr(K);
      for (size_t C = 0; C < Cols; ++C)
        Sum[C] -= Row[K] * YK[C];
    }
    double *YI = X.rowPtr(I);
    for (size_t C = 0; C < Cols; ++C)
      YI[C] = Sum[C] / Row[I];
  }
  // Backward substitution: L^T X = Y, overwriting Y from the bottom row up.
  for (size_t I = N; I-- > 0;) {
    std::copy_n(X.rowPtr(I), Cols, Sum.begin());
    for (size_t K = I + 1; K < N; ++K) {
      double LKI = Factor.at(K, I);
      const double *XK = X.rowPtr(K);
      for (size_t C = 0; C < Cols; ++C)
        Sum[C] -= LKI * XK[C];
    }
    double *XI = X.rowPtr(I);
    for (size_t C = 0; C < Cols; ++C)
      XI[C] = Sum[C] / Factor.at(I, I);
  }
  return X;
}

std::vector<double> Cholesky::inverseDiagonal() const {
  size_t N = order();
  // (A^-1)_jj = sum_{k >= j} (L^-1)_kj^2. Column j of L^-1 comes from
  // forward substitution against e_j into a contiguous buffer, then its
  // squares are summed in increasing k.
  std::vector<double> Diagonal(N);
  std::vector<double> Column(N);
  for (size_t J = 0; J < N; ++J) {
    Column[J] = 1.0 / Factor.at(J, J);
    for (size_t I = J + 1; I < N; ++I) {
      const double *Row = Factor.rowPtr(I);
      double Sum = 0.0;
      for (size_t K = J; K < I; ++K)
        Sum -= Row[K] * Column[K];
      Column[I] = Sum / Row[I];
    }
    double Sum = 0.0;
    for (size_t K = J; K < N; ++K)
      Sum += Column[K] * Column[K];
    Diagonal[J] = Sum;
  }
  return Diagonal;
}
