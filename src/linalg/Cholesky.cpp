//===- linalg/Cholesky.cpp ------------------------------------------------===//

#include "linalg/Cholesky.h"

#include "concurrency/Parallel.h"

#include <algorithm>
#include <cmath>

using namespace metaopt;

namespace {

/// Columns per block step of the factorization. A constant, not a tuning
/// knob: with the panel solved in packed strips, 32, 64 and 128 measured
/// within noise of each other at order 2400 on 1 to 4 threads, 64 was the
/// fastest at order 1000, and it opens half the parallel regions of 32.
constexpr size_t BlockWidth = 64;

/// Rows per packed strip (and per register tile of the trailing update),
/// and columns of L^-1 per inverseDiagonal() sweep.
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

/// Packs panel rows [I0, I0 + TileWidth) of columns [K0, K1) into \p Strip,
/// K-major (entry (r, k) at Strip[k * TileWidth + r]), solves them against
/// the factored diagonal block there, and writes them back. Rows past N
/// pad the strip with zeros; their results are never stored. Each row
/// keeps the unblocked order, k increasing from K0, and the strip gives
/// the kernel TileWidth independent chains.
void solveStrip(Matrix &A, size_t K0, size_t K1, size_t I0, double *Strip) {
  size_t Width = K1 - K0;
  size_t Rows = std::min(TileWidth, A.rows() - I0);
  for (size_t R = 0; R < TileWidth; ++R) {
    const double *Row = R < Rows ? A.rowPtr(I0 + R) + K0 : nullptr;
    for (size_t K = 0; K < Width; ++K)
      Strip[K * TileWidth + R] = Row ? Row[K] : 0.0;
  }
  for (size_t J = 0; J < Width; ++J) {
    const double *RowJ = A.rowPtr(K0 + J) + K0;
    double Sum[TileWidth];
    for (size_t R = 0; R < TileWidth; ++R)
      Sum[R] = Strip[J * TileWidth + R];
    for (size_t K = 0; K < J; ++K)
      for (size_t R = 0; R < TileWidth; ++R)
        Sum[R] -= Strip[K * TileWidth + R] * RowJ[K];
    for (size_t R = 0; R < TileWidth; ++R)
      Strip[J * TileWidth + R] = Sum[R] / RowJ[J];
  }
  for (size_t R = 0; R < Rows; ++R) {
    double *Row = A.rowPtr(I0 + R) + K0;
    for (size_t K = 0; K < Width; ++K)
      Row[K] = Strip[K * TileWidth + R];
  }
}

/// Subtracts the panel's contribution L(i,k) L(j,k), k in [K0, K1), from
/// the lower-triangle entries of trailing rows [I0, I0 + TileWidth), in
/// increasing k. Strip SI of \p Packed holds the solved panel rows
/// [K1 + SI * TileWidth, ...), so a 4x4 tile of the update streams two
/// contiguous strips.
void updateStrip(Matrix &A, size_t K0, size_t K1, const double *Packed,
                 size_t SI) {
  size_t N = A.rows();
  size_t Width = K1 - K0;
  size_t StripSize = Width * TileWidth;
  const double *StripI = Packed + SI * StripSize;
  size_t I0 = K1 + SI * TileWidth;
  size_t RowsI = std::min(TileWidth, N - I0);
  for (size_t SJ = 0; SJ <= SI; ++SJ) {
    const double *StripJ = Packed + SJ * StripSize;
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

/// Computes columns [J0, J0 + TileWidth) of L^-1 by forward substitution
/// against e_j in one sweep over L, interleaved in X (entry (i, c) at
/// X[(i - J0) * TileWidth + c]) so each row of L feeds TileWidth
/// independent chains, and stores their squared norms in \p Diagonal.
/// Each column keeps the one-column order: k increasing from its own j
/// (the ragged head below J0 + TileWidth first), then the squares summed
/// in increasing k.
void inverseColumns(const Matrix &L, size_t J0, double *Diagonal) {
  size_t N = L.rows();
  size_t Width = std::min(TileWidth, N - J0);
  std::vector<double> X((N - J0) * TileWidth);
  for (size_t I = J0; I < N; ++I) {
    const double *Row = L.rowPtr(I);
    double Sum[TileWidth] = {};
    size_t HeadEnd = std::min(I, J0 + TileWidth);
    for (size_t C = 0; C < Width; ++C)
      for (size_t K = J0 + C; K < HeadEnd; ++K)
        Sum[C] -= Row[K] * X[(K - J0) * TileWidth + C];
    for (size_t K = J0 + TileWidth; K < I; ++K) {
      const double *XK = &X[(K - J0) * TileWidth];
      for (size_t C = 0; C < TileWidth; ++C)
        Sum[C] -= Row[K] * XK[C];
    }
    double *XI = &X[(I - J0) * TileWidth];
    for (size_t C = 0; C < Width; ++C) {
      if (I == J0 + C)
        XI[C] = 1.0 / Row[I];
      else if (I > J0 + C)
        XI[C] = Sum[C] / Row[I];
    }
  }
  for (size_t C = 0; C < Width; ++C) {
    double Sum = 0.0;
    for (size_t K = J0 + C; K < N; ++K)
      Sum += X[(K - J0) * TileWidth + C] * X[(K - J0) * TileWidth + C];
    Diagonal[C] = Sum;
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
  // block applies the rest. So L is bit-identical to the unblocked loop's
  // at any thread count, and a matrix that is not positive definite fails
  // at the same column. The strips of one pass write disjoint rows.
  std::vector<double> Packed;
  for (size_t K0 = 0; K0 < N; K0 += BlockWidth) {
    size_t K1 = std::min(N, K0 + BlockWidth);
    if (!factorDiagonalBlock(A, K0, K1))
      return std::nullopt;
    size_t Strips = (N - K1 + TileWidth - 1) / TileWidth;
    size_t StripSize = (K1 - K0) * TileWidth;
    Packed.resize(Strips * StripSize);
    parallelFor(0, Strips, [&](size_t SI) {
      solveStrip(A, K0, K1, K1 + SI * TileWidth, &Packed[SI * StripSize]);
    });
    // Strip SI updates SI + 1 tiles: largest first.
    parallelFor(0, Strips, [&](size_t I) {
      updateStrip(A, K0, K1, Packed.data(), Strips - 1 - I);
    });
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
  // (A^-1)_jj = sum_{k >= j} (L^-1)_kj^2, TileWidth columns of L^-1 per
  // sweep. Group G costs about (N - G * TileWidth)^2, so index order is
  // largest first.
  std::vector<double> Diagonal(N);
  parallelFor(0, (N + TileWidth - 1) / TileWidth, [&](size_t G) {
    inverseColumns(Factor, G * TileWidth, &Diagonal[G * TileWidth]);
  });
  return Diagonal;
}
