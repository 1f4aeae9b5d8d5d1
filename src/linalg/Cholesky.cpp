//===- linalg/Cholesky.cpp ------------------------------------------------===//

#include "linalg/Cholesky.h"

#include "concurrency/Parallel.h"
#include "linalg/CholeskyKernels.h"

#include <algorithm>
#include <cmath>

// The AVX2 kernels are compiled per function with target("avx2"), so the
// rest of the build keeps its baseline target and the same binary runs on
// a CPU without AVX2. target("avx2") does not enable FMA, and the
// -ffp-contract=off every library gets from metaopt_support keeps even an
// -mfma build from fusing a multiply into its subtract.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define METAOPT_CHOLESKY_AVX2 1
#include <immintrin.h>
#define METAOPT_TARGET_AVX2 __attribute__((target("avx2")))
#endif

using namespace metaopt;

/// One instruction set's kernels. Each keeps, for every entry, the order
/// of its scalar loop: one rounded multiply and one rounded subtract per k,
/// in increasing k, so every set produces the same bits.
struct metaopt::detail::CholeskyKernels {
  /// Solves a packed strip (see solveStrip) of panel columns
  /// [K0, K0 + Width) against the factored diagonal block.
  void (*SolvePacked)(const Matrix &A, size_t K0, size_t Width,
                      double *Strip);
  /// Applies a block's panel to one row strip of the trailing matrix.
  void (*UpdateStrip)(Matrix &A, size_t K0, size_t K1, const double *Packed,
                      size_t SI);
  /// Forward-substitutes rows [J0 + TileWidth, N) of a group of L^-1
  /// columns into X (see inverseColumns).
  void (*InverseRows)(const Matrix &L, size_t J0, double *X);
};

namespace {

/// Columns per block step of the factorization. A constant, not a tuning
/// knob: with the panel solved in packed strips, 32, 64 and 128 measured
/// within noise of each other at order 2400 on 1 to 4 threads, 64 was the
/// fastest at order 1000, and it opens half the parallel regions of 32.
constexpr size_t BlockWidth = 64;

/// Rows per packed strip (and per register tile of the trailing update),
/// and columns of L^-1 per inverseDiagonal() sweep. Also the lanes of an
/// AVX2 vector of doubles.
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
void solveStrip(Matrix &A, size_t K0, size_t K1, size_t I0, double *Strip,
                const detail::CholeskyKernels &Kernels) {
  size_t Width = K1 - K0;
  size_t Rows = std::min(TileWidth, A.rows() - I0);
  for (size_t R = 0; R < TileWidth; ++R) {
    const double *Row = R < Rows ? A.rowPtr(I0 + R) + K0 : nullptr;
    for (size_t K = 0; K < Width; ++K)
      Strip[K * TileWidth + R] = Row ? Row[K] : 0.0;
  }
  Kernels.SolvePacked(A, K0, Width, Strip);
  for (size_t R = 0; R < Rows; ++R) {
    double *Row = A.rowPtr(I0 + R) + K0;
    for (size_t K = 0; K < Width; ++K)
      Row[K] = Strip[K * TileWidth + R];
  }
}

/// Solves column \p J of a packed strip, given its columns below J.
void solvePackedColumn(const Matrix &A, size_t K0, size_t J, double *Strip) {
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

void solvePackedScalar(const Matrix &A, size_t K0, size_t Width,
                       double *Strip) {
  for (size_t J = 0; J < Width; ++J)
    solvePackedColumn(A, K0, J, Strip);
}

/// Subtracts the panel's contribution L(i,k) L(j,k), k in [K0, K1), from
/// the lower-triangle entries of trailing rows [I0, I0 + TileWidth), in
/// increasing k. Strip SI of \p Packed holds the solved panel rows
/// [K1 + SI * TileWidth, ...), so a 4x4 tile of the update streams two
/// contiguous strips.
void updateStripScalar(Matrix &A, size_t K0, size_t K1, const double *Packed,
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

/// Starts row I of a group of L^-1 columns: the terms k in
/// [J0 + C, min(I, J0 + TileWidth)) of each of its \p Width columns C, the
/// ragged head below the group's full rows, into \p Sum.
void inverseHead(const double *Row, const double *X, size_t J0, size_t I,
                 size_t Width, double *Sum) {
  size_t HeadEnd = std::min(I, J0 + TileWidth);
  for (size_t C = 0; C < Width; ++C)
    for (size_t K = J0 + C; K < HeadEnd; ++K)
      Sum[C] -= Row[K] * X[(K - J0) * TileWidth + C];
}

/// Forward-substitutes row I of the columns [J0, J0 + TileWidth) of L^-1
/// into X, the head then the terms k in [J0 + TileWidth, I).
void inverseRow(const Matrix &L, size_t J0, size_t I, double *X) {
  const double *Row = L.rowPtr(I);
  size_t Width = std::min(TileWidth, L.rows() - J0);
  double Sum[TileWidth] = {};
  inverseHead(Row, X, J0, I, Width, Sum);
  for (size_t K = J0 + TileWidth; K < I; ++K) {
    const double *XK = X + (K - J0) * TileWidth;
    for (size_t C = 0; C < TileWidth; ++C)
      Sum[C] -= Row[K] * XK[C];
  }
  double *XI = X + (I - J0) * TileWidth;
  for (size_t C = 0; C < Width; ++C) {
    if (I == J0 + C)
      XI[C] = 1.0 / Row[I];
    else if (I > J0 + C)
      XI[C] = Sum[C] / Row[I];
  }
}

void inverseRowsScalar(const Matrix &L, size_t J0, double *X) {
  for (size_t I = J0 + TileWidth; I < L.rows(); ++I)
    inverseRow(L, J0, I, X);
}

/// Computes columns [J0, J0 + TileWidth) of L^-1 by forward substitution
/// against e_j in one sweep over L, interleaved in X (entry (i, c) at
/// X[(i - J0) * TileWidth + c]) so each row of L feeds TileWidth
/// independent chains, and stores their squared norms in \p Diagonal.
/// Each column keeps the one-column order: k increasing from its own j
/// (the ragged head below J0 + TileWidth first), then the squares summed
/// in increasing k.
void inverseColumns(const Matrix &L, size_t J0, double *Diagonal,
                    const detail::CholeskyKernels &Kernels) {
  size_t N = L.rows();
  size_t Width = std::min(TileWidth, N - J0);
  std::vector<double> X((N - J0) * TileWidth);
  for (size_t I = J0; I < J0 + Width; ++I)
    inverseRow(L, J0, I, X.data());
  Kernels.InverseRows(L, J0, X.data());
  for (size_t C = 0; C < Width; ++C) {
    double Sum = 0.0;
    for (size_t K = J0 + C; K < N; ++K)
      Sum += X[(K - J0) * TileWidth + C] * X[(K - J0) * TileWidth + C];
    Diagonal[C] = Sum;
  }
}

#ifdef METAOPT_CHOLESKY_AVX2

// Each AVX2 kernel vectorizes across independent entries only: a lane
// holds one entry's chain, and every lane does, per k, the scalar
// kernel's multiply and then its subtract. _mm256_mul_pd, _mm256_sub_pd
// and _mm256_div_pd round each lane as the scalar operation does.

/// Row \p Row of the tile at column \p J0, zero past the lower triangle
/// and past N, as the scalar tile is loaded.
METAOPT_TARGET_AVX2 __m256d loadTileRow(const Matrix &A, size_t Row,
                                        size_t J0) {
  if (Row >= A.rows())
    return _mm256_setzero_pd();
  const double *P = A.rowPtr(Row) + J0;
  size_t Valid = Row - J0 + 1;
  if (Valid >= TileWidth)
    return _mm256_loadu_pd(P);
  double Part[TileWidth] = {};
  std::copy_n(P, Valid, Part);
  return _mm256_loadu_pd(Part);
}

/// Stores the entries loadTileRow loaded.
METAOPT_TARGET_AVX2 void storeTileRow(Matrix &A, size_t Row, size_t J0,
                                      __m256d V) {
  if (Row >= A.rows())
    return;
  double *P = A.rowPtr(Row) + J0;
  size_t Valid = Row - J0 + 1;
  if (Valid >= TileWidth) {
    _mm256_storeu_pd(P, V);
    return;
  }
  double Part[TileWidth];
  _mm256_storeu_pd(Part, V);
  std::copy_n(Part, Valid, P);
}

/// V - Broadcast(S) * W, the multiply rounded before the subtract.
METAOPT_TARGET_AVX2 __m256d subProduct(__m256d V, double S, __m256d W) {
  return _mm256_sub_pd(V, _mm256_mul_pd(_mm256_set1_pd(S), W));
}

/// Two columns per step, each row of the strip a lane: both columns sweep
/// k < J, then the second takes its k = J term from the first's result.
/// An odd last column runs the scalar loop.
METAOPT_TARGET_AVX2 void solvePackedAvx2(const Matrix &A, size_t K0,
                                         size_t Width, double *Strip) {
  size_t J = 0;
  for (; J + 1 < Width; J += 2) {
    const double *RowA = A.rowPtr(K0 + J) + K0;
    const double *RowB = A.rowPtr(K0 + J + 1) + K0;
    __m256d SumA = _mm256_loadu_pd(Strip + J * TileWidth);
    __m256d SumB = _mm256_loadu_pd(Strip + (J + 1) * TileWidth);
    for (size_t K = 0; K < J; ++K) {
      __m256d XK = _mm256_loadu_pd(Strip + K * TileWidth);
      SumA = subProduct(SumA, RowA[K], XK);
      SumB = subProduct(SumB, RowB[K], XK);
    }
    __m256d XA = _mm256_div_pd(SumA, _mm256_set1_pd(RowA[J]));
    _mm256_storeu_pd(Strip + J * TileWidth, XA);
    SumB = subProduct(SumB, RowB[J], XA);
    _mm256_storeu_pd(Strip + (J + 1) * TileWidth,
                     _mm256_div_pd(SumB, _mm256_set1_pd(RowB[J + 1])));
  }
  if (J < Width)
    solvePackedColumn(A, K0, J, Strip);
}

/// Four rows of tile (I0, J0), and of tile (I0, J0 + TileWidth) when
/// \p Pair, against strips \p StripI, \p StripJ (and the one after it):
/// one k sweep, one vector per tile row over its columns, so a pair keeps
/// 8 independent chains in flight.
METAOPT_TARGET_AVX2 void updateTiles(Matrix &A, size_t Width, size_t I0,
                                     const double *StripI, size_t J0,
                                     const double *StripJ, bool Pair) {
  size_t StripSize = Width * TileWidth;
  size_t J1 = J0 + TileWidth;
  __m256d A0 = loadTileRow(A, I0, J0), A1 = loadTileRow(A, I0 + 1, J0);
  __m256d A2 = loadTileRow(A, I0 + 2, J0), A3 = loadTileRow(A, I0 + 3, J0);
  if (!Pair) {
    for (size_t K = 0; K < Width; ++K) {
      const double *LI = StripI + K * TileWidth;
      __m256d LJ = _mm256_loadu_pd(StripJ + K * TileWidth);
      A0 = subProduct(A0, LI[0], LJ);
      A1 = subProduct(A1, LI[1], LJ);
      A2 = subProduct(A2, LI[2], LJ);
      A3 = subProduct(A3, LI[3], LJ);
    }
  } else {
    __m256d B0 = loadTileRow(A, I0, J1), B1 = loadTileRow(A, I0 + 1, J1);
    __m256d B2 = loadTileRow(A, I0 + 2, J1), B3 = loadTileRow(A, I0 + 3, J1);
    for (size_t K = 0; K < Width; ++K) {
      const double *LI = StripI + K * TileWidth;
      __m256d LJ = _mm256_loadu_pd(StripJ + K * TileWidth);
      __m256d LJNext = _mm256_loadu_pd(StripJ + StripSize + K * TileWidth);
      A0 = subProduct(A0, LI[0], LJ);
      B0 = subProduct(B0, LI[0], LJNext);
      A1 = subProduct(A1, LI[1], LJ);
      B1 = subProduct(B1, LI[1], LJNext);
      A2 = subProduct(A2, LI[2], LJ);
      B2 = subProduct(B2, LI[2], LJNext);
      A3 = subProduct(A3, LI[3], LJ);
      B3 = subProduct(B3, LI[3], LJNext);
    }
    storeTileRow(A, I0, J1, B0);
    storeTileRow(A, I0 + 1, J1, B1);
    storeTileRow(A, I0 + 2, J1, B2);
    storeTileRow(A, I0 + 3, J1, B3);
  }
  storeTileRow(A, I0, J0, A0);
  storeTileRow(A, I0 + 1, J0, A1);
  storeTileRow(A, I0 + 2, J0, A2);
  storeTileRow(A, I0 + 3, J0, A3);
}

/// updateStripScalar's tiles two column strips at a time; with SI + 1
/// tiles, an even SI leaves the diagonal tile on its own.
METAOPT_TARGET_AVX2 void updateStripAvx2(Matrix &A, size_t K0, size_t K1,
                                         const double *Packed, size_t SI) {
  size_t Width = K1 - K0;
  size_t StripSize = Width * TileWidth;
  const double *StripI = Packed + SI * StripSize;
  size_t I0 = K1 + SI * TileWidth;
  size_t SJ = 0;
  for (; SJ < SI; SJ += 2)
    updateTiles(A, Width, I0, StripI, K1 + SJ * TileWidth,
                Packed + SJ * StripSize, /*Pair=*/true);
  if (SJ == SI)
    updateTiles(A, Width, I0, StripI, K1 + SJ * TileWidth,
                Packed + SJ * StripSize, /*Pair=*/false);
}

/// Rows [J0 + TileWidth, N) of the group two at a time, the group's four
/// columns one vector: both rows sweep k < I, then row I + 1 takes its
/// k = I term from row I's result. Lanes past the group's width compute
/// values no column reads. An odd last row runs the scalar loop.
METAOPT_TARGET_AVX2 void inverseRowsAvx2(const Matrix &L, size_t J0,
                                         double *X) {
  size_t N = L.rows();
  size_t Width = std::min(TileWidth, N - J0);
  size_t I = J0 + TileWidth;
  for (; I + 1 < N; I += 2) {
    const double *RowA = L.rowPtr(I);
    const double *RowB = L.rowPtr(I + 1);
    double HeadA[TileWidth] = {}, HeadB[TileWidth] = {};
    inverseHead(RowA, X, J0, I, Width, HeadA);
    inverseHead(RowB, X, J0, I + 1, Width, HeadB);
    __m256d SumA = _mm256_loadu_pd(HeadA), SumB = _mm256_loadu_pd(HeadB);
    for (size_t K = J0 + TileWidth; K < I; ++K) {
      __m256d XK = _mm256_loadu_pd(X + (K - J0) * TileWidth);
      SumA = subProduct(SumA, RowA[K], XK);
      SumB = subProduct(SumB, RowB[K], XK);
    }
    __m256d XA = _mm256_div_pd(SumA, _mm256_set1_pd(RowA[I]));
    _mm256_storeu_pd(X + (I - J0) * TileWidth, XA);
    SumB = subProduct(SumB, RowB[I], XA);
    _mm256_storeu_pd(X + (I + 1 - J0) * TileWidth,
                     _mm256_div_pd(SumB, _mm256_set1_pd(RowB[I + 1])));
  }
  if (I < N)
    inverseRow(L, J0, I, X);
}

#endif // METAOPT_CHOLESKY_AVX2

/// The kernel set this process uses.
const detail::CholeskyKernels &processKernels() {
  const detail::CholeskyKernels *Avx2 = detail::avx2CholeskyKernels();
  return Avx2 ? *Avx2 : detail::scalarCholeskyKernels();
}

} // namespace

const detail::CholeskyKernels &detail::scalarCholeskyKernels() {
  static const CholeskyKernels Scalar = {solvePackedScalar, updateStripScalar,
                                         inverseRowsScalar};
  return Scalar;
}

const detail::CholeskyKernels *detail::avx2CholeskyKernels() {
#ifdef METAOPT_CHOLESKY_AVX2
  static const CholeskyKernels Avx2 = {solvePackedAvx2, updateStripAvx2,
                                       inverseRowsAvx2};
  // Asked once per process.
  static const bool Supported = __builtin_cpu_supports("avx2");
  return Supported ? &Avx2 : nullptr;
#else
  return nullptr;
#endif
}

std::optional<Cholesky> detail::factorWith(Matrix A,
                                           const CholeskyKernels &Kernels) {
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
      solveStrip(A, K0, K1, K1 + SI * TileWidth, &Packed[SI * StripSize],
                 Kernels);
    });
    // Strip SI updates SI + 1 tiles: largest first.
    parallelFor(0, Strips, [&](size_t I) {
      Kernels.UpdateStrip(A, K0, K1, Packed.data(), Strips - 1 - I);
    });
  }
  for (size_t I = 0; I + 1 < N; ++I)
    std::fill(A.rowPtr(I) + I + 1, A.rowPtr(I) + N, 0.0);
  return Cholesky(std::move(A));
}

std::vector<double>
detail::inverseDiagonalWith(const Cholesky &Factor,
                            const CholeskyKernels &Kernels) {
  const Matrix &L = Factor.factorMatrix();
  size_t N = L.rows();
  // (A^-1)_jj = sum_{k >= j} (L^-1)_kj^2, TileWidth columns of L^-1 per
  // sweep. Group G costs about (N - G * TileWidth)^2, so index order is
  // largest first.
  std::vector<double> Diagonal(N);
  parallelFor(0, (N + TileWidth - 1) / TileWidth, [&](size_t G) {
    inverseColumns(L, G * TileWidth, &Diagonal[G * TileWidth], Kernels);
  });
  return Diagonal;
}

std::optional<Cholesky> Cholesky::factor(Matrix A) {
  return detail::factorWith(std::move(A), processKernels());
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
  return detail::inverseDiagonalWith(*this, processKernels());
}
