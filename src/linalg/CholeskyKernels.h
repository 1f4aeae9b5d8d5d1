//===- linalg/CholeskyKernels.h - Cholesky kernel sets ----------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal to linalg, and to its tests: the instruction-set kernel sets
/// of the blocked Cholesky. Cholesky::factor and inverseDiagonal() pick
/// one set once per process, the AVX2 set where the build is for x86 with
/// GCC or Clang and the CPU has AVX2, and the portable scalar set
/// everywhere else. Every set gives each entry the scalar operation order,
/// one rounded multiply and one rounded subtract per term in increasing
/// k, so all sets produce the same bits; the functions below run a chosen
/// set so a test can hold each one against the scalar oracle.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_LINALG_CHOLESKYKERNELS_H
#define METAOPT_LINALG_CHOLESKYKERNELS_H

#include "linalg/Cholesky.h"

#include <optional>
#include <vector>

namespace metaopt::detail {

/// The portable kernels, compiled for the build's target.
const CholeskyKernels &scalarCholeskyKernels();

/// The AVX2 kernels, or null where they are not compiled or the CPU has
/// no AVX2.
const CholeskyKernels *avx2CholeskyKernels();

/// Cholesky::factor with \p Kernels.
std::optional<Cholesky> factorWith(Matrix A, const CholeskyKernels &Kernels);

/// Cholesky::inverseDiagonal with \p Kernels.
std::vector<double> inverseDiagonalWith(const Cholesky &Factor,
                                        const CholeskyKernels &Kernels);

} // namespace metaopt::detail

#endif // METAOPT_LINALG_CHOLESKYKERNELS_H
