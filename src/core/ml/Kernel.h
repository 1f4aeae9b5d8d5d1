//===- core/ml/Kernel.h - Kernel functions ----------------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The radial basis kernel the paper's SVM uses ("the SVM non-linearly
/// maps the feature space into a higher dimensional space using a radial
/// basis kernel function"), plus Gram-matrix helpers.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_KERNEL_H
#define METAOPT_CORE_ML_KERNEL_H

#include "linalg/Matrix.h"

#include <vector>

namespace metaopt {

/// K(x, z) = exp(-||x - z||^2 / (2 * SigmaSquared)).
class RbfKernel {
public:
  explicit RbfKernel(double SigmaSquared);

  double operator()(const std::vector<double> &A,
                    const std::vector<double> &B) const;

  double sigmaSquared() const { return SigmaSquared; }

private:
  double SigmaSquared;
};

/// The Gram matrix over \p Points as Cholesky::factor reads it: the unit
/// diagonal and the lower triangle, entry (I, J < I) bit-identical to
/// Kernel(Points[J], Points[I]). The upper triangle is left zero. Rows
/// are split over the global pool; inside a task of that pool they run
/// inline.
Matrix kernelMatrix(const RbfKernel &Kernel,
                    const std::vector<std::vector<double>> &Points);

/// Kernel evaluations of \p Query against every point.
std::vector<double>
kernelVector(const RbfKernel &Kernel,
             const std::vector<std::vector<double>> &Points,
             const std::vector<double> &Query);

} // namespace metaopt

#endif // METAOPT_CORE_ML_KERNEL_H
