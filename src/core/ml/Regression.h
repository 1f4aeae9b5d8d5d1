//===- core/ml/Regression.h - Unroll-factor regression ----------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extension Section 8 sketches: "future work will consider
/// regression, which can predict values outside the range of the labels
/// with which the learning algorithm is trained." This kernel ridge
/// regressor treats the unroll factor as a real-valued target; it shares
/// the LS-SVM machinery (the regularized kernel solve is identical), and
/// the raw real-valued prediction is exposed so callers can see it land
/// outside [1, 8] - exactly the capability classification lacks. As a
/// Classifier the prediction is rounded and clamped.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_CORE_ML_REGRESSION_H
#define METAOPT_CORE_ML_REGRESSION_H

#include "core/ml/Classifier.h"
#include "core/ml/LsSvm.h"

#include <optional>

namespace metaopt {

/// Kernel ridge regression hyperparameters.
struct KrrOptions {
  double Gamma = 10.0;           ///< Ridge strength (as LS-SVM's gamma).
  double SigmaSquaredPerDim = 1.0; ///< RBF width per normalized dimension.
};

/// Predicts the unroll factor as a real value via kernel ridge regression.
class KrrUnrollRegressor : public Classifier {
public:
  explicit KrrUnrollRegressor(FeatureSet Features, KrrOptions Options = {});

  std::string name() const override;
  /// Throws std::runtime_error when the kernel system has no Cholesky
  /// factor (a non-finite feature), leaving the classifier untrained.
  void train(const Dataset &Train) override;

  /// Rounded and clamped to 1..MaxUnrollFactor.
  unsigned predict(const FeatureVector &Features) const override;

  /// The raw regression value - may fall outside [1, MaxUnrollFactor],
  /// which is the capability the paper's future-work section wants.
  double predictValue(const FeatureVector &Features) const;

  /// Exact leave-one-out *regression residuals* via the shared LS-SVM
  /// identity; used to report LOOCV without retraining.
  std::vector<double> looValues();

private:
  FeatureSet Features;
  KrrOptions Options;
  Normalizer Norm;
  std::vector<std::vector<double>> Points;
  std::vector<double> Targets;
  LsSvmBinary Machine; ///< Same dual form: alphas + bias.
  std::optional<LsSvmSolver> Solver;
  std::optional<RbfKernel> Kernel;
};

} // namespace metaopt

#endif // METAOPT_CORE_ML_REGRESSION_H
