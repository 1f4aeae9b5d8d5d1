//===- core/ml/Regression.cpp ---------------------------------------------===//

#include "core/ml/Regression.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

using namespace metaopt;

KrrUnrollRegressor::KrrUnrollRegressor(FeatureSet FeaturesIn,
                                       KrrOptions OptionsIn)
    : Features(std::move(FeaturesIn)), Options(OptionsIn) {
  assert(!Features.empty() && "feature set must not be empty");
}

std::string KrrUnrollRegressor::name() const { return "krr-regression"; }

void KrrUnrollRegressor::train(const Dataset &Train) {
  assert(!Train.empty() && "cannot train on an empty dataset");
  Norm.fit(Train.featureMatrix(), Features);
  Points.clear();
  Targets.clear();
  Points.reserve(Train.size());
  Targets.reserve(Train.size());
  for (const Example &Ex : Train.examples()) {
    Points.push_back(Norm.apply(Ex.Features));
    Targets.push_back(static_cast<double>(Ex.Label));
  }
  Kernel.emplace(Options.SigmaSquaredPerDim *
                 static_cast<double>(Features.size()));
  Solver = LsSvmSolver::create(Points, *Kernel, Options.Gamma);
  if (!Solver) {
    // No machine of an earlier fit may outlive its points.
    Points.clear();
    Targets.clear();
    Machine = LsSvmBinary();
    throw std::runtime_error("krr-regression: the kernel system is not "
                             "positive definite (non-finite features?)");
  }
  Machine = Solver->solve(Targets);
}

double
KrrUnrollRegressor::predictValue(const FeatureVector &FeaturesIn) const {
  assert(!Points.empty() && "regressor queried before training");
  std::vector<double> Query = Norm.apply(FeaturesIn);
  return Machine.decision(kernelVector(*Kernel, Points, Query));
}

unsigned KrrUnrollRegressor::predict(const FeatureVector &FeaturesIn) const {
  double Value = predictValue(FeaturesIn);
  long Rounded = std::lround(Value);
  return static_cast<unsigned>(
      std::clamp<long>(Rounded, 1, MaxUnrollFactor));
}

std::vector<double> KrrUnrollRegressor::looValues() {
  assert(Solver && "regressor must be trained before LOOCV");
  return Solver->looDecisions(Targets, Machine);
}
