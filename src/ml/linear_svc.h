// Linear SVM with squared-hinge loss, calibrated with Platt scaling.
//
// Stands in for scikit-learn's SVC(probability=True) used in the paper's
// main experiments. Training minimises
//     0.5 ||w||^2 + C * sum_i max(0, 1 - y_i (w.x_i + b))^2
// by batch gradient descent with Armijo backtracking — exact enough for the
// tiny training sets of Supervised Meta-blocking and fully deterministic.
// (sklearn calibrates on cross-validated decision values; with <= 500
// training rows we calibrate on the training decision values directly,
// which the tests show preserves the probability ordering.)

#ifndef GSMB_ML_LINEAR_SVC_H_
#define GSMB_ML_LINEAR_SVC_H_

#include <cstdint>
#include <vector>

#include "ml/classifier.h"
#include "ml/platt.h"
#include "ml/scaler.h"

namespace gsmb {

class LinearSvc : public ProbabilisticClassifier {
 public:
  struct Options {
    double c = 1.0;  ///< soft-margin penalty (sklearn's C)
    size_t max_iterations = 500;
    double tolerance = 1e-7;  ///< stop when the gradient norm falls below
  };

  LinearSvc() : LinearSvc(Options{}, 0) {}
  explicit LinearSvc(Options options, uint64_t seed = 0)
      : options_(options), seed_(seed) {}

  void Fit(const Matrix& x, const std::vector<int>& labels) override;
  double PredictProbability(const double* row) const override;
  void PredictTile(const double* rows, size_t count, size_t dims, double floor,
                   double* out) const override;
  void MayReachFloor(const double* lo, const double* hi, size_t count,
                     size_t dims, double floor, bool* out) const override;
  std::vector<double> CoefficientsWithIntercept() const override;
  std::string Name() const override { return "LinearSVC"; }

  /// Raw (uncalibrated) decision value w.x + b for a raw feature row.
  double DecisionValue(const double* row) const;

  const PlattScaler& platt() const { return platt_; }

 private:
  Options options_;
  uint64_t seed_;  // reserved for stochastic variants; GD itself is exact
  StandardScaler scaler_;
  std::vector<double> weights_;  // scaled space
  double intercept_ = 0.0;
  PlattScaler platt_;
};

}  // namespace gsmb

#endif  // GSMB_ML_LINEAR_SVC_H_
