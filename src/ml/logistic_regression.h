// L2-regularised logistic regression fitted with IRLS (Newton-Raphson).
//
// The training sets in (Generalized) Supervised Meta-blocking are tiny
// (20-500 rows, <= 9 features), so the exact Newton solve is both the
// fastest and the most deterministic option — mirroring Weka's
// "Logistic" (ridge-regularised) used by the paper's scalability study.

#ifndef GSMB_ML_LOGISTIC_REGRESSION_H_
#define GSMB_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "ml/classifier.h"
#include "ml/scaler.h"
#include "util/matrix.h"

namespace gsmb {

class LogisticRegression : public ProbabilisticClassifier {
 public:
  struct Options {
    /// Ridge strength on the scaled features (lambda = 1/C in sklearn
    /// terms; the default corresponds to C = 10, within the regime of the
    /// paper's classifiers). Strong enough that probabilities stay spread
    /// over (0, 1) instead of saturating at the extremes.
    double l2_lambda = 0.1;
    size_t max_iterations = 100;
    double tolerance = 1e-9;  ///< stop when max |Δw| falls below this
  };

  LogisticRegression() : LogisticRegression(Options{}) {}
  explicit LogisticRegression(Options options) : options_(options) {}

  void Fit(const Matrix& x, const std::vector<int>& labels) override;
  double PredictProbability(const double* row) const override;
  void PredictTile(const double* rows, size_t count, size_t dims, double floor,
                   double* out) const override;
  void MayReachFloor(const double* lo, const double* hi, size_t count,
                     size_t dims, double floor, bool* out) const override;
  std::vector<double> CoefficientsWithIntercept() const override;
  std::string Name() const override { return "LogisticRegression"; }

  /// Number of Newton iterations the last Fit() took.
  size_t last_iterations() const { return last_iterations_; }

  static double Sigmoid(double z);

 private:
  Options options_;
  StandardScaler scaler_;
  std::vector<double> weights_;  // scaled space; size = #features
  double intercept_ = 0.0;       // scaled space
  size_t last_iterations_ = 0;
};

}  // namespace gsmb

#endif  // GSMB_ML_LOGISTIC_REGRESSION_H_
