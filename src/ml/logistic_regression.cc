#include "ml/logistic_regression.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "ml/linear_tile.h"

namespace gsmb {

double LogisticRegression::Sigmoid(double z) {
  // Branch keeps exp() argument negative -> no overflow on either tail.
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

void LogisticRegression::Fit(const Matrix& x, const std::vector<int>& labels) {
  if (x.rows() == 0 || x.rows() != labels.size()) {
    throw std::invalid_argument(
        "LogisticRegression::Fit: empty data or label size mismatch");
  }
  const size_t n = x.rows();
  const size_t d = x.cols();

  scaler_.Fit(x);
  Matrix xs = scaler_.Transform(x);

  // Parameter vector beta = [w_0..w_{d-1}, intercept].
  const size_t p = d + 1;
  std::vector<double> beta(p, 0.0);

  std::vector<double> hessian(p * p);
  std::vector<double> step(p);
  last_iterations_ = 0;

  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    // Gradient of the regularised negative log-likelihood and the Hessian
    // X^T S X + lambda I (intercept unregularised, as is conventional).
    std::fill(hessian.begin(), hessian.end(), 0.0);
    std::fill(step.begin(), step.end(), 0.0);

    for (size_t r = 0; r < n; ++r) {
      const double* row = xs.Row(r);
      double z = beta[d];
      for (size_t c = 0; c < d; ++c) z += beta[c] * row[c];
      double mu = Sigmoid(z);
      double residual = static_cast<double>(labels[r]) - mu;
      double s = mu * (1.0 - mu);
      // Keep the Hessian positive definite even for saturated points.
      if (s < 1e-10) s = 1e-10;

      for (size_t c = 0; c < d; ++c) step[c] += residual * row[c];
      step[d] += residual;

      for (size_t a = 0; a < d; ++a) {
        const double sa = s * row[a];
        for (size_t b = a; b < d; ++b) hessian[a * p + b] += sa * row[b];
        hessian[a * p + d] += sa;
      }
      hessian[d * p + d] += s;
    }
    // Mirror the upper triangle and add the ridge.
    for (size_t a = 0; a < p; ++a) {
      for (size_t b = 0; b < a; ++b) hessian[a * p + b] = hessian[b * p + a];
    }
    for (size_t c = 0; c < d; ++c) {
      step[c] -= options_.l2_lambda * beta[c];
      hessian[c * p + c] += options_.l2_lambda;
    }

    if (!SolveLinearSystem(&hessian, &step, p)) {
      // Singular despite the ridge (e.g. duplicate constant columns):
      // bail out with the current estimate rather than diverge.
      break;
    }
    double max_delta = 0.0;
    for (size_t c = 0; c < p; ++c) {
      beta[c] += step[c];
      max_delta = std::max(max_delta, std::fabs(step[c]));
    }
    ++last_iterations_;
    if (max_delta < options_.tolerance) break;
  }

  weights_.assign(beta.begin(), beta.begin() + d);
  intercept_ = beta[d];
}

double LogisticRegression::PredictProbability(const double* row) const {
  assert(scaler_.fitted());
  double z = intercept_;
  const std::vector<double>& mean = scaler_.mean();
  const std::vector<double>& std = scaler_.std();
  for (size_t c = 0; c < weights_.size(); ++c) {
    z += weights_[c] * (row[c] - mean[c]) / std[c];
  }
  return Sigmoid(z);
}

void LogisticRegression::PredictTile(const double* rows, size_t count,
                                     size_t dims, double floor,
                                     double* out) const {
  assert(scaler_.fitted());
  // The link only where the decision value can clear the floor.
  const double cut = LogisticFloorCut(floor);
  PredictLinearTile(
      rows, count, dims, intercept_, weights_, scaler_,
      [cut](double z) { return z < cut ? 0.0 : Sigmoid(z); }, out);
}

std::vector<double> LogisticRegression::CoefficientsWithIntercept() const {
  // Fold the standardisation into the coefficients so they apply to raw
  // features: w'_c = w_c / std_c, b' = b - sum(w_c * mean_c / std_c).
  std::vector<double> out(weights_.size() + 1, 0.0);
  double b = intercept_;
  for (size_t c = 0; c < weights_.size(); ++c) {
    out[c] = weights_[c] / scaler_.std()[c];
    b -= weights_[c] * scaler_.mean()[c] / scaler_.std()[c];
  }
  out.back() = b;
  return out;
}

}  // namespace gsmb
