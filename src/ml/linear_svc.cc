#include "ml/linear_svc.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "ml/linear_tile.h"

namespace gsmb {

namespace {

// Objective and gradient of 0.5||w||^2 + C * sum max(0, 1 - y f)^2 over
// scaled features. `params` = [w_0..w_{d-1}, b]; the intercept is
// unregularised.
double Objective(const Matrix& xs, const std::vector<double>& y,
                 const std::vector<double>& params, double c) {
  const size_t d = xs.cols();
  double obj = 0.0;
  for (size_t k = 0; k < d; ++k) obj += 0.5 * params[k] * params[k];
  for (size_t r = 0; r < xs.rows(); ++r) {
    const double* row = xs.Row(r);
    double f = params[d];
    for (size_t k = 0; k < d; ++k) f += params[k] * row[k];
    double margin = 1.0 - y[r] * f;
    if (margin > 0.0) obj += c * margin * margin;
  }
  return obj;
}

void Gradient(const Matrix& xs, const std::vector<double>& y,
              const std::vector<double>& params, double c,
              std::vector<double>* grad) {
  const size_t d = xs.cols();
  grad->assign(d + 1, 0.0);
  for (size_t k = 0; k < d; ++k) (*grad)[k] = params[k];
  for (size_t r = 0; r < xs.rows(); ++r) {
    const double* row = xs.Row(r);
    double f = params[d];
    for (size_t k = 0; k < d; ++k) f += params[k] * row[k];
    double margin = 1.0 - y[r] * f;
    if (margin > 0.0) {
      double coeff = -2.0 * c * y[r] * margin;
      for (size_t k = 0; k < d; ++k) (*grad)[k] += coeff * row[k];
      (*grad)[d] += coeff;
    }
  }
}

}  // namespace

void LinearSvc::Fit(const Matrix& x, const std::vector<int>& labels) {
  if (x.rows() == 0 || x.rows() != labels.size()) {
    throw std::invalid_argument(
        "LinearSvc::Fit: empty data or label size mismatch");
  }
  const size_t n = x.rows();
  const size_t d = x.cols();

  scaler_.Fit(x);
  Matrix xs = scaler_.Transform(x);

  std::vector<double> y(n);
  for (size_t r = 0; r < n; ++r) y[r] = labels[r] > 0 ? 1.0 : -1.0;

  std::vector<double> params(d + 1, 0.0);
  std::vector<double> grad;
  std::vector<double> trial(d + 1);

  double obj = Objective(xs, y, params, options_.c);
  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    Gradient(xs, y, params, options_.c, &grad);
    double grad_norm2 = 0.0;
    for (double g : grad) grad_norm2 += g * g;
    if (std::sqrt(grad_norm2) < options_.tolerance) break;

    // Armijo backtracking line search along the steepest descent direction.
    double step = 1.0;
    bool accepted = false;
    while (step > 1e-12) {
      for (size_t k = 0; k <= d; ++k) trial[k] = params[k] - step * grad[k];
      double trial_obj = Objective(xs, y, trial, options_.c);
      if (trial_obj <= obj - 1e-4 * step * grad_norm2) {
        params.swap(trial);
        obj = trial_obj;
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;  // no further progress possible
  }

  weights_.assign(params.begin(), params.begin() + d);
  intercept_ = params[d];

  // Calibrate probabilities on the training decision values.
  std::vector<double> decisions(n);
  for (size_t r = 0; r < n; ++r) {
    const double* row = xs.Row(r);
    double f = intercept_;
    for (size_t k = 0; k < d; ++k) f += weights_[k] * row[k];
    decisions[r] = f;
  }
  platt_.Fit(decisions, labels);
}

double LinearSvc::DecisionValue(const double* row) const {
  assert(scaler_.fitted());
  double f = intercept_;
  const std::vector<double>& mean = scaler_.mean();
  const std::vector<double>& std = scaler_.std();
  for (size_t k = 0; k < weights_.size(); ++k) {
    f += weights_[k] * (row[k] - mean[k]) / std[k];
  }
  return f;
}

double LinearSvc::PredictProbability(const double* row) const {
  return platt_.Transform(DecisionValue(row));
}

void LinearSvc::PredictTile(const double* rows, size_t count, size_t dims,
                            double floor, double* out) const {
  assert(scaler_.fitted());
  // Transform(f) is the logistic link of -(A f + B): the link only where
  // that can clear the floor.
  const double cut = LogisticFloorCut(floor);
  const double a = platt_.a();
  const double b = platt_.b();
  PredictLinearTile(
      rows, count, dims, intercept_, weights_, scaler_,
      [&](double f) { return -(a * f + b) < cut ? 0.0 : platt_.Transform(f); },
      out);
}

std::vector<double> LinearSvc::CoefficientsWithIntercept() const {
  std::vector<double> out(weights_.size() + 1, 0.0);
  double b = intercept_;
  for (size_t k = 0; k < weights_.size(); ++k) {
    out[k] = weights_[k] / scaler_.std()[k];
    b -= weights_[k] * scaler_.mean()[k] / scaler_.std()[k];
  }
  out.back() = b;
  return out;
}

}  // namespace gsmb
