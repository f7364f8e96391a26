// The tile scorer shared by the standardised linear models (logistic
// regression, the Platt-scaled SVC): ProbabilisticClassifier::PredictTile
// for a model whose decision value is
//
//   z = intercept, then z += w_c * (x_c - mean_c) / std_c for c ascending,
//
// and the corner of a box of rows that bounds that value
// (ProbabilisticClassifier::MayReachFloor).

#ifndef GSMB_ML_LINEAR_TILE_H_
#define GSMB_ML_LINEAR_TILE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ml/scaler.h"

namespace gsmb {

/// Writes link(z) of each row of the tile to out[0, count). The decision
/// values are computed a column at a time, each row adding the same terms
/// in the same order as the model's per-row decision value, so every z has
/// its bits; `link` maps z to the row's output (PredictTile's contract).
template <typename Link>
void PredictLinearTile(const double* rows, size_t count, size_t dims,
                       double intercept, const std::vector<double>& weights,
                       const StandardScaler& scaler, const Link& link,
                       double* out) {
  const std::vector<double>& mean = scaler.mean();
  const std::vector<double>& std = scaler.std();
  std::fill_n(out, count, intercept);
  for (size_t c = 0; c < weights.size(); ++c) {
    const double w = weights[c];
    const double m = mean[c];
    const double s = std[c];
    for (size_t r = 0; r < count; ++r) out[r] += w * (rows[r * dims + c] - m) / s;
  }
  for (size_t r = 0; r < count; ++r) out[r] = link(out[r]);
}

/// The decision value at the corner of the box [lo, hi] that maximises it
/// (`maximise`) or minimises it. Each column's term w * (x - mean) / std,
/// with std > 0, rises with x when w >= 0 and falls otherwise, so the
/// corner takes hi or lo per column. The terms are added with the same
/// operations in the same order as a row's, and every one of those
/// operations is monotone under round-to-nearest, so the corner's value is
/// at least (at most) the computed z of every row inside the box.
inline double LinearCornerDecision(const double* lo, const double* hi,
                                   double intercept,
                                   const std::vector<double>& weights,
                                   const StandardScaler& scaler,
                                   bool maximise) {
  const std::vector<double>& mean = scaler.mean();
  const std::vector<double>& std = scaler.std();
  double z = intercept;
  for (size_t c = 0; c < weights.size(); ++c) {
    const double w = weights[c];
    const double x = (w >= 0.0) == maximise ? hi[c] : lo[c];
    z += w * (x - mean[c]) / std[c];
  }
  return z;
}

}  // namespace gsmb

#endif  // GSMB_ML_LINEAR_TILE_H_
