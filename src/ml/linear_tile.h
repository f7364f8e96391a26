// The tile scorer shared by the standardised linear models (logistic
// regression, the Platt-scaled SVC): ProbabilisticClassifier::PredictTile
// for a model whose decision value is
//
//   z = intercept, then z += w_c * (x_c - mean_c) / std_c for c ascending.

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

}  // namespace gsmb

#endif  // GSMB_ML_LINEAR_TILE_H_
