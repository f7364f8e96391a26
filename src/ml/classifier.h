// Probabilistic binary classifiers (paper Section 2.1.1).
//
// Generalized Supervised Meta-blocking needs a classifier that emits
// P(match | feature vector) in [0, 1]; the probability becomes the edge
// weight that the pruning algorithms threshold. The paper uses sklearn's
// SVC (with Platt-scaled probabilities) and Weka's logistic regression and
// reports "almost identical results" for the two — both are provided here,
// implemented from scratch.

#ifndef GSMB_ML_CLASSIFIER_H_
#define GSMB_ML_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "util/matrix.h"

namespace gsmb {

enum class ClassifierKind {
  kLogisticRegression,
  kLinearSvc,
  kGaussianNaiveBayes,
};

const char* ClassifierKindName(ClassifierKind kind);

class ProbabilisticClassifier {
 public:
  virtual ~ProbabilisticClassifier() = default;

  /// Trains on labelled rows; `labels[i]` in {0, 1} (1 = match).
  /// Implementations standardise features internally.
  virtual void Fit(const Matrix& x, const std::vector<int>& labels) = 0;

  /// P(match) for one *raw* (unscaled) feature row of the fitted width.
  virtual double PredictProbability(const double* row) const = 0;

  /// P(match) of a tile of `count` raw rows, row-major with stride `dims`
  /// (row r starts at rows + r * dims), into out[0, count). The pruning
  /// algorithms weigh only pairs at or above a validity floor, so a row
  /// whose probability is at or above `floor` gets exactly
  /// PredictProbability's bits, and any other row a value strictly below
  /// `floor`. A floor <= 0 or >= 1 cuts nothing: every row gets
  /// PredictProbability's bits. The default loops PredictProbability; the
  /// linear models compute each row's decision value with the same
  /// operations in the same order, and evaluate the link only for rows
  /// whose decision value can clear the floor (LogisticFloorCut), writing
  /// 0 for the rest.
  virtual void PredictTile(const double* rows, size_t count, size_t dims,
                           double floor, double* out) const;

  /// Whether each of `count` boxes of raw rows may hold a row that reaches
  /// `floor`. Box b spans [lo[b * dims + c], hi[b * dims + c]] in column c,
  /// and out[b] is false only when every row inside it has a
  /// PredictProbability below `floor`, so PredictTile keeps none of them.
  /// The scorers skip the rows a false box holds without evaluating them.
  /// The default answers true for every box. The linear models evaluate
  /// their decision value at the box's extreme corner with PredictTile's
  /// operations in PredictTile's order, and answer false when PredictTile
  /// would cut that value (LogisticFloorCut). Round-to-nearest is
  /// monotone, so that value bounds every row's in the box with no margin.
  virtual void MayReachFloor(const double* lo, const double* hi, size_t count,
                             size_t dims, double floor, bool* out) const;

  /// P(match) for every row of `x`. Rows are independent, so
  /// `num_threads` > 1 parallelises with bit-identical results.
  std::vector<double> PredictBatch(const Matrix& x,
                                   size_t num_threads = 1) const;

  /// Linear coefficients in the *original* (unscaled) feature space,
  /// followed by the intercept — the representation Table 6 of the paper
  /// reports. Empty when the model is not linear or not fitted.
  virtual std::vector<double> CoefficientsWithIntercept() const = 0;

  virtual std::string Name() const = 0;
};

/// The decision value below which the logistic link 1 / (1 + e^-z), as
/// LogisticRegression::Sigmoid and PlattScaler::Transform evaluate it, is
/// certainly below `floor`: every z below the cut has a true probability
/// under floor · (1 − 2^-30), a margin about a million times the link's
/// rounding error. −∞ (nothing is cut) unless 1e-300 < floor < 1.
double LogisticFloorCut(double floor);

/// Factory. `seed` feeds any stochastic part of training (e.g. SGD
/// shuffling); both provided models are deterministic given the seed.
std::unique_ptr<ProbabilisticClassifier> MakeClassifier(ClassifierKind kind,
                                                        uint64_t seed = 0);

}  // namespace gsmb

#endif  // GSMB_ML_CLASSIFIER_H_
