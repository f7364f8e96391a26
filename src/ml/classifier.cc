#include "ml/classifier.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/linear_svc.h"
#include "ml/naive_bayes.h"
#include "ml/logistic_regression.h"
#include "util/thread_pool.h"

namespace gsmb {

const char* ClassifierKindName(ClassifierKind kind) {
  switch (kind) {
    case ClassifierKind::kLogisticRegression:
      return "LogisticRegression";
    case ClassifierKind::kLinearSvc:
      return "LinearSVC";
    case ClassifierKind::kGaussianNaiveBayes:
      return "GaussianNaiveBayes";
  }
  return "unknown";
}

void ProbabilisticClassifier::PredictTile(const double* rows, size_t count,
                                          size_t dims, double /*floor*/,
                                          double* out) const {
  for (size_t r = 0; r < count; ++r) out[r] = PredictProbability(rows + r * dims);
}

void ProbabilisticClassifier::MayReachFloor(const double* /*lo*/,
                                            const double* /*hi*/, size_t count,
                                            size_t /*dims*/, double /*floor*/,
                                            bool* out) const {
  std::fill_n(out, count, true);
}

double LogisticFloorCut(double floor) {
  if (!(floor > 1e-300 && floor < 1.0)) {
    return -std::numeric_limits<double>::infinity();
  }
  const double below = floor * (1.0 - 0x1p-30);
  return std::log(below / (1.0 - below));
}

std::vector<double> ProbabilisticClassifier::PredictBatch(
    const Matrix& x, size_t num_threads) const {
  std::vector<double> probs(x.rows());
  ParallelFor(x.rows(), num_threads, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      probs[r] = PredictProbability(x.Row(r));
    }
  });
  return probs;
}

std::unique_ptr<ProbabilisticClassifier> MakeClassifier(ClassifierKind kind,
                                                        uint64_t seed) {
  switch (kind) {
    case ClassifierKind::kLogisticRegression:
      return std::make_unique<LogisticRegression>();
    case ClassifierKind::kLinearSvc:
      return std::make_unique<LinearSvc>(LinearSvc::Options{}, seed);
    case ClassifierKind::kGaussianNaiveBayes:
      return std::make_unique<GaussianNaiveBayes>();
  }
  return nullptr;
}

}  // namespace gsmb
