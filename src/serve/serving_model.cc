#include "serve/serving_model.h"

#include <stdexcept>

#include "ml/logistic_regression.h"

namespace gsmb {

double ServingModel::Predict(const double* row) const {
  double z = intercept;
  for (size_t c = 0; c < weights.size(); ++c) z += weights[c] * row[c];
  return LogisticRegression::Sigmoid(z);
}

std::vector<double> ServingModel::PredictRows(const Matrix& x) const {
  if (x.cols() != weights.size()) {
    throw std::invalid_argument(
        "ServingModel::PredictRows: feature width mismatch");
  }
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = Predict(x.Row(r));
  return out;
}

ServingModel TrainServingModelFromPrepared(const StreamingDataset& prepared,
                                           const FeatureSet& features,
                                           const ServingModelTraining& options,
                                           size_t* training_size,
                                           obs::PhaseTimings* phases) {
  if (prepared.ground_truth.empty()) {
    throw std::invalid_argument(
        "TrainServingModel: ground truth has no labelled matches");
  }
  MetaBlockingConfig config;
  config.features = features;
  config.classifier = options.classifier;
  config.train_per_class = options.train_per_class;
  config.seed = options.seed;
  config.execution = options.execution;
  const TrainedClassifier trained =
      TrainClassifier(prepared, config, /*lcp=*/nullptr, phases);
  if (training_size != nullptr) *training_size = trained.training_size;
  const std::vector<double> coefficients =
      trained.model->CoefficientsWithIntercept();
  if (coefficients.size() != features.Dimensions() + 1) {
    throw std::runtime_error(
        "TrainServingModel: classifier has no raw-space linear form (use "
        "logistic regression or linear SVC)");
  }
  ServingModel model;
  model.features = features;
  model.weights.assign(coefficients.begin(), coefficients.end() - 1);
  model.intercept = coefficients.back();
  return model;
}

ServingModel TrainServingModel(const EntityCollection& labelled,
                               const GroundTruth& ground_truth,
                               const FeatureSet& features,
                               const ServingModelTraining& options,
                               size_t* training_size) {
  BlockingOptions blocking = options.blocking;
  blocking.execution = options.execution;
  return TrainServingModelFromPrepared(
      PrepareStreamingDirty("serving-bootstrap", labelled, ground_truth,
                            blocking),
      features, options, training_size);
}

}  // namespace gsmb
