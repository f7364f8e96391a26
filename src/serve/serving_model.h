// The resident classifier of a serving session.
//
// A long-lived MetaBlockingSession cannot hold an opaque
// ProbabilisticClassifier: it must be serialisable into a snapshot and its
// scoring must be exactly reproducible after a restore. Both of the paper's
// probabilistic models (logistic regression, Platt-scaled linear SVC) are
// linear in raw feature space, so the serving layer pins the model down to
// that common denominator: a raw-space weight vector plus intercept, mapped
// through the logistic function. For logistic regression this is the same
// function the batch pipeline evaluates (up to floating-point association);
// either way the session applies ONE fixed scorer everywhere, which is what
// makes incremental refreshes bit-identical to a cold rebuild.

#ifndef GSMB_SERVE_SERVING_MODEL_H_
#define GSMB_SERVE_SERVING_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/feature_set.h"
#include "core/pipeline.h"
#include "er/entity_collection.h"
#include "er/ground_truth.h"
#include "gsmb/execution.h"
#include "gsmb/telemetry.h"
#include "ml/classifier.h"
#include "stream/streaming_dataset.h"
#include "util/matrix.h"

namespace gsmb {

/// A linear probabilistic scorer over a fixed feature set. `weights` lives
/// in *raw* (unscaled) feature space with `features.Dimensions()` entries,
/// laid out in the column order FeatureExtractor::Compute(features) emits.
struct ServingModel {
  FeatureSet features = FeatureSet::BlastOptimal();
  std::vector<double> weights;
  double intercept = 0.0;

  bool Valid() const {
    return !features.empty() && weights.size() == features.Dimensions();
  }

  /// P(match) = sigmoid(weights . row + intercept) for one raw feature row
  /// of width features.Dimensions().
  double Predict(const double* row) const;

  /// P(match) per row of `x` (x.cols() must equal features.Dimensions()).
  std::vector<double> PredictRows(const Matrix& x) const;
};

/// Knobs for bootstrapping a ServingModel from labelled data.
struct ServingModelTraining {
  ClassifierKind classifier = ClassifierKind::kLogisticRegression;
  size_t train_per_class = 250;
  uint64_t seed = 0;
  /// Preprocessing TrainServingModel applies to the bootstrap collection
  /// (paper defaults); a prepared trainer ignores it.
  BlockingOptions blocking;
  /// Shared execution knobs; also applied to `blocking`.
  ExecutionOptions execution;
};

/// Trains the classifier every backend trains (TrainClassifier over the
/// counting preparation, stream/streaming_dataset.h) and returns its
/// raw-space linear form: the balanced sample of the prepared candidates,
/// the sampled pairs' feature rows and the fit, never a pass over the
/// whole candidate set. The model equals the batch path's
/// model_coefficients on the same preparation bit for bit. Throws when the
/// chosen classifier has no linear representation (Gaussian Naive Bayes)
/// or when the preparation yields too few labelled candidate pairs.
/// `training_size` (optional) receives the balanced sample's actual size;
/// `phases` (optional) receives the training time as Phase::kTrain.
ServingModel TrainServingModelFromPrepared(
    const StreamingDataset& prepared, const FeatureSet& features,
    const ServingModelTraining& options = {}, size_t* training_size = nullptr,
    obs::PhaseTimings* phases = nullptr);

/// Prepares a labelled Dirty-ER collection with `options.blocking`
/// (PrepareStreamingDirty: Token Blocking -> purging -> filtering ->
/// counting) and trains from it (TrainServingModelFromPrepared).
ServingModel TrainServingModel(const EntityCollection& labelled,
                               const GroundTruth& ground_truth,
                               const FeatureSet& features,
                               const ServingModelTraining& options = {},
                               size_t* training_size = nullptr);

}  // namespace gsmb

#endif  // GSMB_SERVE_SERVING_MODEL_H_
