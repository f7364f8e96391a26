#include "eval/metrics.h"

#include <cmath>

namespace gsmb {

namespace {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v, double mean) {
  if (v.size() < 2) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += (x - mean) * (x - mean);
  return std::sqrt(acc / static_cast<double>(v.size()));
}

}  // namespace

void MetricsAccumulator::Add(const MetaBlockingResult& result) {
  Add(result.metrics, result.phases.Total());
}

void MetricsAccumulator::Add(const EffectivenessMetrics& metrics,
                             double total_seconds) {
  recalls_.push_back(metrics.recall);
  precisions_.push_back(metrics.precision);
  f1s_.push_back(metrics.f1);
  rts_.push_back(total_seconds);
  retained_.push_back(static_cast<double>(metrics.retained));
}

AggregateMetrics MetricsAccumulator::Summary() const {
  AggregateMetrics agg;
  agg.runs = recalls_.size();
  agg.recall = Mean(recalls_);
  agg.precision = Mean(precisions_);
  agg.f1 = Mean(f1s_);
  agg.rt_seconds = Mean(rts_);
  agg.retained = Mean(retained_);
  agg.recall_std = StdDev(recalls_, agg.recall);
  agg.precision_std = StdDev(precisions_, agg.precision);
  agg.f1_std = StdDev(f1s_, agg.f1);
  return agg;
}

AggregateMetrics MacroAverage(
    const std::vector<AggregateMetrics>& per_dataset) {
  AggregateMetrics out;
  if (per_dataset.empty()) return out;
  for (const AggregateMetrics& m : per_dataset) {
    out.recall += m.recall;
    out.precision += m.precision;
    out.f1 += m.f1;
    out.rt_seconds += m.rt_seconds;
    out.retained += m.retained;
    out.runs += m.runs;
  }
  const auto n = static_cast<double>(per_dataset.size());
  out.recall /= n;
  out.precision /= n;
  out.f1 /= n;
  out.rt_seconds /= n;
  out.retained /= n;
  return out;
}

}  // namespace gsmb
