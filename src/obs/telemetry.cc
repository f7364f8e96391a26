// Telemetry sink implementation. This file (with src/util/) is the
// sanctioned owner of std::chrono in the tree: every span, phase timing
// and latency histogram reads the clock here, relative to one process
// epoch, so the rest of the pipeline never touches a clock directly.

#include "gsmb/telemetry.h"

#include <algorithm>
#include <chrono>

#include "api/json.h"

namespace gsmb {
namespace obs {

namespace detail {
std::atomic<TelemetrySink*> g_sink{nullptr};
// Bumped on every Install so per-thread slot caches from a previous
// installation are never reused against a new one.
std::atomic<uint64_t> g_install_epoch{0};

double NowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}
}  // namespace detail

namespace {

// Microseconds since the first telemetry clock read in this process.
// One shared epoch keeps span timestamps from different sinks, event-log
// records (and the trace as a whole) on a single timeline.
double NowUs() { return detail::NowMicros(); }

std::vector<double> MakeDefaultBounds() {
  // 1-2-5 series over seven decades: wide enough for microsecond query
  // latencies and for byte/row counts alike.
  std::vector<double> bounds;
  double decade = 1.0;
  for (int i = 0; i < 7; ++i) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
    decade *= 10.0;
  }
  bounds.push_back(decade);  // 1e7
  return bounds;
}

}  // namespace

const std::vector<double>& DefaultHistogramBounds() {
  static const std::vector<double> bounds = MakeDefaultBounds();
  return bounds;
}

// ---------------------------------------------------------------------------
// HistogramData

void HistogramData::Record(double value) {
  if (bounds.empty()) {
    bounds = DefaultHistogramBounds();
    counts.assign(bounds.size() + 1, 0);
  }
  size_t bucket =
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin();
  ++counts[bucket];
  if (count == 0 || value < min) min = value;
  if (count == 0 || value > max) max = value;
  ++count;
  sum += value;
}

void HistogramData::MergeFrom(const HistogramData& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  // All registry histograms share DefaultHistogramBounds(), so merging
  // is element-wise.
  for (size_t i = 0; i < counts.size() && i < other.counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

double HistogramData::Percentile(double p) const {
  if (count == 0) return 0.0;
  double rank = p * static_cast<double>(count);
  if (rank < 1.0) rank = 1.0;
  uint64_t seen = 0;
  double lower = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    double upper = i < bounds.size() ? bounds[i] : max;
    if (counts[i] > 0) {
      if (static_cast<double>(seen + counts[i]) >= rank) {
        double lo = std::max(lower, min);
        double hi = std::min(upper, max);
        if (hi < lo) hi = lo;
        double frac = (rank - static_cast<double>(seen)) /
                      static_cast<double>(counts[i]);
        return lo + frac * (hi - lo);
      }
      seen += counts[i];
    }
    lower = upper;
  }
  return max;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, delta] : other.counters) counters[name] += delta;
  for (const auto& [name, value] : other.gauges) {
    auto [it, inserted] = gauges.emplace(name, value);
    // Gauges merge by max: the interesting gauges (arena.bytes.peak)
    // are high-water marks.
    if (!inserted && value > it->second) it->second = value;
  }
  for (const auto& [name, histogram] : other.histograms) {
    histograms[name].MergeFrom(histogram);
  }
}

std::string MetricsJson(const MetricsSnapshot& snapshot) {
  json::Object counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters[name] = json::Value(value);
  }
  json::Object gauges;
  for (const auto& [name, value] : snapshot.gauges) {
    gauges[name] = json::Value(value);
  }
  json::Object histograms;
  for (const auto& [name, histogram] : snapshot.histograms) {
    json::Object h;
    h["count"] = json::Value(histogram.count);
    h["sum"] = json::Value(histogram.sum);
    h["min"] = json::Value(histogram.min);
    h["max"] = json::Value(histogram.max);
    h["p50"] = json::Value(histogram.Percentile(0.50));
    h["p95"] = json::Value(histogram.Percentile(0.95));
    h["p99"] = json::Value(histogram.Percentile(0.99));
    json::Array buckets;
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      if (histogram.counts[i] == 0) continue;  // sparse: only hit buckets
      json::Object bucket;
      if (i < histogram.bounds.size()) {
        bucket["le"] = json::Value(histogram.bounds[i]);
      } else {
        bucket["le"] = json::Value("inf");
      }
      bucket["count"] = json::Value(histogram.counts[i]);
      buckets.push_back(json::Value(std::move(bucket)));
    }
    h["buckets"] = json::Value(std::move(buckets));
    histograms[name] = json::Value(std::move(h));
  }
  json::Object root;
  root["counters"] = json::Value(std::move(counters));
  root["gauges"] = json::Value(std::move(gauges));
  root["histograms"] = json::Value(std::move(histograms));
  return json::Dump(json::Value(std::move(root))) + "\n";
}

// ---------------------------------------------------------------------------
// TelemetrySink

struct TelemetrySink::ThreadState {
  std::mutex mu;  // uncontended except against a concurrent export
  MetricsSnapshot metrics;
  std::vector<SpanEvent> spans;
  uint32_t tid = 0;
  uint32_t depth = 0;  // current span nesting (only its owner writes)
};

namespace {
// Per-thread slot cache: valid while (sink, install epoch) both match.
thread_local TelemetrySink* t_cached_sink = nullptr;
thread_local uint64_t t_cached_epoch = 0;
thread_local void* t_cached_state = nullptr;
}  // namespace

TelemetrySink::TelemetrySink() = default;
TelemetrySink::~TelemetrySink() = default;

TelemetrySink::ThreadState* TelemetrySink::StateForThisThread() {
  uint64_t epoch = detail::g_install_epoch.load(std::memory_order_relaxed);
  if (t_cached_sink == this && t_cached_epoch == epoch) {
    return static_cast<ThreadState*>(t_cached_state);
  }
  std::lock_guard<std::mutex> lock(mu_);
  thread_states_.push_back(std::make_unique<ThreadState>());
  ThreadState* state = thread_states_.back().get();
  state->tid = static_cast<uint32_t>(thread_states_.size() - 1);
  t_cached_sink = this;
  t_cached_epoch = epoch;
  t_cached_state = state;
  return state;
}

void TelemetrySink::CounterAdd(std::string_view name, uint64_t delta) {
  ThreadState* state = StateForThisThread();
  std::lock_guard<std::mutex> lock(state->mu);
  state->metrics.counters[std::string(name)] += delta;
}

void TelemetrySink::GaugeSet(std::string_view name, double value) {
  ThreadState* state = StateForThisThread();
  std::lock_guard<std::mutex> lock(state->mu);
  state->metrics.gauges[std::string(name)] = value;
}

void TelemetrySink::GaugeMax(std::string_view name, double value) {
  ThreadState* state = StateForThisThread();
  std::lock_guard<std::mutex> lock(state->mu);
  auto [it, inserted] = state->metrics.gauges.emplace(name, value);
  if (!inserted && value > it->second) it->second = value;
}

void TelemetrySink::HistogramRecord(std::string_view name, double value) {
  ThreadState* state = StateForThisThread();
  std::lock_guard<std::mutex> lock(state->mu);
  state->metrics.histograms[std::string(name)].Record(value);
}

uint32_t TelemetrySink::EnterSpan() {
  ThreadState* state = StateForThisThread();
  std::lock_guard<std::mutex> lock(state->mu);
  return state->depth++;
}

void TelemetrySink::ExitSpan(const char* name, double begin_us,
                             uint32_t depth, const char* latency_histogram) {
  double end_us = NowUs();
  ThreadState* state = StateForThisThread();
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->depth > 0) --state->depth;
  SpanEvent event;
  event.name = name;
  event.ts_us = begin_us;
  event.dur_us = end_us - begin_us;
  event.tid = state->tid;
  event.depth = depth;
  state->spans.push_back(std::move(event));
  if (latency_histogram != nullptr) {
    state->metrics.histograms[latency_histogram].Record(end_us - begin_us);
  }
}

void TelemetrySink::RecordSpan(const char* name, double begin_us,
                               double dur_us) {
  ThreadState* state = StateForThisThread();
  std::lock_guard<std::mutex> lock(state->mu);
  SpanEvent event;
  event.name = name;
  event.ts_us = begin_us;
  event.dur_us = dur_us;
  event.tid = state->tid;
  event.depth = state->depth;
  state->spans.push_back(std::move(event));
}

MetricsSnapshot TelemetrySink::SnapshotMetrics() const {
  MetricsSnapshot merged;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& state : thread_states_) {
    std::lock_guard<std::mutex> state_lock(state->mu);
    merged.MergeFrom(state->metrics);
  }
  return merged;
}

std::vector<SpanEvent> TelemetrySink::Spans() const {
  std::vector<SpanEvent> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& state : thread_states_) {
      std::lock_guard<std::mutex> state_lock(state->mu);
      all.insert(all.end(), state->spans.begin(), state->spans.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              return a.name < b.name;
            });
  return all;
}

std::string TelemetrySink::TraceJson() const {
  json::Array events;
  for (const SpanEvent& span : Spans()) {
    json::Object event;
    event["name"] = json::Value(span.name);
    event["cat"] = json::Value("gsmb");
    event["ph"] = json::Value("X");
    event["ts"] = json::Value(span.ts_us);
    event["dur"] = json::Value(span.dur_us);
    event["pid"] = json::Value(1);
    event["tid"] = json::Value(span.tid);
    events.push_back(json::Value(std::move(event)));
  }
  json::Object root;
  root["displayTimeUnit"] = json::Value("ms");
  root["traceEvents"] = json::Value(std::move(events));
  return json::Dump(json::Value(std::move(root))) + "\n";
}

std::string TelemetrySink::MetricsJson() const {
  return obs::MetricsJson(SnapshotMetrics());
}

// ---------------------------------------------------------------------------
// Installation

void InstallSink(TelemetrySink* sink) {
  detail::g_install_epoch.fetch_add(1, std::memory_order_relaxed);
  detail::g_sink.store(sink, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// SpanScope

void SpanScope::Begin() {
  depth_ = sink_->EnterSpan();
  begin_us_ = NowUs();
}

void SpanScope::End() {
  sink_->ExitSpan(name_, begin_us_, depth_, histogram_);
}

// ---------------------------------------------------------------------------
// Phases

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kBlocking:
      return "blocking";
    case Phase::kPairs:
      return "pairs";
    case Phase::kFeatures:
      return "features";
    case Phase::kTrain:
      return "train";
    case Phase::kClassify:
      return "classify";
    case Phase::kPrune:
      return "prune";
  }
  return "unknown";
}

ScopedPhase::ScopedPhase(PhaseTimings* timings, Phase phase)
    : timings_(timings), phase_(phase), sink_(CurrentSink()),
      begin_us_(NowUs()) {
  if (sink_ != nullptr) depth_ = sink_->EnterSpan();
}

ScopedPhase::~ScopedPhase() {
  double end_us = NowUs();
  if (timings_ != nullptr) {
    timings_->Add(phase_, (end_us - begin_us_) * 1e-6);
  }
  if (sink_ != nullptr) {
    sink_->ExitSpan(PhaseName(phase_), begin_us_, depth_, nullptr);
  }
}

void AttributeFusedRegion(PhaseTimings* timings, double begin_us,
                          double end_us, const PhaseTimings& busy,
                          Phase fallback) {
  PhaseTimings weights = busy;
  if (weights.Total() <= 0.0) {
    weights = PhaseTimings();
    weights.Add(fallback, 1.0);
  }
  const double total = weights.Total();
  TelemetrySink* sink = CurrentSink();
  double cursor_us = begin_us;
  for (int i = 0; i < kPhaseCount; ++i) {
    if (weights.seconds[i] <= 0.0) continue;
    const auto phase = static_cast<Phase>(i);
    const double share_us = (end_us - begin_us) * (weights.seconds[i] / total);
    if (timings != nullptr) timings->Add(phase, share_us * 1e-6);
    if (sink != nullptr) sink->RecordSpan(PhaseName(phase), cursor_us, share_us);
    cursor_us += share_us;
  }
}

FusedPhases::FusedPhases(PhaseTimings* timings, Phase fallback)
    : timings_(timings), fallback_(fallback), begin_us_(NowUs()) {}

FusedPhases::~FusedPhases() {
  AttributeFusedRegion(timings_, begin_us_, NowUs(), busy_, fallback_);
}

}  // namespace obs
}  // namespace gsmb
