// Pipeline-wide telemetry: phase-scoped spans, a metrics registry of
// counters / gauges / fixed-bucket histograms, and Chrome-trace export.
//
// Design contract (the determinism guarantee extends to observability):
//
//   * Compiled in, but cheap when off. No sink installed means every
//     instrumentation site is one relaxed atomic load and a branch — no
//     clock read, no allocation, no lock. Hot loops stay hot.
//   * Per-thread aggregation. Each worker thread records into its own
//     slot inside the sink; slots are merged only at export time, so
//     instrumentation never adds cross-thread ordering and cannot
//     perturb retained-pair determinism.
//   * Deterministic output. Counter values are unsigned integers whose
//     merge is commutative, so a metrics export is bit-identical across
//     thread counts; exported JSON is name-sorted.
//
// The subsystem is also the sanctioned clock owner: std::chrono stays
// inside src/obs/ + src/util/ (lint_determinism.py enforces this), and
// this header deliberately includes no clock — SpanScope reads the time
// out of line, only after the sink check passed.

#ifndef GSMB_TELEMETRY_H_
#define GSMB_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gsmb {
namespace obs {

// ---------------------------------------------------------------------------
// Metric value types

/// Fixed-bucket histogram. Buckets are cumulative-style upper bounds
/// (`value <= bounds[i]` lands in bucket i; the last slot of `counts`
/// is the overflow bucket). All registry histograms share the default
/// 1-2-5 bound series so any two HistogramData merge without rebinning.
struct HistogramData {
  std::vector<double> bounds;    // ascending upper bounds
  std::vector<uint64_t> counts;  // bounds.size() + 1 (last = overflow)
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void Record(double value);
  void MergeFrom(const HistogramData& other);
  /// Linear-interpolated percentile estimate, p in [0, 1]. Clamped to
  /// the observed [min, max] range; 0 when empty.
  double Percentile(double p) const;
};

/// The default 1-2-5 bound series (1 .. 1e7), shared by every registry
/// histogram. Values are unit-agnostic; latency histograms use it as
/// microseconds.
const std::vector<double>& DefaultHistogramBounds();

/// A merged, plain-data view of the registry: what a sink exports and
/// what JobResult carries as its per-run metric snapshot. std::map keys
/// keep every export name-sorted, hence deterministic.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  void MergeFrom(const MetricsSnapshot& other);
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Serializes a snapshot as name-sorted JSON (counters / gauges /
/// histograms with count/sum/min/max/p50/p95/p99 and bucket rows).
std::string MetricsJson(const MetricsSnapshot& snapshot);

/// One completed span, Chrome-trace "complete event" shaped. tid is a
/// logical thread id (registration order inside the sink), depth the
/// nesting level at emission.
struct SpanEvent {
  std::string name;
  double ts_us = 0.0;   // start, microseconds since process telemetry epoch
  double dur_us = 0.0;  // duration, microseconds
  uint32_t tid = 0;
  uint32_t depth = 0;
};

// ---------------------------------------------------------------------------
// The sink

/// Collects spans and metrics from any number of threads. Recording
/// goes to a per-thread slot guarded by that slot's own (uncontended)
/// mutex; exports lock the slot list and merge. A sink must outlive
/// every thread that records into it while installed.
class TelemetrySink {
 public:
  TelemetrySink();
  ~TelemetrySink();
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  // Recording (thread-safe).
  void CounterAdd(std::string_view name, uint64_t delta);
  void GaugeSet(std::string_view name, double value);
  void GaugeMax(std::string_view name, double value);
  void HistogramRecord(std::string_view name, double value);

  // Span protocol used by SpanScope / ScopedPhase: EnterSpan bumps the
  // calling thread's nesting depth and returns the span's depth;
  // ExitSpan appends the completed event (and, when latency_histogram
  // is non-null, records the duration in microseconds there).
  uint32_t EnterSpan();
  void ExitSpan(const char* name, double begin_us, uint32_t depth,
                const char* latency_histogram);
  /// Appends a completed span with an explicit start and duration at the
  /// calling thread's current nesting depth (AttributeFusedRegion's
  /// attributed phase spans, which no clock read brackets).
  void RecordSpan(const char* name, double begin_us, double dur_us);

  // Export (thread-safe; merges all per-thread slots).
  MetricsSnapshot SnapshotMetrics() const;
  std::vector<SpanEvent> Spans() const;
  /// Chrome chrome://tracing / Perfetto "traceEvents" JSON.
  std::string TraceJson() const;
  /// MetricsJson(SnapshotMetrics()).
  std::string MetricsJson() const;

 private:
  struct ThreadState;
  ThreadState* StateForThisThread();

  mutable std::mutex mu_;  // guards thread_states_ (slot list only)
  std::vector<std::unique_ptr<ThreadState>> thread_states_;
};

// ---------------------------------------------------------------------------
// Global installation — the one relaxed atomic the fast path reads.

namespace detail {
extern std::atomic<TelemetrySink*> g_sink;
/// Microseconds since the process telemetry epoch (the first clock read).
/// Shared by spans and the event log (gsmb/log.h) so all observability
/// timestamps sit on one timeline. Defined in src/obs/telemetry.cc — the
/// sanctioned clock owner.
double NowMicros();
}  // namespace detail

/// The installed sink, or nullptr. Relaxed load: instrumentation sites
/// branch on this and do nothing else when telemetry is off.
inline TelemetrySink* CurrentSink() {
  return detail::g_sink.load(std::memory_order_relaxed);
}

/// Installs `sink` process-wide (nullptr uninstalls). The caller owns
/// the sink and must uninstall before destroying it; threads recording
/// concurrently with Install may attribute to either sink.
void InstallSink(TelemetrySink* sink);

// Free-function recording shims: no-ops without an installed sink.
inline void CounterAdd(std::string_view name, uint64_t delta = 1) {
  if (TelemetrySink* sink = CurrentSink()) sink->CounterAdd(name, delta);
}
inline void GaugeSet(std::string_view name, double value) {
  if (TelemetrySink* sink = CurrentSink()) sink->GaugeSet(name, value);
}
inline void GaugeMax(std::string_view name, double value) {
  if (TelemetrySink* sink = CurrentSink()) sink->GaugeMax(name, value);
}
inline void HistogramRecord(std::string_view name, double value) {
  if (TelemetrySink* sink = CurrentSink()) sink->HistogramRecord(name, value);
}

// ---------------------------------------------------------------------------
// Spans

/// RAII span. With no sink installed the constructor is a relaxed load
/// plus branch; the clock is only read (out of line) when a sink is
/// present. The optional second argument names a histogram that
/// receives the span duration in microseconds, so latency metrics and
/// trace spans come from one clock read.
class SpanScope {
 public:
  explicit SpanScope(const char* name,
                     const char* latency_histogram = nullptr)
      : sink_(CurrentSink()),
        name_(name),
        histogram_(latency_histogram) {
    if (sink_ != nullptr) Begin();
  }
  ~SpanScope() {
    if (sink_ != nullptr) End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void Begin();  // reads the clock; defined in src/obs/telemetry.cc
  void End();

  TelemetrySink* sink_;
  const char* name_;
  const char* histogram_;
  double begin_us_ = 0.0;
  uint32_t depth_ = 0;
};

#define GSMB_OBS_CONCAT_INNER(a, b) a##b
#define GSMB_OBS_CONCAT(a, b) GSMB_OBS_CONCAT_INNER(a, b)
/// GSMB_SPAN("name") or GSMB_SPAN("name", "latency.histogram_us"):
/// scopes a span over the rest of the enclosing block.
#define GSMB_SPAN(...) \
  ::gsmb::obs::SpanScope GSMB_OBS_CONCAT(gsmb_span_, __LINE__)(__VA_ARGS__)

// ---------------------------------------------------------------------------
// Canonical pipeline phases (the satellite of every JobResult)

/// The canonical phase set every execution backend reports. Phase
/// timings flow through PhaseTimings into the JobResult `*_seconds`
/// fields, so all backends share one clock source and one phase
/// vocabulary.
enum class Phase : int {
  kBlocking = 0,  // preparation: blocking + purging + filtering
  kPairs,         // candidate-pair generation / batch materialisation
  kFeatures,
  kTrain,
  kClassify,
  kPrune,
};
inline constexpr int kPhaseCount = 6;

const char* PhaseName(Phase phase);

/// Per-job phase-time accumulator. Plain data: backends own one per
/// run, so concurrent sweep variants never mix their timings.
struct PhaseTimings {
  double seconds[kPhaseCount] = {};

  void Add(Phase phase, double secs) {
    seconds[static_cast<int>(phase)] += secs;
  }
  double Get(Phase phase) const {
    return seconds[static_cast<int>(phase)];
  }
  void MergeFrom(const PhaseTimings& other) {
    for (int i = 0; i < kPhaseCount; ++i) seconds[i] += other.seconds[i];
  }
  double Total() const {
    double total = 0.0;
    for (double s : seconds) total += s;
    return total;
  }
};

/// RAII phase timer: always times (JobResult reports phase seconds with
/// or without telemetry), and additionally emits a span named after the
/// phase when a sink is installed. This is the single clock source for
/// the pipeline's RT breakdown.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimings* timings, Phase phase);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimings* timings_;
  Phase phase_;
  TelemetrySink* sink_;
  double begin_us_;
  uint32_t depth_ = 0;
};

/// Phase accounting for a fused region: one pass in which several phases
/// interleave inside every worker (the streaming shard fill regenerates
/// pairs, evaluates features and classifies tile by tile; the batch scoring
/// sweep does the last two), so the phases cannot be timed one after
/// another. The workers tally the seconds each phase's code ran (`busy`,
/// summed over workers) and the region's wall time is split over the
/// phases in proportion to those tallies. The phase seconds and spans of a
/// fused region are therefore ATTRIBUTED SHARES of its wall time, not
/// separately measured intervals; they add up to the wall time, so RT
/// totals still cover exactly the region.
///
/// Adds each phase's share of [begin_us, end_us) to `timings` and, with a
/// sink installed, emits one span per phase with a share, laid end to end
/// across the region in phase order. All-zero tallies give the whole
/// region to `fallback`.
void AttributeFusedRegion(PhaseTimings* timings, double begin_us,
                          double end_us, const PhaseTimings& busy,
                          Phase fallback);

/// RAII form of AttributeFusedRegion: times the region on the telemetry
/// clock from construction to destruction; the region's workers add their
/// busy seconds to busy().
class FusedPhases {
 public:
  FusedPhases(PhaseTimings* timings, Phase fallback);
  ~FusedPhases();
  FusedPhases(const FusedPhases&) = delete;
  FusedPhases& operator=(const FusedPhases&) = delete;

  PhaseTimings* busy() { return &busy_; }

 private:
  PhaseTimings* timings_;
  Phase fallback_;
  double begin_us_;
  PhaseTimings busy_;
};

}  // namespace obs
}  // namespace gsmb

#endif  // GSMB_TELEMETRY_H_
