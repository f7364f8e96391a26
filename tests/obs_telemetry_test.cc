// Telemetry subsystem: deterministic merge of per-thread metrics, span
// nesting, the no-sink fast path, and Chrome-trace / metrics JSON export
// round-tripping through the in-repo JSON parser.
//
// The contract under test mirrors the pipeline's headline guarantee:
// counter values must be bit-identical no matter how many threads fed the
// sink, and an uninstalled sink must leave zero trace of the
// instrumentation sites it silently skipped.

#include "gsmb/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "util/stopwatch.h"

namespace gsmb {
namespace {

/// Installs `sink` for the scope of one test; never leaks the install
/// into the next test even on assertion failure.
class SinkInstallation {
 public:
  explicit SinkInstallation(obs::TelemetrySink* sink) {
    obs::InstallSink(sink);
  }
  ~SinkInstallation() { obs::InstallSink(nullptr); }
};

/// Feeds the sink a fixed workload split across `num_threads` threads:
/// the same multiset of counter deltas and histogram values regardless of
/// the split, so any two runs must merge to identical snapshots.
obs::MetricsSnapshot RecordWorkload(size_t num_threads) {
  constexpr size_t kItems = 4000;
  obs::TelemetrySink sink;
  SinkInstallation install(&sink);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([t, num_threads] {
      for (size_t i = t; i < kItems; i += num_threads) {
        obs::CounterAdd("work.items");
        obs::CounterAdd("work.bytes", i % 17);
        // Integer-valued doubles: their sum is exact, so even the
        // histogram's FP `sum` must merge bit-identically.
        obs::HistogramRecord("work.cost_us",
                             static_cast<double>(i % 100 + 1));
        obs::GaugeMax("work.high_water", static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return sink.SnapshotMetrics();
}

TEST(Histogram, RecordMergePercentile) {
  obs::HistogramData h;
  h.bounds = obs::DefaultHistogramBounds();
  h.counts.assign(h.bounds.size() + 1, 0);
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  const double p50 = h.Percentile(0.50);
  const double p95 = h.Percentile(0.95);
  EXPECT_GE(p50, h.min);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, h.max);

  obs::HistogramData other = h;
  other.MergeFrom(h);
  EXPECT_EQ(other.count, 200u);
  EXPECT_DOUBLE_EQ(other.sum, 10100.0);
  EXPECT_DOUBLE_EQ(other.max, 100.0);
}

TEST(Telemetry, MergeIsBitIdenticalAcrossThreadCounts) {
  const obs::MetricsSnapshot one = RecordWorkload(1);
  const obs::MetricsSnapshot eight = RecordWorkload(8);

  ASSERT_EQ(one.counters.size(), eight.counters.size());
  EXPECT_EQ(one.counters.at("work.items"), eight.counters.at("work.items"));
  EXPECT_EQ(one.counters.at("work.bytes"), eight.counters.at("work.bytes"));
  EXPECT_EQ(one.gauges.at("work.high_water"),
            eight.gauges.at("work.high_water"));

  const obs::HistogramData& h1 = one.histograms.at("work.cost_us");
  const obs::HistogramData& h8 = eight.histograms.at("work.cost_us");
  EXPECT_EQ(h1.count, h8.count);
  EXPECT_EQ(h1.sum, h8.sum);  // exact: integer-valued samples
  EXPECT_EQ(h1.min, h8.min);
  EXPECT_EQ(h1.max, h8.max);
  EXPECT_EQ(h1.counts, h8.counts);

  // The exported JSON — the user-visible artifact — is byte-identical.
  EXPECT_EQ(obs::MetricsJson(one), obs::MetricsJson(eight));
}

TEST(Telemetry, SpanNestingDepthsAndDurations) {
  obs::TelemetrySink sink;
  SinkInstallation install(&sink);
  {
    GSMB_SPAN("outer");
    {
      GSMB_SPAN("inner", "inner.latency_us");
      volatile uint64_t spin = 0;
      for (int i = 0; i < 1000; ++i) spin = spin + i;
    }
  }
  const std::vector<obs::SpanEvent> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: outer begins first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_LE(spans[0].ts_us, spans[1].ts_us);
  EXPECT_GE(spans[0].dur_us, spans[1].dur_us);

  // The span's second argument fed the latency histogram from the same
  // clock read.
  const obs::MetricsSnapshot snapshot = sink.SnapshotMetrics();
  ASSERT_EQ(snapshot.histograms.count("inner.latency_us"), 1u);
  EXPECT_EQ(snapshot.histograms.at("inner.latency_us").count, 1u);
}

TEST(Telemetry, NoSinkFastPathRecordsNothing) {
  ASSERT_EQ(obs::CurrentSink(), nullptr);
  // Every instrumentation site must be a silent no-op with no sink.
  obs::CounterAdd("ghost.counter");
  obs::GaugeSet("ghost.gauge", 1.0);
  obs::GaugeMax("ghost.gauge", 2.0);
  obs::HistogramRecord("ghost.hist", 3.0);
  { GSMB_SPAN("ghost.span", "ghost.latency_us"); }

  obs::PhaseTimings timings;
  { obs::ScopedPhase phase(&timings, obs::Phase::kTrain); }
  // ScopedPhase always times (JobResult needs its seconds either way)...
  EXPECT_GE(timings.Get(obs::Phase::kTrain), 0.0);

  // ...but a sink installed afterwards must have seen none of the above.
  obs::TelemetrySink sink;
  SinkInstallation install(&sink);
  EXPECT_TRUE(sink.SnapshotMetrics().empty());
  EXPECT_TRUE(sink.Spans().empty());
}

TEST(Telemetry, TraceJsonRoundTripsThroughRepoParser) {
  obs::TelemetrySink sink;
  SinkInstallation install(&sink);
  {
    GSMB_SPAN("prepare");
    { GSMB_SPAN("blocking"); }
    { GSMB_SPAN("prune"); }
  }
  const Result<json::Value> parsed = json::Parse(sink.TraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  const json::Value* events = parsed->AsObject().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::set<std::string> names;
  for (const json::Value& event : events->AsArray()) {
    ASSERT_TRUE(event.is_object());
    const json::Object& obj = event.AsObject();
    ASSERT_NE(obj.Find("name"), nullptr);
    ASSERT_NE(obj.Find("ts"), nullptr);
    ASSERT_NE(obj.Find("dur"), nullptr);
    EXPECT_EQ(obj.Find("ph")->AsString(), "X");
    names.insert(obj.Find("name")->AsString());
  }
  EXPECT_EQ(names, (std::set<std::string>{"prepare", "blocking", "prune"}));
}

// Engine::Prepare names its layers as perfbench does: `prepare` holds
// datasets.load, blocking, stream.index_count and obs.digest in that
// order, and `blocking` holds schemes.build, blocking.purge and
// blocking.filter.
TEST(Telemetry, PrepareSpansNameTheLayers) {
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = 0.03;
  spec.execution.options.num_threads = 2;
  const Engine engine;

  obs::TelemetrySink sink;
  SinkInstallation install(&sink);
  ASSERT_TRUE(engine.Prepare(spec).ok());

  std::map<std::string, obs::SpanEvent> by_name;
  for (const obs::SpanEvent& span : sink.Spans()) {
    EXPECT_EQ(by_name.count(span.name), 0u) << span.name << " twice";
    by_name[span.name] = span;
  }
  const auto expect_inside = [&](const std::vector<std::string>& children,
                                 const std::string& parent_name) {
    ASSERT_EQ(by_name.count(parent_name), 1u) << parent_name;
    const obs::SpanEvent& parent = by_name[parent_name];
    double previous_start = parent.ts_us;
    for (const std::string& name : children) {
      ASSERT_EQ(by_name.count(name), 1u) << name;
      const obs::SpanEvent& child = by_name[name];
      EXPECT_EQ(child.tid, parent.tid) << name;
      EXPECT_EQ(child.depth, parent.depth + 1) << name;
      EXPECT_GE(child.ts_us, previous_start) << name;
      EXPECT_LE(child.ts_us + child.dur_us,
                parent.ts_us + parent.dur_us + 1e-3)
          << name;
      previous_start = child.ts_us;
    }
  };
  expect_inside(
      {"datasets.load", "blocking", "stream.index_count", "obs.digest"},
      "prepare");
  expect_inside({"schemes.build", "blocking.purge", "blocking.filter"},
                "blocking");
  EXPECT_EQ(by_name["prepare"].depth, 0u);
}

TEST(Telemetry, MetricsJsonRoundTripsThroughRepoParser) {
  obs::TelemetrySink sink;
  SinkInstallation install(&sink);
  obs::CounterAdd("pairs.generated", 12345);
  obs::HistogramRecord("serve.query.latency_us", 42.0);

  const Result<json::Value> parsed = json::Parse(sink.MetricsJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Object& root = parsed->AsObject();
  const json::Value* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* generated = counters->AsObject().Find("pairs.generated");
  ASSERT_NE(generated, nullptr);
  EXPECT_EQ(generated->AsU64(), 12345u);
  const json::Value* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* latency =
      histograms->AsObject().Find("serve.query.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->AsObject().Find("count")->AsU64(), 1u);
  ASSERT_NE(latency->AsObject().Find("p99"), nullptr);
}

// A fused region's wall time is split over its phases by the workers'
// busy tallies: the shares follow the tallies and add up to the wall time.
TEST(FusedPhaseAttribution, SharesFollowTalliesAndSumToWallTime) {
  obs::PhaseTimings busy;
  busy.Add(obs::Phase::kPairs, 0.030);
  busy.Add(obs::Phase::kFeatures, 0.010);
  busy.Add(obs::Phase::kClassify, 0.020);
  obs::PhaseTimings timings;
  timings.Add(obs::Phase::kTrain, 1.0);  // earlier phases stay untouched
  obs::AttributeFusedRegion(&timings, 1000.0, 7000.0, busy,
                            obs::Phase::kPairs);

  EXPECT_DOUBLE_EQ(timings.Get(obs::Phase::kPairs), 0.003);
  EXPECT_DOUBLE_EQ(timings.Get(obs::Phase::kFeatures), 0.001);
  EXPECT_DOUBLE_EQ(timings.Get(obs::Phase::kClassify), 0.002);
  EXPECT_EQ(timings.Get(obs::Phase::kTrain), 1.0);
  EXPECT_EQ(timings.Get(obs::Phase::kBlocking), 0.0);
  EXPECT_EQ(timings.Get(obs::Phase::kPrune), 0.0);
  EXPECT_NEAR(timings.Total() - 1.0, 0.006, 1e-15);
}

TEST(FusedPhaseAttribution, AllZeroTalliesFallBackToOnePhase) {
  obs::PhaseTimings timings;
  obs::AttributeFusedRegion(&timings, 50.0, 2050.0, obs::PhaseTimings(),
                            obs::Phase::kFeatures);
  EXPECT_DOUBLE_EQ(timings.Get(obs::Phase::kFeatures), 0.002);
  EXPECT_DOUBLE_EQ(timings.Total(), 0.002);
}

TEST(FusedPhaseAttribution, SpansOnlyWithASinkLaidEndToEnd) {
  obs::PhaseTimings busy;
  busy.Add(obs::Phase::kFeatures, 3.0);
  busy.Add(obs::Phase::kClassify, 1.0);

  // No sink: the seconds are still attributed, but nothing is recorded.
  obs::PhaseTimings timings;
  obs::AttributeFusedRegion(&timings, 0.0, 400.0, busy, obs::Phase::kPairs);
  EXPECT_DOUBLE_EQ(timings.Total(), 400e-6);
  {
    obs::TelemetrySink sink;
    SinkInstallation install(&sink);
    EXPECT_TRUE(sink.Spans().empty());
  }

  obs::TelemetrySink sink;
  SinkInstallation install(&sink);
  {
    GSMB_SPAN("region");
    obs::AttributeFusedRegion(nullptr, 100.0, 500.0, busy,
                              obs::Phase::kPairs);
  }
  std::map<std::string, obs::SpanEvent> by_name;
  for (const obs::SpanEvent& span : sink.Spans()) by_name[span.name] = span;
  ASSERT_EQ(by_name.size(), 3u);
  ASSERT_EQ(by_name.count("region"), 1u);
  // The phases in phase order, one level below the enclosing span,
  // covering [100, 500) without gaps.
  const obs::SpanEvent& features = by_name["features"];
  const obs::SpanEvent& classify = by_name["classify"];
  EXPECT_EQ(features.depth, by_name["region"].depth + 1);
  EXPECT_DOUBLE_EQ(features.ts_us, 100.0);
  EXPECT_DOUBLE_EQ(features.dur_us, 300.0);
  EXPECT_EQ(classify.depth, by_name["region"].depth + 1);
  EXPECT_DOUBLE_EQ(classify.ts_us, 400.0);
  EXPECT_DOUBLE_EQ(classify.dur_us, 100.0);
}

// The RAII form times the region itself: its attributed seconds cannot
// exceed a clock bracketing it.
TEST(FusedPhaseAttribution, ScopeAttributesItsOwnWallTime) {
  obs::PhaseTimings timings;
  Stopwatch outer;
  {
    obs::FusedPhases region(&timings, obs::Phase::kPairs);
    Stopwatch inner;
    volatile uint64_t spin = 0;
    for (int i = 0; i < 100000; ++i) spin = spin + i;
    region.busy()->Add(obs::Phase::kClassify, inner.ElapsedSeconds());
  }
  const double wall = outer.ElapsedSeconds();
  EXPECT_GT(timings.Get(obs::Phase::kClassify), 0.0);
  EXPECT_EQ(timings.Get(obs::Phase::kPairs), 0.0);
  EXPECT_LE(timings.Total(), wall);
}

TEST(Telemetry, AllThreeBackendsReportTheSamePhaseSet) {
  // Satellite of ApplyPhaseTimings: one writer of JobResult timing fields
  // means one phase vocabulary — a gauge key present in one backend's
  // snapshot but missing from another's would mean a backend bypassed it.
  Engine engine;
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = 0.03;
  spec.blocking.filter_ratio = 1.0;  // serving cannot filter
  spec.blocking.purge_size_fraction = 0.5;
  spec.pruning.kind = PruningKind::kBlast;
  spec.training.labels_per_class = 15;
  spec.training.seed = 3;
  spec.execution.shards = 1;

  std::vector<std::set<std::string>> phase_keys;
  for (ExecutionMode mode : {ExecutionMode::kBatch, ExecutionMode::kStreaming,
                             ExecutionMode::kServing}) {
    spec.execution.mode = mode;
    Result<JobResult> result = engine.Run(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::set<std::string> keys;
    for (const auto& [name, value] : result->telemetry.gauges) {
      if (name.rfind("phase.", 0) == 0) keys.insert(name);
    }
    phase_keys.push_back(std::move(keys));
  }
  const std::set<std::string> expected{
      "phase.prepare.seconds",  "phase.blocking.seconds",
      "phase.pairs.seconds",    "phase.features.seconds",
      "phase.train.seconds",    "phase.classify.seconds",
      "phase.prune.seconds"};
  EXPECT_EQ(phase_keys[0], expected);
  EXPECT_EQ(phase_keys[1], expected);
  EXPECT_EQ(phase_keys[2], expected);
}

// A serving run's pipeline counters are its session's candidate and
// retained counts, the numbers its JobResult reports. At more than one
// shard both differ from those of a batch job over the same profiles.
TEST(Telemetry, ServingCountersAreTheSessionsOwn) {
  Engine engine;
  JobSpec spec;
  spec.dataset.source = DatasetSource::kGeneratedDirty;
  spec.dataset.name = "D10K";
  spec.dataset.scale = 0.03;
  spec.blocking.filter_ratio = 1.0;  // serving cannot filter
  spec.training.labels_per_class = 15;
  spec.training.seed = 3;
  spec.execution.mode = ExecutionMode::kServing;
  spec.execution.shards = 4;

  obs::TelemetrySink sink;
  SinkInstallation install(&sink);
  Result<JobResult> result = engine.Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->shards_used, 1u);
  const obs::MetricsSnapshot metrics = sink.SnapshotMetrics();
  ASSERT_EQ(metrics.counters.count("pairs.generated"), 1u);
  ASSERT_EQ(metrics.counters.count("pairs.retained"), 1u);
  EXPECT_EQ(metrics.counters.at("pairs.generated"), result->num_candidates);
  EXPECT_EQ(metrics.counters.at("pairs.retained"), result->metrics.retained);
}

}  // namespace
}  // namespace gsmb
