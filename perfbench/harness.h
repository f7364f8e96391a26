// Shared machinery of the perfbench runner: the clock, order statistics,
// the in-memory span tracer, the reference-digest book and the metric
// report that becomes the runner's one-line JSON result.
//
// Everything here lives in the benchmark, outside the library: spans are
// recorded around calls INTO the library's public functions, never inside
// it, so the traced run measures the same code the untraced run does.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Spans and per-operation values, kept in memory until the run ends.
///
/// An operation is one unit of the workload's loop (a variant execution, a
/// cold preparation, a query) or one set-up repetition; every span and
/// value carries the id of the operation it belongs to, and a span also
/// the span that caused it. A disabled tracer records nothing and costs
/// one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled).
  int Begin(const std::string& name, int64_t op, int parent = -1);
  void End(int span);
  /// Attaches a measured value (a count, a ratio, or a phase time the
  /// library reported) to an operation.
  void Value(const std::string& name, int64_t op, double value);

  /// Per-operation totals of spans named `name` (ms), or of values named
  /// `name`, in operation order.
  std::vector<double> PerOp(const std::string& name) const;

  /// Chrome-trace JSON (chrome://tracing, Perfetto). Returns false when
  /// the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t op = 0;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string, std::map<int64_t, double>> values_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int64_t op,
             int parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Expected digests per operation label, and the digests each operation
/// actually produced.
///
/// A label's expectation is the committed reference digest when the
/// reference file records this (scale, workload, seed); otherwise the
/// first digest the run observes, which the workload's independent
/// cross-check then confirms or refutes with Verify().
class DigestBook {
 public:
  /// Loads the entries of `path` for (scale, workload, seed). A missing
  /// file or seed simply leaves the book without references.
  void LoadReference(const std::string& path, const std::string& scale,
                     const std::string& workload, uint64_t seed);

  /// Records one operation's digest; false when it contradicts the
  /// expectation (reference, or the label's first observation).
  bool Check(const std::string& label, const std::string& kind,
             uint64_t digest);
  /// Confirms a label's observed digest against an independent path.
  /// Returns the number of operations under that label that must count as
  /// failed (0 when the digests agree).
  uint64_t Verify(const std::string& label, uint64_t independent);
  /// Reference labels this run never produced; each counts as a failure.
  std::vector<std::string> MissingReferenceLabels() const;

  /// "digest <label> <kind> <hex>" lines (the reference file's payload).
  void Print() const;

 private:
  struct Entry {
    std::string kind;
    uint64_t digest = 0;
    uint64_t ops = 0;
    uint64_t failed = 0;  ///< operations that failed Check()
  };
  std::map<std::string, uint64_t> reference_;
  std::map<std::string, Entry> observed_;
};

/// A metric's name and unit, as BENCHMARK.json declares it.
struct MetricName {
  const char* name;
  const char* unit;
};

/// The metrics one run reports.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// "metric <name> <value> <unit>" lines for every metric set.
  void PrintAll() const;
  /// The runner's result line carrying exactly `names`; a name this run
  /// did not set reports 0 (a layer the workload never calls).
  std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<MetricName>& names) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

/// Shortest round-trip decimal form of `value` (0 for non-finite values).
std::string FormatDouble(double value);

/// VmHWM of this process, MiB (gsmb/util/mem_stats).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
