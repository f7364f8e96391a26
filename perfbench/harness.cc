#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "gsmb/digest.h"
#include "util/mem_stats.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<size_t>(std::floor(position));
  const size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Tracer

int Tracer::Begin(const std::string& name, int64_t op, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end = Clock::now();
}

void Tracer::Value(const std::string& name, int64_t op, double value) {
  if (!enabled_) return;
  values_[name][op] += value;
}

std::vector<double> Tracer::PerOp(const std::string& name) const {
  std::map<int64_t, double> totals;
  for (const Span& span : spans_) {
    if (span.name == name) totals[span.op] += MsBetween(span.start, span.end);
  }
  const auto it = values_.find(name);
  if (it != values_.end()) {
    for (const auto& [op, value] : it->second) totals[op] += value;
  }
  std::vector<double> out;
  out.reserve(totals.size());
  for (const auto& [op, total] : totals) out.push_back(total);
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double ts_us = MsBetween(origin_, span.start) * 1e3;
    const double dur_us = MsBetween(span.start, span.end) * 1e3;
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << FormatDouble(ts_us)
        << ",\"dur\":" << FormatDouble(dur_us) << ",\"args\":{\"op\":"
        << span.op << ",\"span\":" << i << ",\"parent\":" << span.parent
        << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  out.close();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// DigestBook

void DigestBook::LoadReference(const std::string& path,
                               const std::string& scale,
                               const std::string& workload, uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string row_scale, row_workload, label, kind, hex;
    uint64_t row_seed = 0;
    if (!(fields >> row_scale >> row_workload >> row_seed >> label >> kind >>
          hex)) {
      continue;
    }
    if (row_scale != scale || row_workload != workload || row_seed != seed) {
      continue;
    }
    reference_[label] = std::stoull(hex, nullptr, 16);
  }
}

bool DigestBook::Check(const std::string& label, const std::string& kind,
                       uint64_t digest) {
  auto [it, first] = observed_.try_emplace(label);
  Entry& entry = it->second;
  ++entry.ops;
  if (first) {
    entry.kind = kind;
    entry.digest = digest;
  }
  const auto ref = reference_.find(label);
  const uint64_t expected = ref != reference_.end() ? ref->second
                                                    : entry.digest;
  if (digest != expected) {
    ++entry.failed;
    return false;
  }
  return true;
}

uint64_t DigestBook::Verify(const std::string& label, uint64_t independent) {
  const auto it = observed_.find(label);
  if (it == observed_.end()) return 0;
  if (it->second.digest == independent) return 0;
  std::printf("digest mismatch: %s observed %s, independent path %s\n",
              label.c_str(), gsmb::obs::DigestHex(it->second.digest).c_str(),
              gsmb::obs::DigestHex(independent).c_str());
  // Every operation of the label that passed Check() returned the refuted
  // digest; those that failed Check() were counted then.
  return it->second.ops - it->second.failed;
}

std::vector<std::string> DigestBook::MissingReferenceLabels() const {
  std::vector<std::string> missing;
  for (const auto& [label, digest] : reference_) {
    if (observed_.find(label) == observed_.end()) missing.push_back(label);
  }
  return missing;
}

void DigestBook::Print() const {
  for (const auto& [label, entry] : observed_) {
    std::printf("digest %s %s %s\n", label.c_str(), entry.kind.c_str(),
                gsmb::obs::DigestHex(entry.digest).c_str());
  }
}

// ---------------------------------------------------------------------------
// Report

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Report::Has(const std::string& name) const {
  return metrics_.find(name) != metrics_.end();
}

double Report::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::PrintAll() const {
  for (const auto& [name, metric] : metrics_) {
    std::printf("metric %s %s %s\n", name.c_str(),
                FormatDouble(metric.value).c_str(), metric.unit.c_str());
  }
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed,
                               const std::vector<MetricName>& names) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << names[i].name
        << "\": {\"value\": " << FormatDouble(Get(names[i].name))
        << ", \"unit\": \"" << names[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

double PeakRssMb() {
  return static_cast<double>(gsmb::PeakRssKb()) / 1024.0;
}

}  // namespace perfbench
