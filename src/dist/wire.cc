#include "dist/wire.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/spec_json.h"
#include "gsmb/telemetry.h"
#include "util/binary_io.h"

namespace gsmb::dist {

namespace {

bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kShutdown);
}

// -- Lenient JSON field readers ---------------------------------------------
// The protocol is an internal, same-build contract whose semantic content
// is verified downstream by digests; absent fields default rather than
// error, which keeps the codec small and forward-tolerant.

uint64_t U64Field(const json::Object& obj, const char* key,
                  uint64_t fallback = 0) {
  const json::Value* value = obj.Find(key);
  return value != nullptr && value->is_u64() ? value->AsU64() : fallback;
}

double NumberField(const json::Object& obj, const char* key,
                   double fallback = 0.0) {
  const json::Value* value = obj.Find(key);
  return value != nullptr && value->is_number() ? value->AsDouble() : fallback;
}

std::string StringField(const json::Object& obj, const char* key) {
  const json::Value* value = obj.Find(key);
  return value != nullptr && value->is_string() ? value->AsString()
                                                : std::string();
}

bool BoolField(const json::Object& obj, const char* key,
               bool fallback = false) {
  const json::Value* value = obj.Find(key);
  return value != nullptr && value->is_bool() ? value->AsBool() : fallback;
}

const json::Object* ObjectField(const json::Object& obj, const char* key) {
  const json::Value* value = obj.Find(key);
  return value != nullptr && value->is_object() ? &value->AsObject() : nullptr;
}

Result<json::Object> ParseObject(const std::string& payload,
                                 const char* what) {
  Result<json::Value> parsed = json::Parse(payload);
  if (!parsed.ok()) {
    return Status::InvalidArgument(std::string(what) + " frame: " +
                                   parsed.status().message());
  }
  if (!parsed->is_object()) {
    return Status::InvalidArgument(std::string(what) +
                                   " frame: expected a JSON object");
  }
  return std::move(parsed->AsObject());
}

// -- MetricsSnapshot codec --------------------------------------------------

json::Value SnapshotToJson(const obs::MetricsSnapshot& snapshot) {
  json::Object root;
  json::Object counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters[name] = json::Value(value);
  }
  root["counters"] = json::Value(std::move(counters));
  json::Object gauges;
  for (const auto& [name, value] : snapshot.gauges) {
    gauges[name] = json::Value(value);
  }
  root["gauges"] = json::Value(std::move(gauges));
  json::Object histograms;
  for (const auto& [name, data] : snapshot.histograms) {
    json::Object h;
    json::Array bounds;
    for (double b : data.bounds) bounds.emplace_back(b);
    h["bounds"] = json::Value(std::move(bounds));
    json::Array counts;
    for (uint64_t c : data.counts) counts.emplace_back(c);
    h["counts"] = json::Value(std::move(counts));
    h["count"] = json::Value(data.count);
    h["sum"] = json::Value(data.sum);
    h["min"] = json::Value(data.min);
    h["max"] = json::Value(data.max);
    histograms[name] = json::Value(std::move(h));
  }
  root["histograms"] = json::Value(std::move(histograms));
  return json::Value(std::move(root));
}

obs::MetricsSnapshot SnapshotFromJson(const json::Object& root) {
  obs::MetricsSnapshot snapshot;
  if (const json::Object* counters = ObjectField(root, "counters")) {
    for (const auto& [name, value] : counters->members()) {
      if (value.is_u64()) snapshot.counters[name] = value.AsU64();
    }
  }
  if (const json::Object* gauges = ObjectField(root, "gauges")) {
    for (const auto& [name, value] : gauges->members()) {
      if (value.is_number()) snapshot.gauges[name] = value.AsDouble();
    }
  }
  if (const json::Object* histograms = ObjectField(root, "histograms")) {
    for (const auto& [name, value] : histograms->members()) {
      if (!value.is_object()) continue;
      const json::Object& h = value.AsObject();
      obs::HistogramData data;
      if (const json::Value* bounds = h.Find("bounds");
          bounds != nullptr && bounds->is_array()) {
        for (const json::Value& b : bounds->AsArray()) {
          if (b.is_number()) data.bounds.push_back(b.AsDouble());
        }
      }
      if (const json::Value* counts = h.Find("counts");
          counts != nullptr && counts->is_array()) {
        for (const json::Value& c : counts->AsArray()) {
          if (c.is_u64()) data.counts.push_back(c.AsU64());
        }
      }
      data.count = U64Field(h, "count");
      data.sum = NumberField(h, "sum");
      data.min = NumberField(h, "min");
      data.max = NumberField(h, "max");
      snapshot.histograms[name] = std::move(data);
    }
  }
  return snapshot;
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("wire: frame payload of " +
                                   std::to_string(payload.size()) +
                                   " bytes exceeds the frame limit");
  }
  std::string frame(5, '\0');
  frame.reserve(5 + payload.size());
  StoreLittleEndian(static_cast<uint32_t>(payload.size()), frame.data());
  frame[4] = static_cast<char>(type);
  frame.append(payload);

  size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        ::write(fd, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("wire: write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<bool> ExtractFrame(std::string* buffer, Frame* out) {
  if (buffer->size() < 5) return false;
  const uint64_t length = LoadLittleEndian<uint32_t>(buffer->data());
  const uint8_t type = static_cast<uint8_t>((*buffer)[4]);
  if (length > kMaxFramePayload) {
    return Status::InvalidArgument("wire: frame length " +
                                   std::to_string(length) +
                                   " exceeds the frame limit (corrupt "
                                   "stream?)");
  }
  if (!ValidFrameType(type)) {
    return Status::InvalidArgument("wire: unknown frame type " +
                                   std::to_string(type) +
                                   " (corrupt stream?)");
  }
  if (buffer->size() < 5 + length) return false;
  out->type = static_cast<FrameType>(type);
  out->payload.assign(*buffer, 5, length);
  buffer->erase(0, 5 + length);
  return true;
}

// ---------------------------------------------------------------------------
// Hello
// ---------------------------------------------------------------------------

std::string EncodeHello(const HelloMessage& hello) {
  json::Object root;
  root["ok"] = json::Value(hello.ok);
  if (!hello.error.empty()) root["error"] = json::Value(hello.error);
  root["cache_key"] = json::Value(hello.cache_key);
  root["dataset_fingerprint"] = json::Value(hello.dataset_fingerprint);
  root["prepared_digest"] = json::Value(hello.prepared_digest);
  root["snapshot_loaded"] = json::Value(hello.snapshot_loaded);
  return json::Dump(json::Value(std::move(root)), /*indent=*/0);
}

Result<HelloMessage> DecodeHello(const std::string& payload) {
  Result<json::Object> root = ParseObject(payload, "hello");
  if (!root.ok()) return root.status();
  HelloMessage hello;
  hello.ok = BoolField(*root, "ok");
  hello.error = StringField(*root, "error");
  hello.cache_key = StringField(*root, "cache_key");
  hello.dataset_fingerprint = U64Field(*root, "dataset_fingerprint");
  hello.prepared_digest = U64Field(*root, "prepared_digest");
  hello.snapshot_loaded = BoolField(*root, "snapshot_loaded");
  return hello;
}

// ---------------------------------------------------------------------------
// Job
// ---------------------------------------------------------------------------

std::string EncodeJob(const JobMessage& job) {
  json::Object root;
  root["variant"] = json::Value(job.variant);
  root["spec"] = api::JobSpecToJsonValue(job.spec);
  return json::Dump(json::Value(std::move(root)), /*indent=*/0);
}

Result<JobMessage> DecodeJob(const std::string& payload) {
  Result<json::Object> root = ParseObject(payload, "job");
  if (!root.ok()) return root.status();
  JobMessage job;
  job.variant = U64Field(*root, "variant");
  const json::Value* spec = root->Find("spec");
  if (spec == nullptr) {
    return Status::InvalidArgument("job frame: missing spec");
  }
  Result<JobSpec> parsed = api::JobSpecFromJsonValue(*spec, JobSpec(), "job");
  if (!parsed.ok()) return parsed.status();
  job.spec = *parsed;
  return job;
}

// ---------------------------------------------------------------------------
// JobResult
// ---------------------------------------------------------------------------

json::Value JobResultToJsonValue(const JobResult& result) {
  json::Object root;
  root["backend"] = json::Value(result.backend);

  json::Object metrics;
  metrics["recall"] = json::Value(result.metrics.recall);
  metrics["precision"] = json::Value(result.metrics.precision);
  metrics["f1"] = json::Value(result.metrics.f1);
  metrics["true_positives"] = json::Value(result.metrics.true_positives);
  metrics["retained"] = json::Value(result.metrics.retained);
  root["metrics"] = json::Value(std::move(metrics));

  json::Object quality;
  quality["num_candidates"] = json::Value(result.blocking_quality.num_candidates);
  quality["duplicates_covered"] =
      json::Value(result.blocking_quality.duplicates_covered);
  quality["recall"] = json::Value(result.blocking_quality.recall);
  quality["precision"] = json::Value(result.blocking_quality.precision);
  quality["f1"] = json::Value(result.blocking_quality.f1);
  root["blocking_quality"] = json::Value(std::move(quality));

  root["num_blocks"] = json::Value(result.num_blocks);
  root["num_candidates"] = json::Value(result.num_candidates);
  root["training_size"] = json::Value(result.training_size);
  json::Array coefficients;
  for (double c : result.model_coefficients) coefficients.emplace_back(c);
  root["model_coefficients"] = json::Value(std::move(coefficients));

  json::Object timings;
  timings["blocking_seconds"] = json::Value(result.blocking_seconds);
  timings["generate_seconds"] = json::Value(result.generate_seconds);
  timings["feature_seconds"] = json::Value(result.feature_seconds);
  timings["train_seconds"] = json::Value(result.train_seconds);
  timings["classify_seconds"] = json::Value(result.classify_seconds);
  timings["prune_seconds"] = json::Value(result.prune_seconds);
  timings["total_seconds"] = json::Value(result.total_seconds);
  root["timings"] = json::Value(std::move(timings));

  root["shards_used"] = json::Value(result.shards_used);
  root["sweeps"] = json::Value(result.sweeps);
  root["retained_csv_rows"] = json::Value(result.retained_csv_rows);
  root["telemetry"] = SnapshotToJson(result.telemetry);
  root["dataset_fingerprint"] = json::Value(result.dataset_fingerprint);
  root["prepared_digest"] = json::Value(result.prepared_digest);
  root["retained_digest"] = json::Value(result.retained_digest);
  root["retained_count"] = json::Value(result.retained_count);
  return json::Value(std::move(root));
}

Result<JobResult> JobResultFromJsonValue(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("result frame: expected a JSON object");
  }
  const json::Object& root = value.AsObject();
  JobResult result;
  result.backend = StringField(root, "backend");
  if (const json::Object* metrics = ObjectField(root, "metrics")) {
    result.metrics.recall = NumberField(*metrics, "recall");
    result.metrics.precision = NumberField(*metrics, "precision");
    result.metrics.f1 = NumberField(*metrics, "f1");
    result.metrics.true_positives =
        static_cast<size_t>(U64Field(*metrics, "true_positives"));
    result.metrics.retained =
        static_cast<size_t>(U64Field(*metrics, "retained"));
  }
  if (const json::Object* quality = ObjectField(root, "blocking_quality")) {
    result.blocking_quality.num_candidates =
        static_cast<size_t>(U64Field(*quality, "num_candidates"));
    result.blocking_quality.duplicates_covered =
        static_cast<size_t>(U64Field(*quality, "duplicates_covered"));
    result.blocking_quality.recall = NumberField(*quality, "recall");
    result.blocking_quality.precision = NumberField(*quality, "precision");
    result.blocking_quality.f1 = NumberField(*quality, "f1");
  }
  result.num_blocks = static_cast<size_t>(U64Field(root, "num_blocks"));
  result.num_candidates = U64Field(root, "num_candidates");
  result.training_size = static_cast<size_t>(U64Field(root, "training_size"));
  if (const json::Value* coefficients = root.Find("model_coefficients");
      coefficients != nullptr && coefficients->is_array()) {
    for (const json::Value& c : coefficients->AsArray()) {
      if (c.is_number()) result.model_coefficients.push_back(c.AsDouble());
    }
  }
  if (const json::Object* timings = ObjectField(root, "timings")) {
    result.blocking_seconds = NumberField(*timings, "blocking_seconds");
    result.generate_seconds = NumberField(*timings, "generate_seconds");
    result.feature_seconds = NumberField(*timings, "feature_seconds");
    result.train_seconds = NumberField(*timings, "train_seconds");
    result.classify_seconds = NumberField(*timings, "classify_seconds");
    result.prune_seconds = NumberField(*timings, "prune_seconds");
    result.total_seconds = NumberField(*timings, "total_seconds");
  }
  result.shards_used = static_cast<size_t>(U64Field(root, "shards_used"));
  result.sweeps = static_cast<size_t>(U64Field(root, "sweeps"));
  result.retained_csv_rows =
      static_cast<size_t>(U64Field(root, "retained_csv_rows"));
  if (const json::Object* telemetry = ObjectField(root, "telemetry")) {
    result.telemetry = SnapshotFromJson(*telemetry);
  }
  result.dataset_fingerprint = U64Field(root, "dataset_fingerprint");
  result.prepared_digest = U64Field(root, "prepared_digest");
  result.retained_digest = U64Field(root, "retained_digest");
  result.retained_count = U64Field(root, "retained_count");
  return result;
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

std::string EncodeResult(const ResultMessage& message) {
  json::Object root;
  root["variant"] = json::Value(message.variant);
  root["ok"] = json::Value(message.status.ok());
  if (!message.status.ok()) {
    root["code"] = json::Value(static_cast<uint64_t>(message.status.code()));
    root["message"] = json::Value(message.status.message());
  } else {
    root["result"] = JobResultToJsonValue(message.result);
  }
  root["prepare_misses"] = json::Value(message.prepare_misses);
  return json::Dump(json::Value(std::move(root)), /*indent=*/0);
}

Result<ResultMessage> DecodeResult(const std::string& payload) {
  Result<json::Object> root = ParseObject(payload, "result");
  if (!root.ok()) return root.status();
  ResultMessage message;
  message.variant = U64Field(*root, "variant");
  message.prepare_misses = U64Field(*root, "prepare_misses");
  if (BoolField(*root, "ok")) {
    const json::Value* result = root->Find("result");
    if (result == nullptr) {
      return Status::InvalidArgument("result frame: ok but missing result");
    }
    Result<JobResult> parsed = JobResultFromJsonValue(*result);
    if (!parsed.ok()) return parsed.status();
    message.result = std::move(*parsed);
    message.status = Status::Ok();
  } else {
    message.status =
        Status(static_cast<StatusCode>(U64Field(*root, "code")),
               StringField(*root, "message"));
  }
  return message;
}

// ---------------------------------------------------------------------------
// Retained (binary)
// ---------------------------------------------------------------------------

std::string EncodeRetained(const RetainedMessage& message) {
  std::ostringstream out;
  BinaryWriter writer(out);
  writer.U64(message.variant);
  writer.U64(message.pairs.size());
  for (const RetainedPair& pair : message.pairs) {
    for (const std::string* side : {&pair.left, &pair.right}) {
      writer.U32(static_cast<uint32_t>(side->size()));
      writer.Bytes(side->data(), side->size());
    }
  }
  return std::move(out).str();
}

Result<RetainedMessage> DecodeRetained(const std::string& payload) {
  std::istringstream in(payload);
  BinaryReader reader(in, "retained frame");
  RetainedMessage message;
  try {
    message.variant = reader.U64();
    // Each pair occupies at least its two u32 length fields.
    const uint64_t count = reader.Count(8);
    message.pairs.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      RetainedPair pair;
      pair.left = reader.Chars(reader.U32());
      pair.right = reader.Chars(reader.U32());
      message.pairs.push_back(std::move(pair));
    }
  } catch (const std::runtime_error& e) {
    return Status::InvalidArgument(e.what());
  }
  return message;
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

std::string EncodeEvents(const EventsMessage& message) {
  json::Object root;
  root["variant"] = json::Value(message.variant);
  root["records"] = json::Value(message.records);
  root["jsonl"] = json::Value(message.jsonl);
  return json::Dump(json::Value(std::move(root)), /*indent=*/0);
}

Result<EventsMessage> DecodeEvents(const std::string& payload) {
  Result<json::Object> root = ParseObject(payload, "events");
  if (!root.ok()) return root.status();
  EventsMessage message;
  message.variant = U64Field(*root, "variant");
  message.records = U64Field(*root, "records");
  message.jsonl = StringField(*root, "jsonl");
  return message;
}

}  // namespace gsmb::dist
