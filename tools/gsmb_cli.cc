// gsmb — command-line front end for the library, re-platformed onto the
// gsmb::Engine facade: every subcommand builds ONE declarative
// gsmb::JobSpec (spec file first, flags merged over it) and hands it to the
// engine. The CLI owns no pipeline logic any more — it parses, prints and
// forwards.
//
// Subcommands:
//
//   gsmb run [--config job.json] [flags]
//       Runs the spec on the backend execution.mode selects (batch,
//       streaming, serving, or auto — auto switches to streaming when the
//       arena-bytes model exceeds --memory-budget-mb).
//
//   gsmb explain [--config job.json] [flags]
//       Resolves flags over the spec file and prints the canonical
//       versioned JSON spec to stdout (re-runnable via `run --config`),
//       plus validation and per-backend support diagnostics to stderr.
//
//   gsmb sweep --config sweep.json [flags]
//       Runs a parameter sweep (gsmb/sweep.h): expands the grid, prepares
//       each distinct dataset+blocking ONCE (one preparation per scheme
//       when the sweep has a "scheme" axis), executes every variant in
//       parallel against the cached PreparedInputs. `--csv`/`--json` write
//       machine-readable per-variant results; `--retained-dir` writes one
//       retained CSV per variant. Dataset/pipeline flags merge over the
//       sweep file's base spec, exactly as `run` flags merge over a job
//       spec.
//
//   gsmb migrate spec.json [more.json ...]
//       Upgrades version-1 spec files to the current version in place
//       (canonical re-serialization; a migrated spec runs byte-identical
//       to its version-1 flag-equivalent).
//
//   gsmb serve [--config job.json] [flags] | gsmb serve --snapshot-in S
//       Opens a LIVE serving session from the spec (Engine::OpenSession)
//       or restores a snapshot, then drives it with commands from stdin
//       (see serve/session.h).
//
//   Every invocation names its subcommand: bare flags (`gsmb --e1 ...`)
//   are rejected with a pointer to `gsmb run`.
//
// Shared pipeline flags (all subcommands): --pruning bcl|wep|wnp|rwnp|
// blast|cep|cnp|rcnp, --classifier logreg|svc|nb, --features blast|rcnp|
// 2014|all|<list>, --labels N, --seed N, --threads N (0 = all hardware
// threads).
//
// run/explain flags: --e1 a.csv [--e2 b.csv] --gt matches.csv, or
// --dataset NAME [--scale S] for the generated stand-ins; --mode
// batch|streaming|serving|auto; --streaming (== --mode streaming);
// --shards N; --memory-budget-mb M; --out retained.csv.
//
// serve flags: --data a.csv --gt matches.csv [--shards N] [--threads N]
// [--max-block-size N] [--labels N] [--seed N] | --snapshot-in S.
//
// Unknown flags are rejected with a clear error — never silently ignored.
// The ground truth serves both as the labelled sample pool and as the
// evaluation oracle; in a production run you would pass only the labelled
// subset you actually have.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/json.h"
#include "cli_parse.h"
#include "datasets/io.h"
#include "gsmb/digest.h"
#include "gsmb/engine.h"
#include "gsmb/job_spec.h"
#include "gsmb/prepared.h"
#include "gsmb/report.h"
#include "gsmb/snapshot.h"
#include "gsmb/status.h"
#include "gsmb/sweep.h"
#include "gsmb/telemetry.h"
#include "schemes/scheme_registry.h"
#include "serve/session.h"
#include "util/csv.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace {

using namespace gsmb;

void PrintUsage(std::FILE* stream) {
  std::fprintf(
      stream,
      "usage: gsmb run [--config job.json]\n"
      "            --e1 a.csv [--e2 b.csv] --gt matches.csv\n"
      "            | --dataset NAME [--scale S]\n"
      "            [--scheme token|qgram|suffix|sorted-neighborhood|\n"
      "             dynamic-sorted-neighborhood|attribute-clustering|\n"
      "             minhash-lsh]\n"
      "            [--pruning blast] [--classifier logreg]\n"
      "            [--features blast] [--labels 25] [--seed 0]\n"
      "            [--threads 1] [--out retained.csv]\n"
      "            [--mode batch|streaming|serving|auto]\n"
      "            [--streaming [--shards 16]] [--memory-budget-mb M]\n"
      "            [--trace-out trace.json] [--metrics-out metrics.json]\n"
      "            [--report-out report.json]\n"
      "   or: gsmb explain [--config job.json] [--format text|json]\n"
      "            [flags as for run]\n"
      "   or: gsmb sweep --config sweep.json [--csv results.csv]\n"
      "            [--json results.json] [--retained-dir DIR]\n"
      "            [--report-out report.json]\n"
      "            [flags as for run, applied to the sweep's base spec]\n"
      "   or: gsmb prepare [--config job.json] [dataset/blocking flags]\n"
      "            --snapshot-out prepared.snapshot\n"
      "   or: gsmb run|sweep ... --snapshot-in prepared.snapshot\n"
      "   or: gsmb report diff a_report.json b_report.json\n"
      "   or: gsmb migrate spec.json [more.json ...]\n"
      "   or: gsmb serve [--config job.json] --data a.csv --gt matches.csv\n"
      "            [--shards 16] [--threads 1] [--max-block-size 200]\n"
      "            [--pruning blast] [--classifier logreg]\n"
      "            [--features blast] [--labels 25] [--seed 0]\n"
      "   or: gsmb serve --snapshot-in session.snap [--threads 1]\n");
}

/// Uniform failure path: print the diagnostic, optionally the usage text,
/// and return the exit code (2 for flag/spec problems, 1 at run time).
int Fail(const Status& status, bool with_usage = false) {
  std::fprintf(stderr, "error: %s\n", status.message().c_str());
  if (with_usage) PrintUsage(stderr);
  return with_usage ? 2 : 1;
}

int UsageError(const std::string& message) {
  return Fail(Status::InvalidArgument(message), /*with_usage=*/true);
}

// ---------------------------------------------------------------------------
// run / explain flag parsing
// ---------------------------------------------------------------------------

/// Flags that need post-parse contradiction checks.
struct RunFlagState {
  bool shards_given = false;
  bool budget_given = false;
};

/// Parses the run/explain flag surface over `spec` (which may have been
/// pre-loaded from --config). Returns Ok or the flag diagnostic.
Status ParseRunFlags(cli::ArgStream& args, JobSpec* spec,
                     RunFlagState* state) {
  while (!args.Done()) {
    const std::string flag = args.Take();

    Result<cli::FlagOutcome> shared = cli::ApplySharedFlag(flag, args, spec);
    if (!shared.ok()) return shared.status();
    if (*shared == cli::FlagOutcome::kHandled) continue;

    if (flag == "--e1") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      spec->dataset.source = DatasetSource::kCsv;
      spec->dataset.e1 = *value;
    } else if (flag == "--e2") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      spec->dataset.source = DatasetSource::kCsv;
      spec->dataset.e2 = *value;
    } else if (flag == "--gt") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      spec->dataset.source = DatasetSource::kCsv;
      spec->dataset.ground_truth = *value;
    } else if (flag == "--dataset") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      // Dirty stand-ins are D10K..D300K; everything else is a Table-1
      // clean-clean pair.
      spec->dataset.source = value->size() > 1 && (*value)[0] == 'D' &&
                                     std::isdigit(
                                         static_cast<unsigned char>((*value)[1]))
                                 ? DatasetSource::kGeneratedDirty
                                 : DatasetSource::kGeneratedCleanClean;
      spec->dataset.name = *value;
    } else if (flag == "--scale") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      Result<double> scale = cli::ParseDouble(flag, *value);
      if (!scale.ok()) return scale.status();
      spec->dataset.scale = *scale;
    } else if (flag == "--scheme") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      Result<std::string> scheme = ParseBlockingScheme(*value);
      if (!scheme.ok()) {
        return Status::InvalidArgument("--scheme: " +
                                       scheme.status().message());
      }
      spec->blocking.scheme = *scheme;
    } else if (flag == "--purge-fraction" || flag == "--filter-ratio") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      Result<double> parsed = cli::ParseDouble(flag, *value);
      if (!parsed.ok()) return parsed.status();
      (flag == "--purge-fraction" ? spec->blocking.purge_size_fraction
                                  : spec->blocking.filter_ratio) = *parsed;
    } else if (flag == "--validity-threshold") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      Result<double> parsed = cli::ParseDouble(flag, *value);
      if (!parsed.ok()) return parsed.status();
      spec->pruning.validity_threshold = *parsed;
    } else if (flag == "--mode") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      Result<ExecutionMode> mode = ParseExecutionMode(*value);
      if (!mode.ok()) {
        return Status::InvalidArgument("--mode: " + mode.status().message());
      }
      spec->execution.mode = *mode;
    } else if (flag == "--streaming") {
      spec->execution.mode = ExecutionMode::kStreaming;
    } else if (flag == "--shards") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      Result<uint64_t> count = cli::ParseCount(flag, *value);
      if (!count.ok()) return count.status();
      spec->execution.shards = static_cast<size_t>(*count);
      state->shards_given = true;
    } else if (flag == "--memory-budget-mb") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      Result<uint64_t> budget = cli::ParseCount(flag, *value);
      if (!budget.ok()) return budget.status();
      if (*budget == 0) {
        return Status::InvalidArgument(
            "--memory-budget-mb 0 is contradictory: a zero-byte arena "
            "cannot hold any candidates (omit the flag for no budget)");
      }
      spec->execution.memory_budget_mb = static_cast<size_t>(*budget);
      state->budget_given = true;
    } else if (flag == "--out") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return value.status();
      spec->output.retained_csv = *value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }

  // Contradiction rules, mode-aware: shard/budget flags
  // shape streaming (or auto-resolved) execution only.
  if (state->shards_given && spec->execution.shards == 0 &&
      spec->execution.mode != ExecutionMode::kServing) {
    return Status::InvalidArgument(
        "--shards 0 is contradictory: streaming needs at least one "
        "candidate-space slice");
  }
  if (spec->execution.mode == ExecutionMode::kBatch &&
      (state->shards_given || state->budget_given)) {
    return Status::InvalidArgument(
        "--shards/--memory-budget-mb only shape --streaming execution; "
        "add --streaming (or --mode streaming|auto) or drop them");
  }
  return Status::Ok();
}

/// True when any token is --help; the caller prints usage and exits 0
/// before flag parsing can reject it as unknown.
bool WantsHelp(int argc, char** argv, int begin) {
  for (int i = begin; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) return true;
  }
  return false;
}

/// Telemetry/report output paths — CLI-level concerns, peeled off before
/// the spec-flag parser (a JobSpec describes the job, not where its trace
/// or provenance report goes).
struct TelemetryFlags {
  std::string trace_path;
  std::string metrics_path;
  std::string report_path;

  bool wanted() const { return !trace_path.empty() || !metrics_path.empty(); }
};

Status ExtractTelemetryFlags(std::vector<std::string>* raw,
                             TelemetryFlags* out) {
  for (size_t i = 0; i < raw->size();) {
    std::string* target = nullptr;
    if ((*raw)[i] == "--trace-out") target = &out->trace_path;
    else if ((*raw)[i] == "--metrics-out") target = &out->metrics_path;
    else if ((*raw)[i] == "--report-out") target = &out->report_path;
    if (target == nullptr) {
      ++i;
      continue;
    }
    if (i + 1 >= raw->size()) {
      return Status::InvalidArgument((*raw)[i] + " needs a file path");
    }
    *target = (*raw)[i + 1];
    raw->erase(raw->begin() + i, raw->begin() + i + 2);
  }
  return Status::Ok();
}

Status WriteTextFile(const std::string& path, const std::string& content,
                     const char* flag) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::NotFound(std::string("cannot write ") + flag +
                            " file: " + path);
  }
  out << content;
  out.close();
  if (!out) {
    return Status::Internal(std::string("error writing ") + flag +
                            " file: " + path);
  }
  return Status::Ok();
}

/// Peels `flag` and its value out of `raw` into `out` (last one wins).
Status ExtractValueFlag(std::vector<std::string>* raw, const std::string& flag,
                        std::string* out) {
  for (size_t i = 0; i < raw->size();) {
    if ((*raw)[i] != flag) {
      ++i;
      continue;
    }
    if (i + 1 >= raw->size()) {
      return Status::InvalidArgument(flag + " needs a file path");
    }
    *out = (*raw)[i + 1];
    raw->erase(raw->begin() + i, raw->begin() + i + 2);
  }
  return Status::Ok();
}

Result<JobSpec> SpecFromRunArgs(int argc, char** argv, int begin,
                                RunFlagState* state, TelemetryFlags* telemetry,
                                std::string* snapshot_in = nullptr,
                                std::string* snapshot_out = nullptr) {
  JobSpec spec;
  cli::ArgStream scan(argc, argv, begin);
  std::vector<std::string> raw;
  while (!scan.Done()) raw.push_back(scan.Take());
  Status peeled = ExtractTelemetryFlags(&raw, telemetry);
  if (!peeled.ok()) return peeled;
  if (snapshot_in != nullptr) {
    peeled = ExtractValueFlag(&raw, "--snapshot-in", snapshot_in);
    if (!peeled.ok()) return peeled;
  }
  if (snapshot_out != nullptr) {
    peeled = ExtractValueFlag(&raw, "--snapshot-out", snapshot_out);
    if (!peeled.ok()) return peeled;
  }
  Result<std::vector<std::string>> rest = cli::ExtractConfig(raw, &spec);
  if (!rest.ok()) return rest.status();
  cli::ArgStream args(std::move(*rest));
  Status parsed = ParseRunFlags(args, &spec, state);
  if (!parsed.ok()) return parsed;
  return spec;
}

/// Loads a prepared snapshot, proves it belongs to `spec` (same prepare
/// cache key — the canonical dataset+blocking JSON), and seeds the
/// engine's cache with it, so the following Run/RunSweep reports a cache
/// hit instead of re-preparing. A mismatch is a contradiction error that
/// names the snapshot's digests and both cache keys.
Status AdoptSnapshotChecked(const Engine& engine, const std::string& path,
                            const JobSpec& spec) {
  Result<PreparedSnapshotInfo> info = ReadPreparedSnapshotInfo(path);
  if (!info.ok()) return info.status();
  const std::string spec_key = PrepareCacheKey(spec);
  if (info->cache_key != spec_key) {
    return Status::InvalidArgument(
        "--snapshot-in: snapshot '" + path +
        "' was prepared for a different dataset+blocking than this job: "
        "snapshot dataset_fingerprint " +
        obs::DigestHex(info->dataset_fingerprint) + ", prepared_digest " +
        obs::DigestHex(info->prepared_digest) + "; snapshot cache key " +
        info->cache_key + " vs this job's cache key " + spec_key);
  }
  Result<PreparedHandle> loaded =
      LoadPreparedSnapshot(path, spec.execution.options.num_threads);
  if (!loaded.ok()) return loaded.status();
  return engine.AdoptPrepared(std::move(*loaded));
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

void PrintJobResult(const JobSpec& spec, const JobResult& result) {
  std::printf("Blocking (%.0f ms): %zu blocks, %llu candidates",
              result.blocking_seconds * 1e3, result.num_blocks,
              static_cast<unsigned long long>(result.num_candidates));
  if (result.blocking_quality.num_candidates > 0) {
    std::printf(", recall %.4f, precision %.6f",
                result.blocking_quality.recall,
                result.blocking_quality.precision);
  }
  std::printf("\n");

  // threads == 0 means "all hardware threads", resolved at run time.
  const size_t threads = spec.execution.options.num_threads > 0
                             ? spec.execution.options.num_threads
                             : HardwareThreads();
  std::string shape = std::to_string(threads) + " threads";
  if (result.backend == "streaming") {
    // std::string{} + avoids the operator+(const char*, string&&) overload,
    // which trips a GCC 12 -Wrestrict false positive at -O3 (GCC PR105651).
    shape += std::string{", streaming: "} + std::to_string(result.shards_used) +
             " shards, " + std::to_string(result.sweeps) +
             (result.sweeps == 1 ? " sweep" : " sweeps");
  } else if (result.backend == "serving") {
    shape +=
        std::string{", serving: "} + std::to_string(result.shards_used) +
        " shards";
  } else {
    shape += ", batch";
  }
  std::printf(
      "%s + %s on %s, %zu labels (%s):\n"
      "  retained  %zu pairs\n  recall    %.4f\n  precision %.4f\n"
      "  F1        %.4f\n  run-time  %.1f ms\n",
      ClassifierShortName(spec.classifier),
      PruningKindName(spec.pruning.kind), spec.features.ToString().c_str(),
      result.training_size, shape.c_str(), result.metrics.retained,
      result.metrics.recall, result.metrics.precision, result.metrics.f1,
      result.total_seconds * 1e3);
  if (!spec.output.retained_csv.empty()) {
    std::printf("Wrote %zu retained pairs to %s\n", result.retained_csv_rows,
                spec.output.retained_csv.c_str());
  }
}

int RunMain(int argc, char** argv, int begin) {
  if (WantsHelp(argc, argv, begin)) {
    PrintUsage(stdout);
    return 0;
  }
  RunFlagState state;
  TelemetryFlags telemetry;
  std::string snapshot_in;
  Result<JobSpec> spec =
      SpecFromRunArgs(argc, argv, begin, &state, &telemetry, &snapshot_in);
  if (!spec.ok()) return Fail(spec.status(), /*with_usage=*/true);

  Status valid = spec->Validate();
  if (!valid.ok()) return Fail(valid, /*with_usage=*/true);

  // The sink outlives the run and is uninstalled before export; without
  // --trace-out/--metrics-out nothing is installed and every
  // instrumentation site stays a relaxed load + branch.
  obs::TelemetrySink sink;
  if (telemetry.wanted()) obs::InstallSink(&sink);

  Engine engine;
  if (!snapshot_in.empty()) {
    Status adopted = AdoptSnapshotChecked(engine, snapshot_in, *spec);
    if (!adopted.ok()) {
      if (telemetry.wanted()) obs::InstallSink(nullptr);
      return Fail(adopted);
    }
  }
  Result<JobResult> result = engine.Run(*spec);

  if (telemetry.wanted()) obs::InstallSink(nullptr);
  if (!result.ok()) return Fail(result.status());
  PrintJobResult(*spec, *result);

  if (!telemetry.trace_path.empty()) {
    Status written =
        WriteTextFile(telemetry.trace_path, sink.TraceJson(), "--trace-out");
    if (!written.ok()) return Fail(written);
    std::printf("Wrote Chrome trace to %s\n", telemetry.trace_path.c_str());
  }
  if (!telemetry.metrics_path.empty()) {
    Status written = WriteTextFile(telemetry.metrics_path, sink.MetricsJson(),
                                   "--metrics-out");
    if (!written.ok()) return Fail(written);
    std::printf("Wrote metrics to %s\n", telemetry.metrics_path.c_str());
  }
  if (!telemetry.report_path.empty()) {
    Status written = WriteTextFile(telemetry.report_path,
                                   obs::RunReportJson(*spec, *result),
                                   "--report-out");
    if (!written.ok()) return Fail(written);
    std::printf("Wrote run report to %s\n", telemetry.report_path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// explain
// ---------------------------------------------------------------------------

/// Machine-readable explain document: the canonical spec plus the exact
/// validation / Supports() diagnostics the text mode prints to stderr, so
/// CI and the sweep planner can assert backend eligibility without parsing
/// human-shaped text.
int ExplainJson(const JobSpec& spec) {
  json::Object doc;
  // ToJson() is canonical by construction; re-parse it rather than
  // duplicating the schema here.
  Result<json::Value> spec_value = json::Parse(spec.ToJson());
  if (!spec_value.ok()) {
    return Fail(Status::Internal("explain: canonical spec does not re-parse: " +
                                 spec_value.status().message()));
  }
  doc["spec"] = std::move(*spec_value);

  const Status valid = spec.Validate();
  doc["valid"] = json::Value(valid.ok());
  if (!valid.ok()) {
    doc["validation_error"] = json::Value(valid.message());
  }
  doc["execution_mode"] = json::Value(ExecutionModeName(spec.execution.mode));

  json::Array backends;
  json::Array scheme_entries;
  if (valid.ok()) {
    Engine engine;
    for (const std::string& name : engine.BackendNames()) {
      Status supports = engine.FindBackend(name)->Supports(spec);
      json::Object backend;
      backend["name"] = json::Value(name);
      backend["supported"] = json::Value(supports.ok());
      if (!supports.ok()) {
        backend["diagnostic"] = json::Value(supports.message());
      }
      backends.emplace_back(std::move(backend));
    }
    // Every registered blocking scheme, with each backend's Supports()
    // verdict for THIS spec re-pointed at that scheme — the sweep planner
    // reads this to pick scheme-axis values a backend can actually run.
    for (const std::string& scheme_name : schemes::BlockerNames()) {
      const schemes::Blocker* blocker = schemes::FindBlocker(scheme_name);
      json::Object entry;
      entry["name"] = json::Value(scheme_name);
      entry["description"] = json::Value(blocker->description());
      entry["selected"] = json::Value(scheme_name == spec.blocking.scheme);
      JobSpec variant = spec;
      variant.blocking.scheme = scheme_name;
      json::Array verdicts;
      for (const std::string& backend_name : engine.BackendNames()) {
        Status supports = engine.FindBackend(backend_name)->Supports(variant);
        json::Object verdict;
        verdict["name"] = json::Value(backend_name);
        verdict["supported"] = json::Value(supports.ok());
        if (!supports.ok()) {
          verdict["diagnostic"] = json::Value(supports.message());
        }
        verdicts.emplace_back(std::move(verdict));
      }
      entry["backends"] = json::Value(std::move(verdicts));
      scheme_entries.emplace_back(std::move(entry));
    }
  }
  doc["backends"] = json::Value(std::move(backends));
  doc["schemes"] = json::Value(std::move(scheme_entries));

  std::printf("%s\n", json::Dump(json::Value(std::move(doc))).c_str());
  return valid.ok() ? 0 : 2;
}

int ExplainMain(int argc, char** argv, int begin) {
  if (WantsHelp(argc, argv, begin)) {
    PrintUsage(stdout);
    return 0;
  }

  // --format is explain-only; peel it off before the shared run-flag
  // parser (which would reject it as unknown).
  std::vector<std::string> raw;
  std::string format = "text";
  for (int i = begin; i < argc; ++i) raw.emplace_back(argv[i]);
  for (size_t i = 0; i < raw.size();) {
    if (raw[i] == "--format") {
      if (i + 1 >= raw.size()) {
        return UsageError("--format needs a value (text or json)");
      }
      format = raw[i + 1];
      if (format != "text" && format != "json") {
        return UsageError("--format: expected text or json, got '" + format +
                          "'");
      }
      raw.erase(raw.begin() + i, raw.begin() + i + 2);
    } else {
      ++i;
    }
  }

  RunFlagState state;
  JobSpec parsed_spec;
  Result<std::vector<std::string>> rest = cli::ExtractConfig(raw, &parsed_spec);
  if (!rest.ok()) return Fail(rest.status(), /*with_usage=*/true);
  cli::ArgStream args(std::move(*rest));
  Status flags = ParseRunFlags(args, &parsed_spec, &state);
  if (!flags.ok()) return Fail(flags, /*with_usage=*/true);

  if (format == "json") return ExplainJson(parsed_spec);

  // The canonical spec goes to stdout — and nothing else, so
  //   gsmb explain ... > job.json && gsmb run --config job.json
  // replays the exact job. Diagnostics go to stderr.
  std::printf("%s\n", parsed_spec.ToJson().c_str());

  Status valid = parsed_spec.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "spec does not validate: %s\n",
                 valid.message().c_str());
    return 2;
  }
  Engine engine;
  std::fprintf(stderr, "spec is valid; execution.mode = %s\n",
               ExecutionModeName(parsed_spec.execution.mode));
  for (const std::string& name : engine.BackendNames()) {
    Status supports = engine.FindBackend(name)->Supports(parsed_spec);
    std::fprintf(stderr, "  backend %-9s %s\n", name.c_str(),
                 supports.ok() ? "supported" : supports.message().c_str());
  }
  std::fprintf(stderr,
               "registered blocking schemes (backend verdicts for this "
               "spec; * = selected):\n");
  for (const std::string& scheme_name : schemes::BlockerNames()) {
    JobSpec variant = parsed_spec;
    variant.blocking.scheme = scheme_name;
    std::string support;
    for (const std::string& backend : engine.BackendNames()) {
      if (!support.empty()) support += ", ";
      support += backend;
      support +=
          engine.FindBackend(backend)->Supports(variant).ok() ? ":yes" : ":no";
    }
    std::fprintf(stderr, "  scheme %-28s%s %s\n", scheme_name.c_str(),
                 scheme_name == parsed_spec.blocking.scheme ? "*" : " ",
                 support.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------------

/// One results row per variant, machine-readable. `status` is "ok" or the
/// variant's diagnostic.
std::vector<CsvRow> SweepCsvRows(const SweepResult& result) {
  std::vector<CsvRow> rows;
  rows.reserve(result.variants.size() + 1);
  rows.push_back({"label", "scheme", "pruning", "features", "classifier",
                  "labels_per_class", "seed", "backend", "retained", "recall",
                  "precision", "f1", "total_seconds", "status"});
  char buffer[32];
  auto fixed = [&buffer](double v) {
    std::snprintf(buffer, sizeof(buffer), "%.6f", v);
    return std::string(buffer);
  };
  for (const SweepVariant& v : result.variants) {
    const bool ok = v.status.ok();
    rows.push_back({v.label, v.spec.blocking.scheme,
                    PruningShortName(v.spec.pruning.kind),
                    FeatureSetSpecName(v.spec.features),
                    ClassifierShortName(v.spec.classifier),
                    std::to_string(v.spec.training.labels_per_class),
                    std::to_string(v.spec.training.seed),
                    ok ? v.result.backend : "",
                    ok ? std::to_string(v.result.metrics.retained) : "",
                    ok ? fixed(v.result.metrics.recall) : "",
                    ok ? fixed(v.result.metrics.precision) : "",
                    ok ? fixed(v.result.metrics.f1) : "",
                    ok ? fixed(v.result.total_seconds) : "",
                    ok ? "ok" : v.status.message()});
  }
  return rows;
}

Status WriteSweepJson(const std::string& path, const SweepSpec& sweep,
                      const SweepResult& result) {
  json::Object doc;
  json::Object cache;
  cache["hits"] = json::Value(result.cache_hits);
  cache["misses"] = json::Value(result.cache_misses);
  doc["cache"] = json::Value(std::move(cache));
  doc["prepare_seconds"] = json::Value(result.prepare_seconds);
  doc["total_seconds"] = json::Value(result.total_seconds);
  doc["grid_size"] = json::Value(sweep.GridSize());

  json::Array variants;
  for (const SweepVariant& v : result.variants) {
    json::Object row;
    row["label"] = json::Value(v.label);
    row["scheme"] = json::Value(v.spec.blocking.scheme);
    row["pruning"] = json::Value(PruningShortName(v.spec.pruning.kind));
    row["features"] = json::Value(FeatureSetSpecName(v.spec.features));
    row["classifier"] = json::Value(ClassifierShortName(v.spec.classifier));
    row["labels_per_class"] =
        json::Value(v.spec.training.labels_per_class);
    row["seed"] = json::Value(v.spec.training.seed);
    if (v.status.ok()) {
      row["backend"] = json::Value(v.result.backend);
      row["retained"] = json::Value(v.result.metrics.retained);
      row["recall"] = json::Value(v.result.metrics.recall);
      row["precision"] = json::Value(v.result.metrics.precision);
      row["f1"] = json::Value(v.result.metrics.f1);
      row["total_seconds"] = json::Value(v.result.total_seconds);
    } else {
      row["error"] = json::Value(v.status.ToString());
    }
    variants.emplace_back(std::move(row));
  }
  doc["variants"] = json::Value(std::move(variants));

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::NotFound("cannot write --json file: " + path);
  }
  out << json::Dump(json::Value(std::move(doc))) << "\n";
  out.close();
  if (!out) {
    return Status::Internal("error writing --json file: " + path);
  }
  return Status::Ok();
}

int SweepMain(int argc, char** argv, int begin) {
  if (WantsHelp(argc, argv, begin)) {
    PrintUsage(stdout);
    return 0;
  }

  // Peel off the sweep-only flags; the rest merge over the base spec.
  std::vector<std::string> raw;
  for (int i = begin; i < argc; ++i) raw.emplace_back(argv[i]);
  std::string config_path, csv_path, json_path, retained_dir, report_path;
  std::string snapshot_in;
  TelemetryFlags telemetry;
  auto take_value = [&raw](size_t i, const char* flag,
                           std::string* out) -> Result<size_t> {
    if (i + 1 >= raw.size()) {
      return Status::InvalidArgument(std::string(flag) + " needs a value");
    }
    *out = raw[i + 1];
    return i;  // caller erases [i, i+2)
  };
  for (size_t i = 0; i < raw.size();) {
    std::string* target = nullptr;
    if (raw[i] == "--config") target = &config_path;
    else if (raw[i] == "--csv") target = &csv_path;
    else if (raw[i] == "--json") target = &json_path;
    else if (raw[i] == "--retained-dir") target = &retained_dir;
    else if (raw[i] == "--report-out") target = &report_path;
    else if (raw[i] == "--snapshot-in") target = &snapshot_in;
    else if (raw[i] == "--trace-out") target = &telemetry.trace_path;
    else if (raw[i] == "--metrics-out") target = &telemetry.metrics_path;
    if (target == nullptr) {
      ++i;
      continue;
    }
    Result<size_t> taken = take_value(i, raw[i].c_str(), target);
    if (!taken.ok()) return Fail(taken.status(), /*with_usage=*/true);
    raw.erase(raw.begin() + i, raw.begin() + i + 2);
  }
  if (config_path.empty()) {
    return UsageError("sweep needs --config sweep.json (the grid lives in "
                      "the sweep spec, not in flags)");
  }

  Result<SweepSpec> sweep = SweepSpec::FromFile(config_path);
  if (!sweep.ok()) return Fail(sweep.status(), /*with_usage=*/true);
  if (!retained_dir.empty()) sweep->retained_dir = retained_dir;

  // Remaining flags (dataset paths, --threads, ...) merge over the base
  // spec, exactly like `run` flags merge over a job spec file.
  RunFlagState state;
  cli::ArgStream args(std::move(raw));
  Status flags = ParseRunFlags(args, &sweep->base, &state);
  if (!flags.ok()) return Fail(flags, /*with_usage=*/true);

  Status valid = sweep->Validate();
  if (!valid.ok()) return Fail(valid, /*with_usage=*/true);

  // Sweep-level telemetry: the prepare span and pipeline counters of every
  // variant.
  obs::TelemetrySink sink;
  if (telemetry.wanted()) obs::InstallSink(&sink);
  Result<SweepResult> result = [&]() -> Result<SweepResult> {
    Engine engine;
    if (!snapshot_in.empty()) {
      Status adopted = AdoptSnapshotChecked(engine, snapshot_in, sweep->base);
      if (!adopted.ok()) return adopted;
    }
    return engine.RunSweep(*sweep);
  }();
  if (telemetry.wanted()) obs::InstallSink(nullptr);
  if (!result.ok()) return Fail(result.status());

  if (!telemetry.trace_path.empty()) {
    Status written =
        WriteTextFile(telemetry.trace_path, sink.TraceJson(), "--trace-out");
    if (!written.ok()) return Fail(written);
    std::printf("wrote Chrome trace to %s\n", telemetry.trace_path.c_str());
  }
  if (!telemetry.metrics_path.empty()) {
    Status written = WriteTextFile(telemetry.metrics_path, sink.MetricsJson(),
                                   "--metrics-out");
    if (!written.ok()) return Fail(written);
    std::printf("wrote metrics to %s\n", telemetry.metrics_path.c_str());
  }

  // Preparations this sweep built are its prepare-cache misses. A sweep
  // over adopted or cached preparations builds none, and their handles'
  // cost is not this run's preparation time.
  const size_t preparations = result->cache_misses;
  const std::string prepare_time =
      preparations == 0
          ? std::string()
          : " in " + TablePrinter::Fixed(result->prepare_seconds * 1e3, 1) +
                " ms";
  std::printf(
      "prepared blocking %zu time%s%s (cache: %zu miss%s, %zu hit%s); "
      "%zu variant%s in %.1f ms\n",
      preparations, preparations == 1 ? "" : "s", prepare_time.c_str(),
      result->cache_misses, result->cache_misses == 1 ? "" : "es",
      result->cache_hits, result->cache_hits == 1 ? "" : "s",
      result->variants.size(), result->variants.size() == 1 ? "" : "s",
      result->total_seconds * 1e3);

  TablePrinter table({"variant", "backend", "retained", "recall", "precision",
                      "F1", "RT ms"});
  size_t failures = 0;
  for (const SweepVariant& v : result->variants) {
    if (!v.status.ok()) {
      ++failures;
      table.AddRow({v.label, "FAILED: " + v.status.message(), "", "", "", "",
                    ""});
      continue;
    }
    table.AddRow({v.label, v.result.backend,
                  std::to_string(v.result.metrics.retained),
                  TablePrinter::Fixed(v.result.metrics.recall, 4),
                  TablePrinter::Fixed(v.result.metrics.precision, 4),
                  TablePrinter::Fixed(v.result.metrics.f1, 4),
                  TablePrinter::Fixed(v.result.total_seconds * 1e3, 1)});
  }
  std::printf("%s", table.ToString().c_str());

  // Result files come after the sweep ran; a bad output path must still
  // report cleanly (exit 1), never abort a finished sweep.
  if (!csv_path.empty()) {
    try {
      WriteCsvFile(csv_path, SweepCsvRows(*result));
    } catch (const std::exception& e) {
      return Fail(Status::NotFound(std::string("--csv: ") + e.what()));
    }
    std::printf("wrote %zu result rows to %s\n", result->variants.size(),
                csv_path.c_str());
  }
  if (!json_path.empty()) {
    Status written = WriteSweepJson(json_path, *sweep, *result);
    if (!written.ok()) return Fail(written);
    std::printf("wrote sweep JSON to %s\n", json_path.c_str());
  }
  if (!report_path.empty()) {
    Status written = WriteTextFile(
        report_path, obs::SweepReportJson(*sweep, *result), "--report-out");
    if (!written.ok()) return Fail(written);
    std::printf("wrote sweep report to %s\n", report_path.c_str());
  }
  if (!sweep->retained_dir.empty()) {
    std::printf("retained CSVs under %s/\n", sweep->retained_dir.c_str());
  }
  if (failures > 0) {
    std::fprintf(stderr, "error: %zu of %zu variants failed\n", failures,
                 result->variants.size());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// prepare
// ---------------------------------------------------------------------------

/// `gsmb prepare ... --snapshot-out F` — run the preparation (dataset +
/// blocking) once and persist it as a prepared snapshot that `run` and
/// `sweep` load instead of re-preparing.
int PrepareMain(int argc, char** argv, int begin) {
  if (WantsHelp(argc, argv, begin)) {
    PrintUsage(stdout);
    return 0;
  }
  RunFlagState state;
  TelemetryFlags telemetry;
  std::string snapshot_in, snapshot_out;
  Result<JobSpec> spec = SpecFromRunArgs(argc, argv, begin, &state, &telemetry,
                                         &snapshot_in, &snapshot_out);
  if (!spec.ok()) return Fail(spec.status(), /*with_usage=*/true);
  if (!snapshot_in.empty()) {
    return UsageError(
        "--snapshot-in contradicts prepare, which CREATES a snapshot; "
        "use --snapshot-out");
  }
  if (snapshot_out.empty()) {
    return UsageError("prepare needs --snapshot-out FILE");
  }
  Status valid = spec->Validate();
  if (!valid.ok()) return Fail(valid, /*with_usage=*/true);

  Engine engine;
  Result<PreparedHandle> prepared = engine.Prepare(*spec);
  if (!prepared.ok()) return Fail(prepared.status());
  Status saved = SavePreparedSnapshot(**prepared, snapshot_out);
  if (!saved.ok()) return Fail(saved);

  Result<PreparedSnapshotInfo> info = ReadPreparedSnapshotInfo(snapshot_out);
  if (!info.ok()) return Fail(info.status());
  std::printf(
      "prepared in %.1f ms; wrote %llu-byte snapshot to %s\n"
      "  dataset_fingerprint %s\n  prepared_digest     %s\n",
      (*prepared)->prepare_seconds * 1e3,
      static_cast<unsigned long long>(info->file_bytes), snapshot_out.c_str(),
      obs::DigestHex(info->dataset_fingerprint).c_str(),
      obs::DigestHex(info->prepared_digest).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read report file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Internal("error reading report file: " + path);
  }
  return buffer.str();
}

/// `gsmb report diff A B` — classify drift between two run (or sweep)
/// reports. Exit 0 when the runs computed the same thing (identical or
/// perf-only drift), 1 on semantic drift, 2 on usage/parse problems.
int ReportMain(int argc, char** argv, int begin) {
  if (WantsHelp(argc, argv, begin)) {
    PrintUsage(stdout);
    return 0;
  }
  if (begin >= argc) {
    return UsageError("report needs a subcommand: report diff A B");
  }
  const std::string verb = argv[begin];
  if (verb != "diff") {
    return UsageError("unknown report subcommand '" + verb +
                      "' (expected: diff)");
  }
  if (begin + 2 >= argc || argc - begin != 3) {
    return UsageError("report diff needs exactly two report files");
  }

  Result<std::string> a = ReadTextFile(argv[begin + 1]);
  if (!a.ok()) return Fail(a.status());
  Result<std::string> b = ReadTextFile(argv[begin + 2]);
  if (!b.ok()) return Fail(b.status());

  Result<obs::ReportDiff> diff = obs::DiffReports(*a, *b);
  if (!diff.ok()) {
    // Malformed/mismatched documents are a usage-class failure (2), kept
    // distinct from "parsed fine, semantically drifted" (1).
    std::fprintf(stderr, "error: %s\n", diff.status().message().c_str());
    return 2;
  }

  std::printf("drift: %s\n", obs::DriftKindName(diff->kind));
  for (const std::string& line : diff->semantic) {
    std::printf("  semantic  %s\n", line.c_str());
  }
  for (const std::string& line : diff->perf) {
    std::printf("  perf      %s\n", line.c_str());
  }
  if (diff->kind == obs::DriftKind::kNone) {
    std::printf("reports agree on all fields\n");
  } else if (diff->kind == obs::DriftKind::kPerfOnly) {
    std::printf("reports agree on all semantic fields\n");
  }
  return diff->kind == obs::DriftKind::kSemantic ? 1 : 0;
}

// ---------------------------------------------------------------------------
// migrate
// ---------------------------------------------------------------------------

int MigrateMain(int argc, char** argv, int begin) {
  if (WantsHelp(argc, argv, begin) || begin >= argc) {
    if (begin >= argc) {
      return UsageError("migrate needs at least one spec file");
    }
    PrintUsage(stdout);
    return 0;
  }
  for (int i = begin; i < argc; ++i) {
    const std::string path = argv[i];
    if (path.rfind("--", 0) == 0) {
      return UsageError("unknown migrate flag " + path);
    }

    // Read the on-disk version first so the report can say what changed;
    // FromFile then applies the full versioned schema (a version-1 file
    // must not use version-2 keys, unknown keys still reject, ...).
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Fail(Status::NotFound("cannot open spec file: " + path));
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    uint64_t old_version = 0;
    {
      Result<json::Value> parsed = json::Parse(buffer.str());
      if (parsed.ok() && parsed->is_object()) {
        const json::Value* v = parsed->AsObject().Find("version");
        if (v != nullptr && v->is_u64()) old_version = v->AsU64();
      }
    }

    Result<JobSpec> spec = JobSpec::FromJson(buffer.str());
    if (!spec.ok()) {
      return Fail(Status(spec.status().code(),
                         path + ": " + spec.status().message()));
    }

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Fail(Status::NotFound("cannot rewrite spec file: " + path));
    }
    out << spec->ToJson() << "\n";
    out.close();
    if (!out) {
      return Fail(Status::Internal("error writing spec file: " + path));
    }
    if (old_version == kJobSpecVersion) {
      std::printf("%s: already version %llu (rewritten canonically)\n",
                  path.c_str(),
                  static_cast<unsigned long long>(kJobSpecVersion));
    } else {
      std::printf("%s: migrated version %llu -> %llu\n", path.c_str(),
                  static_cast<unsigned long long>(old_version),
                  static_cast<unsigned long long>(kJobSpecVersion));
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve mode (REPL on a live session)
// ---------------------------------------------------------------------------

/// Loads a profile CSV with clear diagnostics for the REPL commands.
EntityCollection LoadProfilesChecked(const std::string& path,
                                     const std::string& role) {
  if (!std::filesystem::exists(path)) {
    throw std::runtime_error(role + " dataset path does not exist: " + path);
  }
  EntityCollection collection = LoadCollectionCsv(path, role);
  if (collection.empty()) {
    throw std::runtime_error(role + " dataset " + path +
                             " parses to zero profiles");
  }
  return collection;
}

void PrintServeHelp() {
  std::printf(
      "commands:\n"
      "  ingest <csv>     add profiles from id,attribute,value CSV\n"
      "  refresh          re-block + re-prune dirty shards\n"
      "  query <id>       candidates for the resident profile <id>\n"
      "  queryfile <csv>  query every profile of the CSV (top 3 each)\n"
      "  retained <csv>   write the retained pairs as CSV\n"
      "  save <path>      write a session snapshot\n"
      "  stats            session counters + latency percentiles\n"
      "  help             this text\n"
      "  quit             exit\n");
}

void PrintStats(const MetaBlockingSession& session,
                const obs::TelemetrySink* sink = nullptr) {
  const SessionStats stats = session.Stats();
  std::printf(
      "profiles %zu | shards %zu (%zu dirty) | blocks %zu | candidates %zu "
      "| retained %zu\n",
      stats.num_profiles, stats.num_shards, stats.dirty_shards,
      stats.num_blocks, stats.num_candidates, stats.num_retained);
  if (sink == nullptr) return;
  // Latency lines from the registry's histograms — one per session verb
  // that has been exercised since the REPL started.
  const obs::MetricsSnapshot metrics = sink->SnapshotMetrics();
  for (const char* name : {"serve.query.latency_us", "serve.refresh.latency_us",
                           "serve.ingest.latency_us"}) {
    auto it = metrics.histograms.find(name);
    if (it == metrics.histograms.end() || it->second.count == 0) continue;
    const obs::HistogramData& h = it->second;
    std::printf(
        "%-24s n %llu | p50 %.0f us | p95 %.0f us | p99 %.0f us | max %.0f "
        "us\n",
        name, static_cast<unsigned long long>(h.count), h.Percentile(0.50),
        h.Percentile(0.95), h.Percentile(0.99), h.max);
  }
}

void PrintQuery(const MetaBlockingSession& session, const EntityProfile& probe,
                size_t top_k,
                std::optional<EntityId> exclude = std::nullopt) {
  Stopwatch watch;
  const std::vector<QueryMatch> matches =
      session.QueryCandidates(probe, top_k, exclude);
  const double ms = watch.ElapsedMillis();
  if (matches.empty()) {
    std::printf("  no candidates above threshold (%.2f ms)\n", ms);
    return;
  }
  for (size_t i = 0; i < matches.size(); ++i) {
    std::printf("  %zu. %s  p=%.4f\n", i + 1,
                session.profiles()[matches[i].id].external_id().c_str(),
                matches[i].probability);
  }
  std::printf("  (%zu candidates, %.2f ms)\n", matches.size(), ms);
}

int RunServeLoop(MetaBlockingSession& session) {
  // Registry behind the `stats` command: the session records its
  // ingest/refresh/query latency histograms while this sink is installed.
  obs::TelemetrySink sink;
  obs::InstallSink(&sink);
  PrintStats(session);
  std::printf("ready — type 'help' for commands\n");

  // external id -> resident id, extended lazily as ingests grow the
  // collection (a linear FindByExternalId scan per query would not keep up
  // with a production-sized resident set).
  std::unordered_map<std::string, EntityId> id_index;
  size_t indexed = 0;
  auto resident_id =
      [&](const std::string& external_id) -> std::optional<EntityId> {
    const EntityCollection& profiles = session.profiles();
    for (; indexed < profiles.size(); ++indexed) {
      id_index.emplace(profiles[static_cast<EntityId>(indexed)].external_id(),
                       static_cast<EntityId>(indexed));
    }
    auto it = id_index.find(external_id);
    if (it == id_index.end()) return std::nullopt;
    return it->second;
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream parts(line);
    std::string command;
    parts >> command;
    if (command.empty()) continue;
    try {
      if (command == "quit" || command == "exit") {
        break;
      } else if (command == "help") {
        PrintServeHelp();
      } else if (command == "stats") {
        PrintStats(session, &sink);
      } else if (command == "refresh") {
        Stopwatch watch;
        const size_t refreshed = session.Refresh();
        std::printf("refreshed %zu shard%s in %.1f ms\n", refreshed,
                    refreshed == 1 ? "" : "s", watch.ElapsedMillis());
      } else if (command == "ingest") {
        std::string path;
        parts >> path;
        if (path.empty()) throw std::runtime_error("ingest needs a path");
        const EntityCollection batch = LoadProfilesChecked(path, "ingest");
        Stopwatch watch;
        session.AddProfiles(batch.profiles());
        std::printf(
            "ingested %zu profiles in %.1f ms; %zu shards now dirty "
            "(run 'refresh')\n",
            batch.size(), watch.ElapsedMillis(), session.DirtyShardCount());
      } else if (command == "query") {
        std::string external_id;
        parts >> external_id;
        if (external_id.empty()) {
          throw std::runtime_error("query needs an external id");
        }
        const std::optional<EntityId> self = resident_id(external_id);
        if (!self.has_value()) {
          throw std::runtime_error("no resident profile with id " +
                                   external_id);
        }
        // The probe is resident: exclude it from its own candidates.
        PrintQuery(session, session.profiles()[*self], 10, *self);
      } else if (command == "queryfile") {
        std::string path;
        parts >> path;
        if (path.empty()) throw std::runtime_error("queryfile needs a path");
        const EntityCollection probes = LoadProfilesChecked(path, "query");
        for (const EntityProfile& probe : probes.profiles()) {
          std::printf("%s:\n", probe.external_id().c_str());
          // A probe that is already resident (same external id) must not
          // match itself.
          PrintQuery(session, probe, 3, resident_id(probe.external_id()));
        }
      } else if (command == "retained") {
        std::string path;
        parts >> path;
        if (path.empty()) throw std::runtime_error("retained needs a path");
        const std::vector<CandidatePair> retained = session.RetainedPairs();
        std::vector<CsvRow> rows;
        rows.reserve(retained.size() + 1);
        rows.push_back({"left_id", "right_id"});
        for (const CandidatePair& p : retained) {
          rows.push_back({session.profiles()[p.left].external_id(),
                          session.profiles()[p.right].external_id()});
        }
        WriteCsvFile(path, rows);
        std::printf("wrote %zu retained pairs to %s\n", retained.size(),
                    path.c_str());
      } else if (command == "save") {
        std::string path;
        parts >> path;
        if (path.empty()) throw std::runtime_error("save needs a path");
        session.Save(path);
        std::printf("saved session to %s\n", path.c_str());
      } else {
        std::printf("unknown command '%s' — type 'help'\n", command.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  obs::InstallSink(nullptr);
  return 0;
}

int ServeMain(int argc, char** argv) {
  if (WantsHelp(argc, argv, 2)) {
    PrintUsage(stdout);
    return 0;
  }
  JobSpec spec;
  // serve-mode spec defaults: the session tokenizes its own ingests and
  // cannot apply Block Filtering; the legacy absolute purge cap stays 200.
  spec.execution.mode = ExecutionMode::kServing;
  spec.blocking.filter_ratio = 1.0;
  spec.execution.serving_max_block_size = 200;

  std::string snapshot_path;
  bool threads_given = false;
  // A restored snapshot carries its own options and model; every flag that
  // would contradict them is rejected rather than silently ignored.
  std::string bootstrap_flag;

  cli::ArgStream scan(argc, argv, 2);
  std::vector<std::string> raw;
  while (!scan.Done()) raw.push_back(scan.Take());
  // --config merges over the serve defaults seeded above: a spec file that
  // does not mention filter_ratio or the purge cap keeps them.
  bool config_loaded = false;
  Result<std::vector<std::string>> rest =
      cli::ExtractConfig(raw, &spec, &config_loaded);
  if (!rest.ok()) return Fail(rest.status(), /*with_usage=*/true);
  cli::ArgStream args(std::move(*rest));

  while (!args.Done()) {
    const std::string flag = args.Take();

    // Shared pipeline flags; all except --threads configure a NEW session.
    if (flag == "--pruning" || flag == "--classifier" ||
        flag == "--features" || flag == "--labels" || flag == "--seed" ||
        flag == "--threads") {
      if (flag != "--threads") {
        bootstrap_flag = flag;
      } else {
        threads_given = true;
      }
      Result<cli::FlagOutcome> shared =
          cli::ApplySharedFlag(flag, args, &spec);
      if (!shared.ok()) return Fail(shared.status(), /*with_usage=*/true);
      continue;
    }

    if (flag == "--data") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return Fail(value.status(), /*with_usage=*/true);
      spec.dataset.source = DatasetSource::kCsv;
      spec.dataset.e1 = *value;
    } else if (flag == "--gt") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return Fail(value.status(), /*with_usage=*/true);
      spec.dataset.ground_truth = *value;
    } else if (flag == "--snapshot-in") {
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return Fail(value.status(), /*with_usage=*/true);
      snapshot_path = *value;
    } else if (flag == "--shards") {
      bootstrap_flag = flag;
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return Fail(value.status(), /*with_usage=*/true);
      Result<uint64_t> count = cli::ParseCount(flag, *value);
      if (!count.ok()) return Fail(count.status(), /*with_usage=*/true);
      spec.execution.shards = static_cast<size_t>(*count);
    } else if (flag == "--max-block-size") {
      bootstrap_flag = flag;
      Result<std::string> value = args.Value(flag);
      if (!value.ok()) return Fail(value.status(), /*with_usage=*/true);
      Result<uint64_t> count = cli::ParseCount(flag, *value);
      if (!count.ok()) return Fail(count.status(), /*with_usage=*/true);
      spec.execution.serving_max_block_size = static_cast<size_t>(*count);
    } else if (flag == "--streaming" || flag == "--memory-budget-mb") {
      return UsageError(
          flag +
          " drives the one-shot batch pipeline and contradicts serve "
          "mode, which is incremental by construction — drop the flag "
          "or run without 'serve'");
    } else if (flag == "--help") {
      PrintUsage(stdout);
      return 0;
    } else {
      return UsageError("unknown serve flag " + flag);
    }
  }

  if (spec.execution.shards == 0) {
    return UsageError(
        "--shards 0 is contradictory: a session needs at least one shard");
  }
  // Generated dataset sources (from --config) carry their own data; only a
  // CSV-source spec needs the --data/--gt paths.
  if (snapshot_path.empty() && spec.dataset.source == DatasetSource::kCsv &&
      (spec.dataset.e1.empty() || spec.dataset.ground_truth.empty())) {
    return UsageError("serve needs --data and --gt (or --snapshot-in)");
  }
  if (!snapshot_path.empty()) {
    if (!spec.dataset.e1.empty() || !spec.dataset.ground_truth.empty()) {
      return UsageError(
          "--snapshot-in restores a full session; it cannot be combined "
          "with --data/--gt");
    }
    if (config_loaded) {
      return UsageError(
          "--config configures a new session and is ignored by "
          "--snapshot-in (the snapshot's options govern)");
    }
    if (!bootstrap_flag.empty()) {
      return UsageError(
          bootstrap_flag +
          " configures a new session and is ignored by --snapshot-in "
          "(the snapshot's options govern); only --threads applies");
    }
  }

  try {
    if (!snapshot_path.empty()) {
      if (!std::filesystem::exists(snapshot_path)) {
        return Fail(Status::NotFound("--snapshot-in path does not exist: " +
                                     snapshot_path));
      }
      Stopwatch watch;
      MetaBlockingSession session = MetaBlockingSession::Load(snapshot_path);
      // The snapshot's options govern the session's semantics; the thread
      // count is purely an execution knob, so the flag wins when given
      // (0 = all hardware threads, resolved here).
      if (threads_given) {
        session.set_num_threads(spec.execution.options.num_threads > 0
                                    ? spec.execution.options.num_threads
                                    : HardwareThreads());
      }
      std::printf("restored session from %s in %.1f ms\n",
                  snapshot_path.c_str(), watch.ElapsedMillis());
      return RunServeLoop(session);
    }

    Engine engine;
    Stopwatch watch;
    Result<MetaBlockingSession> session = engine.OpenSession(spec);
    if (!session.ok()) return Fail(session.status());
    std::printf(
        "bootstrapped %zu-shard session (%s on %s) in %.1f ms\n",
        session->options().num_shards, ClassifierShortName(spec.classifier),
        spec.features.ToString().c_str(), watch.ElapsedMillis());
    return RunServeLoop(*session);
  } catch (const std::exception& e) {
    return Fail(Status::Internal(e.what()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "run") return RunMain(argc, argv, 2);
  if (command == "explain") return ExplainMain(argc, argv, 2);
  if (command == "sweep") return SweepMain(argc, argv, 2);
  if (command == "prepare") return PrepareMain(argc, argv, 2);
  if (command == "report") return ReportMain(argc, argv, 2);
  if (command == "migrate") return MigrateMain(argc, argv, 2);
  if (command == "serve") return ServeMain(argc, argv);
  if (command == "--help") {
    PrintUsage(stdout);
    return 0;
  }
  if (command.empty()) return UsageError("missing command");
  if (command[0] == '-') {
    return UsageError("bare flags need a command: to run a job, use "
                      "`gsmb_cli run " + command + " ...`");
  }
  return UsageError("unknown command '" + command + "'");
}
