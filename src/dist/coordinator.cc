// The coordinator side of the distributed tier (gsmb/remote.h): spawns
// worker processes, verifies each worker's loaded preparation against the
// shipped snapshot, and fans variants out over the wire protocol with
// pull-model (work-stealing) dispatch and bounded retry on worker death.
//
// All process management of the repo lives in src/dist/ (lint rule
// raw-process): fork/exec with pipes on stdin/stdout, a poll() event loop
// over the worker read ends, SIGKILL + waitpid on timeout/teardown.

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/wire.h"
#include "gsmb/log.h"
#include "gsmb/digest.h"
#include "gsmb/prepared.h"
#include "gsmb/remote.h"
#include "gsmb/snapshot.h"
#include "util/stopwatch.h"

namespace gsmb {

namespace {

// ---------------------------------------------------------------------------
// Worker processes
// ---------------------------------------------------------------------------

struct WorkerProc {
  pid_t pid = -1;
  int to_fd = -1;    // coordinator -> worker (worker stdin)
  int from_fd = -1;  // worker stdout -> coordinator
  std::string rbuf;  // partial frames read from the worker
  bool ready = false;
  bool dead = false;
  /// Variant index currently dispatched to this worker; -1 idle.
  long long in_flight = -1;
  uint64_t results = 0;
  uint64_t jobs = 0;  // variants dispatched to it, retries included
  bool fault_fired = false;
  Stopwatch activity;
};

void CloseFd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// fork/exec one worker with pipes on its stdin/stdout. The worker
/// inherits stderr, so its diagnostics land on the coordinator's stderr.
Status SpawnWorker(const std::string& command,
                   const std::vector<std::string>& args, WorkerProc* worker) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      if (fd >= 0) ::close(fd);
    }
    return Status::Internal(std::string("coordinator: pipe failed: ") +
                            std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    return Status::Internal(std::string("coordinator: fork failed: ") +
                            std::strerror(errno));
  }
  if (pid == 0) {
    // Child: wire the pipes onto stdin/stdout and become the worker.
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 2);
    argv.push_back(const_cast<char*>(command.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(command.c_str(), argv.data());
    // exec failed; stdout is the protocol pipe, so exit silently — the
    // coordinator sees EOF-before-hello and reports the command.
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  worker->pid = pid;
  worker->to_fd = to_child[1];
  worker->from_fd = from_child[0];
  return Status::Ok();
}

void ReapWorker(WorkerProc& worker, bool kill_first) {
  if (worker.pid < 0) return;
  if (kill_first) ::kill(worker.pid, SIGKILL);
  int status = 0;
  ::waitpid(worker.pid, &status, 0);
  worker.pid = -1;
  CloseFd(worker.to_fd);
  CloseFd(worker.from_fd);
  worker.dead = true;
}

std::string SelfExecutable() {
  std::error_code ec;
  std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string() : self.string();
}

std::string TempSnapshotPath() {
  static std::atomic<uint64_t> counter{0};
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) dir = ".";
  const uint64_t unique = counter.fetch_add(1, std::memory_order_relaxed);
  return (dir / ("gsmb_prepared_" + std::to_string(::getpid()) + "_" +
                 std::to_string(unique) + ".snapshot"))
      .string();
}

// ---------------------------------------------------------------------------
// The dispatch loop
// ---------------------------------------------------------------------------

struct VariantOutcome {
  Status status{StatusCode::kInternal, "never dispatched"};
  JobResult result;
};

struct DistStats {
  size_t workers = 0;
  size_t deaths = 0;
  size_t retries = 0;
  uint64_t worker_events = 0;
  size_t snapshot_loads = 0;
};

/// Runs `specs` (already labelled/validated variants) over
/// `options.num_workers` worker processes sharing `snapshot_path`.
/// Per-variant failures land in the outcomes; a non-OK return means the
/// sweep could not run at all.
Status RunJobsRemote(const std::vector<JobSpec>& specs,
                     const PreparedSnapshotInfo& snapshot,
                     const std::string& snapshot_path,
                     const RemoteOptions& options,
                     std::vector<VariantOutcome>* outcomes,
                     DistStats* stats) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("remote: num_workers must be >= 1");
  }
  std::string command = options.worker_command;
  if (command.empty()) command = SelfExecutable();
  if (command.empty()) {
    return Status::InvalidArgument(
        "remote: worker_command is empty and /proc/self/exe is not "
        "readable — name the worker binary explicitly");
  }

  // A worker that died mid-write must surface as a write error the event
  // loop handles, not a SIGPIPE kill of the coordinator.
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<std::string> worker_args = {"worker"};
  if (!snapshot_path.empty()) {
    worker_args.push_back("--snapshot-in");
    worker_args.push_back(snapshot_path);
  }

  const size_t num_workers = std::min(options.num_workers, specs.size() == 0
                                                               ? size_t{1}
                                                               : specs.size());
  std::vector<WorkerProc> workers(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    Status spawned = SpawnWorker(command, worker_args, &workers[w]);
    if (!spawned.ok()) {
      for (WorkerProc& worker : workers) ReapWorker(worker, true);
      return spawned;
    }
  }
  stats->workers = num_workers;
  GSMB_LOG_INFO("dist.sweep.start", {"workers", num_workers},
                {"variants", specs.size()});

  outcomes->assign(specs.size(), VariantOutcome{});
  std::vector<size_t> attempts(specs.size(), 0);
  std::deque<size_t> requeued;
  // Retained pairs arrive before their result frame; parked here until
  // the result claims them (and dropped on a retry after worker death).
  std::map<uint64_t, std::vector<RetainedPair>> pending_retained;
  size_t next_fresh = 0;
  size_t completed = 0;
  bool any_ready = false;
  Status fatal = Status::Ok();

  auto fail_variant = [&](size_t variant, const std::string& why) {
    (*outcomes)[variant].status = Status::Internal(why);
    pending_retained.erase(variant);
    ++completed;
  };

  // Undispatched variants the fault-injection target still has a claim
  // on: enough to hand it its (after_results + 1)-th job, so the injected
  // death always loses a variant in flight, however fast the other workers
  // drain the queue. Zero for the target itself and once the fault fired.
  auto fault_reserve = [&](const WorkerProc& worker) -> size_t {
    const int target = options.fault.kill_worker;
    if (target < 0 || static_cast<size_t>(target) >= workers.size()) return 0;
    const WorkerProc& victim = workers[static_cast<size_t>(target)];
    if (&worker == &victim || victim.dead || victim.fault_fired) return 0;
    const uint64_t wanted = options.fault.after_results + 1;
    return victim.jobs >= wanted ? 0
                                 : static_cast<size_t>(wanted - victim.jobs);
  };

  // Pull-model dispatch = work stealing: the next unclaimed variant goes
  // to whichever worker asks first. Requeued (retried) variants win over
  // fresh ones so a death is healed promptly.
  auto dispatch_next = [&](WorkerProc& worker) -> bool {
    if (!fatal.ok()) return true;
    const size_t pending = requeued.size() + (specs.size() - next_fresh);
    if (pending <= fault_reserve(worker)) return true;  // idle, or held back
    long long variant = -1;
    if (!requeued.empty()) {
      variant = static_cast<long long>(requeued.front());
      requeued.pop_front();
    } else if (next_fresh < specs.size()) {
      variant = static_cast<long long>(next_fresh++);
    }
    if (variant < 0) return true;  // nothing left; worker idles until
                                   // shutdown
    ++attempts[static_cast<size_t>(variant)];
    ++worker.jobs;
    dist::JobMessage job;
    job.variant = static_cast<uint64_t>(variant);
    job.spec = specs[static_cast<size_t>(variant)];
    worker.in_flight = variant;
    worker.activity.Restart();
    return dist::WriteFrame(worker.to_fd, dist::FrameType::kJob,
                            dist::EncodeJob(job))
        .ok();  // a failed write = the worker is dying; poll() reports it
  };

  auto on_worker_death = [&](size_t index) {
    WorkerProc& worker = workers[index];
    ReapWorker(worker, /*kill_first=*/false);
    ++stats->deaths;
    GSMB_LOG_WARN("dist.worker.died", {"worker", index},
                  {"in_flight", worker.in_flight});
    if (worker.in_flight >= 0) {
      const size_t variant = static_cast<size_t>(worker.in_flight);
      worker.in_flight = -1;
      pending_retained.erase(variant);
      if (attempts[variant] <= options.max_retries) {
        ++stats->retries;
        requeued.push_back(variant);
      } else {
        fail_variant(variant,
                     "worker process died while running this variant (" +
                         std::to_string(attempts[variant]) +
                         " attempt(s), retry budget " +
                         std::to_string(options.max_retries) + ")");
      }
    }
    if (!any_ready) {
      // Died before its hello — most likely the exec itself failed.
      bool all_dead = true;
      for (const WorkerProc& w : workers) all_dead &= w.dead;
      if (all_dead) {
        fatal = Status::Internal(
            "remote: no worker became ready (worker command '" + command +
            "' failed to start or crashed during initialisation)");
      }
    }
    // Idle workers only ask for work when they report a result, so hand
    // them the requeued variant (or the reserve a dead target released)
    // now; otherwise a death while the rest sit idle would stall the sweep.
    for (WorkerProc& w : workers) {
      if (w.ready && !w.dead && w.in_flight < 0) (void)dispatch_next(w);
    }
  };

  // One frame from worker `index`; false = protocol violation (the worker
  // is killed and handled as a death).
  auto handle_frame = [&](size_t index, const dist::Frame& frame) -> bool {
    WorkerProc& worker = workers[index];
    switch (frame.type) {
      case dist::FrameType::kHello: {
        Result<dist::HelloMessage> hello = dist::DecodeHello(frame.payload);
        if (!hello.ok()) return false;
        if (!hello->ok) {
          fatal = Status::Internal("remote: worker " + std::to_string(index) +
                                   " failed to initialise: " + hello->error);
          return false;
        }
        if (!snapshot_path.empty()) {
          // The verification seam: the worker proves it loaded the exact
          // preparation the coordinator shipped.
          if (hello->cache_key != snapshot.cache_key ||
              hello->dataset_fingerprint != snapshot.dataset_fingerprint ||
              hello->prepared_digest != snapshot.prepared_digest) {
            fatal = Status::Internal(
                "remote: worker " + std::to_string(index) +
                " loaded a different preparation than the shipped snapshot "
                "(worker prepared_digest " +
                obs::DigestHex(hello->prepared_digest) + " / fingerprint " +
                obs::DigestHex(hello->dataset_fingerprint) +
                ", snapshot prepared_digest " +
                obs::DigestHex(snapshot.prepared_digest) + " / fingerprint " +
                obs::DigestHex(snapshot.dataset_fingerprint) + ")");
            return false;
          }
          ++stats->snapshot_loads;
        }
        worker.ready = true;
        any_ready = true;
        return dispatch_next(worker);
      }
      case dist::FrameType::kRetained: {
        Result<dist::RetainedMessage> retained =
            dist::DecodeRetained(frame.payload);
        if (!retained.ok()) return false;
        worker.activity.Restart();
        pending_retained[retained->variant] = std::move(retained->pairs);
        return true;
      }
      case dist::FrameType::kEvents: {
        Result<dist::EventsMessage> events = dist::DecodeEvents(frame.payload);
        if (!events.ok()) return false;
        worker.activity.Restart();
        stats->worker_events += events->records;
        GSMB_LOG_DEBUG("dist.worker.events", {"worker", index},
                       {"variant", events->variant},
                       {"records", events->records});
        return true;
      }
      case dist::FrameType::kResult: {
        Result<dist::ResultMessage> message = dist::DecodeResult(frame.payload);
        if (!message.ok()) return false;
        if (worker.in_flight < 0) return false;  // result for nothing
        // The coordinator's dispatch record is authoritative; a worker
        // answering for a different variant is a protocol violation.
        const size_t variant = static_cast<size_t>(worker.in_flight);
        if (message->status.ok() && message->variant != variant) return false;
        worker.in_flight = -1;
        ++worker.results;
        VariantOutcome& outcome = (*outcomes)[variant];
        outcome.status = message->status;
        if (message->status.ok()) {
          outcome.result = std::move(message->result);
          auto parked = pending_retained.find(variant);
          if (parked != pending_retained.end()) {
            outcome.result.retained = std::move(parked->second);
            pending_retained.erase(parked);
          }
          outcome.result.telemetry
              .counters["dist.worker.prepare.miss"] += message->prepare_misses;
        }
        ++completed;
        const bool fire_fault =
            options.fault.kill_worker == static_cast<int>(index) &&
            !worker.fault_fired && worker.results >= options.fault.after_results;
        if (fire_fault) {
          // Deterministic mid-sweep death: SIGKILL before the next variant
          // is written, so the worker can never run it however fast it is;
          // that variant is lost with the worker and takes the retry path.
          worker.fault_fired = true;
          ::kill(worker.pid, SIGKILL);
        }
        return dispatch_next(worker);
      }
      default:
        return false;  // worker sent a coordinator-to-worker frame type
    }
  };

  // Every live worker has said hello (and so proved its snapshot). A worker
  // still starting when the last result lands is waited for: teardown
  // would wait for it to exit anyway.
  auto all_checked_in = [&] {
    return std::all_of(workers.begin(), workers.end(),
                       [](const WorkerProc& w) { return w.ready || w.dead; });
  };

  // The event loop: poll all live worker pipes, drain frames, dispatch.
  while (fatal.ok() && (completed < specs.size() || !all_checked_in())) {
    std::vector<pollfd> fds;
    std::vector<size_t> fd_owner;
    for (size_t w = 0; w < workers.size(); ++w) {
      if (workers[w].dead) continue;
      fds.push_back(pollfd{workers[w].from_fd, POLLIN, 0});
      fd_owner.push_back(w);
    }
    if (fds.empty()) {
      // Every worker is gone; whatever is incomplete can never finish.
      for (size_t v = 0; v < specs.size(); ++v) {
        if ((*outcomes)[v].status.code() == StatusCode::kInternal &&
            (*outcomes)[v].status.message() == "never dispatched") {
          fail_variant(v, "all " + std::to_string(num_workers) +
                              " worker process(es) died before this variant "
                              "could run");
        }
      }
      break;
    }

    const int polled = ::poll(fds.data(), fds.size(), /*timeout_ms=*/200);
    if (polled < 0 && errno != EINTR) {
      fatal = Status::Internal(std::string("coordinator: poll failed: ") +
                               std::strerror(errno));
      break;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      const size_t w = fd_owner[i];
      if (workers[w].dead) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[65536];
      const ssize_t n = ::read(workers[w].from_fd, chunk, sizeof chunk);
      if (n > 0) {
        workers[w].rbuf.append(chunk, static_cast<size_t>(n));
        dist::Frame frame;
        for (;;) {
          Result<bool> extracted =
              dist::ExtractFrame(&workers[w].rbuf, &frame);
          if (!extracted.ok() || (*extracted && !handle_frame(w, frame))) {
            ReapWorker(workers[w], /*kill_first=*/true);
            on_worker_death(w);
            break;
          }
          if (!*extracted) break;
        }
      } else if (n == 0 || (n < 0 && errno != EINTR)) {
        on_worker_death(w);
      }
    }

    // Hung-worker watchdog: an in-flight variant past the budget costs
    // the worker its life; the death path requeues or fails the variant.
    if (options.worker_timeout_seconds > 0) {
      for (size_t w = 0; w < workers.size(); ++w) {
        if (workers[w].dead || workers[w].in_flight < 0) continue;
        if (workers[w].activity.ElapsedSeconds() >
            options.worker_timeout_seconds) {
          GSMB_LOG_WARN("dist.worker.timeout", {"worker", w},
                        {"variant", workers[w].in_flight});
          ReapWorker(workers[w], /*kill_first=*/true);
          on_worker_death(w);
        }
      }
    }
  }

  // Teardown: polite shutdown frames, then reap everything.
  for (WorkerProc& worker : workers) {
    if (worker.dead) continue;
    (void)dist::WriteFrame(worker.to_fd, dist::FrameType::kShutdown, "");
    CloseFd(worker.to_fd);
    ReapWorker(worker, /*kill_first=*/false);
  }
  return fatal;
}

// ---------------------------------------------------------------------------
// Snapshot resolution shared by RunSweepRemote and the remote backend
// ---------------------------------------------------------------------------

struct ResolvedSnapshot {
  PreparedSnapshotInfo info;
  std::string path;
  bool temporary = false;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  double prepare_seconds = 0.0;
};

/// Either verifies a caller-supplied snapshot against the base spec
/// (contradiction error naming both sides) or prepares the base once and
/// writes a temporary snapshot for the workers.
Result<ResolvedSnapshot> ResolveSnapshot(const JobSpec& base,
                                         const RemoteOptions& options) {
  ResolvedSnapshot resolved;
  if (!options.snapshot_path.empty()) {
    Result<PreparedSnapshotInfo> info =
        ReadPreparedSnapshotInfo(options.snapshot_path);
    if (!info.ok()) return info.status();
    const std::string spec_key = PrepareCacheKey(base);
    if (info->cache_key != spec_key) {
      return Status::InvalidArgument(
          "remote: snapshot '" + options.snapshot_path +
          "' was prepared for a different dataset+blocking than the spec: "
          "snapshot cache key " + info->cache_key +
          " (dataset_fingerprint " +
          obs::DigestHex(info->dataset_fingerprint) + ", prepared_digest " +
          obs::DigestHex(info->prepared_digest) +
          ") vs spec cache key " + spec_key);
    }
    resolved.info = *info;
    resolved.path = options.snapshot_path;
    resolved.prepare_seconds = info->prepare_seconds;
    return resolved;
  }

  // No snapshot supplied: the coordinator pays the ONE preparation of the
  // whole distributed sweep and ships it as a temporary file.
  Engine engine;
  const PrepareCacheStats before = engine.prepare_cache_stats();
  Result<PreparedHandle> prepared = engine.Prepare(base);
  if (!prepared.ok()) return prepared.status();
  const PrepareCacheStats after = engine.prepare_cache_stats();
  resolved.cache_hits = after.hits - before.hits;
  resolved.cache_misses = after.misses - before.misses;
  resolved.prepare_seconds = (*prepared)->prepare_seconds;
  resolved.path = TempSnapshotPath();
  resolved.temporary = true;
  Status saved = SavePreparedSnapshot(**prepared, resolved.path);
  if (!saved.ok()) return saved;
  resolved.info.cache_key = (*prepared)->cache_key;
  resolved.info.dataset_fingerprint = (*prepared)->dataset_fingerprint;
  resolved.info.prepared_digest = (*prepared)->prepared_digest;
  resolved.info.prepare_seconds = (*prepared)->prepare_seconds;
  return resolved;
}

void RemoveIfTemporary(const ResolvedSnapshot& snapshot) {
  if (!snapshot.temporary) return;
  std::error_code ec;
  std::filesystem::remove(snapshot.path, ec);
}

}  // namespace

// ---------------------------------------------------------------------------
// RunSweepRemote
// ---------------------------------------------------------------------------

Result<SweepResult> RunSweepRemote(const SweepSpec& sweep,
                                   const RemoteOptions& options) {
  Status valid = sweep.Validate();
  if (!valid.ok()) return valid;

  Stopwatch total_watch;
  Result<ResolvedSnapshot> snapshot = ResolveSnapshot(sweep.base, options);
  if (!snapshot.ok()) return snapshot.status();

  if (!sweep.retained_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(sweep.retained_dir, ec);
    if (ec) {
      RemoveIfTemporary(*snapshot);
      return Status::NotFound("cannot create sweep.retained_dir '" +
                              sweep.retained_dir + "': " + ec.message());
    }
  }

  std::vector<JobSpec> variants = sweep.Expand();
  SweepResult result;
  result.variants.resize(variants.size());
  for (size_t i = 0; i < variants.size(); ++i) {
    SweepVariant& out = result.variants[i];
    out.spec = std::move(variants[i]);
    out.label = SweepVariantLabel(out.spec);
    if (!sweep.retained_dir.empty()) {
      out.spec.output.retained_csv =
          sweep.retained_dir + "/" + out.label + ".csv";
    }
  }

  std::vector<JobSpec> specs;
  specs.reserve(result.variants.size());
  for (const SweepVariant& variant : result.variants) {
    specs.push_back(variant.spec);
  }

  std::vector<VariantOutcome> outcomes;
  DistStats stats;
  Status ran = RunJobsRemote(specs, snapshot->info, snapshot->path, options,
                             &outcomes, &stats);
  RemoveIfTemporary(*snapshot);
  if (!ran.ok()) return ran;

  result.cache_hits = snapshot->cache_hits;
  result.cache_misses = snapshot->cache_misses;
  result.prepare_seconds = snapshot->prepare_seconds;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    result.variants[i].status = outcomes[i].status;
    result.variants[i].result = std::move(outcomes[i].result);
  }

  // Same deterministic fold as the in-process RunSweep (expansion order),
  // plus the distributed tier's own counters. Telemetry is perf-class in
  // report diffs, so the dist.* counters never show up as semantic drift
  // against a single-process report.
  for (const SweepVariant& variant : result.variants) {
    if (variant.status.ok()) {
      result.telemetry.MergeFrom(variant.result.telemetry);
    }
  }
  result.telemetry.counters["prepare.cache.hit"] += result.cache_hits;
  result.telemetry.counters["prepare.cache.miss"] += result.cache_misses;
  result.telemetry.counters["dist.workers"] += stats.workers;
  result.telemetry.counters["dist.worker.deaths"] += stats.deaths;
  result.telemetry.counters["dist.retries"] += stats.retries;
  result.telemetry.counters["dist.worker.events"] += stats.worker_events;
  result.telemetry.counters["dist.snapshot.loads"] += stats.snapshot_loads;

  result.total_seconds = total_watch.ElapsedSeconds();
  GSMB_LOG_INFO("dist.sweep.done", {"variants", result.variants.size()},
                {"deaths", stats.deaths}, {"retries", stats.retries});
  return result;
}

// ---------------------------------------------------------------------------
// The `remote` executor backend
// ---------------------------------------------------------------------------

namespace {

class RemoteExecutor : public Executor {
 public:
  explicit RemoteExecutor(RemoteOptions options)
      : options_(std::move(options)) {}

  std::string name() const override { return "remote"; }

  Status Supports(const JobSpec& spec) const override {
    if (spec.execution.mode == ExecutionMode::kServing) {
      return Status::InvalidArgument(
          "the remote backend cannot host a serving session (sessions are "
          "interactive and process-local); use execution.mode batch, "
          "streaming or auto");
    }
    return Status::Ok();
  }

  Result<JobResult> Execute(const JobSpec& spec) const override {
    Result<ResolvedSnapshot> snapshot = ResolveSnapshot(spec, options_);
    if (!snapshot.ok()) return snapshot.status();
    RemoteOptions options = options_;
    options.num_workers = 1;
    std::vector<VariantOutcome> outcomes;
    DistStats stats;
    Status ran = RunJobsRemote({spec}, snapshot->info, snapshot->path,
                               options, &outcomes, &stats);
    RemoveIfTemporary(*snapshot);
    if (!ran.ok()) return ran;
    if (!outcomes[0].status.ok()) return outcomes[0].status;
    return std::move(outcomes[0].result);
  }

 private:
  RemoteOptions options_;
};

}  // namespace

std::unique_ptr<Executor> MakeRemoteBackend(RemoteOptions options) {
  return std::make_unique<RemoteExecutor>(std::move(options));
}

}  // namespace gsmb
