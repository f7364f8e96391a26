// The distributed execution tier: a verifying coordinator over local
// worker processes, plus the `remote` executor backend.
//
// RunSweepRemote fans a sweep's expanded variants out across N worker
// processes (`gsmb_cli worker`), connected over pipes with the
// length-prefixed wire protocol (src/dist/wire.h). The shared preparation
// travels as a prepared snapshot (gsmb/snapshot.h): the coordinator
// prepares ONCE (or reuses a caller-supplied snapshot), ships the file's
// path, and every worker loads it into its engine's prepare cache — so a
// 16-variant sweep over 4 workers still pays exactly one preparation.
//
// Verified, not trusted, at every seam:
//   * each worker's hello reports the digests of the preparation it
//     actually loaded; the coordinator compares them against the shipped
//     snapshot's header before dispatching any work;
//   * per-variant JobResults carry the usual provenance digests
//     (dataset fingerprint, prepared digest, order-independent retained-
//     set digest), so a distributed sweep is checkable against a
//     single-process RunSweep without shipping the pairs themselves.
//
// Scheduling is work-stealing by construction: workers PULL — the
// coordinator hands the next unclaimed variant to whichever worker
// finishes first, so skewed grids (BLAST vs LCP-heavy variants differ
// >2x in cost) never stall on a static stripe.
//
// Failure semantics: a worker death or timeout never aborts the sweep.
// The lost in-flight variant is re-dispatched to a surviving worker up to
// `max_retries` times; beyond that it carries a per-variant error Status
// in the SweepResult while its siblings complete normally.

#ifndef GSMB_REMOTE_H_
#define GSMB_REMOTE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "gsmb/engine.h"
#include "gsmb/status.h"
#include "gsmb/sweep.h"

namespace gsmb {

/// Test-only fault injection: after `after_results` results from worker
/// `kill_worker` (0-based), the coordinator SIGKILLs it and then dispatches
/// its next variant, which is lost with it — deterministic mid-sweep worker
/// death. Until then the other workers leave that variant for it, so one
/// is always in flight when it dies.
struct RemoteFaultInjection {
  int kill_worker = -1;  ///< worker index to kill; -1 disables
  uint64_t after_results = 1;
};

struct RemoteOptions {
  /// Local worker processes to spawn.
  size_t num_workers = 2;
  /// Worker executable; invoked as `<cmd> worker [--snapshot-in <file>]`.
  /// Empty = this process's own binary (/proc/self/exe) — the gsmb_cli
  /// coordinator and its workers are one binary.
  std::string worker_command;
  /// Prepared snapshot to ship. Empty = the coordinator prepares the
  /// base spec itself, writes a temporary snapshot, and removes it when
  /// the sweep finishes.
  std::string snapshot_path;
  /// A worker whose in-flight variant exceeds this wall-clock budget is
  /// killed and treated as dead. <= 0 disables the timeout.
  double worker_timeout_seconds = 600.0;
  /// Re-dispatch budget per variant after a worker death/timeout; beyond
  /// it the variant fails with a per-variant Status.
  size_t max_retries = 1;
  RemoteFaultInjection fault;
};

/// Distributed Engine::RunSweep: same SweepSpec in, same SweepResult
/// out — variants in expansion order, per-variant Status, merged
/// telemetry (plus `dist.*` counters: workers, deaths, retries, worker
/// event/ snapshot-load counts), cache stats of the coordinator's own
/// prepare. Top-level failure only when the sweep could not run at all
/// (invalid spec, snapshot mismatch, no worker ever became ready).
Result<SweepResult> RunSweepRemote(const SweepSpec& sweep,
                                   const RemoteOptions& options);

/// The `remote` executor backend: Execute(spec) runs the single job on
/// one worker process from `options`. Register it explicitly —
/// engine.Register(MakeRemoteBackend(options)) — then
/// engine.RunOn("remote", spec); it is not part of the default registry
/// because it needs a worker command and process-spawn rights.
std::unique_ptr<Executor> MakeRemoteBackend(RemoteOptions options = {});

/// Worker-process options (the `gsmb_cli worker` subcommand).
struct WorkerOptions {
  /// Prepared snapshot to load and adopt before serving jobs. Empty =
  /// the worker prepares on demand (correct, but pays its own prepare).
  std::string snapshot_path;
  /// Threads for the snapshot load's rebuild; 0 = hardware count.
  size_t num_threads = 0;
};

/// Runs the worker protocol over stdin/stdout (frames only — nothing else
/// may be written to stdout) until a shutdown frame or EOF. Returns the
/// process exit code; never throws.
int RunWorker(const WorkerOptions& options);

}  // namespace gsmb

#endif  // GSMB_REMOTE_H_
