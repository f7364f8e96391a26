// Prepared snapshots: a versioned binary file format for PreparedInputs.
//
// Engine::Prepare is a pure function of the spec's dataset+blocking
// sections, but its result was process-local — every process, bench
// harness and CI job paid its own load + block + count. A prepared snapshot
// serializes the preparation's *sources of truth* (profiles, ground truth,
// and the post-purge/filter block collection) and rebuilds the rest — the
// EntityIndex, block stats, and the streaming counting preparation — on
// load, through the exact deterministic code path a cold Prepare takes
// (PrepareStreamingFromBlocks). A loaded handle is therefore bit-identical
// to a cold preparation, and the file does not duplicate state that could
// drift from the build path.
//
// Verified, not trusted: the file embeds the preparation's
// obs::DatasetFingerprint and obs::PreparedStreamDigest, and Load recomputes
// both over the rebuilt state. A snapshot whose bytes were corrupted in a
// way that still parses fails the digest check instead of silently
// executing against different blocks. Truncated/garbled files are rejected
// by bounds-checked reads before any container is sized from a length
// field.
//
// Loaded handles enter an Engine through Engine::AdoptPrepared, which seeds
// the prepare cache under the handle's own cache key — `gsmb_cli run|sweep
// --snapshot-in` uses this so later runs and sweeps skip preparation.

#ifndef GSMB_SNAPSHOT_H_
#define GSMB_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "gsmb/prepared.h"
#include "gsmb/status.h"

namespace gsmb {

/// Magic + format version of the prepared-snapshot file ("GSMBPS" + two
/// version digits). Bumped on any layout change; mismatched versions are
/// rejected with a diagnostic naming both.
inline constexpr std::string_view kPreparedSnapshotMagic = "GSMBPS01";

/// The self-describing header of a snapshot file — readable without
/// rebuilding the preparation, so a caller can check a snapshot it did not
/// create against its spec before loading it.
struct PreparedSnapshotInfo {
  /// PrepareCacheKey(spec) of the preparation: the canonical JSON of the
  /// spec's dataset+blocking sections.
  std::string cache_key;
  uint64_t dataset_fingerprint = 0;
  uint64_t prepared_digest = 0;
  /// Wall-clock cost of the original preparation, seconds.
  double prepare_seconds = 0.0;
  /// Total size of the snapshot file, bytes.
  uint64_t file_bytes = 0;
};

/// Writes `prepared` to `path` (overwriting). The snapshot holds the
/// profiles, ground truth and preprocessed blocks plus the header digests;
/// derived state is rebuilt on load.
Status SavePreparedSnapshot(const PreparedInputs& prepared,
                            const std::string& path);

/// Reads only the header. Rejects bad magic / unsupported versions /
/// truncated headers with a diagnostic.
Result<PreparedSnapshotInfo> ReadPreparedSnapshotInfo(const std::string& path);

/// Loads a snapshot and rebuilds the full preparation with `num_threads`
/// workers (0 = all hardware threads; the rebuilt state is bit-identical
/// for any value). Recomputes DatasetFingerprint and PreparedStreamDigest
/// over the rebuilt state and fails — naming stored and recomputed values —
/// when either disagrees with the header.
Result<PreparedHandle> LoadPreparedSnapshot(const std::string& path,
                                            size_t num_threads = 0);

}  // namespace gsmb

#endif  // GSMB_SNAPSHOT_H_
