// gsmb::JobSpec — the declarative description of one meta-blocking job.
//
// The paper frames (Generalized) Supervised Meta-blocking as ONE pipeline:
// block the input, weight every candidate pair with a feature vector,
// classify, prune. A JobSpec pins that pipeline down as data: what to read,
// how to block it, which features/classifier/pruning to use, how to train,
// and how to execute (in memory, out of core, or through the serving
// layer). The same spec drives every backend of gsmb::Engine, serializes
// to/from versioned JSON (`gsmb_cli explain` emits it; `gsmb_cli run
// --config job.json` replays it), and validates with diagnostics instead of
// exceptions or exits.
//
// Spec evolution contract: `version` is required in every serialized spec.
// Unknown versions and unknown keys are rejected with a diagnostic — a spec
// never silently means something else than it says. Older versions within
// [kJobSpecMinVersion, kJobSpecVersion] are read under THEIR schema (a
// version-1 file may not use version-2 keys) and upgraded in memory;
// ToJson() always writes the current version, and `gsmb_cli migrate`
// rewrites spec files in place the same way.
//
// Version history:
//   1  PR 4 — the original facade schema.
//   2  adds pruning.validity_threshold (the paper's 0.5 floor, previously
//      fixed; <= 0 disables it for unsupervised-style weighting).
//   3  opens blocking.scheme to the scheme registry (src/schemes/):
//      sorted-neighborhood, dynamic-sorted-neighborhood,
//      attribute-clustering and minhash-lsh join token/qgram/suffix, with
//      per-scheme keys (blocking.window, min_window, key_similarity,
//      attribute_similarity, lsh_bands, lsh_rows, minhash_seed). A
//      version-1/2 file may only name the legacy schemes and none of the
//      new keys.

#ifndef GSMB_API_JOB_SPEC_H_
#define GSMB_API_JOB_SPEC_H_

#include <cstdint>
#include <string>

#include "core/feature_set.h"
#include "core/pruning.h"
#include "gsmb/execution.h"
#include "gsmb/status.h"
#include "ml/classifier.h"

namespace gsmb {

/// Version written by ToJson(). FromJson() reads every version in
/// [kJobSpecMinVersion, kJobSpecVersion] and upgrades in memory.
inline constexpr uint64_t kJobSpecVersion = 3;
inline constexpr uint64_t kJobSpecMinVersion = 1;

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

enum class DatasetSource {
  kCsv,                 ///< id,attribute,value CSV files + ground-truth CSV
  kGeneratedCleanClean, ///< synthetic Table-1 stand-in by spec name
  kGeneratedDirty,      ///< synthetic D10K..D300K stand-in by spec name
};

struct DatasetSpec {
  DatasetSource source = DatasetSource::kCsv;
  /// CSV source. Omitting `e2` selects Dirty ER (deduplication of `e1`).
  std::string e1;
  std::string e2;
  std::string ground_truth;
  /// Generated source: spec name ("AbtBuy", "D10K", ...) and entity-count
  /// scale multiplier.
  std::string name;
  double scale = 1.0;

  /// True when the spec describes a single-collection (Dirty ER) job.
  bool dirty() const {
    return source == DatasetSource::kGeneratedDirty ||
           (source == DatasetSource::kCsv && e2.empty());
  }
};

/// Names of the built-in blocking schemes (see src/schemes/). Spec fields
/// and CLI flags refer to schemes by registry name; schemes::FindBlocker()
/// resolves a name to its implementation.
inline constexpr char kSchemeToken[] = "token";
inline constexpr char kSchemeQGram[] = "qgram";
inline constexpr char kSchemeSuffix[] = "suffix";
inline constexpr char kSchemeSortedNeighborhood[] = "sorted-neighborhood";
inline constexpr char kSchemeDynamicSortedNeighborhood[] =
    "dynamic-sorted-neighborhood";
inline constexpr char kSchemeAttributeClustering[] = "attribute-clustering";
inline constexpr char kSchemeMinHashLsh[] = "minhash-lsh";

struct BlockingSpec {
  /// Registry name of the blocking scheme (schemes::FindBlocker()).
  /// Version 1/2 specs may only name token | qgram | suffix.
  std::string scheme = kSchemeToken;
  /// Token / attribute-clustering / minhash schemes: minimum token length
  /// used as (part of) a key.
  size_t min_token_length = 1;
  /// Q-gram scheme: gram length.
  size_t qgram = 3;
  /// Suffix scheme: minimum suffix length, and the cap on a block's
  /// members, both sources together (larger blocks are dropped).
  size_t suffix_min_length = 4;
  size_t suffix_max_block_size = 64;
  /// Sorted-neighborhood schemes: window size (the fixed window, and the
  /// maximum window of the dynamic variant). Version 3.
  size_t window = 4;
  /// Dynamic sorted neighborhood: minimum window size. Version 3.
  size_t min_window = 2;
  /// Dynamic sorted neighborhood: the window keeps extending while
  /// adjacent sort keys are at least this similar (normalized common
  /// prefix, in (0, 1]). Version 3.
  double key_similarity = 0.5;
  /// Attribute clustering: attributes link when the Jaccard similarity of
  /// their value token sets reaches this threshold (in (0, 1]). Version 3.
  double attribute_similarity = 0.3;
  /// MinHash-LSH: band count and rows (minhashes) per band; the signature
  /// length is bands * rows. Version 3.
  size_t lsh_bands = 8;
  size_t lsh_rows = 4;
  /// MinHash-LSH: seed of the hash family, routed through util/random.
  /// Version 3.
  uint64_t minhash_seed = 7;
  /// Block Purging: drop blocks larger than this fraction of all profiles.
  /// Values >= 1 disable purging (only zero-comparison blocks drop).
  double purge_size_fraction = 0.5;
  /// Block Filtering: fraction of its smallest blocks each entity keeps.
  /// 1 disables filtering. The serving backend requires 1 (filtering is a
  /// cross-shard operation a shard-pure session cannot apply).
  double filter_ratio = 0.8;
};

struct TrainingSpec {
  /// Balanced training set: labelled pairs per class.
  size_t labels_per_class = 25;
  /// Seed of the training-pair sample (one paper repetition = one seed).
  uint64_t seed = 0;
};

struct PruningSpec {
  PruningKind kind = PruningKind::kBlast;
  double blast_ratio = 0.35;
  /// Pairs with classifier probability below this are never retained (the
  /// paper's 0.5). <= 0 disables the floor (unsupervised-style weighting).
  /// Spec version 2; a version-1 file cannot name it.
  double validity_threshold = 0.5;
};

enum class ExecutionMode {
  kBatch,     ///< in-memory pipeline (core/)
  kStreaming, ///< bounded-memory out-of-core executor (stream/)
  kServing,   ///< cold-built serving session (serve/)
  kAuto,      ///< batch, unless the arena-bytes model exceeds the budget
};

struct ExecutionSpec {
  ExecutionMode mode = ExecutionMode::kBatch;
  /// Worker threads for every stage; 0 = all hardware threads. Results are
  /// bit-identical for any value.
  ExecutionOptions options;
  /// Streaming: contiguous chunk-aligned candidate-space slices.
  /// Serving: hash-sharded token key shards.
  size_t shards = 16;
  /// Streaming: raise the shard count until one shard's arena fits.
  /// Auto mode: switch to streaming when the in-memory candidate arrays
  /// (pairs + features + probabilities + labels) would not fit.
  /// 0 = no budget.
  size_t memory_budget_mb = 0;
  /// Serving: absolute Block Purging cap per shard. 0 derives it from
  /// blocking.purge_size_fraction and the profile count, which makes a
  /// single-shard cold build purge exactly like the batch pipeline.
  size_t serving_max_block_size = 0;
};

struct OutputSpec {
  /// When non-empty, the retained pairs are written here as a
  /// left_id,right_id CSV (byte-identical across backends that retain the
  /// same pairs).
  std::string retained_csv;
  /// Keep the retained external-id pairs in JobResult (O(retained) memory).
  bool keep_retained = false;
};

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

struct JobSpec {
  uint64_t version = kJobSpecVersion;
  DatasetSpec dataset;
  BlockingSpec blocking;
  FeatureSet features = FeatureSet::BlastOptimal();
  ClassifierKind classifier = ClassifierKind::kLogisticRegression;
  PruningSpec pruning;
  TrainingSpec training;
  ExecutionSpec execution;
  OutputSpec output;

  /// Canonical JSON: every field explicit, members in schema order, stable
  /// across runs. Re-parses to an equal spec.
  std::string ToJson(int indent = 2) const;

  /// Parses a JSON spec over `base` (default: a default-constructed spec).
  /// Partial specs are allowed — absent fields keep base's values, which
  /// is what lets a subcommand seed mode-specific defaults and a spec file
  /// override only what it names. Malformed JSON, unknown versions,
  /// unknown keys and type mismatches are rejected with a "where and why"
  /// diagnostic. Value-range and completeness problems are reported by
  /// Validate(), so a spec file can legitimately omit e.g. dataset paths
  /// that arrive as CLI flag overrides.
  static Result<JobSpec> FromJson(const std::string& text,
                                  const JobSpec& base);
  static Result<JobSpec> FromJson(const std::string& text);

  /// FromJson over a file's contents.
  static Result<JobSpec> FromFile(const std::string& path,
                                  const JobSpec& base);
  static Result<JobSpec> FromFile(const std::string& path);

  /// Checks value ranges and dataset completeness. OK means every backend
  /// can at least *interpret* the spec; backend-specific restrictions
  /// (e.g. serving needs Dirty ER) are reported by Executor::Supports().
  Status Validate() const;

  bool operator==(const JobSpec& other) const;
};

// ---------------------------------------------------------------------------
// Enum <-> name helpers (shared by the JSON layer and the CLI)
// ---------------------------------------------------------------------------

const char* DatasetSourceName(DatasetSource source);
const char* ExecutionModeName(ExecutionMode mode);
/// Short CLI-style classifier name: logreg | svc | nb.
const char* ClassifierShortName(ClassifierKind kind);
/// Lower-case pruning-kind name: bcl | wep | ... | rcnp.
std::string PruningShortName(PruningKind kind);
/// Named feature set ("blast", "rcnp", "2014", "all") when the mask matches
/// one, otherwise a comma-separated member list ("cf-ibf,raccb,js").
std::string FeatureSetSpecName(const FeatureSet& features);

Result<DatasetSource> ParseDatasetSource(const std::string& name);
/// Resolves `name` against the scheme registry; NotFound (listing the
/// registered names) when unknown.
Result<std::string> ParseBlockingScheme(const std::string& name);
Result<ExecutionMode> ParseExecutionMode(const std::string& name);
Result<ClassifierKind> ParseClassifierName(const std::string& name);
Result<PruningKind> ParsePruningName(const std::string& name);
/// Accepts the named sets and comma-separated member lists, in any case.
Result<FeatureSet> ParseFeatureSetName(const std::string& name);

}  // namespace gsmb

#endif  // GSMB_API_JOB_SPEC_H_
