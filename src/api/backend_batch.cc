// The batch backend: the executor at one shard over the shared
// PreparedInputs handle's materialised candidate pairs. Supports every
// spec — it is the reference semantics the other backends are equivalent
// to. The handle materialises its O(|C|) pair list lazily, at most once per
// handle, however many configurations run against it; each run reads it
// and never re-derives it.

#include "api/backends.h"
#include "stream/streaming_executor.h"

namespace gsmb::api {

namespace {

class BatchBackend : public Executor {
 public:
  std::string name() const override { return "batch"; }

  Status Supports(const JobSpec&) const override { return Status::Ok(); }

  Result<JobResult> ExecutePrepared(
      const JobSpec& spec, const PreparedInputs& prepared) const override {
    StreamingOptions one_shard;
    one_shard.num_shards = 1;
    return RunExecutorOn(spec, prepared, name(), one_shard,
                         &prepared.Batch(ResolvedExecution(spec).num_threads));
  }
};

}  // namespace

std::unique_ptr<Executor> MakeBatchBackend() {
  return std::make_unique<BatchBackend>();
}

}  // namespace gsmb::api
