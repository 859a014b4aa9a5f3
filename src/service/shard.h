// Sharded multi-process audit: fan a requirement batch out over N
// worker processes, merge their reports back deterministically.
//
// The paper's A(R) is per-user, so a population-scale audit partitions
// perfectly: no fact ever flows between two users' closures. The unit
// of partitioning here is the *capability signature* (the service's
// cache key, capability_signature.h), not the user — all requirements
// whose users share a grant bundle land on the same worker, so each
// distinct fixpoint is computed exactly once across the whole fleet,
// and the partition is a pure function of the signature string:
//
//   shard(signature) = FNV-1a64(signature) mod shard_count
//
// Workers are forked from the coordinator, run a private
// AnalysisService over their requirement subset, and stream their
// reports and ServiceStats back over a pipe (snapshot/binio format).
// When a shared snapshot store is configured, every worker mounts a
// fork of it (SnapshotStore::ForkWorker) as the L2 tier behind its
// in-memory L1 cache, so a fleet restart replays persisted derivation
// logs instead of re-running fixpoints — and with save_snapshots set,
// workers persist what they built (a packed store's workers append to
// private side segments the coordinator merges back afterwards),
// warming the next run.
//
// Determinism contract: RunShardedBatch over fresh caches produces
// reports byte-identical to a fresh single-process
// AnalysisService::CheckBatch over the same requirements — same input
// order, same verdicts, flaw sites, fact counts, and derivation text —
// for any shard_count and any thread count. (Both sides build every
// distinct signature cold within the batch; a snapshot-seeded run is
// also byte-identical because a loaded snapshot replays the saved
// cold log bit for bit.) On failure the error is the one the earliest
// failing requirement in input order would have produced, exactly as
// CheckBatch reports it.
//
// Coordinator caveat: fork() is only safe from a single-threaded
// process image. Call RunShardedBatch before spinning up thread pools
// (the coordinator itself creates none; workers create theirs after
// the fork).
#ifndef OODBSEC_SERVICE_SHARD_H_
#define OODBSEC_SERVICE_SHARD_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"

namespace oodbsec::service {

struct ShardOptions {
  // Worker processes to fork. 1 still forks (uniform code path).
  int shard_count = 4;
  // Worker threads *per shard process* (each worker's pool width).
  int threads = 1;
  // Fixpoint semantics, forwarded to every worker's session.
  // closure.closure_threads parallelises each fixpoint inside a worker
  // (reports stay byte-identical; it is not part of any cache key).
  core::ClosureOptions closure;
  size_t cache_capacity = core::ClosureCache::kDefaultCapacity;
  // Workers persist every closure they built to the snapshot store
  // before exiting (packed workers append to private side segments,
  // merged after the drain; remote workers save over the wire).
  bool save_snapshots = false;
  // Shared snapshot store every worker mounts (via ForkWorker) as its
  // L2 closure tier (see snapshot/snapshot_store.h).
  std::shared_ptr<snapshot::SnapshotStore> snapshot_store;
};

struct ShardedBatchResult {
  // Input order, byte-identical to single-process CheckBatch (see the
  // determinism contract above).
  std::vector<core::AnalysisReport> reports;
  // Element-wise sum of the workers' ServiceStats.
  ServiceStats merged_stats;
  // Indexed by shard id; shards with no requirements report zeros.
  std::vector<ServiceStats> shard_stats;
  // Requirements routed to each shard (sums to the batch size minus
  // none — every requirement is routed).
  std::vector<size_t> shard_requirements;
};

// The stable partitioner. shard_count must be >= 1; the result is in
// [0, shard_count). Pure function of the bytes of `signature` — stable
// across processes, runs, and machines.
int ShardOf(std::string_view signature, int shard_count);

// Partitions `requirements` by capability signature, forks
// options.shard_count workers, runs each worker's subset through a
// private AnalysisService, and merges. `obs` (optional, coordinator
// side) gets a "shard.batch" span with one "shard.wait" child per
// worker plus "shard.*" routing counters; worker-side spans stay in
// the workers (their metrics come back inside ServiceStats).
common::Result<ShardedBatchResult> RunShardedBatch(
    const schema::Schema& schema, const schema::UserRegistry& users,
    const std::vector<core::Requirement>& requirements,
    const ShardOptions& options, obs::Observability* obs = nullptr);

// The transport seam: one interface over the fork engine (this file)
// and the TCP engine (service/tcp_shard.h), so audit drivers pick a
// process model without changing any audit code. Every implementation
// owes the same determinism contract as RunShardedBatch — reports
// byte-identical to single-process CheckBatch, earliest-failure error
// parity — which is what the transport parity tests pin.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;
  // Short label for logs and bench output ("fork", "tcp").
  virtual std::string_view name() const = 0;
  virtual common::Result<ShardedBatchResult> Run(
      const schema::Schema& schema, const schema::UserRegistry& users,
      const std::vector<core::Requirement>& requirements,
      obs::Observability* obs) = 0;
};

// RunShardedBatch behind the seam. Carries the fork() caveat above:
// Run() must be called from a single-threaded process image.
class ForkTransport : public ShardTransport {
 public:
  explicit ForkTransport(ShardOptions options)
      : options_(std::move(options)) {}
  std::string_view name() const override { return "fork"; }
  common::Result<ShardedBatchResult> Run(
      const schema::Schema& schema, const schema::UserRegistry& users,
      const std::vector<core::Requirement>& requirements,
      obs::Observability* obs) override {
    return RunShardedBatch(schema, users, requirements, options_, obs);
  }

 private:
  ShardOptions options_;
};

}  // namespace oodbsec::service

#endif  // OODBSEC_SERVICE_SHARD_H_
