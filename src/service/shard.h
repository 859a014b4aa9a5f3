// Sharded multi-process audit: the partition and the merged result.
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
// The coordinator and the worker loop that run the partition, and the
// two launchers over them (forked workers on socketpairs, a static TCP
// fleet), are in service/tcp_shard.h.
//
// Determinism contract: a sharded run over fresh caches produces
// reports byte-identical to a fresh single-process
// AnalysisService::CheckBatch over the same requirements — same input
// order, same verdicts, flaw sites, fact counts, and derivation text —
// for any shard count. (Both sides build every distinct signature cold
// within the batch; a snapshot-seeded run is also byte-identical
// because a loaded snapshot replays the saved cold log bit for bit.)
// On failure the error is the one the earliest failing requirement in
// input order would have produced, exactly as CheckBatch reports it.
#ifndef OODBSEC_SERVICE_SHARD_H_
#define OODBSEC_SERVICE_SHARD_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/analyzer.h"
#include "service/analysis_service.h"

namespace oodbsec::service {

struct ShardedBatchResult {
  // Input order, byte-identical to single-process CheckBatch (see the
  // determinism contract above).
  std::vector<core::AnalysisReport> reports;
  // Element-wise sum of the workers' ServiceStats.
  ServiceStats merged_stats;
  // Indexed by worker; workers that served nothing report zeros.
  std::vector<ServiceStats> shard_stats;
  // Requirements each worker answered (sums to the batch size on
  // success).
  std::vector<size_t> shard_requirements;
};

// The stable partitioner. shard_count must be >= 1; the result is in
// [0, shard_count). Pure function of the bytes of `signature` — stable
// across processes, runs, and machines.
int ShardOf(std::string_view signature, int shard_count);

}  // namespace oodbsec::service

#endif  // OODBSEC_SERVICE_SHARD_H_
