// The shard protocol: one coordinator, one worker loop, two launchers.
//
// The partitioned audit of service/shard.h runs over exactly one
// protocol. A coordinator plans signature-coalesced requirement
// batches, streams them as length-prefixed binio frames (net/frame.h)
// to its workers, and merges the reply stream into a result
// byte-identical to single-process CheckBatch. Two launchers connect
// the coordinator to workers; neither changes a byte on the wire:
//
//   * TcpTransport dials a static fleet of ServeShardWorker processes
//     ("host:port"), across machines.
//   * ForkTransport forks its workers for each Run, and each child
//     serves exactly one connection on its end of a socketpair, then
//     exits. Children inherit the schema by copy-on-write.
//
// What makes it fast rather than merely remote:
//
//   * Pipelined streaming. Up to max_in_flight batches ride unacked
//     per worker (1 = request/reply lockstep, the bench baseline), so
//     a worker finishing a batch always has the next one already in
//     its socket buffer instead of idling a round trip plus the
//     coordinator's service latency. The coordinator pumps every
//     worker from one poll() loop over nonblocking sockets: a
//     per-worker outbox of encoded frames drains through a gather
//     write (header and payload from their own buffers — bytes are
//     serialized exactly once), a per-worker inbox reassembles frames
//     from whatever read() delivered.
//   * Batch coalescing. Requirements sharing a capability signature
//     collapse into one batch (split at max_batch_requirements), so a
//     signature's closure crosses the planning path once per worker;
//     all chunks of a signature route to one worker (ShardOf) for
//     cache affinity.
//   * Connection reuse. One connection per worker per Run; TCP workers
//     keep their L1 closure cache across connections (persistent_cache)
//     so a warmed fleet answers repeat audits at exact-hit speed.
//
// Byte-identity under all of that — pipelining, requeue, persistent
// worker caches — holds because workers build cache misses COLD only
// (FindExact -> FindSnapshot -> cold BuildDetached; never a warm start
// or retraction): a fresh single-process CheckBatch builds every
// distinct signature cold, replaying a snapshot of a cold log is
// byte-identical to the cold build, and an exact hit returns the same
// object — so no matter which worker ends up with a batch, or whether
// it had the signature cached, the report bytes match.
//
// Robustness: every frame carries an FNV-1a checksum; connects retry
// bounded (net::DialOptions); reads and writes are stall-bounded. A
// worker that dies mid-audit (EOF, connection reset, poll error, or no
// progress for io_timeout_ms) has its unacknowledged and unsent
// batches re-queued to the surviving workers — a batch is acked only
// by a complete validated kReports/kBatchError frame, so nothing is
// double-applied and the merged report is unchanged. Only when the
// last worker dies does the audit fail. (Merged *stats* are
// best-effort under death: a dead worker never sends its kStats frame,
// so its counters are missing from merged_stats; the reports are the
// contract.)
//
// The networked snapshot tier: when a store is configured, the
// coordinator fronts it with a snapshot::StoreServer (ephemeral
// loopback port) and advertises the port in its hello. A worker
// without a local store mounts it as a RemoteSnapshotStore, so a fresh
// fleet warms from the coordinator's pack without any file
// distribution and (save_snapshots) persists what it builds back
// through the server. Forked workers always mount it this way (a
// socketpair peer dials the server on 127.0.0.1), which keeps the
// server the pack's only writer.
#ifndef OODBSEC_SERVICE_TCP_SHARD_H_
#define OODBSEC_SERVICE_TCP_SHARD_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/shard.h"
#include "snapshot/remote_store.h"
#include "snapshot/snapshot_store.h"

namespace oodbsec::service {

struct TcpTransportOptions {
  // Worker addresses ("host:port"), the static fleet. At least one.
  std::vector<std::string> workers;
  // Unacked batches allowed per worker. 1 = request/reply lockstep.
  int max_in_flight = 4;
  // Coalescing cap: a signature with more requirements is split into
  // chunks of this size (later chunks exact-hit the worker's cache).
  int max_batch_requirements = 32;
  core::ClosureOptions closure;
  // Stall bound for every socket operation; a worker making no
  // progress for this long is declared dead and its batches re-queued.
  int io_timeout_ms = 30000;
  net::DialOptions dial;
  // Coordinator-side snapshot store, served to the workers (see the
  // networked snapshot tier above).
  std::shared_ptr<snapshot::SnapshotStore> snapshot_store;
  // Ask workers to persist closures they build (through their mounted
  // store — for remote mounts the bytes land in the coordinator's
  // store via kStoreSave).
  bool save_snapshots = false;
};

// The coordinator over a dialed TCP fleet. Uses threads (the store
// server, started on the first Run with a store and kept up across
// runs; the fingerprint it pins is that run's schema): run every
// ForkTransport in the process before this one starts its server
// (fork() wants a single-threaded image).
class TcpTransport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport();

  common::Result<ShardedBatchResult> Run(
      const schema::Schema& schema, const schema::UserRegistry& users,
      const std::vector<core::Requirement>& requirements,
      obs::Observability* obs);

 private:
  TcpTransportOptions options_;
  snapshot::StoreServer store_server_;
};

struct ForkTransportOptions {
  // Worker processes forked per Run. 1 still forks (uniform code path).
  int shard_count = 4;
  // Fixpoint semantics, shared by the coordinator's plan and every
  // worker. closure.closure_threads parallelises each fixpoint inside
  // a worker (reports stay byte-identical; it is not part of any cache
  // key).
  core::ClosureOptions closure;
  // Served to the workers over loopback for the duration of each Run.
  std::shared_ptr<snapshot::SnapshotStore> snapshot_store;
  // Workers persist every closure they build through that server.
  bool save_snapshots = false;
};

// The coordinator over forked workers. Each Run plans, forks
// shard_count children (one socketpair each), starts the store server
// only after the last fork, coordinates, and before returning — on
// every path — stops the server, closes its socket ends and reaps
// every child. fork() is only safe from a single-threaded process
// image: call Run before any other thread exists (the coordinator
// leaves none behind).
class ForkTransport {
 public:
  explicit ForkTransport(ForkTransportOptions options);

  common::Result<ShardedBatchResult> Run(
      const schema::Schema& schema, const schema::UserRegistry& users,
      const std::vector<core::Requirement>& requirements,
      obs::Observability* obs);

 private:
  ForkTransportOptions options_;
};

struct TcpWorkerOptions {
  core::ClosureOptions closure;
  size_t cache_capacity = core::ClosureCache::kDefaultCapacity;
  // Local store (L2). When null and the coordinator advertises a store
  // port, a RemoteSnapshotStore is mounted instead.
  std::shared_ptr<snapshot::SnapshotStore> snapshot_store;
  int io_timeout_ms = 30000;
  // Keep the L1 cache across connections (the warmed-fleet behaviour).
  // The cache is dropped anyway when a new connection mounts a
  // different store.
  bool persistent_cache = true;
  // Test seam: serve this many batches on a connection, then drop it
  // without kStats — a worker dying mid-audit. 0 = never.
  int abort_after_batches = 0;
};

// Serves shard batches on `listener` until `stop` goes true (checked
// every 200ms) or, when stop is null, forever. One connection at a
// time (a coordinator dials each worker exactly once per Run; repeat
// Runs reconnect and hit the persistent cache). `schema` must outlive
// the call. Returns only on stop (Ok) or a listener-level error.
common::Status ServeShardWorker(net::Listener& listener,
                                const schema::Schema& schema,
                                const TcpWorkerOptions& options,
                                const std::atomic<bool>* stop = nullptr);

}  // namespace oodbsec::service

#endif  // OODBSEC_SERVICE_TCP_SHARD_H_
