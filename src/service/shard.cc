#include "service/shard.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "core/analyzer.h"
#include "obs/trace.h"
#include "service/capability_signature.h"
#include "service/shard_wire.h"
#include "snapshot/binio.h"
#include "snapshot/snapshot_store.h"

namespace oodbsec::service {

namespace {

using core::AnalysisReport;
using snapshot::ByteReader;
using snapshot::ByteWriter;

// --- worker wire protocol (one EOF-delimited message per worker) -----
//
//   u8 ok
//   ok=1: u32 report_count, then report_count reports and a stats
//         block, both in shard_wire.h layout
//   ok=0: u32 earliest failing global index, u8 status code,
//         string message

// Runs one worker's subset and serializes the outcome. Runs in the
// forked child; must not touch coordinator state it shouldn't (it
// operates on the fork's copy-on-write image of schema/users/
// requirements, which is exactly the point — no re-parsing).
std::string RunWorker(const schema::Schema& schema,
                      const schema::UserRegistry& users,
                      const std::vector<core::Requirement>& requirements,
                      const std::vector<size_t>& indices,
                      const ShardOptions& options,
                      std::shared_ptr<snapshot::SnapshotStore> store) {
  ServiceOptions service_options;
  service_options.threads = options.threads;
  service_options.closure = options.closure;
  service_options.cache_capacity = options.cache_capacity;
  service_options.snapshot_store = std::move(store);
  AnalysisService service(schema, users, service_options);
  std::vector<core::Requirement> subset;
  subset.reserve(indices.size());
  for (size_t gi : indices) subset.push_back(requirements[gi]);

  ByteWriter w;
  auto batch = service.CheckBatch(subset);
  if (!batch.ok()) {
    // CheckBatch reports the earliest failure but not its index;
    // recover it with a sequential pass (the batch left every closure
    // it could build in cache, so this costs checks, not fixpoints).
    // `indices` preserves global input order, so the first local
    // failure is the earliest global one.
    size_t failing = indices.empty() ? 0 : indices.front();
    common::Status status = batch.status();
    for (size_t li = 0; li < subset.size(); ++li) {
      auto single = service.Check(subset[li]);
      if (!single.ok()) {
        failing = indices[li];
        status = single.status();
        break;
      }
    }
    w.PutU8(0);
    w.PutU32(static_cast<uint32_t>(failing));
    w.PutU8(static_cast<uint8_t>(status.code()));
    w.PutString(status.message());
    return w.Release();
  }

  if (options.save_snapshots &&
      service.session().options().snapshot_store != nullptr) {
    // Best-effort persistence; a full disk must not fail the audit.
    service.SaveCacheSnapshot();
  }

  const std::vector<AnalysisReport>& reports = batch.value();
  w.PutU8(1);
  w.PutU32(static_cast<uint32_t>(reports.size()));
  for (size_t li = 0; li < reports.size(); ++li) {
    wire::PutReport(w, static_cast<uint32_t>(indices[li]), reports[li]);
  }
  wire::PutStats(w, service.Stats());
  return w.Release();
}

// Test seam for the worker-death path: OODBSEC_TEST_SHARD_CRASH=<shard>
// makes that shard write half its message and die with a nonzero exit,
// simulating a worker killed mid-stream. Returns -1 when unset.
int CrashShardFromEnv() {
  const char* value = std::getenv("OODBSEC_TEST_SHARD_CRASH");
  return value != nullptr ? std::atoi(value) : -1;
}

struct Failure {
  size_t global_index;
  common::Status status;
};

void NoteFailure(std::optional<Failure>& worst, size_t global_index,
                 common::Status status) {
  if (!worst.has_value() || global_index < worst->global_index) {
    worst = Failure{global_index, std::move(status)};
  }
}

}  // namespace

int ShardOf(std::string_view signature, int shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<int>(snapshot::Fnv1a64(signature) %
                          static_cast<uint64_t>(shard_count));
}

common::Result<ShardedBatchResult> RunShardedBatch(
    const schema::Schema& schema, const schema::UserRegistry& users,
    const std::vector<core::Requirement>& requirements,
    const ShardOptions& options, obs::Observability* obs) {
  if (options.shard_count < 1) {
    return common::InvalidArgumentError("shard_count must be >= 1");
  }
  const int shards = options.shard_count;
  const size_t n = requirements.size();
  obs::Tracer* tracer = obs != nullptr ? &obs->tracer : nullptr;
  obs::ScopedSpan batch_span(tracer, "shard.batch");

  // One shared base store across the fleet; each child forks a worker
  // view of it so sibling writers never contend on one segment.
  const std::shared_ptr<snapshot::SnapshotStore>& base_store =
      options.snapshot_store;

  // Route every requirement: signature -> shard. Unknown users cannot
  // be signed; they become failure candidates at their input position,
  // exactly where single-process CheckBatch would surface them.
  std::vector<std::vector<size_t>> routed(static_cast<size_t>(shards));
  std::optional<Failure> failure;
  {
    obs::ScopedSpan plan_span(tracer, "shard.plan");
    for (size_t i = 0; i < n; ++i) {
      const schema::User* user = users.Find(requirements[i].user);
      if (user == nullptr) {
        NoteFailure(failure, i,
                    common::NotFoundError(common::StrCat(
                        "unknown user '", requirements[i].user, "'")));
        continue;
      }
      std::vector<std::string> roots = core::AnalysisRoots(schema, *user);
      std::string signature = SignatureFromRoots(roots, options.closure);
      routed[static_cast<size_t>(ShardOf(signature, shards))].push_back(i);
    }
  }

  // Fork the fleet first, then drain pipes in shard order — every
  // worker runs concurrently, and the ordered drain keeps the merge
  // (and the span sequence) deterministic. A worker never blocks on
  // its pipe: messages are far below the pipe buffer for any failure
  // and the parent drains continuously for bulk report payloads.
  struct Worker {
    pid_t pid = -1;
    int read_fd = -1;
  };
  std::vector<Worker> workers(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    int fds[2];
    if (::pipe(fds) != 0) {
      return common::InternalError("shard: pipe() failed");
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      return common::InternalError("shard: fork() failed");
    }
    if (pid == 0) {
      // Child: run the subset, stream the message, and _exit without
      // flushing inherited stdio buffers twice. The worker store is
      // forked post-fork so the child owns its descriptors and side
      // segment; a failed fork degrades to no L2 tier (reports stay
      // byte-identical — only warm hits are lost).
      ::close(fds[0]);
      std::shared_ptr<snapshot::SnapshotStore> worker_store;
      if (base_store != nullptr) {
        auto forked = base_store->ForkWorker(s);
        if (forked.ok()) worker_store = std::move(forked).value();
      }
      std::string message = RunWorker(schema, users, requirements,
                                      routed[static_cast<size_t>(s)],
                                      options, std::move(worker_store));
      if (CrashShardFromEnv() == s) {
        // Die mid-stream: half a message, nonzero exit, no side-segment
        // cleanup — exactly what a worker killed by the OOM killer (or
        // a crash in report serialization) leaves behind.
        snapshot::WriteFull(
            fds[1], std::string_view(message).substr(0, message.size() / 2));
        ::_exit(3);
      }
      snapshot::WriteFull(fds[1], message);
      ::close(fds[1]);
      ::_exit(0);
    }
    ::close(fds[1]);
    workers[static_cast<size_t>(s)] = Worker{pid, fds[0]};
    if (obs != nullptr) obs->metrics.counter("shard.workers")->Increment();
  }

  ShardedBatchResult result;
  result.shard_stats.resize(static_cast<size_t>(shards));
  result.shard_requirements.resize(static_cast<size_t>(shards));
  std::vector<std::optional<AnalysisReport>> assembled(n);
  for (int s = 0; s < shards; ++s) {
    Worker& worker = workers[static_cast<size_t>(s)];
    const std::vector<size_t>& indices = routed[static_cast<size_t>(s)];
    result.shard_requirements[static_cast<size_t>(s)] = indices.size();
    std::string message;
    int wstatus = 0;
    {
      obs::ScopedSpan wait_span(tracer,
                                common::StrCat("shard.wait.", s));
      message = snapshot::ReadToEof(worker.read_fd);
      ::close(worker.read_fd);
      while (::waitpid(worker.pid, &wstatus, 0) < 0 && errno == EINTR) {
      }
    }
    // A worker that died (signal or nonzero exit) may have written a
    // prefix of a valid message; naming the shard and the cause beats
    // mis-diagnosing the truncation as a protocol bug. Its side segment
    // (if any) is torn mid-record — MergeWorkers below salvages the
    // complete records and removes the segment either way.
    if (WIFSIGNALED(wstatus)) {
      NoteFailure(failure, indices.empty() ? n : indices.front(),
                  common::InternalError(common::StrCat(
                      "shard ", s, " worker killed by signal ",
                      WTERMSIG(wstatus))));
      continue;
    }
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
      NoteFailure(failure, indices.empty() ? n : indices.front(),
                  common::InternalError(common::StrCat(
                      "shard ", s, " worker exited with status ",
                      WEXITSTATUS(wstatus))));
      continue;
    }

    ByteReader r(message);
    uint8_t ok = r.GetU8();
    if (!r.ok()) {
      // Crashed or wrote nothing: attribute the failure to the
      // shard's earliest requirement (determinism under crashes is
      // best-effort; correctness of the error path is not).
      NoteFailure(failure, indices.empty() ? n : indices.front(),
                  common::InternalError(
                      common::StrCat("shard ", s, " produced no output")));
      continue;
    }
    if (ok == 0) {
      size_t failing = r.GetU32();
      auto code = static_cast<common::StatusCode>(r.GetU8());
      std::string text = r.GetString();
      if (!r.ok()) {
        NoteFailure(failure, indices.empty() ? n : indices.front(),
                    common::InternalError(common::StrCat(
                        "shard ", s, " sent a malformed failure")));
      } else {
        NoteFailure(failure, failing, common::Status(code, std::move(text)));
      }
      continue;
    }
    uint32_t report_count = r.GetU32();
    bool malformed = false;
    for (uint32_t k = 0; k < report_count && r.ok(); ++k) {
      uint32_t gi = 0;
      AnalysisReport report;
      if (!wire::GetReport(r, &gi, &report) || gi >= n ||
          assembled[gi].has_value()) {
        malformed = true;
        break;
      }
      // The worker checked requirements[gi] verbatim (fork copy), so
      // re-attaching it here reproduces CheckBatch's report bytes.
      report.requirement = requirements[gi];
      assembled[gi] = std::move(report);
    }
    ServiceStats stats = wire::GetStats(r);
    if (malformed || !r.exhausted()) {
      NoteFailure(failure, indices.empty() ? n : indices.front(),
                  common::InternalError(common::StrCat(
                      "shard ", s, " sent a malformed report stream")));
      continue;
    }
    result.shard_stats[static_cast<size_t>(s)] = stats;
    result.merged_stats.closures_built += stats.closures_built;
    result.merged_stats.signature_hits += stats.signature_hits;
    result.merged_stats.requirement_hits += stats.requirement_hits;
    result.merged_stats.checks += stats.checks;
    result.merged_stats.warm_starts += stats.warm_starts;
    result.merged_stats.snapshot_hits += stats.snapshot_hits;
    if (obs != nullptr) {
      obs->metrics.counter("shard.reports")->Increment(report_count);
    }
  }

  // Every worker has exited; fold their side segments (packed stores
  // append privately per worker) back into the shared base segment.
  // Best-effort, like worker saves: a failed merge costs the next run
  // warm hits, never this run's reports.
  if (base_store != nullptr && options.save_snapshots) {
    common::Status merged = base_store->MergeWorkers();
    if (obs != nullptr) {
      obs->metrics.counter(merged.ok() ? "shard.merges" : "shard.merge_errors")
          ->Increment();
    }
  }

  if (failure.has_value()) {
    return std::move(failure->status);
  }
  result.reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!assembled[i].has_value()) {
      return common::InternalError(common::StrCat(
          "shard merge lost requirement ", i, " ('",
          requirements[i].user, "')"));
    }
    result.reports.push_back(std::move(*assembled[i]));
  }
  return result;
}

}  // namespace oodbsec::service
