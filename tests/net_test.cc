// Distributed-transport tests: stream-hardened binio, the frame codec's
// robustness contract, the shard protocol's byte-identity triangle
// (fork launcher, TCP fleet, single-process CheckBatch), worker-death
// re-queue, the fork launcher's child reaping, and the networked
// snapshot tier.
//
// Ordering caveat inside every test that forks: the fork launcher runs
// FIRST, before any TCP worker thread exists — fork() wants a
// single-threaded process image (service/tcp_shard.h). The launcher
// itself leaves no thread or child behind, gtest runs tests
// sequentially and each test joins its threads, so the image is
// single-threaded again at the next test's fork.
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "net/frame.h"
#include "net/socket.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"
#include "service/capability_signature.h"
#include "service/shard.h"
#include "service/tcp_shard.h"
#include "snapshot/binio.h"
#include "snapshot/packed_store.h"
#include "snapshot/remote_store.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_store.h"
#include "test_util.h"

namespace oodbsec {
namespace {

using core::ClosureOptions;

std::unique_ptr<schema::Schema> BrokerSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("Broker", {{"name", "string"},
                              {"salary", "int"},
                              {"budget", "int"},
                              {"profit", "int"}});
  builder.AddFunction("checkBudget", {{"broker", "Broker"}}, "bool",
                      ">=(r_budget(broker), *(10, r_salary(broker)))");
  builder.AddFunction("calcSalary", {{"budget", "int"}, {"profit", "int"}},
                      "int", "budget / 10 + profit / 2");
  builder.AddFunction(
      "updateSalary", {{"broker", "Broker"}}, "null",
      "w_salary(broker, calcSalary(r_budget(broker), r_profit(broker)))");
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

// The three-role stockbroker population (mirrors snapshot_test): three
// distinct capability signatures, so a cold audit builds 3 closures.
struct Fleet {
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<schema::UserRegistry> users;
  std::vector<core::Requirement> sheet;
};

Fleet MakeFleet(int accounts_per_role = 3) {
  Fleet fleet;
  fleet.schema = BrokerSchema();
  fleet.users = std::make_unique<schema::UserRegistry>(*fleet.schema);
  struct Role {
    const char* name;
    std::vector<const char*> grants;
    const char* requirement;
  };
  const std::vector<Role> roles = {
      {"clerk", {"checkBudget", "w_budget"}, "(%s, r_salary(x) : ti)"},
      {"updater",
       {"updateSalary", "w_budget", "w_profit"},
       "(%s, w_salary(a, v : ta))"},
      {"auditor", {"checkBudget"}, "(%s, r_salary(x) : pi)"},
  };
  for (const Role& role : roles) {
    for (int k = 0; k < accounts_per_role; ++k) {
      std::string account = common::StrCat(role.name, k);
      EXPECT_TRUE(fleet.users->AddUser(account).ok());
      for (const char* grant : role.grants) {
        EXPECT_TRUE(fleet.users->Grant(account, grant).ok());
      }
      char text[128];
      std::snprintf(text, sizeof text, role.requirement, account.c_str());
      auto parsed = core::ParseRequirementString(text);
      EXPECT_TRUE(parsed.ok()) << parsed.status();
      fleet.sheet.push_back(std::move(parsed).value());
    }
  }
  return fleet;
}

using test_util::ScopedTempDir;

// A loopback worker fleet on threads. Each worker owns its listener and
// serves until Stop(); addresses() feeds TcpTransportOptions::workers.
class LoopbackFleet {
 public:
  explicit LoopbackFleet(const schema::Schema& schema,
                         std::vector<service::TcpWorkerOptions> workers) {
    for (size_t i = 0; i < workers.size(); ++i) {
      auto bound = net::Listener::Bind(0);
      EXPECT_TRUE(bound.ok()) << bound.status();
      if (!bound.ok()) continue;
      listeners_.push_back(std::make_unique<net::Listener>(
          std::move(bound).value()));
      addresses_.push_back(
          common::StrCat("127.0.0.1:", listeners_.back()->port()));
      net::Listener* listener = listeners_.back().get();
      service::TcpWorkerOptions options = workers[i];
      threads_.emplace_back([listener, &schema, options, this] {
        auto status =
            service::ServeShardWorker(*listener, schema, options, &stop_);
        EXPECT_TRUE(status.ok()) << status;
      });
    }
  }

  ~LoopbackFleet() { Stop(); }

  void Stop() {
    stop_.store(true);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  const std::vector<std::string>& addresses() const { return addresses_; }

 private:
  std::vector<std::unique_ptr<net::Listener>> listeners_;
  std::vector<std::string> addresses_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

// ---------------------------------------------------------------------------
// Satellite 1: stream-hardened binio primitives.

TEST(BinioStreamTest, ReadFullSurvivesDribblingWriter) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string payload;
  for (int i = 0; i < 4096; ++i) payload.push_back(static_cast<char>(i * 7));

  // The writer dribbles one byte at a time — every ReadFull iteration
  // sees a short read and must loop rather than trust one read().
  std::thread writer([fd = fds[1], &payload] {
    for (char c : payload) {
      while (::write(fd, &c, 1) != 1) {
      }
    }
    ::close(fd);
  });

  std::string got(payload.size(), '\0');
  EXPECT_TRUE(snapshot::ReadFull(fds[0], got.data(), got.size()));
  EXPECT_EQ(got, payload);

  // EOF now: a full read must fail, not spin.
  char extra = 0;
  EXPECT_FALSE(snapshot::ReadFull(fds[0], &extra, 1));
  writer.join();
  ::close(fds[0]);
}

TEST(BinioStreamTest, WriteFullSurvivesTinyPipeBuffer) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // A payload far beyond any pipe buffer: WriteFull must loop short
  // writes while the reader drains slowly.
  std::string payload(1 << 20, 'x');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131);
  }

  // The reader takes exactly the payload, then sees EOF.
  std::string got(payload.size(), '\0');
  bool exact = false;
  std::thread reader([fd = fds[0], &got, &exact] {
    char extra = 0;
    exact = snapshot::ReadFull(fd, got.data(), got.size()) &&
            !snapshot::ReadFull(fd, &extra, 1);
    ::close(fd);
  });

  EXPECT_TRUE(snapshot::WriteFull(fds[1], payload));
  ::close(fds[1]);
  reader.join();
  EXPECT_TRUE(exact);
  EXPECT_EQ(got, payload);
}

TEST(BinioStreamTest, WriteFullFailsOnClosedPipeWithoutSignal) {
  // WriteFull must report a dead peer as `false`, not die on SIGPIPE
  // (the transport relies on this to turn peer death into re-queue).
  ::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  std::string payload(1 << 16, 'y');
  EXPECT_FALSE(snapshot::WriteFull(fds[1], payload));
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Frame codec: roundtrip plus the robustness contract.

TEST(FrameTest, RoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload = "batch bytes \0 with embedded nul";
  ASSERT_TRUE(
      net::WriteFrame(fds[0], net::FrameType::kBatch, payload, 1000).ok());
  ASSERT_TRUE(net::WriteFrame(fds[0], net::FrameType::kDone, "", 1000).ok());
  ::close(fds[0]);

  net::Frame frame;
  ASSERT_TRUE(net::ReadFrame(fds[1], &frame, 1000).ok());
  EXPECT_EQ(frame.type, net::FrameType::kBatch);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_TRUE(net::ReadFrame(fds[1], &frame, 1000).ok());
  EXPECT_EQ(frame.type, net::FrameType::kDone);
  EXPECT_TRUE(frame.payload.empty());

  // Clean EOF between frames: the orderly-shutdown signal.
  auto eof = net::ReadFrame(fds[1], &frame, 1000);
  EXPECT_EQ(eof.code(), common::StatusCode::kNotFound);
  EXPECT_NE(eof.message().find("connection closed"), std::string::npos);
  ::close(fds[1]);
}

TEST(FrameTest, GarbagePrefixRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string garbage = "HTTP/1.1 200 OK\r\n\r\nthis is not a frame";
  ASSERT_TRUE(snapshot::WriteFull(fds[0], garbage));
  ::close(fds[0]);

  net::Frame frame;
  auto status = net::ReadFrame(fds[1], &frame, 1000);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  ::close(fds[1]);
}

TEST(FrameTest, TornFrameRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload = "the reports this frame will never deliver";
  std::string header =
      net::EncodeFrameHeader(net::FrameType::kReports, payload);
  // Header plus half the payload, then the peer dies.
  ASSERT_TRUE(snapshot::WriteFull(fds[0], header));
  ASSERT_TRUE(snapshot::WriteFull(fds[0], payload.data(), payload.size() / 2));
  ::close(fds[0]);

  net::Frame frame;
  auto status = net::ReadFrame(fds[1], &frame, 1000);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  ::close(fds[1]);
}

TEST(FrameTest, ChecksumMismatchRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload = "payload whose bytes flip in flight";
  std::string header =
      net::EncodeFrameHeader(net::FrameType::kReports, payload);
  payload[5] ^= 0x40;  // corrupt after the checksum was computed
  ASSERT_TRUE(snapshot::WriteFull(fds[0], header));
  ASSERT_TRUE(snapshot::WriteFull(fds[0], payload));
  ::close(fds[0]);

  net::Frame frame;
  auto status = net::ReadFrame(fds[1], &frame, 1000);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
  ::close(fds[1]);
}

TEST(FrameTest, OversizedLengthRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string header = net::EncodeFrameHeader(net::FrameType::kBatch, "");
  uint32_t huge = net::kMaxFramePayload + 1;
  std::memcpy(header.data() + 8, &huge, sizeof huge);
  ASSERT_TRUE(snapshot::WriteFull(fds[0], header));
  ::close(fds[0]);

  net::Frame frame;
  auto status = net::ReadFrame(fds[1], &frame, 1000);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// The transport parity triangle. Fork launcher, TCP fleet, and
// single-process CheckBatch must agree byte for byte.

TEST(TcpShardTest, TransportParityTriangle) {
  Fleet fleet = MakeFleet();

  // Fork FIRST: no thread may exist yet.
  service::ForkTransportOptions fork_options;
  fork_options.shard_count = 2;
  service::ForkTransport fork_transport(fork_options);
  auto fork_run = fork_transport.Run(*fleet.schema, *fleet.users, fleet.sheet,
                                     nullptr);
  ASSERT_TRUE(fork_run.ok()) << fork_run.status();

  service::AnalysisService single(*fleet.schema, *fleet.users);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  std::vector<service::TcpWorkerOptions> workers(2);
  LoopbackFleet loopback(*fleet.schema, workers);
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.io_timeout_ms = 10000;
  service::TcpTransport tcp_transport(tcp_options);
  auto tcp_run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(tcp_run.ok()) << tcp_run.status();

  ASSERT_EQ(tcp_run.value().reports.size(), fleet.sheet.size());
  ASSERT_EQ(fork_run.value().reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(tcp_run.value().reports[i].ToString(),
              single_run.value()[i].ToString())
        << "tcp vs single at " << i;
    EXPECT_EQ(tcp_run.value().reports[i].ToString(),
              fork_run.value().reports[i].ToString())
        << "tcp vs fork at " << i;
  }
  // Cold fleets on both transports: three distinct signatures, three
  // fixpoints, one check per requirement.
  EXPECT_EQ(tcp_run.value().merged_stats.checks, fleet.sheet.size());
  EXPECT_EQ(tcp_run.value().merged_stats.closures_built, 3u);
  EXPECT_EQ(fork_run.value().merged_stats.closures_built, 3u);
}

TEST(TcpShardTest, UnknownUserErrorMatchesCheckBatchAndFork) {
  Fleet fleet = MakeFleet();
  auto ghost = core::ParseRequirementString("(ghost, r_salary(x) : ti)");
  ASSERT_TRUE(ghost.ok()) << ghost.status();
  fleet.sheet.insert(fleet.sheet.begin() + 2, std::move(ghost).value());

  // Fork first (thread caveat), then the reference, then TCP.
  service::ForkTransportOptions fork_options;
  fork_options.shard_count = 2;
  auto fork_run = service::ForkTransport(fork_options)
                      .Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_FALSE(fork_run.ok());

  service::AnalysisService single(*fleet.schema, *fleet.users);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_FALSE(single_run.ok());

  std::vector<service::TcpWorkerOptions> workers(2);
  LoopbackFleet loopback(*fleet.schema, workers);
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  service::TcpTransport tcp_transport(tcp_options);
  auto tcp_run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_FALSE(tcp_run.ok());

  EXPECT_EQ(tcp_run.status().code(), single_run.status().code());
  EXPECT_EQ(tcp_run.status().message(), single_run.status().message());
  EXPECT_EQ(fork_run.status().message(), single_run.status().message());
}

// Satellite 6's engine, pinned as a test: a worker that dies mid-audit
// has its unacknowledged batches re-queued and the merged report is
// unchanged. One requirement per batch forces a multi-batch stream; the
// dying worker is placed wherever the first requirement's signature
// routes, so it is guaranteed to receive work before it aborts.
TEST(TcpShardTest, WorkerDeathRequeuesToSurvivor) {
  Fleet fleet = MakeFleet();

  service::AnalysisService single(*fleet.schema, *fleet.users);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  const schema::User* user = fleet.users->Find(fleet.sheet[0].user);
  ASSERT_NE(user, nullptr);
  ClosureOptions closure;
  std::string first_signature = service::SignatureFromRoots(
      core::AnalysisRoots(*fleet.schema, *user), closure);
  int dying = service::ShardOf(first_signature, 2);

  std::vector<service::TcpWorkerOptions> workers(2);
  workers[static_cast<size_t>(dying)].abort_after_batches = 1;
  LoopbackFleet loopback(*fleet.schema, workers);

  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.max_batch_requirements = 1;  // 9 batches across 3 signatures
  tcp_options.max_in_flight = 4;
  service::TcpTransport tcp_transport(tcp_options);
  auto tcp_run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(tcp_run.ok()) << tcp_run.status();

  ASSERT_EQ(tcp_run.value().reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(tcp_run.value().reports[i].ToString(),
              single_run.value()[i].ToString())
        << "requeued report diverged at " << i;
  }
  // Stats are best-effort under worker death: the dying worker's final
  // kStats frame never arrives, so the one requirement it served before
  // aborting is missing from the merged counters. The reports above are
  // the contract; the counters only cover survivors.
  EXPECT_GE(tcp_run.value().merged_stats.checks, fleet.sheet.size() - 1);
}

TEST(TcpShardTest, AllWorkersDeadFailsAudit) {
  Fleet fleet = MakeFleet();
  std::vector<service::TcpWorkerOptions> workers(1);
  workers[0].abort_after_batches = 1;
  LoopbackFleet loopback(*fleet.schema, workers);

  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.max_batch_requirements = 1;
  tcp_options.dial.attempts = 1;
  service::TcpTransport tcp_transport(tcp_options);
  auto tcp_run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_FALSE(tcp_run.ok());
  EXPECT_NE(tcp_run.status().message().find("worker"), std::string::npos);
}

// The networked snapshot tier end to end: run one cold audit against a
// coordinator-side store (workers save what they build over the wire),
// then a second audit with cache-less workers that must warm entirely
// from remote snapshot hits — and report identical bytes.
TEST(TcpShardTest, SnapshotWarmedFleetServesRemoteHits) {
  Fleet fleet = MakeFleet();
  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  auto opened =
      snapshot::OpenPackedStore(common::StrCat(tmp.path(), "/fleet.pack"));
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::shared_ptr<snapshot::SnapshotStore> store = std::move(opened).value();

  service::AnalysisService single(*fleet.schema, *fleet.users);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  // persistent_cache off: every connection starts with an empty L1, so
  // the second run's warmth can only come from the remote store.
  std::vector<service::TcpWorkerOptions> workers(2);
  workers[0].persistent_cache = false;
  workers[1].persistent_cache = false;
  LoopbackFleet loopback(*fleet.schema, workers);

  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.snapshot_store = store;
  tcp_options.save_snapshots = true;
  service::TcpTransport tcp_transport(tcp_options);

  auto cold =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold.value().merged_stats.closures_built, 3u);
  EXPECT_EQ(cold.value().merged_stats.snapshot_hits, 0u);
  // The workers' saves crossed the wire into the coordinator's store.
  EXPECT_EQ(store->Stats().entries, 3u);

  auto warm =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm.value().merged_stats.closures_built, 0u);
  EXPECT_EQ(warm.value().merged_stats.snapshot_hits, 3u);

  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(cold.value().reports[i].ToString(),
              single_run.value()[i].ToString());
    EXPECT_EQ(warm.value().reports[i].ToString(),
              single_run.value()[i].ToString());
  }
  loopback.Stop();
}

// ---------------------------------------------------------------------------
// The remote snapshot store on its own: Find/Save/Stats against a
// StoreServer fronting a packed store.

TEST(RemoteStoreTest, FindSaveStatsRoundTrip) {
  auto schema = BrokerSchema();
  ClosureOptions options;
  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  auto opened =
      snapshot::OpenPackedStore(common::StrCat(tmp.path(), "/cache.pack"));
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::shared_ptr<snapshot::SnapshotStore> backing = std::move(opened).value();

  snapshot::StoreServer server;
  ASSERT_TRUE(server.Start(*schema, options, backing).ok());
  ASSERT_NE(server.port(), 0);
  auto client = snapshot::OpenRemoteStore(
      common::StrCat("127.0.0.1:", server.port()));

  schema::UserRegistry users(*schema);
  ASSERT_TRUE(users.AddUser("clerk").ok());
  ASSERT_TRUE(users.Grant("clerk", "checkBudget").ok());
  std::vector<std::string> roots =
      core::AnalysisRoots(*schema, *users.Find("clerk"));

  // Miss before anything is saved.
  auto miss = client->Find(*schema, options, roots);
  EXPECT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), common::StatusCode::kNotFound);

  core::ClosureCache builder(*schema, options);
  auto built = builder.GetOrBuild(roots);
  ASSERT_TRUE(built.ok()) << built.status();

  // Save over the wire; the bytes must land in the backing store.
  ASSERT_TRUE(client->Save(*schema, options, *built.value()).ok());
  auto direct = backing->Find(*schema, options, roots);
  ASSERT_TRUE(direct.ok()) << direct.status();

  // Find over the wire; the replayed entry must encode byte-identically
  // to the original build.
  auto remote = client->Find(*schema, options, roots);
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(snapshot::EncodePackedRecord(*schema, options, *remote.value()),
            snapshot::EncodePackedRecord(*schema, options, *built.value()));

  auto stats = client->Stats();
  EXPECT_NE(stats.description.find("remote:"), std::string::npos);
  EXPECT_EQ(stats.entries, 1u);

  // Sweep stays server-side.
  EXPECT_EQ(client->Sweep(0).status().code(),
            common::StatusCode::kFailedPrecondition);

  server.Stop();
}

TEST(RemoteStoreTest, FingerprintMismatchRefusedAndCached) {
  auto schema = BrokerSchema();
  ClosureOptions options;
  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  auto opened =
      snapshot::OpenPackedStore(common::StrCat(tmp.path(), "/cache.pack"));
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::shared_ptr<snapshot::SnapshotStore> backing = std::move(opened).value();

  snapshot::StoreServer server;
  ASSERT_TRUE(server.Start(*schema, options, backing).ok());

  // A client speaking for a *different* schema: the hello is refused
  // with a fingerprint diagnosis, and the refusal is cached (fails
  // fast, no reconnect storm).
  schema::SchemaBuilder drifted;
  drifted.AddClass("Broker", {{"name", "string"}, {"salary", "int"}});
  auto other = std::move(drifted).Build();
  ASSERT_TRUE(other.ok()) << other.status();

  auto client = snapshot::OpenRemoteStore(
      common::StrCat("127.0.0.1:", server.port()));
  std::vector<std::string> roots = {"checkBudget"};
  auto first = client->Find(*other.value(), options, roots);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(first.status().message().find("fingerprint"), std::string::npos);

  auto second = client->Find(*other.value(), options, roots);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), common::StatusCode::kFailedPrecondition);

  server.Stop();
}

// ---------------------------------------------------------------------------
// The remote store over a PackedStore backing (the production shape):
// Find ships the mapped v3 record verbatim and the worker validates and
// replays it; the server never replays on the find path.

// The capability signature of every account in `fleet`, deduplicated.
std::vector<std::vector<std::string>> FleetSignatures(const Fleet& fleet) {
  std::vector<std::vector<std::string>> signatures;
  for (const core::Requirement& req : fleet.sheet) {
    std::vector<std::string> roots =
        core::AnalysisRoots(*fleet.schema, *fleet.users->Find(req.user));
    if (std::find(signatures.begin(), signatures.end(), roots) ==
        signatures.end()) {
      signatures.push_back(std::move(roots));
    }
  }
  return signatures;
}

// Populates the pack at `pack` with every closure of `fleet`.
void PopulatePack(const Fleet& fleet, const std::string& pack) {
  auto opened = snapshot::OpenPackedStore(pack);
  ASSERT_TRUE(opened.ok()) << opened.status();
  service::ServiceOptions options;
  options.snapshot_store = opened.value();
  service::AnalysisService service(*fleet.schema, *fleet.users, options);
  ASSERT_TRUE(service.CheckBatch(fleet.sheet).ok());
  ASSERT_TRUE(service.SaveCacheSnapshot().ok());
  ASSERT_EQ(opened.value()->Stats().entries, 3u);
}

// Runs `fleet`'s audit on two cache-less loopback workers that mount
// the coordinator's `store` over the wire.
common::Result<service::ShardedBatchResult> RunRemoteFleet(
    const Fleet& fleet, std::shared_ptr<snapshot::SnapshotStore> store) {
  std::vector<service::TcpWorkerOptions> workers(2);
  workers[0].persistent_cache = false;
  workers[1].persistent_cache = false;
  LoopbackFleet loopback(*fleet.schema, workers);
  service::TcpTransportOptions tcp_options;
  tcp_options.workers = loopback.addresses();
  tcp_options.snapshot_store = std::move(store);
  service::TcpTransport tcp_transport(tcp_options);
  auto run =
      tcp_transport.Run(*fleet.schema, *fleet.users, fleet.sheet, nullptr);
  loopback.Stop();
  return run;
}

TEST(RemotePackedStoreTest, FleetWarmsFromRawRecords) {
  Fleet fleet = MakeFleet();
  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  const std::string pack = common::StrCat(tmp.path(), "/closures.pack");
  PopulatePack(fleet, pack);
  auto store = snapshot::OpenPackedStore(pack);
  ASSERT_TRUE(store.ok()) << store.status();

  service::AnalysisService single(*fleet.schema, *fleet.users);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();

  auto warm = RunRemoteFleet(fleet, store.value());
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm.value().merged_stats.closures_built, 0u);
  EXPECT_EQ(warm.value().merged_stats.snapshot_hits, 3u);
  ASSERT_EQ(warm.value().reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(warm.value().reports[i].ToString(),
              single_run.value()[i].ToString());
  }
  // Each worker find was one FindRecord on the pack; none replayed
  // there, so its page cache saw no traffic.
  snapshot::StoreStats stats = store.value()->Stats();
  EXPECT_EQ(stats.finds, 3u);
  EXPECT_EQ(stats.page_cache_hits, 0u);
  EXPECT_EQ(stats.page_cache_misses, 0u);
}

TEST(RemotePackedStoreTest, FlippedRecordByteFallsBackToColdBuild) {
  Fleet fleet = MakeFleet();
  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  const std::string pack = common::StrCat(tmp.path(), "/closures.pack");
  PopulatePack(fleet, pack);
  {
    // Flip one payload byte of the first record: past the pack header
    // (32), record header (16), entry header (32), root count (4) and
    // root length (4), the second letter of the first root name. The
    // footer index stays intact, so the pack opens cleanly and serves
    // the corrupt record as it is.
    std::fstream file(pack, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    const std::streamoff at = 32 + 16 + 32 + 4 + 4 + 1;
    char byte = 0;
    file.seekg(at);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(at);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }
  auto store = snapshot::OpenPackedStore(pack);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_EQ(store.value()->Stats().entries, 3u);

  snapshot::StoreServer server;
  ClosureOptions options;
  ASSERT_TRUE(server.Start(*fleet.schema, options, store.value()).ok());
  auto client = snapshot::OpenRemoteStore(
      common::StrCat("127.0.0.1:", server.port()));
  // Exactly one signature's record is corrupt; the worker's decoder
  // catches it at the checksum rung.
  int corrupt = 0;
  for (const std::vector<std::string>& roots : FleetSignatures(fleet)) {
    auto found = client->Find(*fleet.schema, options, roots);
    if (found.ok()) continue;
    ++corrupt;
    EXPECT_EQ(found.status().code(), common::StatusCode::kFailedPrecondition);
    EXPECT_NE(found.status().message().find("checksum"), std::string::npos)
        << found.status();
  }
  EXPECT_EQ(corrupt, 1);
  server.Stop();

  // The audit builds the corrupt signature cold and reports the same
  // bytes as an in-process batch.
  service::AnalysisService single(*fleet.schema, *fleet.users);
  auto single_run = single.CheckBatch(fleet.sheet);
  ASSERT_TRUE(single_run.ok()) << single_run.status();
  const snapshot::StoreStats before = store.value()->Stats();
  auto run = RunRemoteFleet(fleet, store.value());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run.value().merged_stats.closures_built, 1u);
  EXPECT_EQ(run.value().merged_stats.snapshot_hits, 2u);
  ASSERT_EQ(run.value().reports.size(), fleet.sheet.size());
  for (size_t i = 0; i < fleet.sheet.size(); ++i) {
    EXPECT_EQ(run.value().reports[i].ToString(),
              single_run.value()[i].ToString());
  }
  const snapshot::StoreStats after = store.value()->Stats();
  EXPECT_EQ(after.page_cache_hits, before.page_cache_hits);
  EXPECT_EQ(after.page_cache_misses, before.page_cache_misses);
}

// A hand-driven store peer: raw frames to a StoreServer over a pack,
// for what RemoteSnapshotStore itself never sends.
class RawStorePeerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(tmp_.ok());
    auto backing = snapshot::OpenPackedStore(
        common::StrCat(tmp_.path(), "/closures.pack"));
    ASSERT_TRUE(backing.ok()) << backing.status();
    backing_ = std::move(backing).value();
    ASSERT_TRUE(server_.Start(*schema_, options_, backing_).ok());
    auto dialed = net::Dial(common::StrCat("127.0.0.1:", server_.port()));
    ASSERT_TRUE(dialed.ok()) << dialed.status();
    conn_ = std::move(dialed).value();
  }

  void TearDown() override {
    conn_.Close();
    server_.Stop();
  }

  // Sends one request frame and reads the reply.
  net::Frame Exchange(net::FrameType type, std::string_view payload) {
    net::Frame reply;
    EXPECT_TRUE(net::WriteFrame(conn_.fd(), type, payload, 5000).ok());
    EXPECT_TRUE(net::ReadFrame(conn_.fd(), &reply, 5000).ok());
    return reply;
  }

  // A store hello speaking protocol `version`; returns the ack.
  net::Frame Hello(uint32_t version) {
    snapshot::ByteWriter hello;
    hello.PutU32(version);
    hello.PutU32(snapshot::kByteOrderMark);
    hello.PutU64(snapshot::SchemaFingerprint(*schema_, options_));
    net::Frame ack = Exchange(net::FrameType::kStoreHello, hello.buffer());
    EXPECT_EQ(ack.type, net::FrameType::kStoreHelloAck);
    return ack;
  }

  std::unique_ptr<schema::Schema> schema_ = BrokerSchema();
  ClosureOptions options_;
  ScopedTempDir tmp_{"oodbsec_net_test"};
  std::shared_ptr<snapshot::SnapshotStore> backing_;
  snapshot::StoreServer server_;
  net::Socket conn_;
};

TEST_F(RawStorePeerTest, TamperedDigestSaveRefusedServerSide) {
  core::ClosureCache builder(*schema_, options_);
  auto built = builder.GetOrBuild({"checkBudget", "w_budget"});
  ASSERT_TRUE(built.ok()) << built.status();

  // A record whose fact-set digest lies, with the checksum recomputed
  // so only the replay's digest comparison can catch it.
  std::string record =
      snapshot::EncodePackedRecord(*schema_, options_, *built.value());
  ASSERT_GT(record.size(), 32u);
  std::string payload = record.substr(32);
  snapshot::ByteReader reader(payload);
  uint32_t root_count = reader.GetU32();
  for (uint32_t i = 0; i < root_count; ++i) reader.GetString();
  ASSERT_GT(reader.GetU32(), 0u);  // digest length
  ASSERT_TRUE(reader.ok());
  const size_t digest_at = payload.size() - reader.remaining();
  payload[digest_at] = static_cast<char>(payload[digest_at] ^ 0x01);
  uint64_t checksum = snapshot::Fnv1a64(payload);
  record = record.substr(0, 24);
  record.append(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  record += payload;

  ASSERT_EQ(Hello(net::kProtocolVersion).payload[0], 1) << "hello refused";
  net::Frame reply = Exchange(net::FrameType::kStoreSave, record);
  ASSERT_EQ(reply.type, net::FrameType::kStoreSaveAck);
  snapshot::ByteReader status(reply.payload);
  EXPECT_EQ(static_cast<common::StatusCode>(status.GetU8()),
            common::StatusCode::kFailedPrecondition);
  std::string message = status.GetString();
  EXPECT_NE(message.find("digest mismatch"), std::string::npos) << message;
  EXPECT_EQ(backing_->Stats().entries, 0u);
}

TEST_F(RawStorePeerTest, PreviousProtocolVersionRefusedAtHello) {
  // A peer of protocol v1 (v2 snapshot payloads) is refused before it
  // can send one.
  net::Frame ack = Hello(net::kProtocolVersion - 1);
  snapshot::ByteReader reader(ack.payload);
  EXPECT_EQ(reader.GetU8(), 0);
  EXPECT_NE(reader.GetString().find("protocol version mismatch"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The fork launcher reaps every child it forked on every return path:
// after a clean run, after a run with no batches (every requirement
// names an unknown user), and after a run whose workers mounted the
// coordinator's store. No zombie, no orphan: this process has no child
// left to wait for.

TEST(ForkShardTest, RunLeavesNoChildBehind) {
  Fleet fleet = MakeFleet();
  auto expect_no_child = [](const char* after) {
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << after;
    EXPECT_EQ(errno, ECHILD) << after;
  };
  service::ForkTransportOptions options;
  options.shard_count = 3;
  auto clean = service::ForkTransport(options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status();
  expect_no_child("clean run");

  std::vector<core::Requirement> ghosts;
  for (const char* text :
       {"(ghost, r_salary(x) : ti)", "(phantom, r_budget(x) : ti)"}) {
    auto parsed = core::ParseRequirementString(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ghosts.push_back(std::move(parsed).value());
  }
  auto unknown = service::ForkTransport(options).Run(
      *fleet.schema, *fleet.users, ghosts, nullptr);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), common::StatusCode::kNotFound);
  expect_no_child("run with no batches");

  ScopedTempDir tmp("oodbsec_net_test");
  ASSERT_TRUE(tmp.ok());
  auto store =
      snapshot::OpenPackedStore(common::StrCat(tmp.path(), "/fleet.pack"));
  ASSERT_TRUE(store.ok()) << store.status();
  options.snapshot_store = store.value();
  options.save_snapshots = true;
  auto stored = service::ForkTransport(options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored.value().merged_stats.closures_built, 3u);
  EXPECT_EQ(store.value()->Stats().entries, 3u);
  expect_no_child("store-backed run");
}

}  // namespace
}  // namespace oodbsec
