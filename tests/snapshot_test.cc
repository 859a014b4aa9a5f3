// Snapshot-tier and shard-coordinator tests.
//
// The roundtrip suite pins the persistence contract: a closure saved to
// disk and loaded in a fresh cache (or a fresh *process* — this binary
// re-execs itself as a worker) replays to a byte-identical derivation
// log and serves audits with zero fixpoints. The robustness suite feeds
// the loader truncated, corrupted, version-skewed, and fingerprint-
// skewed files and requires a counted fallback to a cold build — never
// a crash, never a wrong answer. The shard suite pins the coordinator's
// determinism contract against single-process CheckBatch.
//
// This binary has its own main: `snapshot_test --snapshot-worker <dir>`
// runs the stockbroker audit against a snapshot directory and prints
// the reports, which is how the cross-process roundtrip fixture spawns
// a genuinely fresh process image.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/closure_cache.h"
#include "core/requirement.h"
#include "schema/schema.h"
#include "schema/user.h"
#include "service/analysis_service.h"
#include "service/capability_signature.h"
#include "service/shard.h"
#include "snapshot/binio.h"
#include "snapshot/snapshot.h"
#include "test_util.h"
#include "unfold/unfolded.h"

namespace {

const char* g_argv0 = nullptr;

}  // namespace

namespace oodbsec {
namespace {

using core::CachedAnalysis;
using core::ClosureCache;
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

// The same schema with one extra attribute — semantically different,
// so snapshots saved under BrokerSchema must be rejected by it.
std::unique_ptr<schema::Schema> DriftedBrokerSchema() {
  schema::SchemaBuilder builder;
  builder.AddClass("Broker", {{"name", "string"},
                              {"salary", "int"},
                              {"budget", "int"},
                              {"profit", "int"},
                              {"bonus", "int"}});
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

// The three-role stockbroker population the fleet-audit example runs;
// shared by the shard tests and the re-exec'ed worker.
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

service::ServiceOptions MakeServiceOptions(int threads,
                                           std::string snapshot_dir = {}) {
  service::ServiceOptions options;
  options.threads = threads;
  options.snapshot_dir = std::move(snapshot_dir);
  return options;
}

using test_util::ScopedTempDir;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

std::string SnapshotPath(const std::string& dir, const ClosureOptions& options,
                         const std::vector<std::string>& roots) {
  return common::StrCat(dir, "/",
                        snapshot::SnapshotFileName(options, roots));
}

// Asserts the two closures have byte-identical derivation logs — same
// steps, same rule labels, same premise lists — the strong form of the
// snapshot contract (FactSetDigest equality is the weak form).
void ExpectIdenticalLogs(const core::Closure& a, const core::Closure& b) {
  ASSERT_EQ(a.steps().size(), b.steps().size());
  for (size_t i = 0; i < a.steps().size(); ++i) {
    const core::DerivationStep& sa = a.steps()[i];
    const core::DerivationStep& sb = b.steps()[i];
    EXPECT_EQ(sa.fact.kind, sb.fact.kind) << "step " << i;
    EXPECT_EQ(sa.fact.a, sb.fact.a) << "step " << i;
    EXPECT_EQ(sa.fact.b, sb.fact.b) << "step " << i;
    EXPECT_EQ(sa.fact.origin.num, sb.fact.origin.num) << "step " << i;
    EXPECT_EQ(sa.fact.origin.dir, sb.fact.origin.dir) << "step " << i;
    EXPECT_EQ(sa.rule, sb.rule) << "step " << i;
    core::FactId id = static_cast<core::FactId>(i);
    auto pa = a.premises(id);
    auto pb = b.premises(id);
    ASSERT_EQ(pa.size(), pb.size()) << "step " << i;
    for (size_t p = 0; p < pa.size(); ++p) {
      EXPECT_EQ(pa[p], pb[p]) << "step " << i << " premise " << p;
    }
  }
}

const std::vector<std::string> kFullRoots = {"checkBudget", "updateSalary"};

TEST(SnapshotRoundtrip, ByteIdenticalReplay) {
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string& dir = tmp.path();
  auto schema = BrokerSchema();
  ClosureOptions options;

  ClosureCache saver(*schema, options, 64, nullptr, dir);
  auto built = saver.GetOrBuild(kFullRoots);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_TRUE(saver.SaveCacheSnapshot(*built.value()).ok());

  // A fresh cache simulating a restarted process: the probe must serve
  // the saved entry, replayed — not rebuilt.
  ClosureCache loader(*schema, options, 64, nullptr, dir);
  auto loaded = loader.FindSnapshot(kFullRoots);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loader.stats().snapshot_hits, 1u);
  EXPECT_EQ(loader.stats().cold_builds, 0u);
  EXPECT_TRUE(loaded->closure->warm_started());
  EXPECT_EQ(loaded->roots, kFullRoots);
  EXPECT_EQ(loaded->closure->FactSetDigest(),
            built.value()->closure->FactSetDigest());
  ExpectIdenticalLogs(*built.value()->closure, *loaded->closure);
}

TEST(SnapshotRoundtrip, GetOrBuildChainsExactThenSnapshotThenBuild) {
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string& dir = tmp.path();
  auto schema = BrokerSchema();
  ClosureOptions options;

  {
    ClosureCache saver(*schema, options, 64, nullptr, dir);
    auto built = saver.GetOrBuild(kFullRoots);
    ASSERT_TRUE(built.ok()) << built.status();
    ASSERT_TRUE(saver.SaveCacheSnapshot().ok());  // bulk form
  }

  ClosureCache cache(*schema, options, 64, nullptr, dir);
  auto first = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().snapshot_hits, 1u);
  EXPECT_EQ(cache.stats().cold_builds, 0u);
  EXPECT_EQ(cache.stats().warm_builds, 0u);
  // Second resolution: the L2 hit landed in L1, so no disk touch.
  auto second = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  EXPECT_EQ(cache.stats().snapshot_hits, 1u);
  // A list with no snapshot still probes (miss), then builds cold.
  auto other = cache.GetOrBuild({"checkBudget"});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(cache.stats().snapshot_misses, 1u);
}

TEST(SnapshotRoundtrip, LoadedSnapshotServesAsWarmBase) {
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string& dir = tmp.path();
  auto schema = BrokerSchema();
  ClosureOptions options;

  {
    ClosureCache saver(*schema, options, 64, nullptr, dir);
    auto built = saver.GetOrBuild({"checkBudget"});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(saver.SaveCacheSnapshot().ok());
  }

  // Bulk warm start, then a superset request: the loaded entry must
  // serve as the warm-start base exactly like an in-memory one.
  ClosureCache cache(*schema, options, 64, nullptr, dir);
  EXPECT_EQ(cache.LoadCacheSnapshot(), 1u);
  auto superset = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(superset.ok());
  EXPECT_TRUE(superset.value()->closure->warm_started());
  EXPECT_EQ(cache.stats().warm_builds, 1u);

  // Same fact set as a cold run (the warm-start equivalence).
  ClosureCache cold_cache(*schema, options, 64, nullptr);
  auto cold = cold_cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(superset.value()->closure->FactSetDigest(),
            cold.value()->closure->FactSetDigest());
}

TEST(SnapshotRoundtrip, RetractedClosureSnapshotRoundtrips) {
  // A retraction-built closure's log is complete and premise-ordered —
  // structurally indistinguishable from a cold log — so the snapshot
  // tier must persist and replay it like any other entry.
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string& dir = tmp.path();
  auto schema = BrokerSchema();
  ClosureOptions options;
  const std::vector<std::string> reduced = {"checkBudget"};

  ClosureCache saver(*schema, options, 64, nullptr, dir);
  auto full = saver.GetOrBuild(kFullRoots);
  ASSERT_TRUE(full.ok()) << full.status();
  auto retracted = saver.RetractEntry(kFullRoots, reduced);
  ASSERT_NE(retracted, nullptr);
  ASSERT_TRUE(retracted->closure->retracted());
  EXPECT_EQ(saver.stats().retract_builds, 1u);
  ASSERT_TRUE(saver.SaveCacheSnapshot(*retracted).ok());

  ClosureCache loader(*schema, options, 64, nullptr, dir);
  auto loaded = loader.FindSnapshot(reduced);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loader.stats().snapshot_hits, 1u);
  ExpectIdenticalLogs(*retracted->closure, *loaded->closure);

  // The replayed retraction serves the same fact set a cold build of
  // the reduced list derives.
  auto cold_set = unfold::UnfoldedSet::Build(*schema, reduced);
  ASSERT_TRUE(cold_set.ok());
  core::Closure cold(*cold_set.value());
  EXPECT_EQ(loaded->closure->FactSetDigest(), cold.FactSetDigest());
}

TEST(SnapshotRoundtrip, OptionsChangeTheFileName) {
  ClosureOptions a;
  ClosureOptions b;
  b.pi_join_to_ti = false;
  EXPECT_NE(snapshot::SnapshotFileName(a, kFullRoots),
            snapshot::SnapshotFileName(b, kFullRoots));
  EXPECT_NE(snapshot::SnapshotFileName(a, kFullRoots),
            snapshot::SnapshotFileName(a, {"checkBudget"}));
  EXPECT_EQ(snapshot::SnapshotFileName(a, kFullRoots),
            snapshot::SnapshotFileName(a, kFullRoots));
}

// --- schema fingerprint golden values ---------------------------------
//
// SchemaFingerprint stamps every snapshot record, pack index entry and
// store/shard hello, so its value is part of the on-disk and on-wire
// formats: these pins must hold across any change to how it is computed.

std::unique_ptr<schema::Schema> ScaledBrokerSchema(int scale) {
  schema::SchemaBuilder builder;
  std::vector<schema::SchemaBuilder::AttributeSpec> attributes;
  attributes.push_back({"name", "string"});
  for (int i = 0; i < scale; ++i) {
    attributes.push_back({common::StrCat("salary", i), "int"});
    attributes.push_back({common::StrCat("budget", i), "int"});
    attributes.push_back({common::StrCat("profit", i), "int"});
  }
  builder.AddClass("Broker", std::move(attributes));
  for (int i = 0; i < scale; ++i) {
    builder.AddFunction(
        common::StrCat("checkBudget", i), {{"broker", "Broker"}}, "bool",
        common::StrCat("r_budget", i, "(broker) >= 10 * r_salary", i,
                       "(broker)"));
    builder.AddFunction(common::StrCat("calcSalary", i),
                        {{"budget", "int"}, {"profit", "int"}}, "int",
                        "budget / 10 + profit / 2");
    builder.AddFunction(
        common::StrCat("updateSalary", i), {{"broker", "Broker"}}, "null",
        common::StrCat("w_salary", i, "(broker, calcSalary", i, "(r_budget",
                       i, "(broker), r_profit", i, "(broker)))"));
  }
  auto result = std::move(builder).Build();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

ClosureOptions NonDefaultOptions() {
  ClosureOptions options;
  options.pi_join_to_ti = false;
  options.write_read_equality = false;
  return options;
}

TEST(SchemaFingerprintGolden, Stockbroker) {
  auto schema = BrokerSchema();
  EXPECT_EQ(snapshot::SchemaFingerprint(*schema, ClosureOptions()),
            7570603893402818940ull);
  EXPECT_EQ(snapshot::SchemaFingerprint(*schema, NonDefaultOptions()),
            9193272889406649544ull);
  // Repeat calls on one schema agree (and with the first call).
  EXPECT_EQ(snapshot::SchemaFingerprint(*schema, ClosureOptions()),
            snapshot::SchemaFingerprint(*BrokerSchema(), ClosureOptions()));
}

TEST(SchemaFingerprintGolden, ScaledBroker8) {
  auto schema = ScaledBrokerSchema(8);
  EXPECT_EQ(snapshot::SchemaFingerprint(*schema, ClosureOptions()),
            10400198158994903208ull);
  EXPECT_EQ(snapshot::SchemaFingerprint(*schema, NonDefaultOptions()),
            10404491589376550708ull);
}

TEST(SchemaFingerprintGolden, ConcurrentFirstUseAgrees) {
  // Eight threads race to fingerprint one fresh schema (both option
  // sets, so first use overlaps with a second option set); every result
  // must equal the value computed on a separate, quiet schema.
  auto schema = ScaledBrokerSchema(8);
  auto quiet = ScaledBrokerSchema(8);
  const uint64_t want_default =
      snapshot::SchemaFingerprint(*quiet, ClosureOptions());
  const uint64_t want_other =
      snapshot::SchemaFingerprint(*quiet, NonDefaultOptions());
  constexpr int kThreads = 8;
  std::vector<uint64_t> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t] = snapshot::SchemaFingerprint(
          *schema, t % 2 == 0 ? ClosureOptions() : NonDefaultOptions());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], t % 2 == 0 ? want_default : want_other) << t;
  }
}

// --- the cross-process fixture (ctest: snapshot_roundtrip) -----------

TEST(SnapshotRoundtrip, FreshProcessReplaysTheAudit) {
  ASSERT_NE(g_argv0, nullptr);
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string& dir = tmp.path();
  Fleet fleet = MakeFleet();

  // In-process pass: run the audit cold, persist every closure, and
  // render the expected report text.
  std::string expected;
  {
    service::AnalysisService svc(*fleet.schema, *fleet.users,
                                 MakeServiceOptions(2, dir));
    auto reports = svc.CheckBatch(fleet.sheet);
    ASSERT_TRUE(reports.ok()) << reports.status();
    ASSERT_TRUE(svc.SaveCacheSnapshot().ok());
    for (const core::AnalysisReport& report : reports.value()) {
      expected += report.ToString();
    }
  }

  // Spawn a genuinely fresh process (fork + exec of this binary in
  // worker mode) over the same directory and diff its reports.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(g_argv0, g_argv0, "--snapshot-worker", dir.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  ::close(fds[1]);
  std::string output;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) {
    output.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "worker did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << output;

  // The worker prints the reports, then one stats line. It must have
  // built nothing: every signature replays from the snapshot tier.
  std::string marker = "\n--stats closures_built=0 snapshot_hits=3\n";
  ASSERT_NE(output.find(marker), std::string::npos) << output;
  EXPECT_EQ(output.substr(0, output.size() - marker.size()), expected);
}

// --- robustness: hostile bytes fall back to a cold build -------------

class SnapshotRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(tmp_.ok());
    dir_ = tmp_.path();
    schema_ = BrokerSchema();
    ClosureCache saver(*schema_, options_, 64, nullptr, dir_);
    auto built = saver.GetOrBuild(kFullRoots);
    ASSERT_TRUE(built.ok());
    reference_digest_ = built.value()->closure->FactSetDigest();
    ASSERT_TRUE(saver.SaveCacheSnapshot(*built.value()).ok());
    path_ = SnapshotPath(dir_, options_, kFullRoots);
  }


  // The invariant all corruption cases share: the probe rejects the
  // file (counted invalid, no crash) and GetOrBuild still serves the
  // right answer via a cold build.
  void ExpectCountedFallback() {
    ClosureCache cache(*schema_, options_, 64, nullptr, dir_);
    EXPECT_EQ(cache.FindSnapshot(kFullRoots), nullptr);
    EXPECT_EQ(cache.stats().snapshot_invalid, 1u);
    auto rebuilt = cache.GetOrBuild(kFullRoots);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_EQ(cache.stats().snapshot_invalid, 2u);
    EXPECT_EQ(cache.stats().cold_builds, 1u);
    EXPECT_FALSE(rebuilt.value()->closure->warm_started());
    EXPECT_EQ(rebuilt.value()->closure->FactSetDigest(), reference_digest_);
  }

  ScopedTempDir tmp_{"oodbsec_snapshot_test"};
  std::string dir_;
  std::string path_;
  std::unique_ptr<schema::Schema> schema_;
  ClosureOptions options_;
  std::string reference_digest_;
};

TEST_F(SnapshotRobustnessTest, MissingFileIsAMissNotAnError) {
  ClosureCache cache(*schema_, options_, 64, nullptr, dir_);
  EXPECT_EQ(cache.FindSnapshot({"calcSalary"}), nullptr);
  EXPECT_EQ(cache.stats().snapshot_misses, 1u);
  EXPECT_EQ(cache.stats().snapshot_invalid, 0u);
}

TEST_F(SnapshotRobustnessTest, TruncatedHeader) {
  WriteFileBytes(path_, ReadFileBytes(path_).substr(0, 12));
  ExpectCountedFallback();
}

TEST_F(SnapshotRobustnessTest, TruncatedPayloadBreaksChecksum) {
  std::string bytes = ReadFileBytes(path_);
  WriteFileBytes(path_, bytes.substr(0, bytes.size() / 2));
  ExpectCountedFallback();
}

TEST_F(SnapshotRobustnessTest, TruncatedPayloadWithRecomputedChecksum) {
  // The deeper case: the payload is cut short but the checksum is made
  // consistent again, so only the bounds-checked decoder can catch it.
  std::string bytes = ReadFileBytes(path_);
  constexpr size_t kHeaderSize = 32;  // magic 8 | u32 ×2 | u64 ×2
  ASSERT_GT(bytes.size(), kHeaderSize + 64);
  bytes.resize(bytes.size() - 33);
  uint64_t checksum =
      snapshot::Fnv1a64(std::string_view(bytes).substr(kHeaderSize));
  std::memcpy(bytes.data() + 24, &checksum, sizeof checksum);
  WriteFileBytes(path_, bytes);
  ExpectCountedFallback();
}

TEST_F(SnapshotRobustnessTest, FlippedPayloadByteBreaksChecksum) {
  std::string bytes = ReadFileBytes(path_);
  bytes[bytes.size() - 5] ^= 0x41;
  WriteFileBytes(path_, bytes);
  ExpectCountedFallback();
}

TEST_F(SnapshotRobustnessTest, WrongFormatVersion) {
  std::string bytes = ReadFileBytes(path_);
  bytes[8] ^= 0x7f;  // the u32 version lives at bytes 8..11
  WriteFileBytes(path_, bytes);
  ExpectCountedFallback();
}

TEST_F(SnapshotRobustnessTest, WrongSchemaFingerprintBytes) {
  std::string bytes = ReadFileBytes(path_);
  bytes[16] ^= 0x7f;  // the u64 fingerprint lives at bytes 16..23
  WriteFileBytes(path_, bytes);
  ExpectCountedFallback();
}

// Rewrites a native snapshot as the byte-identical twin a machine of
// the opposite endianness would have written: every multi-byte integer
// field — header and payload, walked structure-aware — is reversed in
// place, string bytes stay untouched, and the checksum is recomputed
// over the new payload bytes and stored swapped (a foreign writer
// checksums *its* payload bytes and stores the u64 in *its* order).
std::string SwapSnapshotEndianness(const std::string& bytes) {
  std::string out = bytes;
  size_t pos = 8;  // past "OODBSNAP"
  auto swap32 = [&out](size_t off) {
    std::reverse(out.begin() + static_cast<ptrdiff_t>(off),
                 out.begin() + static_cast<ptrdiff_t>(off + 4));
  };
  auto swap64 = [&out](size_t off) {
    std::reverse(out.begin() + static_cast<ptrdiff_t>(off),
                 out.begin() + static_cast<ptrdiff_t>(off + 8));
  };
  // Field values must be read *before* their bytes are reversed.
  auto u32_at = [&out](size_t off) {
    uint32_t v = 0;
    std::memcpy(&v, out.data() + off, sizeof v);
    return v;
  };
  swap32(pos), pos += 4;  // version
  swap32(pos), pos += 4;  // byte-order marker
  swap64(pos), pos += 8;  // schema fingerprint
  const size_t checksum_at = pos;
  pos += 8;  // checksum: rewritten below over the swapped payload
  const size_t payload_start = pos;
  auto swap_count = [&]() {
    uint32_t count = u32_at(pos);
    swap32(pos), pos += 4;
    return count;
  };
  auto swap_string = [&]() { pos += swap_count(); };
  for (uint32_t n = swap_count(); n > 0; --n) swap_string();  // roots
  swap_string();                                              // digest
  for (uint32_t n = swap_count(); n > 0; --n) swap_string();  // rules
  for (uint32_t n = swap_count(); n > 0; --n) {               // steps
    pos += 1;               // kind u8
    swap32(pos), pos += 4;  // a
    swap32(pos), pos += 4;  // b
    swap32(pos), pos += 4;  // origin.num
    pos += 1;               // origin.dir u8
    swap32(pos), pos += 4;  // rule index
    swap32(pos), pos += 4;  // premise offset
    swap32(pos), pos += 4;  // premise count
  }
  for (uint32_t n = swap_count(); n > 0; --n) {  // premise arena
    swap32(pos), pos += 4;
  }
  EXPECT_EQ(pos, out.size());
  uint64_t checksum = snapshot::Bswap64(
      snapshot::Fnv1a64(std::string_view(out).substr(payload_start)));
  std::memcpy(out.data() + checksum_at, &checksum, sizeof checksum);
  return out;
}

TEST_F(SnapshotRobustnessTest, ForeignEndianSnapshotDecodesBySwapping) {
  // A snapshot written on a machine of the opposite endianness is not
  // corruption: the mirrored marker arms the reader's swap-decode and
  // the full ladder (fingerprint, checksum, structure, digest) runs on
  // the decoded values. The replayed closure is byte-identical to the
  // native one.
  WriteFileBytes(path_, SwapSnapshotEndianness(ReadFileBytes(path_)));
  auto load = snapshot::LoadSnapshot(*schema_, options_, path_);
  ASSERT_TRUE(load.ok()) << load.status();
  EXPECT_EQ(load.value()->roots, kFullRoots);
  EXPECT_EQ(load.value()->closure->FactSetDigest(), reference_digest_);
  ClosureCache cache(*schema_, options_, 64, nullptr, dir_);
  EXPECT_NE(cache.FindSnapshot(kFullRoots), nullptr);
  EXPECT_EQ(cache.stats().snapshot_hits, 1u);
  EXPECT_EQ(cache.stats().snapshot_invalid, 0u);
}

TEST_F(SnapshotRobustnessTest, CorruptByteOrderMarkerIsRefused) {
  // A marker that is neither the native constant nor its mirror is
  // corruption, not foreignness — refused before any payload decode.
  std::string bytes = ReadFileBytes(path_);
  bytes[12] ^= 0x40;  // u32 marker lives at bytes 12..15
  WriteFileBytes(path_, bytes);
  auto load = snapshot::LoadSnapshot(*schema_, options_, path_);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(load.status().message().find("byte-order"), std::string::npos)
      << load.status();
  ExpectCountedFallback();
}

TEST_F(SnapshotRobustnessTest, SchemaDriftInvalidatesTheSnapshot) {
  // A real schema change (extra attribute) under the same file name:
  // the fingerprint check must reject and the cache must rebuild
  // against the *new* schema.
  auto drifted = DriftedBrokerSchema();
  ClosureCache cache(*drifted, options_, 64, nullptr, dir_);
  EXPECT_EQ(cache.FindSnapshot(kFullRoots), nullptr);
  EXPECT_EQ(cache.stats().snapshot_invalid, 1u);
  auto rebuilt = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(cache.stats().cold_builds, 1u);
}

TEST_F(SnapshotRobustnessTest, DirectLoadReportsNotFoundDistinctly) {
  auto missing = snapshot::LoadSnapshot(*schema_, options_,
                                        common::StrCat(dir_, "/absent.snap"));
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);
  std::string garbage_path = common::StrCat(dir_, "/garbage.snap");
  WriteFileBytes(garbage_path, "definitely not a snapshot");
  auto garbage = snapshot::LoadSnapshot(*schema_, options_, garbage_path);
  EXPECT_EQ(garbage.status().code(),
            common::StatusCode::kFailedPrecondition);
}

// --- shard coordinator ----------------------------------------------

TEST(ShardTest, ShardOfIsStableAndInRange) {
  Fleet fleet = MakeFleet();
  std::set<int> seen;
  for (const core::Requirement& requirement : fleet.sheet) {
    const schema::User* user = fleet.users->Find(requirement.user);
    ASSERT_NE(user, nullptr);
    std::string signature = service::CapabilitySignature(
        *fleet.schema, *user, core::ClosureOptions{});
    int shard = service::ShardOf(signature, 4);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, service::ShardOf(signature, 4)) << "unstable";
    EXPECT_EQ(service::ShardOf(signature, 1), 0);
    seen.insert(shard);
  }
  // Same-role users must land on the same shard (same signature).
  const schema::User* a = fleet.users->Find("clerk0");
  const schema::User* b = fleet.users->Find("clerk1");
  EXPECT_EQ(
      service::ShardOf(service::CapabilitySignature(*fleet.schema, *a, {}), 4),
      service::ShardOf(service::CapabilitySignature(*fleet.schema, *b, {}),
                       4));
}

TEST(ShardTest, ShardedBatchMatchesSingleProcessByteForByte) {
  Fleet fleet = MakeFleet();
  // Fork first: no thread pool may exist yet (see shard.h).
  service::ShardOptions options;
  options.shard_count = 4;
  auto sharded = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                          fleet.sheet, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  service::AnalysisService svc(*fleet.schema, *fleet.users,
                               MakeServiceOptions(2));
  auto batch = svc.CheckBatch(fleet.sheet);
  ASSERT_TRUE(batch.ok()) << batch.status();

  ASSERT_EQ(sharded->reports.size(), batch.value().size());
  for (size_t i = 0; i < batch.value().size(); ++i) {
    EXPECT_EQ(sharded->reports[i].ToString(), batch.value()[i].ToString())
        << "requirement " << i;
  }
  service::ServiceStats single = svc.Stats();
  EXPECT_EQ(sharded->merged_stats.checks, single.checks);
  EXPECT_EQ(sharded->merged_stats.closures_built, single.closures_built);
  size_t routed = 0;
  for (size_t count : sharded->shard_requirements) routed += count;
  EXPECT_EQ(routed, fleet.sheet.size());
}

TEST(ShardTest, SingleShardAndManyShardsAgree) {
  Fleet fleet = MakeFleet();
  service::ShardOptions one;
  one.shard_count = 1;
  auto single = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                         fleet.sheet, one);
  ASSERT_TRUE(single.ok()) << single.status();
  service::ShardOptions many;
  many.shard_count = 7;  // more shards than signatures
  auto wide = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                       fleet.sheet, many);
  ASSERT_TRUE(wide.ok()) << wide.status();
  ASSERT_EQ(single->reports.size(), wide->reports.size());
  for (size_t i = 0; i < single->reports.size(); ++i) {
    EXPECT_EQ(single->reports[i].ToString(), wide->reports[i].ToString());
  }
}

TEST(ShardTest, UnknownUserErrorMatchesCheckBatch) {
  Fleet fleet = MakeFleet();
  auto ghost = core::ParseRequirementString("(ghost, r_salary(x) : ti)");
  ASSERT_TRUE(ghost.ok());
  // Insert mid-sheet: earlier requirements succeed, so the unknown user
  // is the earliest failure — in both runs.
  fleet.sheet.insert(fleet.sheet.begin() + 2, std::move(ghost).value());

  service::ShardOptions options;
  options.shard_count = 3;
  auto sharded = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                          fleet.sheet, options);
  ASSERT_FALSE(sharded.ok());

  service::AnalysisService svc(*fleet.schema, *fleet.users,
                               MakeServiceOptions(2));
  auto batch = svc.CheckBatch(fleet.sheet);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(sharded.status().code(), batch.status().code());
  EXPECT_EQ(sharded.status().message(), batch.status().message());
}

TEST(ShardTest, ShardedWorkersShareTheSnapshotTier) {
  ScopedTempDir tmp("oodbsec_snapshot_test");
  ASSERT_TRUE(tmp.ok());
  const std::string& dir = tmp.path();
  Fleet fleet = MakeFleet();
  service::ShardOptions options;
  options.shard_count = 4;
  options.snapshot_dir = dir;
  options.save_snapshots = true;

  auto cold = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                       fleet.sheet, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->merged_stats.closures_built, 3u);
  EXPECT_EQ(cold->merged_stats.snapshot_hits, 0u);

  auto warm = service::RunShardedBatch(*fleet.schema, *fleet.users,
                                       fleet.sheet, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->merged_stats.closures_built, 0u);
  EXPECT_EQ(warm->merged_stats.snapshot_hits, 3u);
  ASSERT_EQ(cold->reports.size(), warm->reports.size());
  for (size_t i = 0; i < cold->reports.size(); ++i) {
    EXPECT_EQ(cold->reports[i].ToString(), warm->reports[i].ToString());
  }
}

}  // namespace

// Worker mode for the cross-process fixture: audit the fleet against a
// snapshot directory and print reports + a stats marker.
int RunSnapshotWorker(const std::string& dir) {
  Fleet fleet = MakeFleet();
  service::AnalysisService svc(*fleet.schema, *fleet.users,
                               MakeServiceOptions(2, dir));
  auto reports = svc.CheckBatch(fleet.sheet);
  if (!reports.ok()) {
    std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
    return 1;
  }
  for (const core::AnalysisReport& report : reports.value()) {
    std::fputs(report.ToString().c_str(), stdout);
  }
  service::ServiceStats stats = svc.Stats();
  std::printf("\n--stats closures_built=%zu snapshot_hits=%zu\n",
              stats.closures_built, stats.snapshot_hits);
  return 0;
}

}  // namespace oodbsec

int main(int argc, char** argv) {
  g_argv0 = argv[0];
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--snapshot-worker") {
      return oodbsec::RunSnapshotWorker(argv[i + 1]);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
