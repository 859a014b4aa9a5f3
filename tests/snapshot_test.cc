// Snapshot-tier and shard-coordinator tests.
//
// The roundtrip suite pins the persistence contract: a closure saved to
// a pack and loaded in a fresh cache replays to a byte-identical
// derivation log and serves audits with zero fixpoints (the
// fresh-process form is PackedShard.FreshProcessReplaysFromThePack in
// packed_store_test). The robustness suite feeds the v3 record decoder
// — directly and planted in a pack — truncated, corrupted,
// version-skewed, byte-order-skewed, and fingerprint-skewed records and
// requires a counted fallback to a cold build — never a crash, never a
// wrong answer. The shard suite pins the coordinator's determinism
// contract against single-process CheckBatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
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
#include "service/tcp_shard.h"
#include "snapshot/binio.h"
#include "snapshot/packed_store.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_store.h"
#include "test_util.h"
#include "unfold/unfolded.h"

namespace oodbsec {
namespace {

using core::CachedAnalysis;
using core::ClosureCache;
using core::ClosureOptions;
using snapshot::SnapshotStore;

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

service::ServiceOptions MakeServiceOptions(int threads) {
  service::ServiceOptions options;
  options.threads = threads;
  return options;
}

using test_util::ScopedTempDir;

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// A packed store over `dir`/cache.pack. Each call opens a fresh store
// object (its own page cache), the in-process stand-in for a restart.
std::shared_ptr<SnapshotStore> OpenPack(const std::string& dir) {
  auto store = snapshot::OpenPackedStore(common::StrCat(dir, "/cache.pack"));
  EXPECT_TRUE(store.ok()) << store.status();
  return store.ok() ? std::move(store).value() : nullptr;
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

  ClosureCache saver(*schema, options, 64, nullptr, OpenPack(dir));
  auto built = saver.GetOrBuild(kFullRoots);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_TRUE(saver.SaveCacheSnapshot(*built.value()).ok());

  // A fresh cache simulating a restarted process: the probe must serve
  // the saved entry, replayed — not rebuilt.
  ClosureCache loader(*schema, options, 64, nullptr, OpenPack(dir));
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
    ClosureCache saver(*schema, options, 64, nullptr, OpenPack(dir));
    auto built = saver.GetOrBuild(kFullRoots);
    ASSERT_TRUE(built.ok()) << built.status();
    ASSERT_TRUE(saver.SaveCacheSnapshot().ok());  // bulk form
  }

  ClosureCache cache(*schema, options, 64, nullptr, OpenPack(dir));
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
    ClosureCache saver(*schema, options, 64, nullptr, OpenPack(dir));
    auto built = saver.GetOrBuild({"checkBudget"});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(saver.SaveCacheSnapshot().ok());
  }

  // Bulk warm start, then a superset request: the loaded entry must
  // serve as the warm-start base exactly like an in-memory one.
  ClosureCache cache(*schema, options, 64, nullptr, OpenPack(dir));
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

  ClosureCache saver(*schema, options, 64, nullptr, OpenPack(dir));
  auto full = saver.GetOrBuild(kFullRoots);
  ASSERT_TRUE(full.ok()) << full.status();
  auto retracted = saver.RetractEntry(kFullRoots, reduced);
  ASSERT_NE(retracted, nullptr);
  ASSERT_TRUE(retracted->closure->retracted());
  EXPECT_EQ(saver.stats().retract_builds, 1u);
  ASSERT_TRUE(saver.SaveCacheSnapshot(*retracted).ok());

  ClosureCache loader(*schema, options, 64, nullptr, OpenPack(dir));
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

TEST(SnapshotKeyHash, OptionsAndRootsChangeTheKey) {
  ClosureOptions a;
  ClosureOptions b;
  b.pi_join_to_ti = false;
  EXPECT_NE(snapshot::SnapshotKeyHash(a, kFullRoots),
            snapshot::SnapshotKeyHash(b, kFullRoots));
  EXPECT_NE(snapshot::SnapshotKeyHash(a, kFullRoots),
            snapshot::SnapshotKeyHash(a, {"checkBudget"}));
  // Root order is part of the key (unfold order fixes the id space).
  EXPECT_NE(snapshot::SnapshotKeyHash(a, kFullRoots),
            snapshot::SnapshotKeyHash(a, {"updateSalary", "checkBudget"}));
  EXPECT_EQ(snapshot::SnapshotKeyHash(a, kFullRoots),
            snapshot::SnapshotKeyHash(a, kFullRoots));
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

// --- robustness: hostile bytes fall back to a cold build -------------
//
// Every rung of the v3 invalidation ladder (snapshot.h), checked twice:
// on DecodePackedRecord directly, and through a pack's Find and a cache
// over that pack.

class SnapshotRobustnessTest : public ::testing::Test {
 protected:
  // magic 8 | u32 version | u32 byte-order marker | u64 fingerprint
  // | u64 checksum
  static constexpr size_t kHeaderSize = 32;

  void SetUp() override {
    ASSERT_TRUE(tmp_.ok());
    schema_ = BrokerSchema();
    ClosureCache builder(*schema_, options_);
    auto built = builder.GetOrBuild(kFullRoots);
    ASSERT_TRUE(built.ok());
    reference_digest_ = built.value()->closure->FactSetDigest();
    record_ = snapshot::EncodePackedRecord(*schema_, options_, *built.value());
    ASSERT_GT(record_.size(), kHeaderSize + 64);
  }

  // Writes a one-record pack holding `record` verbatim under kFullRoots'
  // key, its index entry stamped with the live fingerprint and a valid
  // footer, so Find hands the bytes to the decoder as they are.
  void PlantRecord(const std::string& record) {
    const uint64_t key = snapshot::SnapshotKeyHash(options_, kFullRoots);
    snapshot::ByteWriter pack;
    pack.PutFixedString(snapshot::kPackMagic);
    pack.PutU32(snapshot::kPackVersion);
    pack.PutU32(snapshot::kByteOrderMark);
    pack.PutU64(0);  // reserved
    pack.PutU64(0);
    const uint64_t offset = pack.buffer().size();
    pack.PutU64(key);
    pack.PutU64(record.size());
    pack.PutFixedString(record);
    std::string bytes = pack.Release();
    bytes.resize((bytes.size() + 7) & ~size_t{7}, '\0');

    uint64_t checksum = 0;
    if (record.size() >= kHeaderSize) {
      std::memcpy(&checksum, record.data() + 24, sizeof checksum);
    }
    snapshot::ByteWriter index;
    index.PutU64(key);
    index.PutU64(offset);
    index.PutU64(record.size());
    index.PutU64(snapshot::SchemaFingerprint(*schema_, options_));
    index.PutU64(checksum);
    snapshot::ByteWriter trailer;
    trailer.PutU64(bytes.size());
    trailer.PutU64(1);
    trailer.PutU64(snapshot::Fnv1a64(index.buffer()));
    trailer.PutFixedString(snapshot::kPackIndexMagic);
    WriteFileBytes(common::StrCat(tmp_.path(), "/cache.pack"),
                   bytes + index.buffer() + trailer.buffer());
  }

  // Re-stamps the header checksum over the edited payload, so only the
  // rungs below the checksum can catch the edit.
  static void Rechecksum(std::string* record) {
    uint64_t checksum =
        snapshot::Fnv1a64(std::string_view(*record).substr(kHeaderSize));
    std::memcpy(record->data() + 24, &checksum, sizeof checksum);
  }

  // Byte offset of the record's step array: walks the payload prefix
  // (roots, digest, rule labels, step and arena counts) to the
  // payload-relative steps offset.
  static size_t StepsOffset(const std::string& record) {
    snapshot::ByteReader reader(std::string_view(record).substr(kHeaderSize));
    for (uint32_t n = reader.GetU32(); n > 0 && reader.ok(); --n) {
      reader.GetString();  // roots
    }
    reader.GetString();  // fact-set digest
    for (uint32_t n = reader.GetU32(); n > 0 && reader.ok(); --n) {
      reader.GetString();  // rule labels
    }
    reader.GetU32();  // step count
    reader.GetU32();  // arena count
    uint32_t steps_rel = reader.GetU32();
    EXPECT_TRUE(reader.ok());
    return kHeaderSize + steps_rel;
  }

  // The invariant all corruption cases share: the cache's probe rejects
  // the record (counted invalid, no crash) and GetOrBuild still serves
  // the right answer via a cold build.
  void ExpectCountedFallback(const std::shared_ptr<SnapshotStore>& store) {
    ClosureCache cache(*schema_, options_, 64, nullptr, store);
    EXPECT_EQ(cache.FindSnapshot(kFullRoots), nullptr);
    EXPECT_EQ(cache.stats().snapshot_invalid, 1u);
    auto rebuilt = cache.GetOrBuild(kFullRoots);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_EQ(cache.stats().snapshot_invalid, 2u);
    EXPECT_EQ(cache.stats().cold_builds, 1u);
    EXPECT_FALSE(rebuilt.value()->closure->warm_started());
    EXPECT_EQ(rebuilt.value()->closure->FactSetDigest(), reference_digest_);
  }

  // `record` is refused with kFailedPrecondition naming `rung`, both by
  // the decoder and by a pack's Find, and a cache over the pack falls
  // back to a cold build.
  void ExpectRefused(const std::string& record, std::string_view rung) {
    auto decoded =
        snapshot::DecodePackedRecord(*schema_, options_, record, "test");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), common::StatusCode::kFailedPrecondition);
    EXPECT_NE(decoded.status().message().find(rung), std::string::npos)
        << decoded.status();

    PlantRecord(record);
    auto store = OpenPack(tmp_.path());
    ASSERT_NE(store, nullptr);
    auto found = store->Find(*schema_, options_, kFullRoots);
    ASSERT_FALSE(found.ok());
    EXPECT_EQ(found.status().code(), common::StatusCode::kFailedPrecondition);
    EXPECT_NE(found.status().message().find(rung), std::string::npos)
        << found.status();
    ExpectCountedFallback(store);
  }

  ScopedTempDir tmp_{"oodbsec_snapshot_test"};
  std::unique_ptr<schema::Schema> schema_;
  ClosureOptions options_;
  std::string reference_digest_;
  std::string record_;
};

TEST_F(SnapshotRobustnessTest, PlantedIntactRecordIsFound) {
  // The control for every case below: the planted pack itself is sound.
  PlantRecord(record_);
  auto store = OpenPack(tmp_.path());
  ASSERT_NE(store, nullptr);
  auto found = store->Find(*schema_, options_, kFullRoots);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found.value()->closure->FactSetDigest(), reference_digest_);
}

TEST_F(SnapshotRobustnessTest, MissingSignatureIsNotFoundNotInvalid) {
  // No record for a signature is a miss (kNotFound), distinct from a
  // record that fails validation (kFailedPrecondition).
  std::string flipped = record_;
  flipped[flipped.size() - 5] ^= 0x41;
  PlantRecord(flipped);
  auto store = OpenPack(tmp_.path());
  ASSERT_NE(store, nullptr);
  auto missing = store->Find(*schema_, options_, {"calcSalary"});
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);
  auto invalid = store->Find(*schema_, options_, kFullRoots);
  EXPECT_EQ(invalid.status().code(), common::StatusCode::kFailedPrecondition);

  ClosureCache cache(*schema_, options_, 64, nullptr, store);
  EXPECT_EQ(cache.FindSnapshot({"calcSalary"}), nullptr);
  EXPECT_EQ(cache.stats().snapshot_misses, 1u);
  EXPECT_EQ(cache.stats().snapshot_invalid, 0u);
}

TEST_F(SnapshotRobustnessTest, TruncatedHeader) {
  std::string cut = record_.substr(0, 12);
  auto decoded = snapshot::DecodePackedRecord(*schema_, options_, cut, "test");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(decoded.status().message().find("not a snapshot record"),
            std::string::npos)
      << decoded.status();

  // Too short to be indexed at all: the pack's recovery drops it, so the
  // signature reads as a miss and the cache builds cold.
  PlantRecord(cut);
  auto store = OpenPack(tmp_.path());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->Find(*schema_, options_, kFullRoots).status().code(),
            common::StatusCode::kNotFound);
  ClosureCache cache(*schema_, options_, 64, nullptr, store);
  auto rebuilt = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(cache.stats().snapshot_misses, 1u);
  EXPECT_EQ(cache.stats().cold_builds, 1u);
  EXPECT_EQ(rebuilt.value()->closure->FactSetDigest(), reference_digest_);
}

TEST_F(SnapshotRobustnessTest, TruncatedPayloadBreaksChecksum) {
  ExpectRefused(record_.substr(0, record_.size() / 2), "checksum mismatch");
}

TEST_F(SnapshotRobustnessTest, TruncatedPayloadWithRecomputedChecksum) {
  // The deeper case: the payload is cut short but the checksum is made
  // consistent again, so only the bounds-checked decoder can catch it.
  std::string cut = record_;
  cut.resize(cut.size() - 33);
  Rechecksum(&cut);
  ExpectRefused(cut, "record geometry out of bounds");
}

TEST_F(SnapshotRobustnessTest, FlippedPayloadByteBreaksChecksum) {
  std::string flipped = record_;
  flipped[flipped.size() - 5] ^= 0x41;
  ExpectRefused(flipped, "checksum mismatch");
}

TEST_F(SnapshotRobustnessTest, WrongEntryVersion) {
  std::string skewed = record_;
  skewed[8] ^= 0x7f;  // the u32 version lives at bytes 8..11
  ExpectRefused(skewed, "record version");
}

TEST_F(SnapshotRobustnessTest, CorruptByteOrderMarkerIsRefused) {
  // A marker that is neither the native constant nor its mirror is
  // corruption — refused before any payload decode.
  std::string corrupt = record_;
  corrupt[12] ^= 0x40;  // u32 marker lives at bytes 12..15
  ExpectRefused(corrupt, "corrupt byte-order marker");
}

TEST_F(SnapshotRobustnessTest, SwappedByteOrderMarkerIsRefused) {
  // The mirrored marker a machine of the opposite endianness writes:
  // records are machine-local (replay aliases raw structs), so it is
  // refused and named, never decoded.
  std::string foreign = record_;
  std::reverse(foreign.begin() + 12, foreign.begin() + 16);
  ExpectRefused(foreign, "foreign-endian record");
}

TEST_F(SnapshotRobustnessTest, WrongSchemaFingerprintBytes) {
  std::string skewed = record_;
  skewed[16] ^= 0x7f;  // the u64 fingerprint lives at bytes 16..23
  ExpectRefused(skewed, "schema fingerprint mismatch");
}

TEST_F(SnapshotRobustnessTest, OutOfRangeStepIdIsRefused) {
  // The first step's subject occurrence (PackedStep::a, the step's first
  // field) pointed past the unfold, checksum made consistent again: the
  // structural rung refuses it before replay touches the tables.
  std::string hostile = record_;
  const int32_t bogus = 1 << 20;
  std::memcpy(hostile.data() + StepsOffset(hostile), &bogus, sizeof bogus);
  Rechecksum(&hostile);
  ExpectRefused(hostile, "occurrence id out of range");
}

TEST_F(SnapshotRobustnessTest, SchemaDriftInvalidatesTheSnapshot) {
  // A real schema change (extra attribute) under the same signature:
  // the fingerprint check must reject and the cache must rebuild
  // against the *new* schema.
  auto drifted = DriftedBrokerSchema();
  auto decoded =
      snapshot::DecodePackedRecord(*drifted, options_, record_, "test");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(decoded.status().message().find("schema fingerprint mismatch"),
            std::string::npos)
      << decoded.status();

  PlantRecord(record_);
  auto store = OpenPack(tmp_.path());
  ASSERT_NE(store, nullptr);
  ClosureCache cache(*drifted, options_, 64, nullptr, store);
  EXPECT_EQ(cache.FindSnapshot(kFullRoots), nullptr);
  EXPECT_EQ(cache.stats().snapshot_invalid, 1u);
  auto rebuilt = cache.GetOrBuild(kFullRoots);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(cache.stats().cold_builds, 1u);
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
  // Fork first: no thread pool may exist yet (see tcp_shard.h).
  service::ForkTransportOptions options;
  options.shard_count = 4;
  auto sharded = service::ForkTransport(options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
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
  service::ForkTransportOptions one;
  one.shard_count = 1;
  auto single = service::ForkTransport(one).Run(*fleet.schema, *fleet.users,
                                                fleet.sheet, nullptr);
  ASSERT_TRUE(single.ok()) << single.status();
  service::ForkTransportOptions many;
  many.shard_count = 7;  // more shards than signatures
  auto wide = service::ForkTransport(many).Run(*fleet.schema, *fleet.users,
                                               fleet.sheet, nullptr);
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

  service::ForkTransportOptions options;
  options.shard_count = 3;
  auto sharded = service::ForkTransport(options).Run(
      *fleet.schema, *fleet.users, fleet.sheet, nullptr);
  ASSERT_FALSE(sharded.ok());

  service::AnalysisService svc(*fleet.schema, *fleet.users,
                               MakeServiceOptions(2));
  auto batch = svc.CheckBatch(fleet.sheet);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(sharded.status().code(), batch.status().code());
  EXPECT_EQ(sharded.status().message(), batch.status().message());
}

}  // namespace
}  // namespace oodbsec
