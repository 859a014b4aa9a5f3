// Determinism tests for the parallel closure engine: the derivation log
// a Closure produces must be byte-identical for every closure_threads
// setting — same steps in the same order, same rule labels, same
// premise lists — because snapshots, warm starts, retraction, and the
// shard parity triangle all treat the log as canonical. Covers cold
// builds (stockbroker + randomized lists over the scaled broker
// schema), warm starts, retraction, and the paper's stockbroker flaw
// report; the largest case also asserts via obs counters that the
// multi-threaded run actually took the parallel path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "core/analyzer.h"
#include "core/closure.h"
#include "core/requirement.h"
#include "obs/obs.h"
#include "schema/schema.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {
namespace {

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

// Every capability of the first `departments` departments, sorted.
std::vector<std::string> ScaledBrokerRoots(int departments) {
  std::vector<std::string> roots = {"r_name"};
  for (int i = 0; i < departments; ++i) {
    roots.push_back(common::StrCat("checkBudget", i));
    roots.push_back(common::StrCat("updateSalary", i));
    roots.push_back(common::StrCat("w_budget", i));
    roots.push_back(common::StrCat("w_profit", i));
  }
  std::sort(roots.begin(), roots.end());
  return roots;
}

std::unique_ptr<unfold::UnfoldedSet> Unfold(
    const schema::Schema& schema, const std::vector<std::string>& roots) {
  auto set = unfold::UnfoldedSet::Build(schema, roots);
  EXPECT_TRUE(set.ok()) << set.status();
  return std::move(set).value();
}

ClosureOptions WithThreads(int threads) {
  ClosureOptions options;
  options.closure_threads = threads;
  return options;
}

// Flattens the full derivation log — every field of every step plus its
// resolved premise list — into one string, so EXPECT_EQ compares logs
// byte for byte and a mismatch prints the first diverging line.
std::string SerializeLog(const Closure& closure) {
  std::string out;
  const std::vector<DerivationStep>& steps = closure.steps();
  for (FactId id = 0; id < static_cast<FactId>(steps.size()); ++id) {
    const DerivationStep& step = steps[id];
    out += common::StrCat(id, ": k", static_cast<int>(step.fact.kind), " a",
                          step.fact.a, " b", step.fact.b, " o",
                          step.fact.origin.num, step.fact.origin.dir, " [",
                          step.rule, "] <-");
    for (FactId premise : closure.premises(id)) {
      out += common::StrCat(" ", premise);
    }
    out += '\n';
  }
  return out;
}

const int kThreadCounts[] = {2, 8};

TEST(ParallelClosureTest, StockbrokerLogByteIdenticalAcrossThreadCounts) {
  auto schema = BrokerSchema();
  std::vector<std::string> roots = {"checkBudget", "r_name", "updateSalary",
                                    "w_budget", "w_profit"};
  auto reference_set = Unfold(*schema, roots);
  Closure reference(*reference_set, WithThreads(1));
  std::string reference_log = SerializeLog(reference);
  ASSERT_FALSE(reference_log.empty());

  for (int threads : kThreadCounts) {
    auto set = Unfold(*schema, roots);
    Closure parallel(*set, WithThreads(threads));
    EXPECT_EQ(SerializeLog(parallel), reference_log) << threads;
    EXPECT_EQ(parallel.FactSetDigest(), reference.FactSetDigest())
        << threads;
  }
}

TEST(ParallelClosureTest, StockbrokerFlawReportStableAcrossThreadCounts) {
  // The paper's broken-broker scenario: with updateSalary granted, the
  // salary requirement must flag the same sites with the same
  // derivations no matter how many threads derived the closure.
  auto schema = BrokerSchema();
  std::vector<std::string> roots = {"checkBudget", "updateSalary",
                                    "w_budget", "w_profit"};
  auto requirement =
      ParseRequirementString("(broker, w_salary(x, y) : ta)");
  ASSERT_TRUE(requirement.ok()) << requirement.status();

  auto reference_set = Unfold(*schema, roots);
  Closure reference(*reference_set, WithThreads(1));
  auto reference_report =
      CheckAgainstClosure(*reference_set, reference, requirement.value());
  ASSERT_TRUE(reference_report.ok()) << reference_report.status();

  for (int threads : kThreadCounts) {
    auto set = Unfold(*schema, roots);
    Closure parallel(*set, WithThreads(threads));
    auto report = CheckAgainstClosure(*set, parallel, requirement.value());
    ASSERT_TRUE(report.ok()) << threads;
    EXPECT_EQ(report->ToString(), reference_report->ToString()) << threads;
  }
}

TEST(ParallelClosureTest, RandomizedListsByteIdenticalAcrossThreadCounts) {
  const int kScale = 3;
  auto schema = ScaledBrokerSchema(kScale);
  std::vector<std::string> pool = {"r_name"};
  for (int i = 0; i < kScale; ++i) {
    pool.push_back(common::StrCat("checkBudget", i));
    pool.push_back(common::StrCat("updateSalary", i));
    pool.push_back(common::StrCat("w_budget", i));
    pool.push_back(common::StrCat("w_profit", i));
  }
  // Fixed seed: reproducible trials, no flakes.
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 6; ++trial) {
    std::shuffle(pool.begin(), pool.end(), rng);
    size_t take = 3 + rng() % (pool.size() - 3);
    std::vector<std::string> roots(pool.begin(), pool.begin() + take);
    std::sort(roots.begin(), roots.end());

    auto reference_set = Unfold(*schema, roots);
    Closure reference(*reference_set, WithThreads(1));
    std::string reference_log = SerializeLog(reference);

    for (int threads : kThreadCounts) {
      auto set = Unfold(*schema, roots);
      Closure parallel(*set, WithThreads(threads));
      EXPECT_EQ(SerializeLog(parallel), reference_log)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(parallel.FactSetDigest(), reference.FactSetDigest())
          << "trial " << trial << " threads " << threads;
    }
  }
}

TEST(ParallelClosureTest, WarmStartLogByteIdenticalAcrossThreadCounts) {
  auto schema = BrokerSchema();
  std::vector<std::string> base_roots = {"checkBudget", "w_budget"};
  std::vector<std::string> full_roots = {"checkBudget", "r_name",
                                         "updateSalary", "w_budget",
                                         "w_profit"};

  auto base_set = Unfold(*schema, base_roots);
  Closure base(*base_set, WithThreads(1));

  auto reference_set = Unfold(*schema, full_roots);
  Closure reference(*reference_set, WithThreads(1), nullptr, &base);
  ASSERT_TRUE(reference.warm_started());
  std::string reference_log = SerializeLog(reference);

  for (int threads : kThreadCounts) {
    // The warm base itself is also built in parallel: byte-identical
    // logs must survive the replay-then-continue path end to end.
    auto parallel_base_set = Unfold(*schema, base_roots);
    Closure parallel_base(*parallel_base_set, WithThreads(threads));
    auto set = Unfold(*schema, full_roots);
    Closure warm(*set, WithThreads(threads), nullptr, &parallel_base);
    ASSERT_TRUE(warm.warm_started()) << threads;
    EXPECT_EQ(SerializeLog(warm), reference_log) << threads;
    EXPECT_EQ(warm.FactSetDigest(), reference.FactSetDigest()) << threads;
  }
}

TEST(ParallelClosureTest, RetractLogByteIdenticalAcrossThreadCounts) {
  auto schema = BrokerSchema();
  std::vector<std::string> full_roots = {"checkBudget", "r_name",
                                         "updateSalary", "w_budget",
                                         "w_profit"};
  auto full_set = Unfold(*schema, full_roots);
  Closure base(*full_set, WithThreads(1));

  for (const std::string& revoked : full_roots) {
    std::vector<std::string> reduced;
    for (const std::string& root : full_roots) {
      if (root != revoked) reduced.push_back(root);
    }
    auto reference_set = Unfold(*schema, reduced);
    std::unique_ptr<Closure> reference =
        Closure::Retract(*reference_set, WithThreads(1), nullptr, base);
    ASSERT_NE(reference, nullptr) << revoked;
    std::string reference_log = SerializeLog(*reference);

    for (int threads : kThreadCounts) {
      auto set = Unfold(*schema, reduced);
      std::unique_ptr<Closure> shrunk =
          Closure::Retract(*set, WithThreads(threads), nullptr, base);
      ASSERT_NE(shrunk, nullptr) << revoked << " threads " << threads;
      EXPECT_EQ(SerializeLog(*shrunk), reference_log)
          << revoked << " threads " << threads;
      EXPECT_EQ(shrunk->FactSetDigest(), reference->FactSetDigest())
          << revoked << " threads " << threads;
    }
  }
}

TEST(ParallelClosureTest, LargeBuildTakesParallelPathAndMatches) {
  // A frontier wide enough to cross the parallel engagement threshold:
  // the obs counter proves the chunked path actually ran, and the log
  // still matches the single-threaded build byte for byte.
  const int kScale = 8;
  auto schema = ScaledBrokerSchema(kScale);
  std::vector<std::string> roots = ScaledBrokerRoots(kScale);

  auto reference_set = Unfold(*schema, roots);
  Closure reference(*reference_set, WithThreads(1));

  obs::Observability obs;
  auto set = Unfold(*schema, roots);
  Closure parallel(*set, WithThreads(8), &obs);
  EXPECT_EQ(SerializeLog(parallel), SerializeLog(reference));
  EXPECT_EQ(parallel.FactSetDigest(), reference.FactSetDigest());
  EXPECT_GT(obs.metrics.counter("closure.parallel.rounds")->value(), 0u);
  EXPECT_GT(obs.metrics.counter("closure.parallel.chunks")->value(), 0u);
}

TEST(ParallelClosureTest, CountersIdenticalAcrossThreadCounts) {
  // Every published closure metric except the closure.parallel.* ones
  // (which describe the crew, not the work) is a function of the build
  // alone: chunk workers count into their own buffers and the barrier
  // folds them in, so how the frontier was split must not show.
  const int kScale = 8;
  auto schema = ScaledBrokerSchema(kScale);
  std::vector<std::string> roots = ScaledBrokerRoots(kScale);
  auto metrics_at = [&](int threads) {
    obs::Observability obs;
    auto set = Unfold(*schema, roots);
    Closure closure(*set, WithThreads(threads), &obs);
    std::vector<obs::MetricSnapshot> metrics = obs.metrics.Snapshot();
    std::erase_if(metrics, [](const obs::MetricSnapshot& m) {
      return m.name.starts_with("closure.parallel.");
    });
    return metrics;
  };

  std::vector<obs::MetricSnapshot> reference = metrics_at(1);
  bool saw_proposals = false;
  for (const obs::MetricSnapshot& m : reference) {
    if (m.name == "closure.pistar.join_proposals") saw_proposals = m.value > 0;
  }
  EXPECT_TRUE(saw_proposals);
  for (int threads : {2, 8}) {
    std::vector<obs::MetricSnapshot> metrics = metrics_at(threads);
    ASSERT_EQ(metrics.size(), reference.size()) << threads;
    for (size_t i = 0; i < metrics.size(); ++i) {
      EXPECT_EQ(metrics[i], reference[i])
          << reference[i].name << " = " << reference[i].value << " vs "
          << metrics[i].name << " = " << metrics[i].value << " at "
          << threads << " threads";
    }
  }
}

TEST(ParallelClosureTest, AutoAndClampedThreadCountsResolve) {
  // closure_threads = 0 resolves to hardware concurrency; absurd values
  // clamp instead of exploding. Both must still match the reference.
  auto schema = BrokerSchema();
  std::vector<std::string> roots = {"checkBudget", "updateSalary",
                                    "w_budget"};
  auto reference_set = Unfold(*schema, roots);
  Closure reference(*reference_set, WithThreads(1));

  for (int threads : {0, 1024}) {
    auto set = Unfold(*schema, roots);
    Closure parallel(*set, WithThreads(threads));
    EXPECT_EQ(SerializeLog(parallel), SerializeLog(reference)) << threads;
  }
}

// --- Golden derivation logs ---
//
// The tests above pin logs across thread counts; these pin them across
// *engine revisions*. Each expected value is a 64-bit FNV-1a fingerprint
// of the full log (kind, a, b, origin, rule label and premise list of
// every step) plus the FactSetDigest, recorded when the fixture was
// added. A table or hot-path rewrite must leave every one unchanged:
// packed and directory snapshots replay these exact logs, so a changed
// fingerprint means a changed snapshot format (bump the version) rather
// than a refactor.

class Fingerprint {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  void Int(int64_t value) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(static_cast<uint64_t>(value) >>
                                            (8 * i));
    }
    Bytes(bytes, sizeof bytes);
  }
  void Text(std::string_view text) {
    Int(static_cast<int64_t>(text.size()));
    Bytes(text.data(), text.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t LogFingerprint(const Closure& closure) {
  Fingerprint fp;
  const std::vector<DerivationStep>& steps = closure.steps();
  fp.Int(static_cast<int64_t>(steps.size()));
  for (FactId id = 0; id < static_cast<FactId>(steps.size()); ++id) {
    const Fact& fact = steps[id].fact;
    fp.Int(static_cast<int64_t>(fact.kind));
    fp.Int(fact.a);
    fp.Int(fact.b);
    fp.Int(fact.origin.num);
    fp.Int(fact.origin.dir);
    fp.Text(steps[id].rule);
    std::span<const FactId> premises = closure.premises(id);
    fp.Int(static_cast<int64_t>(premises.size()));
    for (FactId premise : premises) fp.Int(premise);
  }
  fp.Text(closure.FactSetDigest());
  return fp.value();
}

const int kGoldenThreadCounts[] = {1, 2};

TEST(GoldenLogTest, ColdStockbroker) {
  auto schema = BrokerSchema();
  std::vector<std::string> roots = {"checkBudget", "r_name", "updateSalary",
                                    "w_budget", "w_profit"};
  for (int threads : kGoldenThreadCounts) {
    auto set = Unfold(*schema, roots);
    Closure closure(*set, WithThreads(threads));
    EXPECT_EQ(closure.fact_count(), 420u) << threads;
    EXPECT_EQ(LogFingerprint(closure), 4111829178835453466ull) << threads;
  }
}

TEST(GoldenLogTest, ColdScaledBroker8) {
  auto schema = ScaledBrokerSchema(8);
  std::vector<std::string> roots = ScaledBrokerRoots(8);
  for (int threads : kGoldenThreadCounts) {
    auto set = Unfold(*schema, roots);
    Closure closure(*set, WithThreads(threads));
    EXPECT_EQ(closure.fact_count(), 17623u) << threads;
    EXPECT_EQ(LogFingerprint(closure), 1266032250442229820ull) << threads;
  }
}

TEST(GoldenLogTest, ColdScaledBroker16) {
  // The audit-sized shape (~68k facts, nearly all pi*): most of its
  // pairs fill their origin sets, so it pins the join's full-pair and
  // same-round duplicate handling at the scale where they dominate.
  auto schema = ScaledBrokerSchema(16);
  std::vector<std::string> roots = ScaledBrokerRoots(16);
  for (int threads : {1, 4}) {
    auto set = Unfold(*schema, roots);
    Closure closure(*set, WithThreads(threads));
    EXPECT_EQ(closure.fact_count(), 68007u) << threads;
    EXPECT_EQ(LogFingerprint(closure), 13083374296483510378ull) << threads;
  }
}

TEST(GoldenLogTest, WarmStartScaledBroker) {
  // Grow a two-department closure to four departments: the replay
  // re-keys the base's pi* pairs, and the delta rounds join new pairs
  // against replayed ones.
  auto schema = ScaledBrokerSchema(4);
  auto base_set = Unfold(*schema, ScaledBrokerRoots(2));
  Closure base(*base_set);
  for (int threads : kGoldenThreadCounts) {
    auto set = Unfold(*schema, ScaledBrokerRoots(4));
    Closure warm(*set, WithThreads(threads), nullptr, &base);
    ASSERT_TRUE(warm.warm_started()) << threads;
    EXPECT_EQ(warm.fact_count(), 4721u) << threads;
    EXPECT_EQ(LogFingerprint(warm), 14439841605701800883ull) << threads;
  }
}

TEST(GoldenLogTest, RetractScaledBroker) {
  // Revoke one department's updateSalary and w_profit from a four-
  // department closure: the rederive pass probes over-deleted pi*
  // pairs (RederivePair) and re-fires the class producers.
  auto schema = ScaledBrokerSchema(4);
  auto base_set = Unfold(*schema, ScaledBrokerRoots(4));
  Closure base(*base_set);
  std::vector<std::string> reduced;
  for (const std::string& root : ScaledBrokerRoots(4)) {
    if (root != "updateSalary1" && root != "w_profit1") {
      reduced.push_back(root);
    }
  }
  for (int threads : kGoldenThreadCounts) {
    auto set = Unfold(*schema, reduced);
    std::unique_ptr<Closure> shrunk =
        Closure::Retract(*set, WithThreads(threads), nullptr, base);
    ASSERT_NE(shrunk, nullptr) << threads;
    EXPECT_GT(shrunk->retracted_fact_count(), 0u) << threads;
    EXPECT_EQ(shrunk->fact_count(), 3666u) << threads;
    EXPECT_EQ(LogFingerprint(*shrunk), 15034278198019086700ull) << threads;
  }
}

TEST(GoldenLogTest, EqMergeRekeysPairsOntoRootInKeyOrder) {
  // A late equality merge whose absorbed class carries pi* pairs with
  // itself and with the surviving class in both directions: re-keying
  // folds (absorbed, absorbed), (absorbed, root) and (root, absorbed)
  // onto the existing (root, root) pair, five distinct origins into a
  // set capped at four. Which four survive depends on the fold order —
  // old keys are folded in (first, second) order — and the survivors
  // feed every later rule that picks a pi* premise, so both the kept
  // origins and the whole log are pinned.
  schema::SchemaBuilder builder;
  builder.AddClass("C", {{"a", "int"}, {"b", "int"}, {"link", "C"}});
  std::vector<schema::SchemaBuilder::ParamSpec> params = {
      {"o", "C"}, {"p", "C"}, {"x", "int"}, {"y", "int"}};
  builder.AddFunction("f", params, "int",
                      "y + (let z = r_a(o) in z + y end * (r_a(o) + x))");
  builder.AddFunction("g", params, "int", "y + r_a(o)");
  auto schema = std::move(builder).Build();
  ASSERT_TRUE(schema.ok()) << schema.status();
  std::vector<std::string> roots = {"f", "g", "w_a"};
  for (int threads : kGoldenThreadCounts) {
    auto set = Unfold(**schema, roots);
    Closure closure(*set, WithThreads(threads));
    ASSERT_EQ(set->ShortLabel(1), "1:y") << threads;
    ASSERT_EQ(set->ShortLabel(4), "4:z") << threads;
    ASSERT_TRUE(closure.AreEqual(1, 4)) << threads;
    std::string kept;
    for (const Origin& origin : closure.PiStarOrigins(1, 4)) {
      kept += origin.ToString();
    }
    EXPECT_EQ(kept, "(0,+)(6,-)(11,-)(13,-)") << threads;
    EXPECT_EQ(closure.fact_count(), 264u) << threads;
    EXPECT_EQ(LogFingerprint(closure), 13675351937476015812ull) << threads;
  }
}

}  // namespace
}  // namespace oodbsec::core
