// Tests for the core analysis: capabilities, requirements, the F(F)
// closure (paper Table 2), and algorithm A(R) — including the paper's
// two worked flaws (§3.1) and the Figure 1 derivation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "core/bit_rows.h"
#include "core/capability.h"
#include "core/closure.h"
#include "core/pair_table.h"
#include "core/requirement.h"
#include "schema/user.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {
namespace {

TEST(CapabilityTest, NamesAndParsing) {
  EXPECT_EQ(CapabilityName(Capability::kTotalInferability), "ti");
  EXPECT_EQ(CapabilityName(Capability::kPartialAlterability), "pa");
  EXPECT_EQ(ParseCapability("ti"), Capability::kTotalInferability);
  EXPECT_EQ(ParseCapability("pi"), Capability::kPartialInferability);
  EXPECT_EQ(ParseCapability("ta"), Capability::kTotalAlterability);
  EXPECT_EQ(ParseCapability("pa"), Capability::kPartialAlterability);
  EXPECT_EQ(ParseCapability("xx"), std::nullopt);
}

TEST(CapabilityTest, Implications) {
  EXPECT_TRUE(Implies(Capability::kTotalInferability,
                      Capability::kPartialInferability));
  EXPECT_TRUE(Implies(Capability::kTotalAlterability,
                      Capability::kPartialAlterability));
  EXPECT_FALSE(Implies(Capability::kPartialInferability,
                       Capability::kTotalInferability));
  EXPECT_FALSE(Implies(Capability::kTotalInferability,
                       Capability::kTotalAlterability));
  EXPECT_TRUE(IsInferability(Capability::kPartialInferability));
  EXPECT_TRUE(IsAlterability(Capability::kTotalAlterability));
}

TEST(RequirementTest, ParsesPaperExamples) {
  auto r1 = ParseRequirementString("(u, r_salary(x) : ti)");
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1->user, "u");
  EXPECT_EQ(r1->function, "r_salary");
  ASSERT_EQ(r1->arg_caps.size(), 1u);
  EXPECT_TRUE(r1->arg_caps[0].empty());
  EXPECT_EQ(r1->return_caps,
            (std::set<Capability>{Capability::kTotalInferability}));

  auto r2 = ParseRequirementString("(u, w_salary(a, v : pa))");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->function, "w_salary");
  ASSERT_EQ(r2->arg_caps.size(), 2u);
  EXPECT_TRUE(r2->arg_caps[0].empty());
  EXPECT_EQ(r2->arg_caps[1],
            (std::set<Capability>{Capability::kPartialAlterability}));
  EXPECT_TRUE(r2->return_caps.empty());
}

TEST(RequirementTest, MultipleCapsAndRoundTrip) {
  auto r = ParseRequirementString("(u, f(x : ti : pa, y) : pi : ta)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->capability_count(), 4u);
  auto round = ParseRequirementString(r->ToString());
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->ToString(), r->ToString());
}

TEST(RequirementTest, Errors) {
  EXPECT_FALSE(ParseRequirementString("").ok());
  EXPECT_FALSE(ParseRequirementString("(u)").ok());
  EXPECT_FALSE(ParseRequirementString("(u, f(x : zz))").ok());
  EXPECT_FALSE(ParseRequirementString("(u, f(x))").ok());  // vacuous
  EXPECT_FALSE(ParseRequirementString("(u, f(x) : ti) extra").ok());
}

// --- Closure tests against the paper's running example ---

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

// Figure 1 / §4.2: F = {checkBudget, w_budget} derives total
// inferability on 5:r_salary(4:broker).
TEST(ClosureTest, Figure1DerivesSalaryInferability) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "w_budget"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());

  // The key conclusions of Figure 1:
  EXPECT_TRUE(closure.AreEqual(8, 1));  // =[8:o, 1:broker]
  EXPECT_TRUE(closure.AreEqual(9, 2));  // =[9:v, 2:r_budget(broker)]
  EXPECT_TRUE(closure.HasTi(2));        // ti[2:r_budget(broker)]
  EXPECT_TRUE(closure.HasPa(2));        // pa[2:r_budget(broker)]
  EXPECT_TRUE(closure.HasTi(7));        // ti[7:>=(...)] (observed result)
  EXPECT_TRUE(closure.HasTi(6));        // ti[6:*(10, r_salary(broker))]
  EXPECT_TRUE(closure.HasTi(5));        // ti[5:r_salary(broker)]  -- FLAW

  // The derivation is printable and names the leaked read.
  std::string derivation = closure.ExplainFact(closure.TiFact(5));
  EXPECT_NE(derivation.find("r_salary"), std::string::npos) << derivation;
  EXPECT_NE(derivation.find("axiom"), std::string::npos);
}

// Without w_budget the clerk cannot infer the salary: checkBudget alone
// must not derive ti on the salary read.
TEST(ClosureTest, CheckBudgetAloneDoesNotLeakSalaryTotally) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());
  EXPECT_FALSE(closure.HasTi(5));  // 5:r_salary(broker) stays protected
  EXPECT_FALSE(closure.HasPi(5));  // not even partially (budget unknown)
  // The comparison outcome itself is observed.
  EXPECT_TRUE(closure.HasTi(7));
  // Pessimism note (§4.1): the budget side is flagged as totally
  // inferable through the `10 may be 0' absorbing rule for * plus the
  // probe rule — a documented false positive of the paper's rule set.
  EXPECT_TRUE(closure.HasTi(2));
}

// Granting r_budget realizes the paper's §1 narrative: "if that clerk
// can know the amount of the budget of some broker, he can know a
// little about the salary of that broker".
TEST(ClosureTest, KnownBudgetLeaksSalaryPartially) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "r_budget"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());
  EXPECT_TRUE(closure.HasPi(5));  // partial leak on 5:r_salary(broker)
  // Pessimism: the analyzer even claims a total leak — it credits the
  // user with probing the comparison by perturbing the budget read via
  // object choice, without tracking that switching brokers perturbs the
  // salary too. A documented false positive (S2 experiment); the true
  // capability without w_budget is the partial leak above.
  EXPECT_TRUE(closure.HasTi(5));
}

// Alterability flow for updateSalary: pa on budget propagates through
// calcSalary into the written salary value (paper §3.1, second flaw).
TEST(ClosureTest, UpdateSalaryAlterabilityFlow) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"updateSalary", "w_budget"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());

  // Node ids (see unfold_test): 3:r_budget(broker), 13:let(calcSalary),
  // 14:w_salary(broker, 13).
  EXPECT_TRUE(closure.HasPa(3));   // the read budget is alterable
  EXPECT_TRUE(closure.HasTa(3));   // in fact totally (w_budget grants ta)
  EXPECT_TRUE(closure.HasPa(13));  // ... through calcSalary
  const unfold::Node* write = set.value()->node(14);
  ASSERT_EQ(write->kind, unfold::NodeKind::kWriteAttr);
  EXPECT_TRUE(closure.HasPa(write->value_child()->id));
}

TEST(ClosureTest, UpdateSalaryAloneGivesOnlyPartialAlterability) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"updateSalary"});
  ASSERT_TRUE(set.ok());
  Closure closure(*set.value());
  // Choosing a different broker perturbs the budget read (node 3) and
  // thus the written value — but only partially...
  EXPECT_TRUE(closure.HasPa(3));
  EXPECT_TRUE(closure.HasPa(set.value()->node(14)->value_child()->id));
  // ...total control needs w_budget (the paper's §3.1 contrast).
  EXPECT_FALSE(closure.HasTa(3));
  EXPECT_FALSE(closure.HasTa(set.value()->node(14)->value_child()->id));
}

TEST(ClosureTest, ReadObjectTotalAlterabilityOption) {
  // Under the exists-D reading, object choice yields total alterability.
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"updateSalary"});
  ASSERT_TRUE(set.ok());
  ClosureOptions options;
  options.read_object_total_alterability = true;
  Closure closure(*set.value(), options);
  EXPECT_TRUE(closure.HasTa(3));
}

TEST(ClosureTest, AblationSameTypeEqualityBreaksFigure1) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "w_budget"});
  ASSERT_TRUE(set.ok());
  ClosureOptions options;
  options.same_type_argument_equality = false;
  Closure closure(*set.value(), options);
  // Without the pessimistic equality axiom the analysis cannot connect
  // w_budget's object to checkBudget's broker, so the flaw is missed.
  EXPECT_FALSE(closure.AreEqual(8, 1));
  EXPECT_FALSE(closure.HasTi(5));
}

TEST(ClosureTest, AblationBasicRulesBreaksFigure1) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "w_budget"});
  ASSERT_TRUE(set.ok());
  ClosureOptions options;
  options.basic_function_rules = false;
  Closure closure(*set.value(), options);
  EXPECT_FALSE(closure.HasTi(5));
}

TEST(ClosureTest, AblationWriteReadEqualityBreaksFigure1) {
  auto schema = BrokerSchema();
  auto set = unfold::UnfoldedSet::Build(*schema, {"checkBudget", "w_budget"});
  ASSERT_TRUE(set.ok());
  ClosureOptions options;
  options.write_read_equality = false;
  Closure closure(*set.value(), options);
  EXPECT_FALSE(closure.AreEqual(9, 2));
  EXPECT_FALSE(closure.HasTi(5));
}

// --- A(R) end to end ---

struct BrokerWorld {
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<schema::UserRegistry> users;
};

BrokerWorld MakeBrokerWorld() {
  BrokerWorld world;
  world.schema = BrokerSchema();
  world.users = std::make_unique<schema::UserRegistry>(*world.schema);
  EXPECT_TRUE(world.users->AddUser("clerk").ok());
  EXPECT_TRUE(world.users->Grant("clerk", "checkBudget").ok());
  EXPECT_TRUE(world.users->Grant("clerk", "w_budget").ok());
  EXPECT_TRUE(world.users->AddUser("auditor").ok());
  EXPECT_TRUE(world.users->Grant("auditor", "checkBudget").ok());
  EXPECT_TRUE(world.users->AddUser("updater").ok());
  EXPECT_TRUE(world.users->Grant("updater", "updateSalary").ok());
  EXPECT_TRUE(world.users->Grant("updater", "w_budget").ok());
  return world;
}

TEST(AnalyzerTest, DetectsPaperFlaw1) {
  BrokerWorld world = MakeBrokerWorld();
  auto requirement = ParseRequirementString("(clerk, r_salary(x) : ti)");
  ASSERT_TRUE(requirement.ok());
  auto report =
      CheckRequirement(*world.schema, *world.users, requirement.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
  ASSERT_FALSE(report->flaws.empty());
  EXPECT_NE(report->flaws[0].derivation.find("r_salary"), std::string::npos);
  EXPECT_NE(report->ToString().find("NOT SATISFIED"), std::string::npos);
}

TEST(AnalyzerTest, AuditorWithoutWriteIsSafe) {
  BrokerWorld world = MakeBrokerWorld();
  auto requirement = ParseRequirementString("(auditor, r_salary(x) : ti)");
  ASSERT_TRUE(requirement.ok());
  auto report =
      CheckRequirement(*world.schema, *world.users, requirement.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->satisfied);
}

TEST(AnalyzerTest, BudgetReaderLearnsSalaryPartially) {
  // With r_budget granted, checkBudget reveals *something* about the
  // salary (§1): the pi requirement is violated even without w_budget.
  BrokerWorld world = MakeBrokerWorld();
  ASSERT_TRUE(world.users->AddUser("reader").ok());
  ASSERT_TRUE(world.users->Grant("reader", "checkBudget").ok());
  ASSERT_TRUE(world.users->Grant("reader", "r_budget").ok());
  auto partial = ParseRequirementString("(reader, r_salary(x) : pi)");
  ASSERT_TRUE(partial.ok());
  auto report =
      CheckRequirement(*world.schema, *world.users, partial.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

TEST(AnalyzerTest, DetectsPaperFlaw2) {
  BrokerWorld world = MakeBrokerWorld();
  auto requirement =
      ParseRequirementString("(updater, w_salary(a, v : pa))");
  ASSERT_TRUE(requirement.ok());
  auto report =
      CheckRequirement(*world.schema, *world.users, requirement.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

TEST(AnalyzerTest, UpdaterWithoutBudgetWriteCannotFullyControlSalary) {
  // The §3.1 contrast: with only updateSalary granted, the written
  // salary is perturbable (object choice) but not fully controllable.
  BrokerWorld world = MakeBrokerWorld();
  ASSERT_TRUE(world.users->AddUser("plain").ok());
  ASSERT_TRUE(world.users->Grant("plain", "updateSalary").ok());
  auto total = ParseRequirementString("(plain, w_salary(a, v : ta))");
  ASSERT_TRUE(total.ok());
  auto report =
      CheckRequirement(*world.schema, *world.users, total.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->satisfied);
  // Granting w_budget flips the verdict.
  auto flagged = ParseRequirementString("(updater, w_salary(a, v : ta))");
  ASSERT_TRUE(flagged.ok());
  auto report2 =
      CheckRequirement(*world.schema, *world.users, flagged.value());
  ASSERT_TRUE(report2.ok());
  EXPECT_FALSE(report2->satisfied);
}

TEST(AnalyzerTest, DirectGrantIsAlwaysAFlaw) {
  // If r_salary itself is granted, (u, r_salary(x) : ti) is trivially
  // violated at the direct-invocation site.
  BrokerWorld world = MakeBrokerWorld();
  ASSERT_TRUE(world.users->AddUser("root").ok());
  ASSERT_TRUE(world.users->Grant("root", "r_salary").ok());
  auto requirement = ParseRequirementString("(root, r_salary(x) : ti)");
  ASSERT_TRUE(requirement.ok());
  auto report =
      CheckRequirement(*world.schema, *world.users, requirement.value());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->satisfied);
}

TEST(AnalyzerTest, UnknownUserOrFunctionErrors) {
  BrokerWorld world = MakeBrokerWorld();
  auto r1 = ParseRequirementString("(ghost, r_salary(x) : ti)");
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(CheckRequirement(*world.schema, *world.users, r1.value()).ok());
  auto r2 = ParseRequirementString("(clerk, nothing(x) : ti)");
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(CheckRequirement(*world.schema, *world.users, r2.value()).ok());
}

TEST(AnalyzerTest, ArityMismatchRejected) {
  BrokerWorld world = MakeBrokerWorld();
  auto requirement =
      ParseRequirementString("(clerk, r_salary(x, y) : ti)");
  ASSERT_TRUE(requirement.ok());
  EXPECT_FALSE(
      CheckRequirement(*world.schema, *world.users, requirement.value())
          .ok());
}

TEST(AnalyzerTest, UserAnalysisIsReusable) {
  BrokerWorld world = MakeBrokerWorld();
  auto analysis =
      UserAnalysis::Build(*world.schema, *world.users->Find("clerk"));
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  auto r1 = ParseRequirementString("(clerk, r_salary(x) : ti)");
  auto r2 = ParseRequirementString("(clerk, r_budget(x) : ti)");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto report1 = analysis.value()->Check(r1.value());
  auto report2 = analysis.value()->Check(r2.value());
  ASSERT_TRUE(report1.ok());
  ASSERT_TRUE(report2.ok());
  EXPECT_FALSE(report1->satisfied);
  EXPECT_FALSE(report2->satisfied);  // budget is writable hence inferable
  EXPECT_GT(report1->fact_count, 0u);
}

// --- PairTable: the open-addressed pi* pair store ---

using IntPairTable = PairTable<int>;

// Every live (a, b, value), sorted (ForEach order is unspecified).
std::vector<std::tuple<int, int, int>> Contents(const IntPairTable& table) {
  std::vector<std::tuple<int, int, int>> out;
  table.ForEach([&](int a, int b, int value) { out.emplace_back(a, b, value); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PairTableTest, FindOnEmptyTable) {
  IntPairTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find(0, 0), IntPairTable::kNoSlot);
  EXPECT_EQ(table.Find(7, 3), IntPairTable::kNoSlot);
  table.Erase(7, 3);  // no-op on an empty table
  EXPECT_TRUE(Contents(table).empty());
}

TEST(PairTableTest, InsertFindAndDirection) {
  IntPairTable table;
  bool inserted = false;
  int slot = table.Insert(1, 2, &inserted);
  EXPECT_TRUE(inserted);
  table.at(slot) = 12;
  EXPECT_EQ(table.Insert(1, 2, &inserted), slot);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(table.Find(1, 2), slot);
  EXPECT_EQ(table.Find(2, 1), IntPairTable::kNoSlot);  // ordered pairs
  int reverse = table.Insert(2, 1);
  EXPECT_NE(reverse, slot);
  EXPECT_EQ(table.at(reverse), 0);  // value-initialized
  EXPECT_EQ(table.at(table.Find(1, 2)), 12);
  EXPECT_EQ(table.size(), 2u);
}

TEST(PairTableTest, GrowthKeepsSlotsStable) {
  IntPairTable table;
  std::map<std::pair<int, int>, int> slots;
  // Far past the initial 16 buckets: many index doublings.
  for (int a = 0; a < 60; ++a) {
    for (int b = 0; b < 60; b += 7) {
      int slot = table.Insert(a, b);
      table.at(slot) = a * 1000 + b;
      slots[{a, b}] = slot;
      if (a % 13 == 0) {
        // Spot-check every earlier pair mid-growth.
        for (const auto& [key, expected] : slots) {
          ASSERT_EQ(table.Find(key.first, key.second), expected);
        }
      }
    }
  }
  EXPECT_EQ(table.size(), slots.size());
  for (const auto& [key, slot] : slots) {
    EXPECT_EQ(table.Find(key.first, key.second), slot);
    EXPECT_EQ(table.at(slot), key.first * 1000 + key.second);
  }
}

TEST(PairTableTest, TombstoneReuseUnderChurn) {
  IntPairTable table;
  std::map<std::pair<int, int>, int> live;  // pair -> value
  std::mt19937 rng(20261017);
  size_t peak_live = 0;
  for (int step = 0; step < 20000; ++step) {
    int a = static_cast<int>(rng() % 24);
    int b = static_cast<int>(rng() % 24);
    if (rng() % 2 == 0) {
      bool inserted = false;
      int slot = table.Insert(a, b, &inserted);
      ASSERT_EQ(inserted, live.count({a, b}) == 0);
      if (inserted) {
        table.at(slot) = step;
        live[{a, b}] = step;
        peak_live = std::max(peak_live, live.size());
        // Freed slots are reused before the pool grows, so slot ids
        // stay below the peak number of live pairs.
        ASSERT_LT(static_cast<size_t>(slot), peak_live);
      }
    } else {
      table.Erase(a, b);
      live.erase({a, b});
    }
    ASSERT_EQ(table.size(), live.size());
    ASSERT_EQ(Contents(table).size(), live.size());
  }
  for (const auto& [key, value] : live) {
    int slot = table.Find(key.first, key.second);
    ASSERT_NE(slot, IntPairTable::kNoSlot);
    EXPECT_EQ(table.at(slot), value);
  }
  // Every pair not live is absent despite the tombstones on its path.
  for (int a = 0; a < 24; ++a) {
    for (int b = 0; b < 24; ++b) {
      if (live.count({a, b}) == 0) {
        EXPECT_EQ(table.Find(a, b), IntPairTable::kNoSlot) << a << "," << b;
      }
    }
  }
}

TEST(PairTableTest, ErasedSlotIsReusedAndReset) {
  IntPairTable table;
  int first = table.Insert(3, 4);
  table.at(first) = 34;
  int second = table.Insert(5, 6);
  table.Erase(3, 4);
  EXPECT_EQ(table.Find(3, 4), IntPairTable::kNoSlot);
  int reused = table.Insert(7, 8);
  EXPECT_EQ(reused, first);         // the free list hands the slot back
  EXPECT_EQ(table.at(reused), 0);   // with a fresh value
  EXPECT_EQ(table.Find(5, 6), second);
}

TEST(PairTableTest, ForEachSkipsErasedSlots) {
  IntPairTable table;
  for (int i = 0; i < 6; ++i) table.at(table.Insert(i, i + 1)) = i;
  table.Erase(1, 2);
  table.Erase(4, 5);
  std::vector<std::tuple<int, int, int>> expected = {
      {0, 1, 0}, {2, 3, 2}, {3, 4, 3}, {5, 6, 5}};
  EXPECT_EQ(Contents(table), expected);
  table.Erase(0, 1);
  table.Erase(2, 3);
  table.Erase(3, 4);
  table.Erase(5, 6);
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(Contents(table).empty());
}


// --- KeyedRows: the pi* join's round-local conclusion rows ---

TEST(KeyedRowsTest, RowsAreZeroedPerKeyAndSurviveGrowth) {
  KeyedRows rows;
  rows.Reset(RowWords(200));
  EXPECT_EQ(rows.Find(7), nullptr);
  RowSet(rows.Get(7), 3);
  RowSet(rows.Get(7), 199);
  // Far past the initial index: many doublings and pool reallocations.
  for (uint64_t key = 100; key < 400; ++key) {
    uint64_t* row = rows.Get(key << 32);
    for (size_t w = 0; w < RowWords(200); ++w) ASSERT_EQ(row[w], 0u) << key;
    RowSet(row, static_cast<int>(key % 200));
  }
  const uint64_t* seven = rows.Find(7);
  ASSERT_NE(seven, nullptr);
  EXPECT_TRUE(RowTest(seven, 3));
  EXPECT_TRUE(RowTest(seven, 199));
  EXPECT_FALSE(RowTest(seven, 4));
  for (uint64_t key = 100; key < 400; ++key) {
    const uint64_t* row = rows.Find(key << 32);
    ASSERT_NE(row, nullptr) << key;
    EXPECT_TRUE(RowTest(row, static_cast<int>(key % 200))) << key;
  }
}

TEST(KeyedRowsTest, ResetForgetsEveryRowAndTakesANewWidth) {
  KeyedRows rows;
  rows.Reset(1);
  RowSet(rows.Get(1), 63);
  rows.Reset(3);
  EXPECT_EQ(rows.Find(1), nullptr);
  uint64_t* row = rows.Get(1);
  for (int w = 0; w < 3; ++w) EXPECT_EQ(row[w], 0u);
  RowSet(row, 130);
  RowClear(row, 130);
  EXPECT_FALSE(RowTest(row, 130));
}

}  // namespace
}  // namespace oodbsec::core
