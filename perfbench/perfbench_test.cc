// The benchmark's own tests: the generator is deterministic, the
// percentile helper keeps ten samples beyond the rank it reports, and a
// tiny instance of every workload passes its correctness checks.
#include <gtest/gtest.h>

#include <numeric>

#include "perfbench.h"
#include "text/workspace.h"

namespace perfbench {
namespace {

TEST(Generator, SameSeedSameText) {
  EXPECT_EQ(GenerateAudit(7).text, GenerateAudit(7).text);
  EXPECT_EQ(GenerateFleet(7).text, GenerateFleet(7).text);
  ChurnPlan c1 = GenerateChurn(7), c2 = GenerateChurn(7);
  EXPECT_EQ(c1.workspace.text, c2.workspace.text);
  for (int k = 0; k < 100; ++k) {
    ChurnOp a = c1.Next(), b = c2.Next();
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.revoke, b.revoke);
    EXPECT_EQ(a.grant, b.grant);
  }
  GuardPlan a = GenerateGuard(7, 1, 500, 3);
  GuardPlan b = GenerateGuard(7, 1, 500, 3);
  EXPECT_EQ(a.workspace.text, b.workspace.text);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].query, b.requests[i].query);
    EXPECT_EQ(a.requests[i].due_s, b.requests[i].due_s);
  }
  EXPECT_NE(GenerateAudit(7).text, GenerateAudit(8).text);
  // The serving-thread count only routes sessions; --dump relies on it.
  EXPECT_EQ(GenerateGuard(7, 1, 500, 1).workspace.text, a.workspace.text);
}

TEST(Generator, WorkspacesLoadWithOneVerdictPerRequirement) {
  for (const GeneratedWorkspace& gen :
       {GenerateAudit(3), GenerateFleet(3), GenerateChurn(3).workspace,
        GenerateGuard(3, 1, 100, 3).workspace}) {
    auto ws = oodbsec::text::LoadWorkspace(gen.text);
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    EXPECT_EQ(ws->requirements.size(), gen.expected_satisfied.size());
  }
}

TEST(Generator, AuditFamilyHasScaleSixteenRoleAndBothVerdicts) {
  GeneratedWorkspace gen = GenerateAudit(11);
  EXPECT_NE(gen.text.find("user desk_0 can"), std::string::npos);
  size_t bad = std::count(gen.expected_satisfied.begin(),
                          gen.expected_satisfied.end(), false);
  EXPECT_GT(bad, 0u);
  EXPECT_LT(bad, gen.expected_satisfied.size());
}

TEST(Percentile, RequiresTenSamplesBeyondTheRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  // p90 of 100 samples is rank 90: exactly 10 beyond it.
  ASSERT_TRUE(Percentile(v, 0.9).has_value());
  EXPECT_EQ(*Percentile(v, 0.9), 90.0);
  // p91 leaves only 9 beyond.
  EXPECT_FALSE(Percentile(v, 0.91).has_value());
  // p99 needs 1000 samples.
  EXPECT_FALSE(Percentile(v, 0.99).has_value());
  std::vector<double> w(1000);
  std::iota(w.begin(), w.end(), 1.0);
  ASSERT_TRUE(Percentile(w, 0.99).has_value());
  EXPECT_EQ(*Percentile(w, 0.99), 990.0);
  EXPECT_FALSE(Percentile(std::vector<double>(999, 1.0), 0.99).has_value());
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(Percentile, TailFallsBackToTheHighestRankWithTenBeyond) {
  std::vector<double> v(24);
  std::iota(v.begin(), v.end(), 1.0);  // 1..24
  EXPECT_EQ(Tail(v, 0.9), 14.0);       // 15..24 lie beyond it
  std::vector<double> w(100);
  std::iota(w.begin(), w.end(), 1.0);
  EXPECT_EQ(Tail(w, 0.9), 90.0);       // supported: the p90 itself
  EXPECT_EQ(Tail({3, 9, 1}, 0.9), 9.0);
  EXPECT_EQ(Tail({}, 0.9), 0.0);
}

TEST(HostSpeed, ScalesByTheSamplesNearestInTime) {
  HostSpeed speed(2);
  EXPECT_EQ(speed.ScaleAt(NowSeconds()), 1.0);
  for (int k = 0; k < 3; ++k) speed.Sample();
  EXPECT_EQ(speed.samples(), 3u);
  EXPECT_GT(speed.ScaleAt(NowSeconds()), 0.0);
  EXPECT_EQ(speed.ScaleAt(NowSeconds()), speed.Scale());
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder rec;
  int root = rec.Begin("root", -1, 0);
  int a = rec.Begin("a", root, 0);
  int b = rec.Begin("b", root, 0);
  rec.End(b);
  rec.End(a);
  rec.End(root);
  std::vector<double> self = rec.SelfMs();
  const auto& s = rec.spans();
  double root_ms = (s[root].end_ns - s[root].start_ns) / 1e6;
  double a_ms = (s[a].end_ns - s[a].start_ns) / 1e6;
  // b lies inside a, so only a's interval is subtracted from root.
  EXPECT_NEAR(self[root], root_ms - a_ms, 1e-9);
  EXPECT_EQ(LayerOf("unfold"), "unfold");
  EXPECT_EQ(LayerOf("closure.fixpoint.round"), "closure");
  EXPECT_EQ(LayerOf("closure.build"), "cache");
}

RunOptions Tiny(const char* name) {
  RunOptions o;
  o.seed = 5;
  o.seconds = 0.2;
  o.tiny = true;
  o.max_threads = 2;
  o.work_dir = std::string("perfbench_test_work/") + name;  // under the cwd
  return o;
}

void ExpectClean(const RunResult& r, size_t metrics) {
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GE(r.attempted, 1u);
  for (const std::string& f : r.failures) ADD_FAILURE() << f;
  EXPECT_EQ(r.end_to_end.size() + r.per_layer.size(), metrics);
}

TEST(Workloads, TinyAuditCold) {
  ExpectClean(RunAuditCold(Tiny("audit")), 4);
}

TEST(Workloads, TinyAuditFleetWarm) {
  ExpectClean(RunAuditFleetWarm(Tiny("fleet")), 4);
}

TEST(Workloads, TinyPolicyChurn) {
  ExpectClean(RunPolicyChurn(Tiny("churn")), 4);
}

TEST(Workloads, TinyGuardServing) {
  RunResult r = RunGuardServing(Tiny("guard"));
  ExpectClean(r, 4);
}

TEST(Workloads, TinyTracedRunsReportEveryLayer) {
  RunOptions o = Tiny("traced");
  o.trace = true;
  RunResult audit = RunAuditCold(o);
  EXPECT_TRUE(audit.correct);
  EXPECT_TRUE(audit.end_to_end.empty());
  RunResult guard = RunGuardServing(o);
  EXPECT_TRUE(guard.correct);
  EXPECT_EQ(audit.per_layer.size(), guard.per_layer.size());
}

}  // namespace
}  // namespace perfbench
