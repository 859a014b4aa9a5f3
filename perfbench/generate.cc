// Seeded workspace generators. Every workload is built from the paper's
// §3.1 stockbroker template, replicated into departments on one shared
// Broker class: department i has salary_i/budget_i/profit_i and the
// checkBudget_i / calcSalary_i / updateSalary_i family. Seeds choose
// which departments a role holds and which requirements a user carries;
// the *amount* of work per seed is fixed (bundle sizes, role counts and
// requirement counts are constants), so run-to-run spread across seeds
// measures the system, not the draw.
//
// Expected verdicts come from construction. A requirement on
// r_salary_i : ti is NOT SATISFIED exactly when the user holds the
// clerk's shape {checkBudget_i, w_budget_i}; one on w_salary_i : ta when
// the user holds the updater's shape {updateSalary_i, w_budget_i,
// w_profit_i}; both are SATISFIED when the user holds nothing of
// department i. No other requirement is ever emitted.
#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "perfbench.h"

namespace perfbench {

using oodbsec::common::StrCat;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Exponential(double mean) {
  // 53 random bits -> (0, 1].
  double u = (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
  return -mean * std::log(u);
}

namespace {

// The stream policy_churn draws its changes from, whatever the seed.
constexpr uint64_t kChurnWalkStream = 0x636875726e;  // "churn"

std::vector<std::string> BundleFunctions(int i, Bundle bundle) {
  std::vector<std::string> out;
  if (bundle == Bundle::kInfer || bundle == Bundle::kFull) {
    out.push_back(StrCat("checkBudget", i));
  }
  if (bundle == Bundle::kAlter || bundle == Bundle::kFull) {
    out.push_back(StrCat("updateSalary", i));
  }
  if (bundle != Bundle::kNone) out.push_back(StrCat("w_budget", i));
  if (bundle == Bundle::kAlter || bundle == Bundle::kFull) {
    out.push_back(StrCat("w_profit", i));
  }
  return out;
}

std::string InferRequirement(const std::string& user, int i) {
  return StrCat("require (", user, ", r_salary", i, "(x) : ti);\n");
}
std::string AlterRequirement(const std::string& user, int i) {
  return StrCat("require (", user, ", w_salary", i, "(a, v : ta));\n");
}

// Schema, functions and a few seeded objects. `ledger` adds an
// unrelated Ledger class whose functions share no attribute, call or
// argument type with any Broker function.
std::string SchemaText(int departments, bool ledger) {
  std::string text = "class Broker {\n  name: string;\n";
  for (int i = 0; i < departments; ++i) {
    text += StrCat("  salary", i, ": int;\n  budget", i, ": int;\n  profit", i,
                   ": int;\n");
  }
  text += "}\n\n";
  for (int i = 0; i < departments; ++i) {
    text += StrCat("function checkBudget", i, "(broker: Broker): bool =\n",
                   "  r_budget", i, "(broker) >= 10 * r_salary", i,
                   "(broker);\n");
    text += StrCat("function calcSalary", i,
                   "(budget: int, profit: int): int =\n",
                   "  budget / 10 + profit / 2;\n");
    text += StrCat("function updateSalary", i, "(broker: Broker): null =\n",
                   "  w_salary", i, "(broker, calcSalary", i, "(r_budget", i,
                   "(broker), r_profit", i, "(broker)));\n\n");
  }
  if (ledger) {
    text += "class Ledger {\n  amount: int;\n  limit: int;\n}\n\n";
    for (int k = 0; k < 4; ++k) {
      text += StrCat("function ledgerCheck", k, "(l: Ledger): bool =\n",
                     "  r_amount(l) >= ", k + 1, " * r_limit(l);\n");
    }
    text += "\n";
  }
  return text;
}

std::string ObjectsText(int departments, bool ledger, Rng& rng) {
  std::string text;
  for (int b = 0; b < 3; ++b) {
    text += StrCat("object Broker { name = \"broker", b, "\"");
    for (int i = 0; i < departments; ++i) {
      text += StrCat(", salary", i, " = ", 30 + rng.Below(70), ", budget", i,
                     " = ", 300 + rng.Below(700), ", profit", i, " = ",
                     rng.Below(50));
    }
    text += " }\n";
  }
  if (ledger) {
    for (int l = 0; l < 2; ++l) {
      text += StrCat("object Ledger { amount = ", rng.Below(1000),
                     ", limit = ", 1 + rng.Below(100), " }\n");
    }
  }
  return text;
}

std::string UserLine(const std::string& name,
                     const std::vector<std::string>& functions) {
  std::string line = StrCat("user ", name, " can r_name");
  for (const std::string& f : functions) line += StrCat(", ", f);
  return line + ";\n";
}

// One role of an audit family: a bundle per department, replicated
// over `users` user accounts.
struct Role {
  std::string name;
  std::vector<Bundle> bundles;  // indexed by department
  int users = 1;
};

// Writes users and scored requirements for every role: each user
// carries up to `violated` requirements on departments it holds (the
// kind its bundle makes NOT SATISFIED) and up to `satisfied` on
// departments it holds nothing of.
void WriteRoles(const std::vector<Role>& roles, int violated, int satisfied,
                Rng& rng, GeneratedWorkspace& out) {
  std::string users_text, requirements_text;
  for (const Role& role : roles) {
    std::vector<std::string> functions;
    for (size_t i = 0; i < role.bundles.size(); ++i) {
      for (std::string& f : BundleFunctions(static_cast<int>(i), role.bundles[i])) {
        functions.push_back(std::move(f));
      }
    }
    for (int u = 0; u < role.users; ++u) {
      std::string user = StrCat(role.name, "_", u);
      users_text += UserLine(user, functions);
      // Candidate requirements, then a seeded pick of each kind.
      std::vector<std::string> bad, good;
      for (size_t i = 0; i < role.bundles.size(); ++i) {
        int d = static_cast<int>(i);
        switch (role.bundles[i]) {
          case Bundle::kInfer:
            bad.push_back(InferRequirement(user, d));
            break;
          case Bundle::kAlter:
            bad.push_back(AlterRequirement(user, d));
            break;
          case Bundle::kFull:
            bad.push_back(rng.Below(2) == 0 ? InferRequirement(user, d)
                                            : AlterRequirement(user, d));
            break;
          case Bundle::kNone:
            good.push_back(rng.Below(2) == 0 ? InferRequirement(user, d)
                                             : AlterRequirement(user, d));
            break;
        }
      }
      rng.Shuffle(bad);
      rng.Shuffle(good);
      for (int k = 0; k < violated && k < static_cast<int>(bad.size()); ++k) {
        requirements_text += bad[k];
        out.expected_satisfied.push_back(false);
      }
      for (int k = 0; k < satisfied && k < static_cast<int>(good.size());
           ++k) {
        requirements_text += good[k];
        out.expected_satisfied.push_back(true);
      }
    }
  }
  out.text += users_text + "\n" + requirements_text + "\n";
}

std::vector<int> Permutation(int n, Rng& rng) {
  std::vector<int> p(n);
  for (int i = 0; i < n; ++i) p[i] = i;
  rng.Shuffle(p);
  return p;
}

// Gives the first `count` departments of `pool` the given bundle.
void Assign(Role& role, const std::vector<int>& pool, int count,
            Bundle bundle) {
  for (int k = 0; k < count; ++k) role.bundles[pool[k]] = bundle;
}

}  // namespace

GeneratedWorkspace GenerateAudit(uint64_t seed, bool tiny) {
  // Full size: 20 departments, so even the 16-department role has
  // departments it holds nothing of (and thus satisfied requirements).
  const int departments = tiny ? 6 : 20;
  const int top = tiny ? 4 : 16;
  Rng rng(seed);
  GeneratedWorkspace out;
  out.text = StrCat("# perfbench audit_cold workspace, seed ", seed, "\n\n",
                    SchemaText(departments, false));

  std::vector<int> perm = Permutation(departments, rng);
  auto make_role = [&](std::string name, int users) {
    return Role{std::move(name),
                std::vector<Bundle>(departments, Bundle::kNone), users};
  };
  // desk: the scale-16 shape (full bundles on `top` departments).
  Role desk = make_role("desk", 2);
  Assign(desk, perm, top, Bundle::kFull);
  // senior ⊂ desk, junior ⊂ senior: nested bundles over desk's
  // departments, each bundle a sub-shape of its parent's.
  Role senior = make_role("senior", 3);
  std::vector<int> desk_depts(perm.begin(), perm.begin() + top);
  rng.Shuffle(desk_depts);
  const int senior_n = tiny ? 3 : 10;
  for (int k = 0; k < senior_n; ++k) {
    senior.bundles[desk_depts[k]] =
        k % 3 == 0 ? Bundle::kFull : (k % 3 == 1 ? Bundle::kInfer : Bundle::kAlter);
  }
  Role junior = make_role("junior", 4);
  const int junior_n = tiny ? 2 : 5;
  for (int k = 0; k < junior_n; ++k) {
    junior.bundles[desk_depts[k]] = senior.bundles[desk_depts[k]];
  }
  // Three independent roles over fresh draws of departments.
  Role clerk = make_role("clerk", 4);
  Assign(clerk, Permutation(departments, rng), tiny ? 2 : 8, Bundle::kInfer);
  Role updater = make_role("updater", 4);
  Assign(updater, Permutation(departments, rng), tiny ? 2 : 6, Bundle::kAlter);
  Role analyst = make_role("analyst", 6);
  Assign(analyst, Permutation(departments, rng), tiny ? 1 : 3, Bundle::kFull);
  std::vector<Role> roles = {std::move(desk),  std::move(senior),
                             std::move(junior), std::move(clerk),
                             std::move(updater), std::move(analyst)};

  WriteRoles(roles, 2, 2, rng, out);
  out.text += ObjectsText(departments, false, rng);
  return out;
}

GeneratedWorkspace GenerateFleet(uint64_t seed, bool tiny) {
  const int departments = tiny ? 4 : 12;
  const int role_count = tiny ? 4 : 40;
  Rng rng(seed);
  GeneratedWorkspace out;
  out.text = StrCat("# perfbench audit_fleet_warm workspace, seed ", seed,
                    "\n\n", SchemaText(departments, false));
  // Many small signatures: role k holds 1 + k%3 departments whose
  // shapes cycle through infer/alter/full (fixed per k, so every seed
  // does the same amount of work); the seed picks the departments, and
  // a draw that repeats an earlier role is redrawn so every role is its
  // own signature.
  std::vector<Role> roles;
  std::set<std::vector<Bundle>> seen;
  for (int k = 0; k < role_count; ++k) {
    Role role{StrCat("team", k),
              std::vector<Bundle>(departments, Bundle::kNone), 3};
    do {
      std::fill(role.bundles.begin(), role.bundles.end(), Bundle::kNone);
      std::vector<int> perm = Permutation(departments, rng);
      for (int d = 0; d < 1 + k % 3; ++d) {
        role.bundles[perm[d]] = static_cast<Bundle>(1 + (k / 3 + d) % 3);
      }
    } while (!seen.insert(role.bundles).second);
    roles.push_back(std::move(role));
  }
  WriteRoles(roles, 2, 1, rng, out);
  out.text += ObjectsText(departments, false, rng);
  return out;
}

ChurnPlan GenerateChurn(uint64_t seed, bool tiny) {
  // Per heavy user: 2 departments with an r_salary : ti requirement
  // (clerk's shape held throughout), 2 with a w_salary : ta requirement
  // (updater's shape held throughout), 2 guarded departments it never
  // touches (satisfied requirements), and the rest free. Toggleable
  // functions: the extra functions of the requirement departments that
  // keep their scored shape, and every function of a free department.
  // The seed picks each user's departments; the changes are drawn from
  // a stream of their own that every seed shares, over toggle lists that
  // have the same layout for every seed, so every seed walks the same
  // path through the same shapes under other department names and does
  // the same work.
  const int departments = tiny ? 8 : 16;
  const int heavy = tiny ? 2 : 4;
  Rng rng(seed);
  ChurnPlan plan;
  plan.workspace.text = StrCat("# perfbench policy_churn workspace, seed ",
                               seed, "\n\n",
                               SchemaText(departments, false));
  std::string users_text, requirements_text;
  std::vector<std::vector<std::string>>& toggles = plan.toggles;
  std::vector<std::set<std::string>>& held = plan.held;
  toggles.resize(heavy);
  held.resize(heavy);
  int requirement_index = 0;
  for (int u = 0; u < heavy; ++u) {
    std::string name = StrCat("heavy", u);
    plan.users.push_back(name);
    plan.user_requirements.emplace_back();
    std::vector<int> perm = Permutation(departments, rng);
    std::vector<std::string> fixed;
    for (int k = 0; k < 2; ++k) {  // infer-required departments
      int d = perm[k];
      for (std::string& f : BundleFunctions(d, Bundle::kInfer)) fixed.push_back(f);
      toggles[u].push_back(StrCat("updateSalary", d));
      toggles[u].push_back(StrCat("w_profit", d));
      requirements_text += InferRequirement(name, d);
    }
    for (int k = 2; k < 4; ++k) {  // alter-required departments
      int d = perm[k];
      for (std::string& f : BundleFunctions(d, Bundle::kAlter)) fixed.push_back(f);
      toggles[u].push_back(StrCat("checkBudget", d));
      requirements_text += AlterRequirement(name, d);
    }
    for (int k = 4; k < 6; ++k) {  // guarded: never granted
      int d = perm[k];
      requirements_text += rng.Below(2) == 0 ? InferRequirement(name, d)
                                             : AlterRequirement(name, d);
    }
    for (int k = 0; k < 6; ++k) {
      plan.user_requirements[u].push_back(requirement_index++);
      plan.workspace.expected_satisfied.push_back(k >= 4);
    }
    // Free departments: the first half start fully held, the rest not
    // at all, so every seed starts from closures of the same size.
    std::vector<std::string> grants = fixed;
    for (int k = 6; k < departments; ++k) {
      for (std::string& f : BundleFunctions(perm[k], Bundle::kFull)) {
        if (k < 6 + (departments - 6) / 2) grants.push_back(f);
        toggles[u].push_back(std::move(f));
      }
    }
    held[u].insert(grants.begin(), grants.end());
    users_text += UserLine(name, grants);
  }
  plan.workspace.text += users_text + "\n" + requirements_text + "\n" +
                         ObjectsText(departments, false, rng);
  plan.rng = Rng(kChurnWalkStream);
  return plan;
}

ChurnOp ChurnPlan::Next() {
  ChurnOp op;
  op.user = static_cast<int>(rng.Below(users.size()));
  std::vector<std::string> have, lack;
  for (const std::string& f : toggles[op.user]) {
    (held[op.user].contains(f) ? have : lack).push_back(f);
  }
  op.revoke = have[rng.Below(have.size())];
  op.grant = lack[rng.Below(lack.size())];
  held[op.user].erase(op.revoke);
  held[op.user].insert(op.grant);
  return op;
}

namespace {

struct GuardSession {
  std::string user;
  int thread = 0;
  std::vector<int> required;  // departments with r_salary : ti
  int free_dept = 0;
  std::set<std::string> committed;
  std::vector<std::string> allowed_queries;
  int issued = 0;
};

std::string BrokerQuery(const std::string& function) {
  if (function.starts_with("w_")) {
    return StrCat("select ", function, "(b, 5) from b in Broker");
  }
  return StrCat("select ", function, "(b) from b in Broker");
}

}  // namespace

GuardPlan GenerateGuard(uint64_t seed, double seconds, double rate_per_s,
                        int serving_threads, bool tiny) {
  // Each session is a fresh user holding r_name, the Ledger functions and
  // full bundles on three departments: two carry an r_salary : ti
  // requirement, one is free. A session issues kSessionLength requests;
  // kActive sessions are interleaved at any time.
  const int departments = tiny ? 4 : 8;
  const int kSessionLength = 12;
  const int kActive = tiny ? 4 : 24;
  Rng rng(seed);
  GuardPlan plan;
  const size_t request_count =
      std::max<size_t>(1, static_cast<size_t>(seconds * rate_per_s));
  const size_t session_count =
      request_count / kSessionLength + static_cast<size_t>(kActive) + 1;

  std::vector<GuardSession> sessions(session_count);
  std::string users_text, requirements_text;
  for (size_t s = 0; s < session_count; ++s) {
    GuardSession& session = sessions[s];
    session.user = StrCat("s", s);
    session.thread = static_cast<int>(s % serving_threads);
    std::vector<int> perm = Permutation(departments, rng);
    session.required = {perm[0], perm[1]};
    session.free_dept = perm[2];
    std::vector<std::string> grants;
    for (int k = 0; k < 3; ++k) {
      for (std::string& f : BundleFunctions(perm[k], Bundle::kFull)) {
        grants.push_back(std::move(f));
      }
    }
    for (int k = 0; k < 4; ++k) grants.push_back(StrCat("ledgerCheck", k));
    users_text += UserLine(session.user, grants);
    for (int d : session.required) {
      requirements_text += InferRequirement(session.user, d);
      // Statically NOT SATISFIED: the user holds the clerk's shape. The
      // guard workload scores per-request decisions, not these.
      plan.workspace.expected_satisfied.push_back(false);
    }
  }
  plan.workspace.text = StrCat("# perfbench guard_serving workspace, seed ",
                               seed, "\n\n",
                               SchemaText(departments, true), users_text,
                               "\n", requirements_text, "\n",
                               ObjectsText(departments, true, rng));

  std::vector<size_t> active;
  size_t next_session = 0;
  for (int k = 0; k < kActive; ++k) active.push_back(next_session++);
  double due = 0;
  for (size_t r = 0; r < request_count; ++r) {
    due += rng.Exponential(1.0 / rate_per_s);
    size_t slot = rng.Below(active.size());
    GuardSession& session = sessions[active[slot]];

    // Candidate functions by kind, given the session's committed set.
    std::vector<std::string> grow, probe;
    for (int d : session.required) {
      std::string check = StrCat("checkBudget", d);
      std::string write = StrCat("w_budget", d);
      bool has_check = session.committed.contains(check);
      bool has_write = session.committed.contains(write);
      if (!has_check && !has_write) {
        grow.push_back(check);
        grow.push_back(write);
      } else if (has_check != has_write) {
        probe.push_back(has_check ? write : check);
      }
    }
    for (std::string& f : BundleFunctions(session.free_dept, Bundle::kFull)) {
      if (!session.committed.contains(f)) grow.push_back(std::move(f));
    }
    if (!session.committed.contains("r_name")) grow.push_back("r_name");
    std::vector<std::string> unrelated;
    for (int k = 0; k < 4; ++k) {
      std::string f = StrCat("ledgerCheck", k);
      if (!session.committed.contains(f)) unrelated.push_back(f);
    }

    // Mix: 25% repeats, 10% unrelated, 45% grows, 20% probes. Rechecks
    // (grows and probes) are the majority, so the median sits inside the
    // recheck tier rather than on the boundary between tiers, where a
    // few points of mix would swing it; the fast tiers show in the
    // per-kind table. A kind with no candidate left falls through to
    // the next available one.
    uint64_t draw = rng.Below(100);
    RequestKind kind = draw < 25   ? RequestKind::kRepeat
                       : draw < 35 ? RequestKind::kUnrelated
                       : draw < 80 ? RequestKind::kGrow
                                   : RequestKind::kProbe;
    if (session.issued == 0) kind = RequestKind::kGrow;
    if (kind == RequestKind::kProbe && probe.empty()) kind = RequestKind::kGrow;
    if (kind == RequestKind::kUnrelated && unrelated.empty()) {
      kind = RequestKind::kRepeat;
    }
    if (kind == RequestKind::kGrow && grow.empty()) kind = RequestKind::kRepeat;
    if (kind == RequestKind::kRepeat && session.allowed_queries.empty()) {
      kind = RequestKind::kGrow;
    }

    GuardRequest request;
    request.due_s = due;
    request.thread = session.thread;
    request.user = session.user;
    request.kind = kind;
    switch (kind) {
      case RequestKind::kRepeat:
        request.query = session.allowed_queries[rng.Below(
            session.allowed_queries.size())];
        break;
      case RequestKind::kUnrelated: {
        std::string f = unrelated[rng.Below(unrelated.size())];
        request.query = StrCat("select ", f, "(l) from l in Ledger");
        session.committed.insert(f);
        break;
      }
      case RequestKind::kGrow: {
        std::string f = grow[rng.Below(grow.size())];
        request.query = BrokerQuery(f);
        session.committed.insert(f);
        break;
      }
      case RequestKind::kProbe:
        request.query = BrokerQuery(probe[rng.Below(probe.size())]);
        request.expect_allowed = false;
        break;
    }
    if (request.expect_allowed && kind != RequestKind::kRepeat) {
      session.allowed_queries.push_back(request.query);
    }
    plan.requests.push_back(std::move(request));
    if (++session.issued == kSessionLength) active[slot] = next_session++;
  }
  return plan;
}

}  // namespace perfbench
