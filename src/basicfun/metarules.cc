#include "basicfun/metarules.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace oodbsec::basicfun {

using core::BasicRule;
using core::kResultPos;
using core::RuleAtom;
using types::Value;
using types::ValueSet;

types::DomainMap DefaultSampleDomains(const types::TypePool& pool) {
  types::DomainMap map;
  map.Set(pool.Int(), types::Domain::IntRange(pool.Int(), -4, 4));
  map.Set(pool.Bool(), types::Domain::Bools(pool.Bool()));
  map.Set(pool.String(),
          types::Domain::Strings(pool.String(), {"", "a", "b", "ab"}));
  return map;
}

common::Result<std::unique_ptr<MetaruleEngine>> MetaruleEngine::Create(
    const exec::BasicFunction& fn, const types::DomainMap& domains) {
  std::unique_ptr<MetaruleEngine> engine(new MetaruleEngine());
  engine->fn_ = &fn;
  std::vector<const types::Domain*> arg_domains;
  for (const types::Type* type : fn.params()) {
    const types::Domain* domain = domains.Find(type);
    if (domain == nullptr) {
      return common::NotFoundError(common::StrCat(
          "no sample domain for parameter type ", type->ToString(), " of ",
          fn.SignatureToString()));
    }
    engine->arg_domains_.push_back(domain->values());
    arg_domains.push_back(domain);
  }
  const types::Domain* result_domain = domains.Find(fn.result());
  if (result_domain == nullptr) {
    return common::NotFoundError(common::StrCat(
        "no sample domain for result type of ", fn.SignatureToString()));
  }
  engine->result_domain_ = result_domain->values();

  for (types::ProductIterator it(arg_domains); it.has_value(); it.Next()) {
    engine->rows_.push_back(it.assignment());
    engine->results_.push_back(fn.Eval(it.assignment()));
  }
  return engine;
}

// ---------------------------------------------------------------------
// Template conditions. Binary helpers treat `i` as the varied argument
// and the single remaining argument as the fix; arity is 1 or 2 for
// everything in the default catalog.

namespace {
int OtherArg(int i) { return 1 - i; }
}  // namespace

bool MetaruleEngine::TaSweep(int i) const {
  if (arity() == 1) {
    std::set<Value> covered(results_.begin(), results_.end());
    return covered.size() == result_domain_.size();
  }
  int j = OtherArg(i);
  for (const Value& vj : ArgDomain(j)) {
    std::set<Value> covered;
    for (size_t k = 0; k < rows_.size(); ++k) {
      if (rows_[k][static_cast<size_t>(j)] == vj) covered.insert(results_[k]);
    }
    if (covered.size() == result_domain_.size()) return true;
  }
  return false;
}

bool MetaruleEngine::PaToTaResult(int i) const {
  if (result_domain_.size() > 2) return false;
  if (arity() == 1) {
    std::set<Value> covered(results_.begin(), results_.end());
    return covered.size() == result_domain_.size();
  }
  int j = OtherArg(i);
  for (const Value& vj : ArgDomain(j)) {
    std::set<Value> covered;
    for (size_t k = 0; k < rows_.size(); ++k) {
      if (rows_[k][static_cast<size_t>(j)] == vj) covered.insert(results_[k]);
    }
    if (covered.size() == result_domain_.size()) return true;
  }
  return false;
}

bool MetaruleEngine::PaPerturb(int i) const {
  if (arity() == 1) {
    std::set<Value> covered(results_.begin(), results_.end());
    return covered.size() >= 2;
  }
  int j = OtherArg(i);
  for (const Value& vj : ArgDomain(j)) {
    std::set<Value> covered;
    for (size_t k = 0; k < rows_.size(); ++k) {
      if (rows_[k][static_cast<size_t>(j)] == vj) covered.insert(results_[k]);
    }
    if (covered.size() >= 2) return true;
  }
  return false;
}

bool MetaruleEngine::TiAbsorb(int i) const {
  if (arity() == 1) return true;  // determinism
  for (const Value& vi : ArgDomain(i)) {
    std::set<Value> image;
    for (size_t k = 0; k < rows_.size(); ++k) {
      if (rows_[k][static_cast<size_t>(i)] == vi) image.insert(results_[k]);
    }
    if (image.size() == 1) return true;
  }
  return false;
}

bool MetaruleEngine::PiRestrict(int i) const {
  for (const Value& vi : ArgDomain(i)) {
    std::set<Value> image;
    for (size_t k = 0; k < rows_.size(); ++k) {
      if (rows_[k][static_cast<size_t>(i)] == vi) image.insert(results_[k]);
    }
    if (image.size() < result_domain_.size()) return true;
  }
  return false;
}

bool MetaruleEngine::ResultBounds(int i) const {
  for (const Value& r : result_domain_) {
    std::set<Value> preimage;
    for (size_t k = 0; k < rows_.size(); ++k) {
      if (results_[k] == r) preimage.insert(rows_[k][static_cast<size_t>(i)]);
    }
    if (!preimage.empty() && preimage.size() < ArgDomain(i).size()) {
      return true;
    }
  }
  return false;
}

bool MetaruleEngine::ResultGivenOtherBounds(int i) const {
  if (arity() == 1) return ResultBounds(i);
  int j = OtherArg(i);
  for (const Value& vj : ArgDomain(j)) {
    std::map<Value, size_t> counts;
    for (size_t k = 0; k < rows_.size(); ++k) {
      if (rows_[k][static_cast<size_t>(j)] == vj) ++counts[results_[k]];
    }
    for (const auto& [r, count] : counts) {
      if (count < ArgDomain(i).size()) return true;
    }
  }
  return false;
}

bool MetaruleEngine::Invertible(int i) const {
  if (arity() == 1) {
    for (const Value& r : result_domain_) {
      size_t count = 0;
      for (size_t k = 0; k < rows_.size(); ++k) {
        if (results_[k] == r) ++count;
      }
      if (count == 1) return true;
    }
    return false;
  }
  int j = OtherArg(i);
  for (const Value& vj : ArgDomain(j)) {
    std::map<Value, int> counts;
    for (size_t k = 0; k < rows_.size(); ++k) {
      if (rows_[k][static_cast<size_t>(j)] == vj) ++counts[results_[k]];
    }
    for (const auto& [r, count] : counts) {
      if (count == 1) return true;
    }
  }
  return false;
}

bool MetaruleEngine::InvertibleAlways(int i) const {
  if (arity() == 1) {
    std::set<Value> seen;
    for (const Value& r : results_) {
      if (!seen.insert(r).second) return false;
    }
    return true;
  }
  int j = OtherArg(i);
  std::map<std::pair<Value, Value>, int> counts;  // (vj, r) -> count
  for (size_t k = 0; k < rows_.size(); ++k) {
    if (++counts[{rows_[k][static_cast<size_t>(j)], results_[k]}] > 1) {
      return false;
    }
  }
  return true;
}

bool MetaruleEngine::Probe(int target) const {
  if (arity() != 2) return false;
  int sweep = OtherArg(target);
  const ValueSet& targets = ArgDomain(target);
  for (size_t a = 0; a < targets.size(); ++a) {
    for (size_t b = a + 1; b < targets.size(); ++b) {
      bool separated = false;
      for (const Value& vs : ArgDomain(sweep)) {
        ValueSet args_a(2), args_b(2);
        args_a[static_cast<size_t>(sweep)] = vs;
        args_b[static_cast<size_t>(sweep)] = vs;
        args_a[static_cast<size_t>(target)] = targets[a];
        args_b[static_cast<size_t>(target)] = targets[b];
        if (!(fn_->Eval(args_a) == fn_->Eval(args_b))) {
          separated = true;
          break;
        }
      }
      if (!separated) return false;
    }
  }
  return true;
}

bool MetaruleEngine::ResultPairs() const {
  std::set<Value> distinct(results_.begin(), results_.end());
  return distinct.size() >= 2;  // any result's preimage is then proper
}

bool MetaruleEngine::ImageProper() const {
  std::set<Value> image(results_.begin(), results_.end());
  return image.size() < result_domain_.size();
}

bool MetaruleEngine::ArgTiesPair(int i) const {
  if (arity() != 2) return false;
  int j = OtherArg(i);
  // Fixing v_i, the reachable (v_j, result) pairs number |Dom(j)|, which
  // is proper in Dom(j) x Dom(result) as soon as the result domain has
  // two values.
  (void)j;
  return result_domain_.size() >= 2;
}

bool MetaruleEngine::CornerPins(int i, int target) const {
  if (arity() != 2) return false;
  const ValueSet& di = ArgDomain(i);
  const ValueSet& dr = result_domain_;
  const ValueSet& dt = ArgDomain(target);
  auto consistent_count = [&](const std::vector<Value>& si,
                              const std::vector<Value>& sr) {
    int count = 0;
    for (const Value& vt : dt) {
      bool possible = false;
      for (const Value& vi : si) {
        ValueSet args(2);
        args[static_cast<size_t>(i)] = vi;
        args[static_cast<size_t>(target)] = vt;
        Value r = fn_->Eval(args);
        if (std::find(sr.begin(), sr.end(), r) != sr.end()) {
          possible = true;
          break;
        }
      }
      if (possible) ++count;
    }
    return count;
  };
  // Candidate sets of size <= 2 (the paper's {2,3} x {4,5} example).
  for (size_t a = 0; a < di.size(); ++a) {
    for (size_t b = a; b < di.size(); ++b) {
      std::vector<Value> si;
      si.reserve(2);
      si.push_back(di[a]);
      if (b != a) si.push_back(di[b]);
      if (si.size() >= di.size()) continue;  // must be a proper subset
      for (size_t c = 0; c < dr.size(); ++c) {
        for (size_t d = c; d < dr.size(); ++d) {
          std::vector<Value> sr;
          sr.reserve(2);
          sr.push_back(dr[c]);
          if (d != c) sr.push_back(dr[d]);
          if (sr.size() >= dr.size()) continue;
          if (consistent_count(si, sr) == 1) return true;
        }
      }
    }
  }
  return false;
}

bool MetaruleEngine::PairPins(int i, int target) const {
  if (arity() != 2) return false;
  const ValueSet& di = ArgDomain(i);
  const ValueSet& dr = result_domain_;
  const ValueSet& dt = ArgDomain(target);
  // Candidate pair sets S of size 1 (singleton (v_i, r) already pins the
  // target for e.g. multiplication).
  for (const Value& vi : di) {
    for (const Value& r : dr) {
      int count = 0;
      for (const Value& vt : dt) {
        ValueSet args(2);
        args[static_cast<size_t>(i)] = vi;
        args[static_cast<size_t>(target)] = vt;
        if (fn_->Eval(args) == r) ++count;
      }
      if (count == 1) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// Rule validation: recognize the rule's shape, check the corresponding
// condition.

common::Result<bool> MetaruleEngine::ValidateRule(
    const BasicRule& rule) const {
  auto premise_is = [&](size_t index, RuleAtom::Pred pred, int pos) {
    return index < rule.premises.size() &&
           rule.premises[index].pred == pred &&
           rule.premises[index].pos == pos;
  };
  const RuleAtom& c = rule.conclusion;
  const auto& p = rule.premises;

  // {} -> pi[R].
  if (p.empty() && c.pred == RuleAtom::Pred::kPi && c.pos == kResultPos) {
    return ImageProper();
  }

  if (p.size() == 1) {
    const RuleAtom& a = p[0];
    bool a_is_arg = a.pos != kResultPos;
    bool c_is_result = c.pos == kResultPos;
    if (a.pred == RuleAtom::Pred::kTa && a_is_arg && c_is_result &&
        c.pred == RuleAtom::Pred::kTa) {
      return TaSweep(a.pos);
    }
    if (a.pred == RuleAtom::Pred::kPa && a_is_arg && c_is_result &&
        c.pred == RuleAtom::Pred::kTa) {
      return PaToTaResult(a.pos);
    }
    if (a.pred == RuleAtom::Pred::kPa && a_is_arg && c_is_result &&
        c.pred == RuleAtom::Pred::kPa) {
      return PaPerturb(a.pos);
    }
    if (a.pred == RuleAtom::Pred::kTi && a_is_arg && c_is_result &&
        c.pred == RuleAtom::Pred::kTi) {
      return arity() == 1 ? true : TiAbsorb(a.pos);
    }
    if (a.pred == RuleAtom::Pred::kPi && a_is_arg && c_is_result &&
        c.pred == RuleAtom::Pred::kPi) {
      return PiRestrict(a.pos);
    }
    if (a.pred == RuleAtom::Pred::kTi && !a_is_arg &&
        c.pred == RuleAtom::Pred::kPi && c.pos != kResultPos) {
      return ResultBounds(c.pos);
    }
    if (a.pred == RuleAtom::Pred::kPi && !a_is_arg &&
        c.pred == RuleAtom::Pred::kPi && c.pos != kResultPos) {
      return ResultBounds(c.pos);
    }
    if (a.pred == RuleAtom::Pred::kTi && !a_is_arg &&
        c.pred == RuleAtom::Pred::kTi && c.pos != kResultPos) {
      return InvertibleAlways(c.pos);
    }
    if (a.pred == RuleAtom::Pred::kTi && !a_is_arg &&
        c.pred == RuleAtom::Pred::kPiStar && c.pos != kResultPos &&
        c.pos2 != kResultPos) {
      return ResultPairs();
    }
    if (a.pred == RuleAtom::Pred::kPi && !a_is_arg &&
        c.pred == RuleAtom::Pred::kPiStar && c.pos != kResultPos &&
        c.pos2 != kResultPos) {
      return ResultPairs();
    }
    if (a.pred == RuleAtom::Pred::kPi && a_is_arg &&
        c.pred == RuleAtom::Pred::kPiStar) {
      return ArgTiesPair(a.pos);
    }
    if (a.pred == RuleAtom::Pred::kPiStar && c.pred == RuleAtom::Pred::kTi &&
        c.pos == kResultPos) {
      return true;  // the pair set may be a singleton; determinism
    }
    if (a.pred == RuleAtom::Pred::kPiStar &&
        (a.pos == kResultPos || a.pos2 == kResultPos) &&
        c.pred == RuleAtom::Pred::kTi && c.pos != kResultPos) {
      int other = a.pos == kResultPos ? a.pos2 : a.pos;
      return PairPins(other, c.pos);
    }
  }

  if (p.size() == 2) {
    // {ti[0], ti[1]} -> ti[R] (determinism).
    if (premise_is(0, RuleAtom::Pred::kTi, 0) &&
        premise_is(1, RuleAtom::Pred::kTi, 1) &&
        c.pred == RuleAtom::Pred::kTi && c.pos == kResultPos) {
      return true;
    }
    // {pi[0], pi[1]} -> ti[R] or pi[R] (singleton candidate sets +
    // determinism).
    if (premise_is(0, RuleAtom::Pred::kPi, 0) &&
        premise_is(1, RuleAtom::Pred::kPi, 1) && c.pos == kResultPos &&
        (c.pred == RuleAtom::Pred::kTi || c.pred == RuleAtom::Pred::kPi)) {
      return true;
    }
    // {ti[R], ti[j]} -> ti[i] / pi[i].
    auto two_with_result = [&](RuleAtom::Pred arg_pred) -> const RuleAtom* {
      const RuleAtom* arg_atom = nullptr;
      bool has_result = false;
      for (const RuleAtom& atom : p) {
        if (atom.pos == kResultPos && atom.pred == RuleAtom::Pred::kTi) {
          has_result = true;
        } else if (atom.pos != kResultPos && atom.pred == arg_pred) {
          arg_atom = &atom;
        }
      }
      return has_result ? arg_atom : nullptr;
    };
    if (const RuleAtom* arg = two_with_result(RuleAtom::Pred::kTi);
        arg != nullptr && c.pos != kResultPos && c.pos != arg->pos) {
      if (c.pred == RuleAtom::Pred::kTi) return Invertible(c.pos);
      if (c.pred == RuleAtom::Pred::kPi) return ResultBounds(c.pos);
    }
    // {pi[i], ti[R]} -> pi[j]: a singleton candidate for i plus the
    // observed result may bound j (e.g. == pins it exactly).
    if (const RuleAtom* arg = two_with_result(RuleAtom::Pred::kPi);
        arg != nullptr && c.pos != kResultPos && c.pos != arg->pos &&
        c.pred == RuleAtom::Pred::kPi) {
      return ResultGivenOtherBounds(c.pos);
    }
    // {pi[R], ti[j]} -> pi[i]: a bounded result plus a known other
    // argument bounds the remaining argument.
    {
      const RuleAtom* ti_arg = nullptr;
      bool has_pi_result_atom = false;
      for (const RuleAtom& atom : p) {
        if (atom.pos == kResultPos && atom.pred == RuleAtom::Pred::kPi) {
          has_pi_result_atom = true;
        } else if (atom.pos != kResultPos &&
                   atom.pred == RuleAtom::Pred::kTi) {
          ti_arg = &atom;
        }
      }
      if (has_pi_result_atom && ti_arg != nullptr &&
          c.pred == RuleAtom::Pred::kPi && c.pos != kResultPos &&
          c.pos != ti_arg->pos) {
        return ResultGivenOtherBounds(c.pos);
      }
    }
    // {pi[i]/pa[i], pi[R]} -> ti[j] (the corner template).
    const RuleAtom* arg_atom = nullptr;
    bool has_pi_result = false;
    for (const RuleAtom& atom : p) {
      if (atom.pos == kResultPos && atom.pred == RuleAtom::Pred::kPi) {
        has_pi_result = true;
      } else if (atom.pos != kResultPos &&
                 (atom.pred == RuleAtom::Pred::kPi ||
                  atom.pred == RuleAtom::Pred::kPa)) {
        arg_atom = &atom;
      }
    }
    if (has_pi_result && arg_atom != nullptr &&
        c.pred == RuleAtom::Pred::kTi && c.pos != kResultPos &&
        c.pos != arg_atom->pos) {
      return CornerPins(arg_atom->pos, c.pos);
    }
  }

  if (p.size() == 3) {
    // {ti[i], pa[i], ti[R]} -> ti[j] (the probe template).
    int swept = -2;
    bool has_ti_arg = false, has_pa_arg = false, has_ti_result = false;
    for (const RuleAtom& atom : p) {
      if (atom.pos == kResultPos) {
        if (atom.pred == RuleAtom::Pred::kTi) has_ti_result = true;
      } else {
        if (atom.pred == RuleAtom::Pred::kTi) {
          has_ti_arg = true;
          swept = atom.pos;
        }
        if (atom.pred == RuleAtom::Pred::kPa) has_pa_arg = true;
      }
    }
    if (has_ti_arg && has_pa_arg && has_ti_result &&
        c.pred == RuleAtom::Pred::kTi && c.pos != kResultPos &&
        c.pos != swept) {
      return Probe(c.pos);
    }
  }

  return common::UnimplementedError(common::StrCat(
      "no metarule template matches rule: ", rule.ToString()));
}

// ---------------------------------------------------------------------
// Synthesis.

std::vector<BasicRule> MetaruleEngine::Synthesize() const {
  using core::Pa;
  using core::Pi;
  using core::PiStar;
  using core::Ta;
  using core::Ti;
  std::vector<BasicRule> rules;
  const std::string& op = fn_->name();
  auto add = [&](const char* tmpl, std::vector<RuleAtom> premises,
                 RuleAtom conclusion) {
    rules.push_back({common::StrCat(op, ": MT-", tmpl),
                     std::move(premises), conclusion});
  };

  int n = static_cast<int>(arity());
  for (int i = 0; i < n; ++i) {
    if (TaSweep(i)) add("sweep", {Ta(i)}, Ta(kResultPos));
    if (PaToTaResult(i)) {
      add("flip", {Pa(i)}, Ta(kResultPos));
    } else if (PaPerturb(i)) {
      add("perturb", {Pa(i)}, Pa(kResultPos));
    }
    if (arity() == 1 || TiAbsorb(i)) add("absorb", {Ti(i)}, Ti(kResultPos));
    if (PiRestrict(i)) add("restrict", {Pi(i)}, Pi(kResultPos));
    if (ResultBounds(i)) add("bound", {Ti(kResultPos)}, Pi(i));
    if (arity() == 1 && InvertibleAlways(i)) {
      add("invert", {Ti(kResultPos)}, Ti(i));
    }
    if (arity() == 2) {
      int j = OtherArg(i);
      if (Invertible(i)) add("invert", {Ti(kResultPos), Ti(j)}, Ti(i));
      if (Probe(i)) add("probe", {Ti(j), Pa(j), Ti(kResultPos)}, Ti(i));
      if (ArgTiesPair(i)) add("tie", {Pi(i)}, PiStar(j, kResultPos));
      if (CornerPins(j, i)) add("corner", {Pi(j), Pi(kResultPos)}, Ti(i));
      if (PairPins(j, i)) add("pair-pin", {PiStar(j, kResultPos)}, Ti(i));
    }
  }
  if (arity() == 2) {
    add("known-args", {Ti(0), Ti(1)}, Ti(kResultPos));
    if (ResultPairs()) add("pairs", {Ti(kResultPos)}, PiStar(0, 1));
  }
  if (ImageProper()) add("image", {}, Pi(kResultPos));
  return rules;
}

}  // namespace oodbsec::basicfun
