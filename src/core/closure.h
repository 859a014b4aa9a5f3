// The static inference system F(F) (paper §4.1, Table 2) and its closure
// computation.
//
// Terms range over the numbered occurrences of an UnfoldedSet:
//
//   ta[e]              the user may totally alter e
//   pa[e]              the user may partially alter e
//   ti[e, num, dir]    the user may totally infer e
//   pi[e, num, dir]    the user may partially infer e
//   pi*[(e1,e2), num, dir]  the user may infer a proper subset the pair
//                            (e1,e2) must lie in
//   =[e1, e2]          the user can recognize e1 and e2 as equal
//
// (num, dir) records how an inferability was obtained: num is the
// occurrence that produced it ('+' = from the arguments of that
// occurrence, '-' = from its result; num 0 marks axioms of observation /
// equality). The provenance serves two purposes (paper §4.1): two
// *different* partial inferabilities on the same expression join to a
// total one, and a basic-function rule must not feed an inferability
// back to the occurrence that produced it.
//
// Implementation notes:
//  * Equality is an equivalence; it is maintained as a union-find with a
//    proof forest, so every use of an equality premise can be explained
//    by base =-facts (Explain()).
//  * ti/pi/pi* live on equality classes: the Table-2 rules
//    "=[e1,e2], ti[e1] -> ti[e2]" etc. are materialized by class lookup
//    instead of fact copies. Alterability (ta/pa) does NOT propagate
//    through generic equality (only through the specific read/write and
//    let rules), so ta/pa are per-occurrence flags.
//  * Inferability origin sets are capped at a small constant per class;
//    since every guard excludes at most one origin and the join rule
//    needs two, keeping 4 distinct origins preserves completeness while
//    bounding the closure size.
//  * The hot tables are dense: per-occurrence state lives in flat
//    vectors indexed by occurrence id, origin sets are small inline
//    sorted arrays (OriginSet), and derivation premises are stored in
//    one shared arena instead of one heap vector per step. The closure
//    over a production-sized capability list is dominated by dedup
//    lookups (millions of Add* calls for tens of thousands of accepted
//    facts), so the miss path allocates nothing.
//  * pi* is most of a large closure (on the scale-16 broker, ~66k of
//    ~68k facts, over ~16.5k pairs among 130 reps — nearly the whole
//    relation). The pairs live in an open-addressed (rep, rep) -> slot
//    table (pair_table.h). Every rep holding pairs also has four bit
//    rows indexed by partner rep: its out-partners, its in-partners, and
//    the partners whose pair's origin set is full, one row per side.
//    The join (ProcessPiStar) finds its candidate conclusions as
//    word-parallel set algebra over those rows, so the ~8M proposals
//    into full pairs cost a word operation each rather than a lookup;
//    sorted per-rep adjacency lists carry the slots the survivors need
//    for their origin check and premises. A chunk also drops a join
//    candidate it already buffered earlier in the same round, which the
//    barrier would reject anyway (bit_rows.h KeyedRows). Re-keying on
//    merge folds old pairs in (first, second) order; see MergeClasses
//    for why that order is fixed.
//
// Thread-safety contract: all table *mutation* happens on the
// constructing thread. With ClosureOptions::closure_threads > 1, Run()
// additionally spawns a short-lived worker crew, but workers only
// evaluate rules against the frozen round-start state into private
// buffers — every write (dedup, Log(), union-find merge, pi* re-keying)
// still happens sequentially at the round barrier, and the resulting
// derivation log is byte-identical for every thread count (see Run()).
// Run() ends with a full path-compression pass over the union-find,
// after which a Closure is deeply immutable. Every const member
// function (the Has*/TaFact*/AreEqual queries, ExplainFact*,
// FactToString) is a pure read and safe to call from many threads
// concurrently — this is what lets the service layer share one Closure
// among parallel requirement checks.
#ifndef OODBSEC_CORE_CLOSURE_H_
#define OODBSEC_CORE_CLOSURE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/basic_rules.h"
#include "core/bit_rows.h"
#include "core/pair_table.h"
#include "obs/obs.h"
#include "unfold/unfolded.h"

namespace oodbsec::core {

struct Origin {
  int num = 0;
  char dir = '+';

  friend auto operator<=>(const Origin&, const Origin&) = default;
  std::string ToString() const;
};

using FactId = int;
inline constexpr FactId kNoFact = -1;

// Maximum distinct (num, dir) origins kept per class. Every rule guard
// excludes at most one origin and the pi-join needs two, so four keeps
// the system complete while bounding the state (see the header comment).
inline constexpr size_t kOriginCap = 4;

struct Fact {
  enum class Kind { kTa, kPa, kTi, kPi, kPiStar, kEq };

  Kind kind = Kind::kTa;
  int a = 0;       // occurrence id
  int b = 0;       // second occurrence (kPiStar, kEq)
  Origin origin;   // kTi / kPi / kPiStar
};

// A small Origin -> FactId map with at most kOriginCap entries, kept
// sorted by Origin — the dense replacement for std::map in the ti/pi/pi*
// tables, with identical iteration order.
class OriginSet {
 public:
  struct Entry {
    Origin origin;
    FactId fact = kNoFact;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= kOriginCap; }

  // kNoFact when absent.
  FactId Lookup(Origin origin) const {
    for (size_t i = 0; i < size_; ++i) {
      if (entries_[i].origin == origin) return entries_[i].fact;
    }
    return kNoFact;
  }

  // Sorted insert-if-absent; no-op when the origin is present or the set
  // is full (mirrors the capped std::map::emplace it replaces).
  void Insert(Origin origin, FactId fact) {
    size_t at = 0;
    while (at < size_ && entries_[at].origin < origin) ++at;
    if (at < size_ && entries_[at].origin == origin) return;
    if (full()) return;
    for (size_t i = size_; i > at; --i) entries_[i] = entries_[i - 1];
    entries_[at] = {origin, fact};
    ++size_;
  }

  void Clear() { size_ = 0; }

  // Entries in increasing Origin order.
  std::span<const Entry> entries() const { return {entries_.data(), size_}; }

 private:
  std::array<Entry, kOriginCap> entries_;
  uint8_t size_ = 0;
};

// Derivation log entry. Premises live in the closure's shared arena;
// resolve them with Closure::premises(fact_id). `rule` references either
// a string literal or a BasicRule label (both have static storage).
struct DerivationStep {
  Fact fact;
  std::string_view rule;       // e.g. "axiom: constant", ">=: probe …"
  uint32_t premise_offset = 0;
  uint32_t premise_count = 0;
};

// Premise lists are passed as borrowed spans; the initializer-list
// overloads on the Add* functions let call sites pass brace lists
// without allocating (std::span can't bind one until C++26).
using Premises = std::span<const FactId>;

// One derivation step in the packed snapshot layout (src/snapshot
// packed_store): a fixed-width, trivially-copyable image of
// DerivationStep with the rule string replaced by an index into a
// per-record label table. Arrays of these are written verbatim into
// packed segments and read back by aliasing the mapped bytes — no
// per-step decode — so the layout is part of the v3 record format:
// change it and bump the format version.
struct PackedStep {
  int32_t a = 0;
  int32_t b = 0;
  int32_t origin_num = 0;
  uint32_t rule = 0;            // index into the record's label table
  uint32_t premise_offset = 0;  // into the record's premise arena
  uint32_t premise_count = 0;
  uint8_t kind = 0;             // Fact::Kind as u8
  uint8_t origin_dir = '+';
  uint8_t pad[2] = {0, 0};
};
static_assert(sizeof(PackedStep) == 28);
static_assert(std::is_trivially_copyable_v<PackedStep>);

// A complete derivation log lifted out of some earlier closure and
// borrowed straight from a mapped packed record (src/snapshot): steps
// and premise arena alias the mapping, `rules` is the record's label
// table resolved to interned (process-lifetime) string_views. Ids are
// in the id space of the unfold the log was computed over; replaying
// it into a new Closure requires an UnfoldedSet built over the *same*
// root list (unfolding is deterministic, so the id spaces coincide).
// Replaying copies everything into the closure's own tables, so the
// view — and the mapping behind it — only needs to outlive the
// constructor call. The caller must pre-validate ids and premise
// references (the snapshot decoder does).
struct ReplayView {
  std::span<const PackedStep> steps;
  std::span<const FactId> premise_arena;
  std::span<const std::string_view> rules;
};

// Ablation switches for experiment A1 (see DESIGN.md §7). All on by
// default; each "off" weakens the analyzer and must lose a documented
// detection.
struct ClosureOptions {
  // The pessimistic axiom "=[x1,x2] for outer-most argument variables of
  // the same type".
  bool same_type_argument_equality = true;
  // The rule pi[e,n1,d1], pi[e,n2,d2] -> ti[e,n1,d1].
  bool pi_join_to_ti = true;
  // The per-basic-function rule sets (basic_rules.h).
  bool basic_function_rules = true;
  // The =-based rules for reads/writes (equal objects make reads equal,
  // a written value equals subsequent reads, written-value alterability
  // transfers to reads).
  bool write_read_equality = true;
  // Strength of the read-object rule "pa[e1] -> ?a[r_att(e1)]" (altering
  // *which* object is read alters the read result). Under the paper's
  // exists-D semantics (Definition 2 quantifies the database state
  // existentially) the conclusion is total alterability; the default is
  // the moderate partial reading, which preserves the paper's intended
  // contrast that updateSalary becomes *totally* controllable only when
  // w_budget is also granted (§3.1).
  bool read_object_total_alterability = false;

  // Worker threads for the fixpoint rounds inside Run(): 1 (default)
  // evaluates every round on the calling thread, 0 resolves to the
  // hardware concurrency, N > 1 caps the round crew at N. This is
  // purely an execution knob — the derivation log and every published
  // closure.* metric are byte-identical for all values (see Run()) —
  // which is why operator== below ignores it: closures built at
  // different thread counts warm-start from each other, share cache
  // entries, and replay each other's snapshots.
  int closure_threads = 1;

  // Warm-start seeding requires identical *semantics* on both sides;
  // closure_threads never changes the result and is excluded.
  friend bool operator==(const ClosureOptions& x, const ClosureOptions& y) {
    return x.same_type_argument_equality == y.same_type_argument_equality &&
           x.pi_join_to_ti == y.pi_join_to_ti &&
           x.basic_function_rules == y.basic_function_rules &&
           x.write_read_equality == y.write_read_equality &&
           x.read_object_total_alterability ==
               y.read_object_total_alterability;
  }
};

class Closure {
 public:
  // Computes the full closure over `set`. The set must outlive the
  // closure. `obs` (optional) is used during construction only: the
  // build runs under a "closure" span with seed / fixpoint-round /
  // compress children, and fact counts per rule family, union-find
  // finds, and dedup-lookup counts land in the metrics registry. `obs`
  // is not part of the closure semantics (cache keys ignore it).
  //
  // Warm start: `warm_base` (optional) is a completed closure whose
  // roots form a sub-multiset of `set`'s, computed under the same
  // options. Its derivation log is replayed into this closure's tables
  // (translating occurrence ids through the per-root contiguous-range
  // invariant documented on unfold::Root), and the fixpoint then derives
  // only the delta contributed by the additional roots. The base is
  // read during construction only — it may be evicted or destroyed
  // afterwards. An incompatible base (different options, a root missing
  // from `set`, mismatched unfold shapes) is ignored and the build falls
  // back to a cold run; warm_started() reports which path was taken.
  // Warm and cold runs over the same set derive the same fact *set*
  // (compare with FactSetDigest()), but generally different derivation
  // *logs* — fact_count() and ExplainFact() output depend on the route.
  explicit Closure(const unfold::UnfoldedSet& set, ClosureOptions options = {},
                   obs::Observability* obs = nullptr,
                   const Closure* warm_base = nullptr);

  // Snapshot warm start: replays `view` — the complete derivation log
  // of a finished closure over the same root list (see ReplayView) —
  // and then runs Seed() + the fixpoint, which merely dedup against the
  // replayed tables when the log is complete. The result is
  // byte-identical to the closure the log was saved from (same steps,
  // same premises, same derivation text) at replay cost instead of
  // fixpoint cost. The caller must pre-validate the log (ids in range,
  // premises acyclic) — the snapshot decoder does; out-of-range ids here
  // are undefined behaviour. Counts as warm_started().
  Closure(const unfold::UnfoldedSet& set, ClosureOptions options,
          obs::Observability* obs, const ReplayView& view);

  // Retraction (DRed, delete-and-rederive): builds the closure over
  // `set` — whose roots must form a sub-multiset of `base`'s, computed
  // under the same options — by *shrinking* the base instead of
  // rebuilding. The base's derivation log is scanned once to over-delete
  // the cone of steps that mention a removed occurrence (as subject,
  // pair partner, origin, or transitively through a premise), the
  // surviving steps are replayed into fresh tables, and the deleted
  // facts with alternate support are re-derived: Seed() re-evaluates
  // every axiom and basic-function rule, and a targeted pass re-fires
  // the structural rules at exactly the occurrences and equality
  // classes the cone touched. The standard semi-naive frontier then
  // runs to completion, so the result derives the same fact *set* as a
  // cold build over `set` (FactSetDigest equality — the log and
  // derivation routes may differ, as with warm starts).
  //
  // Returns nullptr when the base is incompatible (different options, a
  // root of `set` missing from the base, mismatched unfold shapes) —
  // the caller falls back to a cold or warm build. The base is read
  // during construction only. Counts as warm_started(); retracted()
  // reports the path.
  static std::unique_ptr<Closure> Retract(const unfold::UnfoldedSet& set,
                                          ClosureOptions options,
                                          obs::Observability* obs,
                                          const Closure& base);

  Closure(const Closure&) = delete;
  Closure& operator=(const Closure&) = delete;

  const unfold::UnfoldedSet& set() const { return *set_; }

  // True when a warm_base was accepted and replayed.
  bool warm_started() const { return warm_started_; }
  // Facts replayed from the base (prefix of steps()); 0 for cold runs.
  size_t replayed_fact_count() const { return replayed_facts_; }
  // True when this closure was produced by Retract().
  bool retracted() const { return retracted_; }
  // Over-deleted base facts (the DRed cone); 0 unless retracted().
  size_t retracted_fact_count() const { return retracted_facts_; }
  // Facts appended after the survivor replay: re-seeded axioms,
  // alternate-support re-derivations, and their consequences.
  size_t rederived_fact_count() const {
    return steps_.size() - replayed_facts_;
  }

  // Canonical, order-insensitive summary of the derived fact set:
  // per-occurrence predicate bits, the equality partition, and the set
  // of pi* class pairs. Derivation routes, origin provenance, and log
  // order are deliberately excluded — two closures over the same
  // unfolded program agree semantically iff their digests are equal.
  // This is the equivalence the warm-start tests assert.
  std::string FactSetDigest() const;

  // Capability queries by occurrence id. pi/pa include ti/ta (the
  // implication rules are materialized). All queries are safe for
  // concurrent readers (see the thread-safety contract above).
  bool HasTa(int id) const { return ta_[id] != kNoFact; }
  bool HasPa(int id) const { return pa_[id] != kNoFact; }
  bool HasTi(int id) const;
  bool HasPi(int id) const;
  bool AreEqual(int id1, int id2) const;

  // Origins kept for the pi* pair of the classes of id1 and id2, in
  // increasing order; empty when the pair was never derived. At most
  // kOriginCap: which origins survive a capped merge is part of the
  // derivation (later rules pick premises from them).
  std::vector<Origin> PiStarOrigins(int id1, int id2) const;

  // Supporting facts for derivation printing; kNoFact when absent.
  FactId TaFact(int id) const { return ta_[id]; }
  FactId PaFact(int id) const { return pa_[id]; }
  FactId TiFact(int id) const;
  FactId PiFact(int id) const;

  size_t fact_count() const { return steps_.size(); }
  const std::vector<DerivationStep>& steps() const { return steps_; }
  // The premise FactIds of one derivation step.
  std::span<const FactId> premises(FactId fact) const {
    const DerivationStep& step = steps_[fact];
    return {premise_arena_.data() + step.premise_offset, step.premise_count};
  }

  // Renders one fact, e.g. "ti[5:r_salary(broker), 6, -]".
  std::string FactToString(const Fact& fact) const;
  // Renders the full derivation supporting `fact` (premises first,
  // Figure-1 style), one step per line.
  std::string ExplainFact(FactId fact) const;
  std::string ExplainFacts(const std::vector<FactId>& facts) const;

 private:
  // --- parallel round engine (see Run) ---
  // One buffered conclusion from the read-only half of a round: the
  // fact, its rule label, and a premise slice in the owning chunk's
  // premise pool. Every premise FactId references a fact from an
  // earlier round — the frozen tables never hand out ids minted in the
  // current one — so a candidate is position-independent and the
  // barrier replays it through the ordinary Add*/Log() path unchanged.
  // A pi* candidate also carries the reps its frozen dedup resolved:
  // merges wait for phase B, so they are still the reps at the barrier,
  // which then applies it without a union-find walk.
  struct Candidate {
    Fact fact;
    int rep_a = 0;  // pi* only
    int rep_b = 0;
    std::string_view rule;
    uint32_t premise_offset = 0;
    uint32_t premise_count = 0;
  };
  // Per-chunk output buffer: candidates in evaluation order plus their
  // premise pool, and the work counters accumulated while producing
  // them. The counters are snapshotted into the closure totals at the
  // barrier, in chunk order, so the published metrics are identical
  // for every thread count (and never racy). No counter may depend on
  // where the chunk boundaries fall: a join candidate the chunk drops
  // as a repeat (join_seen) is counted here exactly as the barrier
  // would have counted applying it.
  struct ChunkOut {
    std::vector<Candidate> candidates;
    std::vector<FactId> premise_pool;
    // The pi* join conclusions buffered so far: a row of second reps
    // per (first rep, origin) key (see JoinKey). A repeat of one of
    // them is dropped — the barrier would apply the earlier one first,
    // which either takes the origin or finds the pair full, and reject
    // the repeat either way.
    KeyedRows join_seen;
    uint64_t find_calls = 0;
    uint64_t add_attempts = 0;
    uint64_t rule_evals = 0;
    uint64_t basic_reevals = 0;
    uint64_t pistar_join_proposals = 0;
    uint64_t pistar_join_buffered = 0;

    void Clear(size_t row_words) {
      candidates.clear();
      premise_pool.clear();
      join_seen.Reset(row_words);
      find_calls = add_attempts = rule_evals = basic_reevals = 0;
      pistar_join_proposals = pistar_join_buffered = 0;
    }
  };
  // Evaluation context threaded through every rule-firing helper. The
  // direct context (out == nullptr) mutates the tables through the
  // Add*/Log() tails; a buffering context (out != nullptr) only reads
  // the frozen round-start state and appends candidates to its chunk.
  // Each context owns the scratch one evaluation strand needs — the
  // rule premise buffer and the equality-explanation BFS state — so
  // chunk workers share nothing writable.
  struct EvalCtx {
    ChunkOut* out = nullptr;
    std::vector<FactId> scratch_premises;
    std::vector<int> bfs_prev_node;
    std::vector<FactId> bfs_prev_edge;
    std::vector<int> bfs_queue;
    // Visitation is epoch-stamped so the BFS state never needs clearing.
    std::vector<uint32_t> bfs_seen_epoch;
    uint32_t bfs_epoch = 0;

    bool buffering() const { return out != nullptr; }
  };
  // Lazily-spawned worker pool + per-worker contexts for one Run();
  // defined in closure.cc.
  struct RoundCrew;

  // --- union-find with proof forest ---
  // Mutating find with path compression; single-threaded phases only.
  int Find(int id);
  // Non-mutating find for the frozen evaluation phase: chunk workers
  // walk parent links without path compression (the sequential phases
  // compress; the parent array is stable while workers run).
  int FindRoot(int id) const {
    while (uf_parent_[id] != id) id = uf_parent_[id];
    return id;
  }
  // Find through `ctx`: the mutating find in direct mode, the read-only
  // walk (with chunk-local accounting) in buffering mode.
  int CtxFind(EvalCtx& ctx, int id) {
    if (!ctx.buffering()) return Find(id);
    ++ctx.out->find_calls;
    return FindRoot(id);
  }
  // Post-construction representative lookup: Run() ends with a full
  // compression pass, so every parent link points at the root and this
  // is a single read — safe for concurrent readers (no path-compression
  // writes behind const, unlike the classic mutable-parent find).
  int Rep(int id) const { return uf_parent_[id]; }
  // Appends the base =-fact ids proving id1 == id2 to `out`, using the
  // context's BFS scratch.
  void ExplainEquality(EvalCtx& ctx, int id1, int id2,
                       std::vector<FactId>& out);

  // --- fact derivation (dedup + log + worklist) ---
  // The rule string must have static (or closure-outliving) storage.
  // In direct mode the returned FactId is the logged (or deduplicated)
  // fact; in buffering mode the conclusion is appended to the chunk and
  // kNoFact is returned — no caller on the frozen path consumes Add*
  // return values (the invariant that makes candidate buffers
  // premise-complete; see Run()).
  FactId AddTa(EvalCtx& ctx, int id, std::string_view rule,
               Premises premises);
  FactId AddPa(EvalCtx& ctx, int id, std::string_view rule,
               Premises premises);
  FactId AddTi(EvalCtx& ctx, int id, Origin origin, std::string_view rule,
               Premises premises);
  FactId AddPi(EvalCtx& ctx, int id, Origin origin, std::string_view rule,
               Premises premises);
  FactId AddPiStar(EvalCtx& ctx, int id1, int id2, Origin origin,
                   std::string_view rule, Premises premises);
  // AddPiStar past the attempt count and the union-find: `ra` and `rb`
  // are the current reps of id1 and id2.
  FactId AddPiStarAt(EvalCtx& ctx, int ra, int rb, int id1, int id2,
                     Origin origin, std::string_view rule,
                     Premises premises);
  FactId AddEq(EvalCtx& ctx, int id1, int id2, std::string_view rule,
               Premises premises);
  FactId Log(Fact fact, std::string_view rule, Premises premises);
  // The buffering tail shared by the Add* functions; pi* conclusions
  // pass their frozen reps along (see Candidate).
  FactId Buffer(EvalCtx& ctx, const Fact& fact, std::string_view rule,
                Premises premises, int rep_a = 0, int rep_b = 0);

  // Brace-list forwarders (a braced argument prefers an initializer_list
  // parameter, whose backing array lives for the whole call).
  FactId AddTa(EvalCtx& ctx, int id, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddTa(ctx, id, rule, Premises{premises.begin(), premises.size()});
  }
  FactId AddPa(EvalCtx& ctx, int id, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddPa(ctx, id, rule, Premises{premises.begin(), premises.size()});
  }
  FactId AddTi(EvalCtx& ctx, int id, Origin origin, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddTi(ctx, id, origin, rule,
                 Premises{premises.begin(), premises.size()});
  }
  FactId AddPi(EvalCtx& ctx, int id, Origin origin, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddPi(ctx, id, origin, rule,
                 Premises{premises.begin(), premises.size()});
  }
  FactId AddPiStar(EvalCtx& ctx, int id1, int id2, Origin origin,
                   std::string_view rule,
                   std::initializer_list<FactId> premises) {
    return AddPiStar(ctx, id1, id2, origin, rule,
                     Premises{premises.begin(), premises.size()});
  }
  FactId AddEq(EvalCtx& ctx, int id1, int id2, std::string_view rule,
               std::initializer_list<FactId> premises) {
    return AddEq(ctx, id1, id2, rule,
                 Premises{premises.begin(), premises.size()});
  }

  // --- premise index ---
  // One candidate rule instantiation: a basic call plus one of its
  // rules. `rule` points into the static per-function catalog, so refs
  // from the same call compare in catalog order by address.
  struct RuleRef {
    const unfold::Node* call = nullptr;
    const BasicRule* rule = nullptr;

    friend bool operator==(const RuleRef& x, const RuleRef& y) {
      return x.call == y.call && x.rule == y.rule;
    }
    friend bool operator<(const RuleRef& x, const RuleRef& y) {
      if (x.call->id != y.call->id) return x.call->id < y.call->id;
      return x.rule < y.rule;
    }
  };
  // Fills the trigger tables: every premise atom of every rule
  // instantiation is indexed under the occurrence (alterability) or
  // class (inferability / pi*) it reads, so a newly derived fact visits
  // only the rules it can complete.
  void BuildPremiseIndex();

  // --- warm start ---
  // Maps every base occurrence id to its id in set_ by matching roots by
  // function name (k-th duplicate to k-th duplicate) and shifting each
  // root's contiguous id range. False when the base is incompatible.
  bool ComputeWarmMap(const Closure& base, std::vector<int>& old_to_new) const;
  // Replays the base derivation log: every step is appended verbatim
  // (ids translated) and applied to the tables, but never enqueued —
  // Seed() + Run() then derive only the delta on top.
  void ReplayBase(const Closure& base, const std::vector<int>& old_to_new);
  // Appends every step of (steps, arena) to this closure's log and
  // applies its table effect, translating ids through `old_to_new`.
  void ReplaySteps(std::span<const DerivationStep> steps,
                   std::span<const FactId> arena,
                   const std::vector<int>& old_to_new);
  // ReplaySteps for the packed layout: identical table effects, reading
  // (step, premises, rule label) straight out of the view.
  void ReplayPackedSteps(const ReplayView& view);
  // Applies one already-logged fact to the tables without enqueueing it
  // (the replay half of ReplaySteps / ReplaySurvivors).
  void ApplyReplayedFact(const Fact& fact, FactId id);
  // Table/index allocation shared by every constructor.
  void InitTables();

  // --- retraction (DRed) ---
  struct RetractTag {};
  Closure(const unfold::UnfoldedSet& set, ClosureOptions options,
          obs::Observability* obs, const Closure& base, RetractTag);
  // ComputeWarmMap with the roles reversed: every root of *this* set
  // (the reduced list) must match a distinct base root; base ids inside
  // an unmatched (revoked) root map to 0. False when incompatible.
  bool ComputeShrinkMap(const Closure& base,
                        std::vector<int>& old_to_new) const;
  // Replays the non-deleted base steps, remapping premise FactIds to
  // the compacted log (a survivor's premises all survive — the cone is
  // premise-closed by construction).
  void ReplaySurvivors(const Closure& base,
                       const std::vector<int>& old_to_new,
                       const std::vector<char>& deleted);
  // An over-deleted pi* fact whose endpoints (and origin occurrence)
  // survive the shrink map, recorded in *new* id space. The rederive
  // pass attempts exactly these conclusions instead of sweeping the
  // pair index, keeping the cost proportional to the cone.
  struct DeletedPair {
    int a;
    int b;
    Origin origin;
  };
  // Re-fires the structural (non-basic) rules whose conclusions may
  // have been over-deleted: `touched` holds the surviving occurrence
  // ids the cone mentioned, sorted unique, and `pairs` the over-deleted
  // pi* conclusions to probe for one-step alternate support. Additions
  // enter the frontier and propagate in Run(), which also restores any
  // conclusion whose alternate support is itself rederived later.
  void Rederive(const std::vector<int>& touched,
                const std::vector<DeletedPair>& pairs);
  void RederiveNode(int id);
  void RederiveClass(int rep);
  void RederivePair(const DeletedPair& pair);

  // --- rule application ---
  void Seed();
  // Runs the semi-naive fixpoint to completion. Every round has the
  // same two-phase shape regardless of thread count:
  //
  //   Phase A (frozen): every non-eq frontier fact is evaluated against
  //   the round-*start* tables — no writes — and its conclusions are
  //   buffered as Candidates, per contiguous frontier chunk. With
  //   closure_threads > 1 and a large enough frontier, the chunks run
  //   on a worker crew; otherwise the calling thread evaluates one
  //   chunk inline. Chunk boundaries never leak into the output: the
  //   buffers are concatenated in (chunk index, intra-chunk) order,
  //   which is exactly frontier order.
  //
  //   Barrier: the candidates are applied in that canonical order
  //   through the ordinary dedup + Log() path (duplicates melt here).
  //
  //   Phase B (sequential): the round's =-facts are merged in frontier
  //   order — union-find mutation, pi* re-keying, and the cross-class
  //   re-fires stay single-threaded.
  //
  // Facts derived mid-round become visible one round later (they enter
  // the next frontier), so the log differs from a live-interleaved
  // engine but is *identical across thread counts* — the determinism
  // the snapshot, warm-start, and shard layers already pin.
  void Run();
  // One fixpoint round over frontier_ (the phases described on Run).
  void RunRound(RoundCrew& crew);
  // Phase A for frontier_[begin, end): frozen evaluation into ctx.out.
  void EvalFrontierChunk(EvalCtx& ctx, size_t begin, size_t end);
  // Barrier half: replays one chunk's candidates through the direct
  // Add* path, in buffer order.
  void ApplyChunk(const ChunkOut& out);
  // Folds one chunk's work counters into the closure totals.
  void SnapshotChunkCounters(const ChunkOut& out);
  // Publishes the construction-time counters (and a per-rule-family
  // breakdown of steps_) into obs_->metrics; no-op without obs_.
  void FlushMetrics();
  void ProcessTa(EvalCtx& ctx, const Fact& fact, FactId fact_id);
  void ProcessPa(EvalCtx& ctx, const Fact& fact, FactId fact_id);
  // Equality merge; always direct-mode (phase B / replay / rederive).
  void ProcessEqMerge(const Fact& fact, FactId fact_id);
  void ProcessTi(EvalCtx& ctx, const Fact& fact, FactId fact_id);
  void ProcessPi(EvalCtx& ctx, const Fact& fact, FactId fact_id);
  void ProcessPiStar(EvalCtx& ctx, const Fact& fact, FactId fact_id);
  void FireLetAndWriteRulesForAlterability(EvalCtx& ctx, int id, bool total,
                                           FactId fact_id);
  void FireWriteValueRules(EvalCtx& ctx, const unfold::Node* write,
                           FactId eq_or_alter, const unfold::Node* read);
  // Structural half of an equality merge: union by rank plus the merge
  // of every per-class table (members, reads/writes, touching calls,
  // trigger lists, origin sets, pi* re-keying). Shared between
  // ProcessEqMerge and warm-start replay; returns the surviving root.
  int MergeClasses(int ra, int rb);
  void EvalRule(EvalCtx& ctx, const unfold::Node* call,
                const BasicRule& rule);
  void EvalTriggered(EvalCtx& ctx, std::span<const RuleRef> triggers);
  void ReevalBasicCall(EvalCtx& ctx, const unfold::Node* call);
  void ReevalCallsTouching(int rep);
  // Sizes a context's BFS scratch for this closure's id space.
  void InitCtx(EvalCtx& ctx) const;

  // Picks an origin of `origins` different from `excluded` (or any if
  // `excluded` is null); returns false if none.
  static bool PickOrigin(const OriginSet& origins, const Origin* excluded,
                         Origin& origin_out, FactId& fact_out);

  // --- pi* pair table (see pistar_) ---
  // One adjacency entry of rep r: the partner rep c of pair (r, c)
  // (an out-edge) or (c, r) (an in-edge) and the pair's slot.
  struct PiStarEdge {
    int rep;
    uint32_t slot : 31;
    uint32_t in : 1;
  };
  // The bit rows of a rep holding pairs, each pistar_row_words_ wide
  // and indexed by partner rep: kOut holds c for every pair (r, c),
  // kIn c for every pair (c, r), and kOutFull / kInFull the subsets
  // whose pair's origin set is full.
  enum PiStarRow { kOut = 0, kIn = 1, kOutFull = 2, kInFull = 3 };
  // The pairs touching one rep r: its out-edges, then its in-edges,
  // each side sorted by partner, plus r's bit rows (allocated when r's
  // first pair is linked). A self pair is on both sides. One vector per
  // rep rather than one per direction keeps the per-occurrence
  // footprint of small closures (guard sessions hold many) at a single
  // list; the sides are told apart by the `in` bit.
  struct PiStarAdjacency {
    std::vector<PiStarEdge> edges;
    std::unique_ptr<uint64_t[]> rows;

    std::span<const PiStarEdge> out() const { return Side(false); }
    std::span<const PiStarEdge> in() const { return Side(true); }
    std::span<const PiStarEdge> Side(bool in) const;
    // Sorted insert of a new partner / erase of a present one, within
    // one side.
    void Insert(bool in, int rep, int slot);
    void Erase(bool in, int rep);
  };
  // Row `row` of rep r; r must hold rows.
  uint64_t* PiStarRowOf(int rep, PiStarRow row) {
    return pistar_adj_[rep].rows.get() + row * pistar_row_words_;
  }
  const uint64_t* PiStarRowOf(int rep, PiStarRow row) const {
    return pistar_adj_[rep].rows.get() + row * pistar_row_words_;
  }
  // The slot of pair (ra, rb) — both current reps — inserting the pair,
  // its two adjacency entries and its row bits when absent.
  int LinkPiStar(int ra, int rb);
  // Removes pair (ra, rb) from the table and from the adjacency lists
  // and rows of its endpoints other than `skip`, whose lists and rows
  // the caller (the re-keying in MergeClasses) drops wholesale.
  void UnlinkPiStar(int ra, int rb, int skip);
  // Inserts an origin into pair (ra, rb)'s set (held at `slot`) unless
  // the set is full, setting the pair's full bits once it fills.
  // Returns false when the set was already full.
  bool InsertPiStarOrigin(int ra, int rb, int slot, Origin origin,
                          FactId fact);
  // Number of distinct pairs touching rep (a self pair counts once).
  size_t PiStarDegree(int rep) const;
  // Debug builds: asserts that the rows, the adjacency lists and the
  // pair table describe the same pairs and full sets. Run() calls it
  // after every round; a no-op under NDEBUG.
  void CheckPiStarRows() const;

  const unfold::UnfoldedSet* set_;
  ClosureOptions options_;
  // Observability (construction only; may be null). The work counters
  // below are plain members, only ever touched from the constructing
  // thread: chunk workers accumulate into their ChunkOut and RunRound
  // folds those in at the barrier (SnapshotChunkCounters), so the
  // totals are deterministic across thread counts and published to the
  // shared registry once, in FlushMetrics().
  obs::Observability* obs_ = nullptr;
  uint64_t find_calls_ = 0;     // union-find lookups during construction
  uint64_t add_attempts_ = 0;   // Add* calls (dedup lookups), incl. misses
  uint64_t basic_reevals_ = 0;  // whole-call rule re-evaluations
  uint64_t rule_evals_ = 0;     // single-rule evaluations (incl. indexed)
  uint64_t eq_merges_ = 0;      // equality merges actually performed
  uint64_t rounds_ = 0;         // fixpoint delta rounds
  uint64_t parallel_rounds_ = 0;  // rounds evaluated on the worker crew
  uint64_t parallel_chunks_ = 0;  // chunks dispatched across those rounds
  // pi* join attempt/yield: conclusions ProcessPiStar proposed, those
  // that passed the frozen checks (including the same-round repeats a
  // chunk drops instead of buffering), and those the barrier accepted
  // as new facts.
  uint64_t pistar_join_proposals_ = 0;
  uint64_t pistar_join_buffered_ = 0;
  uint64_t pistar_accepted_ = 0;

  bool warm_started_ = false;
  size_t replayed_facts_ = 0;
  bool retracted_ = false;
  size_t retracted_facts_ = 0;

  // Union-find over occurrence ids (1-based). No `mutable` escape hatch:
  // path compression happens only during construction, and Run() leaves
  // every parent pointing directly at its root (see Rep()).
  std::vector<int> uf_parent_;
  std::vector<int> uf_rank_;
  // Class members, indexed by representative id; absorbed slots are
  // drained on merge.
  std::vector<std::vector<int>> members_;
  // Proof forest: accepted merge edges only.
  std::vector<std::vector<std::pair<int, FactId>>> eq_edges_;

  std::vector<FactId> ta_;
  std::vector<FactId> pa_;
  // Indexed by class representative id.
  std::vector<OriginSet> ti_;
  std::vector<OriginSet> pi_;
  // pi* pairs keyed by (rep, rep), each owning a stable slot in the
  // table's OriginSet pool. Directional adjacency, indexed by rep:
  // pistar_adj_[r].out() lists the pairs (r, c) and .in() the pairs
  // (c, r), each sorted by c and carrying the pair's slot, so a join
  // reaches the origins of the pairs its bit rows select with no hash
  // probe. A self pair (r, r) is on both of r's sides. Invariants
  // outside MergeClasses (checked by CheckPiStarRows): a pair (a, b)
  // is in the table iff it is in out(a) and in(b) iff its bits are set
  // in a's kOut row and b's kIn row; every endpoint is a current rep;
  // no stored origin set is empty; a pair's kOutFull / kInFull bits are
  // set iff its set is full; and every rep with a pair holds rows (a
  // rep keeps its rows, possibly all zero, until it is absorbed).
  PairTable<OriginSet> pistar_;
  std::vector<PiStarAdjacency> pistar_adj_;
  // Words per bit row: one bit per occurrence id.
  size_t pistar_row_words_ = 0;
  // Set while a round is in phase A: the pi* table and adjacency lists
  // are shared read-only by the chunk workers then, and every mutation
  // helper asserts (in debug builds) that it is clear.
  bool pistar_frozen_ = false;

  // Rep id -> basic calls with an argument or themselves in the class,
  // sorted by occurrence id, unique.
  std::vector<std::vector<const unfold::Node*>> touching_calls_;
  // Premise index (see BuildPremiseIndex). The alterability triggers
  // are keyed by occurrence id (ta/pa are per-occurrence and never
  // merge), so the table is frozen after BuildPremiseIndex and stored
  // CSR-style — one offsets array over one contiguous RuleRef payload —
  // which chunk workers scan without chasing a per-id vector header.
  // infer_triggers_ / pistar_triggers_ must stay vector-of-vectors:
  // they are keyed by class representative and merged on every union
  // (MergeClasses), which a flattened layout cannot absorb mid-
  // fixpoint. All lists are sorted by (call id, catalog order), unique
  // — the evaluation order of the full per-call scan they replace.
  std::vector<uint32_t> alter_trigger_offsets_;  // id -> payload range
  std::vector<RuleRef> alter_trigger_refs_;
  std::span<const RuleRef> AlterTriggers(int id) const {
    return {alter_trigger_refs_.data() + alter_trigger_offsets_[id],
            alter_trigger_offsets_[id + 1] - alter_trigger_offsets_[id]};
  }
  std::vector<std::vector<RuleRef>> infer_triggers_;
  std::vector<std::vector<RuleRef>> pistar_triggers_;
  // Rep id -> reads/writes whose *object* child is in the class.
  std::vector<std::vector<const unfold::Node*>> obj_reads_;
  std::vector<std::vector<const unfold::Node*>> obj_writes_;
  // Bound-expression node id -> binder id, -1 when none (let rules).
  std::vector<int> binder_of_bound_expr_;

  std::vector<DerivationStep> steps_;
  // Struct-of-arrays mirror of steps_[i].fact: the fixpoint hot paths
  // (frontier dispatch, EvalRule's stored-at lookup, RederiveClass)
  // only need the fact, and reading it from a dense Fact array instead
  // of the 48-byte DerivationStep keeps chunk workers' shared read
  // traffic compact. Appended alongside steps_ in Log() and the replay
  // paths.
  std::vector<Fact> fact_of_;
  std::vector<FactId> premise_arena_;
  // Semi-naive delta frontiers: Log() appends every accepted fact to
  // next_frontier_; Run() swaps it into frontier_ and processes one
  // round. Same FIFO order as the deque worklist this replaces.
  std::vector<FactId> frontier_;
  std::vector<FactId> next_frontier_;

  // The direct (table-mutating) evaluation context: seeding, replay,
  // rederivation, the barrier merge, and phase B all run through it on
  // the constructing thread. Worker contexts live in the RoundCrew.
  EvalCtx direct_ctx_;
};

}  // namespace oodbsec::core

#endif  // OODBSEC_CORE_CLOSURE_H_
