#include "service/analysis_service.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"
#include "service/capability_signature.h"
#include "unfold/unfolded.h"

namespace oodbsec::service {

using core::CachedAnalysis;

AnalysisService::AnalysisService(core::AnalysisSession& session,
                                 int threads_override)
    : session_(&session),
      pool_(threads_override > 0 ? threads_override : session.options().threads,
            &session.obs()),
      // Reading the session's store shares it (and its page cache)
      // between the session's cache and this one.
      cache_(session.schema(), session.closure_options(),
             session.options().cache_capacity, &session.obs(),
             session.options().snapshot_store),
      closures_built_(session.metrics().counter("service.closures_built")),
      signature_hits_(session.metrics().counter("service.signature_hits")),
      requirement_hits_(session.metrics().counter("service.requirement_hits")),
      checks_(session.metrics().counter("service.checks")),
      warm_starts_(session.metrics().counter("service.warm_starts")),
      retract_builds_(session.metrics().counter("service.retract_builds")),
      snapshot_hits_(session.metrics().counter("service.snapshot_hits")),
      revokes_(session.metrics().counter("session.revokes")),
      retractions_fast_(
          session.metrics().counter("session.retractions_fast")),
      retractions_fallback_(
          session.metrics().counter("session.retractions_fallback")) {}

AnalysisService::AnalysisService(const schema::Schema& schema,
                                 const schema::UserRegistry& users,
                                 ServiceOptions options)
    : owned_session_(std::make_unique<core::AnalysisSession>(
          schema, users,
          core::SessionOptions{.closure = options.closure,
                               .threads = options.threads,
                               .cache_capacity = options.cache_capacity,
                               .snapshot_store = options.snapshot_store})),
      session_(owned_session_.get()),
      pool_(session_->options().threads, &session_->obs()),
      cache_(schema, options.closure, options.cache_capacity,
             &session_->obs(), session_->options().snapshot_store),
      closures_built_(session_->metrics().counter("service.closures_built")),
      signature_hits_(session_->metrics().counter("service.signature_hits")),
      requirement_hits_(
          session_->metrics().counter("service.requirement_hits")),
      checks_(session_->metrics().counter("service.checks")),
      warm_starts_(session_->metrics().counter("service.warm_starts")),
      retract_builds_(
          session_->metrics().counter("service.retract_builds")),
      snapshot_hits_(session_->metrics().counter("service.snapshot_hits")),
      revokes_(session_->metrics().counter("session.revokes")),
      retractions_fast_(
          session_->metrics().counter("session.retractions_fast")),
      retractions_fallback_(
          session_->metrics().counter("session.retractions_fallback")) {}

ServiceStats AnalysisService::Stats() const {
  ServiceStats stats;
  stats.closures_built = static_cast<size_t>(closures_built_->value());
  stats.signature_hits = static_cast<size_t>(signature_hits_->value());
  stats.requirement_hits = static_cast<size_t>(requirement_hits_->value());
  stats.checks = static_cast<size_t>(checks_->value());
  stats.warm_starts = static_cast<size_t>(warm_starts_->value());
  stats.retract_builds = static_cast<size_t>(retract_builds_->value());
  stats.snapshot_hits = static_cast<size_t>(snapshot_hits_->value());
  stats.revokes = static_cast<size_t>(revokes_->value());
  stats.retractions_fast = static_cast<size_t>(retractions_fast_->value());
  stats.retractions_fallback =
      static_cast<size_t>(retractions_fallback_->value());
  return stats;
}

common::Result<core::AnalysisReport> AnalysisService::Check(
    const core::Requirement& requirement) {
  obs::ScopedSpan span(&session_->tracer(), "service.check");
  const schema::User* user = session_->users().Find(requirement.user);
  if (user == nullptr) {
    return common::NotFoundError(
        common::StrCat("unknown user '", requirement.user, "'"));
  }
  checks_->Increment();
  std::vector<std::string> roots =
      core::AnalysisRoots(session_->schema(), *user);
  std::shared_ptr<const CachedAnalysis> entry = cache_.FindExact(roots);
  if (entry != nullptr) {
    signature_hits_->Increment();
    requirement_hits_->Increment();
  } else {
    // L2 before building: a persisted snapshot replays in a fraction of
    // even a warm fixpoint and lands in L1 for the rest of the process.
    entry = cache_.FindSnapshot(roots);
    if (entry != nullptr) {
      snapshot_hits_->Increment();
      cache_.Insert(entry);
    }
  }
  if (entry == nullptr) {
    closures_built_->Increment();
    // Shrink beats grow when a close-enough superset is cached (a role
    // that lost a capability): DRed-retract its closure. Otherwise
    // warm-start up from the largest cached subset, or run cold.
    if (std::shared_ptr<const CachedAnalysis> super =
            cache_.FindSmallestSuperset(roots)) {
      entry = cache_.BuildRetracted(roots, *super);
    }
    if (entry != nullptr) {
      retract_builds_->Increment();
    } else {
      std::shared_ptr<const CachedAnalysis> base =
          cache_.FindLargestSubset(roots);
      OODBSEC_ASSIGN_OR_RETURN(entry,
                               cache_.BuildDetached(roots, base.get()));
      if (entry->closure->warm_started()) warm_starts_->Increment();
    }
    cache_.Insert(entry);
  }
  return core::CheckAgainstClosure(*entry->set, *entry->closure, requirement,
                                   &session_->obs());
}

common::Result<std::vector<core::AnalysisReport>> AnalysisService::CheckBatch(
    const std::vector<core::Requirement>& requirements) {
  const size_t n = requirements.size();
  obs::Tracer* tracer = &session_->tracer();
  obs::ScopedSpan batch_span(tracer, "batch");

  // Phase 1 (sequential): resolve users, derive signatures, and plan one
  // build per distinct uncached signature, pairing each with its best
  // warm-start base (largest cached subset) up front — lookups stay in
  // this sequential phase, so the parallel phase below never touches
  // cache state. Unknown users are recorded, not returned yet — the
  // error surfaced at the end must belong to the *earliest* failing
  // requirement, which may instead fail later at build or check time.
  struct Planned {
    const schema::User* user = nullptr;  // nullptr: unknown user
    std::string signature;
    // The serving closure when the signature was already cached.
    std::shared_ptr<const CachedAnalysis> entry;
  };
  struct Build {
    std::vector<std::string> roots;
    std::shared_ptr<const CachedAnalysis> warm_base;     // may be null
    std::shared_ptr<const CachedAnalysis> retract_base;  // may be null
    common::Result<std::shared_ptr<const CachedAnalysis>> result =
        common::InternalError("closure not built");
  };
  std::vector<Planned> planned(n);
  std::vector<Build> builds;
  std::unordered_map<std::string, size_t> build_index;
  {
    obs::ScopedSpan plan_span(tracer, "batch.plan");
    // A cached signature scores one signature hit per batch no matter
    // how many requirements resolve to it; each of those requirements
    // scores its own requirement hit (see ServiceStats).
    std::unordered_set<std::string> counted_signatures;
    for (size_t i = 0; i < n; ++i) {
      checks_->Increment();
      const schema::User* user = session_->users().Find(requirements[i].user);
      if (user == nullptr) continue;
      planned[i].user = user;
      std::vector<std::string> roots =
          core::AnalysisRoots(session_->schema(), *user);
      planned[i].signature =
          SignatureFromRoots(roots, session_->closure_options());
      planned[i].entry = cache_.FindExact(roots);
      if (planned[i].entry != nullptr) {
        requirement_hits_->Increment();
        if (counted_signatures.insert(planned[i].signature).second) {
          signature_hits_->Increment();
        }
        continue;
      }
      if (build_index.contains(planned[i].signature)) {
        // Reuses a closure another requirement in this batch is
        // building: a requirement-level hit, not a signature-level one.
        requirement_hits_->Increment();
        continue;
      }
      // L2 probe before planning a build: a valid persisted snapshot
      // replays straight into L1, and every later requirement of this
      // signature takes the exact-hit path above.
      planned[i].entry = cache_.FindSnapshot(roots);
      if (planned[i].entry != nullptr) {
        snapshot_hits_->Increment();
        counted_signatures.insert(planned[i].signature);
        cache_.Insert(planned[i].entry);
        continue;
      }
      closures_built_->Increment();
      build_index.emplace(planned[i].signature, builds.size());
      // Both shrink and grow bases are picked here, in the sequential
      // phase; the worker tries retraction first and falls back to the
      // warm/cold build — a deterministic function of its inputs.
      std::shared_ptr<const CachedAnalysis> warm_base =
          cache_.FindLargestSubset(roots);
      std::shared_ptr<const CachedAnalysis> retract_base =
          cache_.FindSmallestSuperset(roots);
      builds.push_back(Build{std::move(roots), std::move(warm_base),
                             std::move(retract_base)});
    }
  }

  // Phase 2 (parallel): compute the distinct closures. Workers write to
  // disjoint pre-allocated slots; Wait() orders those writes before the
  // sequential phase below reads them. BuildDetached is const and the
  // warm bases are pinned by shared_ptr, so eviction elsewhere cannot
  // disturb a replay in progress.
  {
    obs::ScopedSpan build_span(tracer, "batch.build");
    obs::SpanId build_parent = build_span.id();
    for (Build& build : builds) {
      pool_.Submit([this, &build, build_parent] {
        if (build.retract_base != nullptr) {
          std::shared_ptr<const CachedAnalysis> entry =
              cache_.BuildRetracted(build.roots, *build.retract_base,
                                    build_parent);
          if (entry != nullptr) {
            build.result = std::move(entry);
            return;
          }
        }
        build.result =
            cache_.BuildDetached(build.roots, build.warm_base.get(),
                                 build_parent);
      });
    }
    pool_.Wait();
  }

  // Phase 3 (sequential): publish successful builds. Failures stay out
  // of the cache so a later batch retries them.
  for (Build& build : builds) {
    if (build.result.ok()) {
      const std::shared_ptr<const CachedAnalysis>& entry =
          build.result.value();
      if (entry->closure->retracted()) {
        retract_builds_->Increment();
      } else if (entry->closure->warm_started()) {
        warm_starts_->Increment();
      }
      cache_.Insert(entry);
    }
  }

  // Phase 4 (parallel): every requirement with a closure is checked
  // concurrently. Entries are immutable and Closure's const queries are
  // pure reads, so many checks may share one closure.
  std::vector<std::optional<common::Result<core::AnalysisReport>>> outcomes(n);
  {
    obs::ScopedSpan check_span(tracer, "batch.check");
    obs::SpanId check_parent = check_span.id();
    obs::Observability* obs = &session_->obs();
    for (size_t i = 0; i < n; ++i) {
      if (planned[i].user == nullptr) continue;
      const CachedAnalysis* entry = planned[i].entry.get();
      if (entry == nullptr) {
        const Build& build = builds[build_index.at(planned[i].signature)];
        if (!build.result.ok()) continue;  // its build failed
        entry = build.result.value().get();
      }
      pool_.Submit([&outcomes, &requirements, entry, obs, check_parent, i] {
        outcomes[i].emplace(core::CheckAgainstClosure(
            *entry->set, *entry->closure, requirements[i], obs, check_parent));
      });
    }
    pool_.Wait();
  }

  // Phase 5 (sequential): assemble in input order; the first failure in
  // input order wins, exactly as a sequential loop would report it.
  std::vector<core::AnalysisReport> reports;
  reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (planned[i].user == nullptr) {
      return common::NotFoundError(
          common::StrCat("unknown user '", requirements[i].user, "'"));
    }
    if (!outcomes[i].has_value()) {
      return builds[build_index.at(planned[i].signature)].result.status();
    }
    if (!outcomes[i]->ok()) return outcomes[i]->status();
    reports.push_back(std::move(*outcomes[i]).value());
  }
  return reports;
}

}  // namespace oodbsec::service
