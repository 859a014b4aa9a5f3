// The four workloads. Each run sets up several times (setup_s is the
// median), then measures ops until --seconds have passed. A traced run
// splits its time into thirds — untraced, traced, untraced — and
// reports the per-layer split of the traced third plus the tracing
// overhead against the untraced thirds on either side of it, which
// cancels any drift (caches filling, sessions growing) over the run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/strings.h"
#include "core/analysis_session.h"
#include "dynamic/session_guard.h"
#include "net/socket.h"
#include "perfbench.h"
#include "query/binder.h"
#include "query/query_parser.h"
#include "service/analysis_service.h"
#include "service/tcp_shard.h"
#include "snapshot/packed_store.h"
#include "text/workspace.h"

namespace perfbench {

namespace {

using namespace oodbsec;
using common::StrCat;

constexpr int kSetupReps = 9;
constexpr int kMinOps = 3;
// Open-loop arrival rate of guard_serving, requests per second.
constexpr double kGuardRate = 500;
// guard_serving's schedule starts with this much unreported warm-up.
constexpr double kWarmSeconds = 1;
constexpr size_t kDecideSample = 16;
// policy_churn's unreported warm-up, in ops (about two seconds).
constexpr int kChurnWarmOps = 400;

// A run-level failure that leaves no inputs to measure (a generated
// workspace that does not load, a store that does not open).
[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Fail(RunResult& r, std::string what) {
  ++r.failed;
  r.correct = false;
  if (r.failures.size() < 5) r.failures.push_back(std::move(what));
}

text::Workspace Load(const std::string& text) {
  auto ws = text::LoadWorkspace(text);
  if (!ws.ok()) Fatal("generated workspace: " + ws.status().ToString());
  return std::move(ws).value();
}

// Empty when every report carries its expected verdict.
std::string VerdictMismatch(const std::vector<core::AnalysisReport>& reports,
                            const std::vector<bool>& expected,
                            const std::vector<int>& indices) {
  if (reports.size() != indices.size()) {
    return StrCat("expected ", indices.size(), " reports, got ",
                  reports.size());
  }
  for (size_t k = 0; k < reports.size(); ++k) {
    if (reports[k].satisfied != expected[indices[k]]) {
      return StrCat("wrong verdict for ",
                    reports[k].requirement.ToString(), ": expected ",
                    expected[indices[k]] ? "SATISFIED" : "NOT SATISFIED");
    }
  }
  return {};
}

std::vector<int> Iota(size_t n) {
  std::vector<int> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<int>(i);
  return v;
}

// Everything a report says, for byte-identity between transports.
std::string ReportBytes(const core::AnalysisReport& report) {
  std::string out = StrCat(report.ToString(), "nodes=", report.node_count,
                           " facts=", report.fact_count, "\n");
  for (const core::FlawSite& flaw : report.flaws) {
    out += StrCat(flaw.site_id, flaw.is_root_site ? " root " : " ",
                  flaw.derivation, "\n");
  }
  return out;
}

// The run's tail, robust to a host stall that hits one stretch of the
// run: `samples` (in time order) are cut into up to ten consecutive
// windows, each large enough to hold ten samples beyond its `q`
// percentile, and the median of the windows' percentiles is returned.
// Too few samples for two windows: Tail() of the whole run.
double WindowedTail(const std::vector<double>& samples, double q) {
  const size_t per_window = static_cast<size_t>(std::ceil(10 / (1 - q)));
  const size_t windows = std::min<size_t>(10, samples.size() / per_window);
  if (windows < 2) return Tail(samples, q);
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    auto begin = samples.begin() + w * samples.size() / windows;
    auto end = samples.begin() + (w + 1) * samples.size() / windows;
    tails.push_back(Tail(std::vector<double>(begin, end), q));
  }
  return Median(tails);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The per-layer metrics, every one present in every traced result (0
// where a workload does not reach the layer). Order = print order.
const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = {
      "text.load_ms", "text.bytes",
      "unfold.ms", "unfold.occurrences",
      "closure.ms", "closure.self_ms", "closure.seed_ms", "closure.rounds",
      "closure.facts", "closure.pistar_facts",
      "check.ms", "check.requirements",
      "service.batch_ms", "cache.closures_built", "cache.warm_starts",
      "cache.retract_builds", "cache.signature_hit_ratio",
      "cache.requirement_hit_ratio",
      "session.grant_ms", "session.revoke_ms", "session.recheck_ms",
      "session.retractions_fast_ratio",
      "guard.decide_us", "guard.fastpath_ratio", "guard.session_hit_ratio",
      "guard.delta_rechecks", "guard.cold_builds", "guard.denials",
      "query.exec_us",
      "snapshot.find_ms", "snapshot.finds", "snapshot.page_cache_hit_ratio",
      "snapshot.file_bytes", "cache.snapshot_hits",
      "tcp.run_ms", "tcp.plan_ms", "tcp.shard_imbalance",
      "loadgen.lag_ms", "trace.overhead_ratio",
      "layer.text.self_ms", "layer.unfold.self_ms", "layer.closure.self_ms",
      "layer.cache.self_ms", "layer.analyzer.self_ms",
      "layer.service.self_ms", "layer.session.self_ms",
      "layer.tcp.self_ms", "layer.dynamic.self_ms",
      "layer.benchmark.self_ms",
  };
  return names;
}

// Accumulates per-layer values; Finish() emits every name in order.
class Layers {
 public:
  double& operator[](const std::string& name) { return values_[name]; }
  void Finish(RunResult& r) const {
    for (const std::string& name : PerLayerNames()) {
      auto it = values_.find(name);
      r.per_layer.emplace_back(name, it == values_.end() ? 0 : it->second);
    }
  }

 private:
  std::map<std::string, double> values_;
};

// Sums of duration and self time per span name over the recorder, and
// the layer self times per op.
struct SpanTotals {
  std::map<std::string, double> total_ms, self_ms;
  std::map<std::string, std::vector<double>> durations_ms, selves_ms;
};

SpanTotals Summarize(const SpanRecorder& rec) {
  SpanTotals t;
  std::vector<double> self = rec.SelfMs();
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    double d = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.total_ms[s.name] += d;
    t.self_ms[s.name] += self[i];
    t.durations_ms[s.name].push_back(d);
    t.selves_ms[s.name].push_back(self[i]);
  }
  return t;
}

// Layer self times per op, the closure layer's own figures, and the
// spans written out, from one traced phase.
void FillFromSpans(const SpanRecorder& rec, int ops, const RunOptions& o,
                   Layers& layers) {
  SpanTotals t = Summarize(rec);
  std::vector<double> self = rec.SelfMs();
  const double per_op = ops > 0 ? 1.0 / ops : 0;
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    layers[StrCat("layer.", LayerOf(rec.spans()[i].name), ".self_ms")] +=
        self[i] * per_op;
  }
  layers["unfold.ms"] = t.total_ms["unfold"] * per_op;
  layers["closure.ms"] = t.total_ms["closure"] * per_op;
  layers["closure.seed_ms"] = t.total_ms["closure.seed"] * per_op;
  for (const auto& [name, ms] : t.self_ms) {
    if (LayerOf(name) == "closure") layers["closure.self_ms"] += ms * per_op;
  }
  layers["check.ms"] = t.total_ms["check"] * per_op;
  if (!o.trace_path.empty() && !rec.WriteJsonLines(o.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_path.c_str());
  }
}

std::map<std::string, double> Counters(const obs::MetricsRegistry& metrics) {
  std::map<std::string, double> out;
  for (const obs::MetricSnapshot& m : metrics.Snapshot()) {
    out[m.name] = static_cast<double>(m.value);
  }
  return out;
}

// Counters the unfold and closure layers publish, accumulated between
// `before` and `after`, per op.
void FillFromCounters(const std::map<std::string, double>& after,
                      const std::map<std::string, double>& before,
                      double per_op, Layers& layers) {
  auto delta = [&](const char* name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return ((a == after.end() ? 0 : a->second) -
            (b == before.end() ? 0 : b->second)) *
           per_op;
  };
  layers["unfold.occurrences"] += delta("unfold.occurrences");
  layers["closure.rounds"] += delta("closure.fixpoint.rounds");
  layers["closure.facts"] += delta("closure.facts.total");
  layers["closure.pistar_facts"] += delta("closure.facts.family.pistar");
}

void FillServiceStats(const service::ServiceStats& s, double per_op,
                      Layers& layers) {
  layers["cache.closures_built"] += s.closures_built * per_op;
  layers["cache.warm_starts"] += s.warm_starts * per_op;
  layers["cache.retract_builds"] += s.retract_builds * per_op;
  layers["cache.snapshot_hits"] += s.snapshot_hits * per_op;
  layers["cache.signature_hit_ratio"] += s.SignatureHitRate() * per_op;
  layers["cache.requirement_hit_ratio"] += s.RequirementHitRate() * per_op;
}

std::vector<double> Concat(std::vector<double> a, const std::vector<double>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Runs `op(traced, op_index)` (returns its latency in seconds) until
// `seconds` pass; at least kMinOps times. Between ops it samples the
// host's speed; `at`, when given, receives each op's end time.
template <typename Op>
std::vector<double> Measure(double seconds, bool traced, HostSpeed& speed,
                            Op&& op, std::vector<double>* at = nullptr) {
  std::vector<double> latencies;
  double deadline = NowSeconds() + seconds;
  while (static_cast<int>(latencies.size()) < kMinOps ||
         NowSeconds() < deadline) {
    speed.MaybeSample();
    latencies.push_back(op(traced, static_cast<int>(latencies.size())));
    if (at != nullptr) at->push_back(NowSeconds());
  }
  return latencies;
}

// Set-up times, each with the time it ended.
struct Setups {
  std::vector<double> s, at;
  void Add(double t0, HostSpeed& speed) {
    at.push_back(NowSeconds());
    s.push_back(at.back() - t0);
    speed.Sample();
  }
};

// The end-to-end metrics of an untraced run from the per-op costs in
// seconds (wall latency, or CPU time for audit_fleet_warm) and the times
// the ops ended, in time of the reference host (see HostSpeed); the
// table prints them as measured too. See WindowedTail for the tail, and
// each workload for when it reads the peak resident set.
void FinishEndToEnd(RunResult& r, const Setups& setups,
                    const std::vector<double>& costs_s,
                    const std::vector<double>& costs_at, double tail_q,
                    double peak_rss_mb, const HostSpeed& speed) {
  auto scaled = [&](const std::vector<double>& v,
                    const std::vector<double>& at, double unit) {
    std::vector<double> out;
    for (size_t i = 0; i < v.size(); ++i) {
      out.push_back(v[i] * unit * speed.ScaleAt(at[i]));
    }
    return out;
  };
  std::vector<double> ms = scaled(costs_s, costs_at, 1e3);
  r.end_to_end = {{"setup_s", Median(scaled(setups.s, setups.at, 1))},
                  {"op_p50_ms", Median(ms)},
                  {"op_tail_ms", WindowedTail(ms, tail_q)},
                  {"peak_rss_mb", peak_rss_mb}};
  std::vector<double> raw_ms;
  for (double s : costs_s) raw_ms.push_back(s * 1e3);
  r.report.emplace_back(
      "host_scale", StrCat(speed.Scale(), " (reference kernel ",
                           kReferenceKernelMs, " ms / median of ",
                           speed.samples(), " samples)"));
  r.report.emplace_back(
      "as_measured",
      StrCat("setup_s ", Median(setups.s), "  op_p50_ms ", Median(raw_ms),
             "  op_tail_ms ", WindowedTail(raw_ms, tail_q)));
}

void SampleThreads(RunResult& r) {
  r.threads_peak = std::max(r.threads_peak, ThreadCount());
}

void ReportCommon(RunResult& r) {
  r.report.emplace_back("threads_peak", StrCat(r.threads_peak));
  r.report.emplace_back(
      "failed_ratio",
      StrCat(Ratio(static_cast<double>(r.failed),
                   static_cast<double>(r.attempted)),
             " (", r.failed, "/", r.attempted, ")"));
}

void ReportAudit(RunResult& r, const std::vector<double>& latencies_s) {
  r.report.emplace_back("audit_s", StrCat(Median(latencies_s), " s (median of ",
                                          latencies_s.size(), " audits)"));
}

}  // namespace

// ---------------------------------------------------------------------
// audit_cold

RunResult RunAuditCold(const RunOptions& o) {
  RunResult r;
  HostSpeed speed(o.max_threads);
  Setups setups;
  GeneratedWorkspace gen;
  for (int k = 0; k < kSetupReps; ++k) {
    double t0 = NowSeconds();
    gen = GenerateAudit(o.seed, o.tiny);
    setups.Add(t0, speed);
  }
  const std::vector<int> all = Iota(gen.expected_satisfied.size());

  SpanRecorder rec;
  Layers layers;
  int traced_ops = 0;
  // A nightly audit is one audit per process, so the memory figure is
  // the peak once set-up and the first audit are done. Later audits
  // build the large closure on whichever pool thread comes free, and
  // the allocator's per-thread arenas keep each copy resident, so the
  // peak over a whole run depends on thread placement.
  double first_audit_rss_mb = 0;
  std::vector<double> cpu_s;
  auto audit = [&](bool traced, int op) {
    double t0 = NowSeconds();
    double c0 = ProcessCpuSeconds();
    int root = traced ? rec.Begin("op.audit", -1, op) : -1;
    int load = traced ? rec.Begin("text.LoadWorkspace", root, op) : -1;
    auto ws = text::LoadWorkspace(gen.text);
    if (traced) rec.End(load);
    ++r.attempted;
    if (!ws.ok()) {
      Fail(r, ws.status().ToString());
      return NowSeconds() - t0;
    }
    core::SessionOptions options;
    options.threads = o.max_threads;
    options.closure.closure_threads = 1;
    options.tracing = traced;
    core::AnalysisSession session(*ws->schema, *ws->users, options);
    service::AnalysisService service(session);
    int batch = traced ? rec.Begin("service.CheckBatch", root, op) : -1;
    auto reports = service.CheckBatch(ws->requirements);
    double elapsed = NowSeconds() - t0;
    cpu_s.push_back(ProcessCpuSeconds() - c0);
    SampleThreads(r);
    if (first_audit_rss_mb == 0) first_audit_rss_mb = PeakRssMb();
    if (traced) {
      rec.End(batch);
      rec.End(root);
      rec.Harvest(session.tracer(), batch, op);
      ++traced_ops;
      FillFromCounters(Counters(session.metrics()), {}, 1, layers);
      FillServiceStats(service.Stats(), 1, layers);
      layers["check.requirements"] += ws->requirements.size();
    }
    if (!reports.ok()) {
      Fail(r, reports.status().ToString());
    } else if (std::string bad =
                   VerdictMismatch(*reports, gen.expected_satisfied, all);
               !bad.empty()) {
      Fail(r, bad);
    }
    return elapsed;
  };

  if (!o.trace) {
    std::vector<double> at;
    std::vector<double> lat = Measure(o.seconds, false, speed, audit, &at);
    FinishEndToEnd(r, setups, lat, at, 0.9, first_audit_rss_mb, speed);
    ReportCommon(r);
    ReportAudit(r, lat);
    r.report.emplace_back("audit_cpu_s", StrCat(Median(cpu_s), " s"));
    return r;
  }
  std::vector<double> before = Measure(o.seconds / 3, false, speed, audit);
  std::vector<double> traced = Measure(o.seconds / 3, true, speed, audit);
  std::vector<double> plain =
      Concat(before, Measure(o.seconds / 3, false, speed, audit));
  // Per-op averages of the accumulated counters.
  for (const char* name :
       {"unfold.occurrences", "closure.rounds", "closure.facts",
        "closure.pistar_facts", "check.requirements", "cache.closures_built",
        "cache.warm_starts", "cache.retract_builds", "cache.snapshot_hits",
        "cache.signature_hit_ratio", "cache.requirement_hit_ratio"}) {
    layers[name] /= traced_ops;
  }
  FillFromSpans(rec, traced_ops, o, layers);
  SpanTotals t = Summarize(rec);
  layers["text.load_ms"] = Median(t.durations_ms["text.LoadWorkspace"]);
  layers["text.bytes"] = static_cast<double>(gen.text.size());
  layers["service.batch_ms"] = Median(t.durations_ms["service.CheckBatch"]);
  layers["trace.overhead_ratio"] = Median(traced) / Median(plain) - 1;
  layers.Finish(r);
  return r;
}

// ---------------------------------------------------------------------
// audit_fleet_warm

namespace {

// Loopback ServeShardWorker threads, one listener each, stopped and
// joined on destruction.
class LoopbackFleet {
 public:
  LoopbackFleet(const schema::Schema& schema, int workers,
                const core::ClosureOptions& closure) {
    for (int w = 0; w < workers; ++w) {
      auto bound = net::Listener::Bind(0);
      if (!bound.ok()) Fatal("listener: " + bound.status().ToString());
      listeners_.push_back(
          std::make_unique<net::Listener>(std::move(bound).value()));
      addresses_.push_back(StrCat("127.0.0.1:", listeners_.back()->port()));
    }
    service::TcpWorkerOptions options;
    options.closure = closure;
    options.persistent_cache = false;  // every closure: remote find+replay
    for (auto& listener : listeners_) {
      net::Listener* l = listener.get();
      threads_.emplace_back([l, &schema, options, this] {
        common::Status status =
            service::ServeShardWorker(*l, schema, options, &stop_);
        if (!status.ok()) {
          std::fprintf(stderr, "perfbench: worker: %s\n",
                       status.ToString().c_str());
        }
      });
    }
  }
  ~LoopbackFleet() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  LoopbackFleet(const LoopbackFleet&) = delete;
  LoopbackFleet& operator=(const LoopbackFleet&) = delete;

  const std::vector<std::string>& addresses() const { return addresses_; }

 private:
  std::vector<std::unique_ptr<net::Listener>> listeners_;
  std::vector<std::string> addresses_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

RunResult RunAuditFleetWarm(const RunOptions& o) {
  RunResult r;
  HostSpeed speed(o.max_threads);
  const std::string dir = StrCat(o.work_dir, "/fleet-", o.seed);
  Setups setups;
  GeneratedWorkspace gen;
  std::unique_ptr<text::Workspace> fleet_ws;
  std::shared_ptr<snapshot::SnapshotStore> store;
  std::vector<std::string> reference;
  core::ClosureOptions closure;
  // Set-up: generate, then populate a fresh packed store from an
  // in-process CheckBatch, whose reports are the byte-identity
  // reference for every fleet audit.
  for (int k = 0; k < kSetupReps; ++k) {
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    double t0 = NowSeconds();
    gen = GenerateFleet(o.seed, o.tiny);
    fleet_ws = std::make_unique<text::Workspace>(Load(gen.text));
    auto opened = snapshot::OpenPackedStore(dir + "/closures.pack");
    if (!opened.ok()) Fatal("packed store: " + opened.status().ToString());
    store = std::move(opened).value();
    service::ServiceOptions options;
    options.threads = o.max_threads;
    options.closure = closure;
    options.cache_capacity = 1 << 16;
    options.snapshot_store = store;
    service::AnalysisService service(*fleet_ws->schema, *fleet_ws->users,
                                     options);
    auto reports = service.CheckBatch(fleet_ws->requirements);
    if (!reports.ok()) Fatal("reference batch: " + reports.status().ToString());
    common::Status saved = service.SaveCacheSnapshot();
    if (!saved.ok()) Fatal("store population: " + saved.ToString());
    setups.Add(t0, speed);
    reference.clear();
    for (const core::AnalysisReport& report : *reports) {
      reference.push_back(ReportBytes(report));
    }
    std::string bad = VerdictMismatch(*reports, gen.expected_satisfied,
                                      Iota(gen.expected_satisfied.size()));
    if (!bad.empty()) Fatal("reference batch: " + bad);
  }

  // The fleet: two loopback workers over the set-up workspace's schema,
  // and one coordinator transport whose store server (started on the
  // first run, pinned to that run's schema) stays up across audits, as
  // a deployed coordinator's would. Each audit still loads the text.
  LoopbackFleet fleet(*fleet_ws->schema, 2, closure);
  service::TcpTransportOptions transport_options;
  transport_options.workers = fleet.addresses();
  transport_options.closure = closure;
  transport_options.snapshot_store = store;
  service::TcpTransport transport(transport_options);
  {
    auto warm = transport.Run(*fleet_ws->schema, *fleet_ws->users,
                              fleet_ws->requirements, nullptr);
    if (!warm.ok()) Fatal("first fleet audit: " + warm.status().ToString());
  }
  SpanRecorder rec;
  Layers layers;
  int traced_ops = 0;
  std::vector<double> imbalance;
  std::vector<double> cpu_s;
  auto audit = [&](bool traced, int op) {
    double t0 = NowSeconds();
    double c0 = ProcessCpuSeconds();
    int root = traced ? rec.Begin("op.audit", -1, op) : -1;
    int load = traced ? rec.Begin("text.LoadWorkspace", root, op) : -1;
    auto ws = text::LoadWorkspace(gen.text);
    if (traced) rec.End(load);
    ++r.attempted;
    if (!ws.ok()) {
      Fail(r, ws.status().ToString());
      return NowSeconds() - t0;
    }
    obs::Observability obs;
    obs.tracer.set_enabled(traced);
    int run = traced ? rec.Begin("tcp.Run", root, op) : -1;
    common::Result<service::ShardedBatchResult> result = transport.Run(
        *ws->schema, *ws->users, ws->requirements, traced ? &obs : nullptr);
    double elapsed = NowSeconds() - t0;
    cpu_s.push_back(ProcessCpuSeconds() - c0);
    SampleThreads(r);
    if (traced) {
      rec.End(run);
      rec.End(root);
      rec.Harvest(obs.tracer, run, op);
      ++traced_ops;
    }
    if (!result.ok()) {
      Fail(r, result.status().ToString());
      return elapsed;
    }
    if (traced) {
      FillServiceStats(result->merged_stats, 1, layers);
      layers["check.requirements"] += ws->requirements.size();
      double max = 0, sum = 0;
      for (size_t n : result->shard_requirements) {
        max = std::max(max, static_cast<double>(n));
        sum += static_cast<double>(n);
      }
      imbalance.push_back(
          Ratio(max, sum / static_cast<double>(result->shard_requirements.size())));
    }
    bool identical = result->reports.size() == reference.size();
    for (size_t i = 0; identical && i < reference.size(); ++i) {
      identical = ReportBytes(result->reports[i]) == reference[i];
    }
    if (!identical) {
      Fail(r, "fleet reports differ from the in-process CheckBatch");
    } else if (std::string bad =
                   VerdictMismatch(result->reports, gen.expected_satisfied,
                                   Iota(gen.expected_satisfied.size()));
               !bad.empty()) {
      Fail(r, bad);
    }
    return elapsed;
  };

  if (!o.trace) {
    // The op metrics are the fleet's CPU time per audit (coordinator,
    // workers and store server all run in this process): its wall time
    // is dozens of thread hand-offs per audit, and on a shared host
    // those moved the median by 2x between runs of one seed, while the
    // CPU time held within a few percent.
    std::vector<double> at;
    std::vector<double> lat = Measure(o.seconds, false, speed, audit, &at);
    FinishEndToEnd(r, setups, cpu_s, at, 0.9, PeakRssMb(), speed);
    ReportCommon(r);
    ReportAudit(r, lat);
    r.report.emplace_back("audit_cpu_s", StrCat(Median(cpu_s), " s"));
  } else {
    std::vector<double> before = Measure(o.seconds / 3, false, speed, audit);
    const snapshot::StoreStats store0 = store->Stats();
    std::vector<double> traced = Measure(o.seconds / 3, true, speed, audit);
    const snapshot::StoreStats store1 = store->Stats();
    std::vector<double> plain =
        Concat(before, Measure(o.seconds / 3, false, speed, audit));
    for (const char* name :
         {"check.requirements", "cache.closures_built", "cache.warm_starts",
          "cache.retract_builds", "cache.snapshot_hits",
          "cache.signature_hit_ratio", "cache.requirement_hit_ratio"}) {
      layers[name] /= traced_ops;
    }
    FillFromSpans(rec, traced_ops, o, layers);
    SpanTotals t = Summarize(rec);
    layers["text.load_ms"] = Median(t.durations_ms["text.LoadWorkspace"]);
    layers["text.bytes"] = static_cast<double>(gen.text.size());
    layers["tcp.run_ms"] = Median(t.durations_ms["tcp.Run"]);
    layers["tcp.plan_ms"] = Median(t.durations_ms["tcp.plan"]);
    layers["tcp.shard_imbalance"] = Median(imbalance);
    layers["trace.overhead_ratio"] = Median(traced) / Median(plain) - 1;
    // The snapshot layer as the workers use it: one find + replay per
    // distinct signature, timed from here against the same store.
    std::set<std::vector<std::string>> signatures;
    for (const core::Requirement& req : fleet_ws->requirements) {
      const schema::User* user = fleet_ws->users->Find(req.user);
      if (user != nullptr) {
        signatures.insert(core::AnalysisRoots(*fleet_ws->schema, *user));
      }
    }
    std::vector<double> finds_ms;
    for (const std::vector<std::string>& roots : signatures) {
      double t0 = NowSeconds();
      auto found = store->Find(*fleet_ws->schema, closure, roots);
      finds_ms.push_back((NowSeconds() - t0) * 1e3);
      if (!found.ok()) Fail(r, "snapshot find: " + found.status().ToString());
    }
    layers["snapshot.find_ms"] = Median(finds_ms);
    // The workers' finds during the traced audits, served by the
    // coordinator's store.
    layers["snapshot.finds"] =
        static_cast<double>(store1.finds - store0.finds) / traced_ops;
    double hits = static_cast<double>(store1.page_cache_hits -
                                      store0.page_cache_hits);
    double misses = static_cast<double>(store1.page_cache_misses -
                                        store0.page_cache_misses);
    layers["snapshot.page_cache_hit_ratio"] = Ratio(hits, hits + misses);
    layers["snapshot.file_bytes"] = static_cast<double>(store1.file_bytes);
    layers.Finish(r);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return r;
}

// ---------------------------------------------------------------------
// policy_churn

RunResult RunPolicyChurn(const RunOptions& o) {
  RunResult r;
  HostSpeed speed(o.max_threads);
  Setups setups;
  ChurnPlan plan;
  std::unique_ptr<text::Workspace> ws;
  std::unique_ptr<core::AnalysisSession> session;
  // Per heavy user, the requirement objects its recheck covers.
  std::vector<std::vector<core::Requirement>> user_reqs;
  // Set-up: generate, load, open the session and audit every heavy user
  // once, so the session cache holds each user's closure before the
  // first grant or revoke.
  for (int k = 0; k < kSetupReps; ++k) {
    session.reset();
    double t0 = NowSeconds();
    plan = GenerateChurn(o.seed, o.tiny);
    ws = std::make_unique<text::Workspace>(Load(plan.workspace.text));
    // One fixpoint thread: each recheck is one small warm or retracted
    // build, and at closure_threads = 4 the round crews' hand-offs made
    // rechecks both slower and far noisier on a shared 4-core host.
    core::SessionOptions options;
    options.threads = 1;
    options.closure.closure_threads = 1;
    session = std::make_unique<core::AnalysisSession>(*ws->schema,
                                                      *ws->users, options);
    user_reqs.assign(plan.users.size(), {});
    for (size_t u = 0; u < plan.users.size(); ++u) {
      for (int i : plan.user_requirements[u]) {
        user_reqs[u].push_back(ws->requirements[i]);
      }
      auto reports = session->RecheckRequirements(user_reqs[u]);
      if (!reports.ok()) Fatal("initial audit: " + reports.status().ToString());
      std::string bad = VerdictMismatch(
          *reports, plan.workspace.expected_satisfied,
          plan.user_requirements[u]);
      if (!bad.empty()) Fatal("initial audit: " + bad);
    }
    setups.Add(t0, speed);
  }

  SpanRecorder rec;
  std::map<int, int> root_ops;
  // One op: revoke, recheck, grant, recheck. Timing the pair keeps the
  // per-op cost unimodal: a revoke (an eager DRed retraction) costs a
  // few times a grant (a warm-started build), and with single changes
  // the median would sit on the boundary between the two.
  auto churn = [&](bool traced, int op_index) {
    const ChurnOp op = plan.Next();
    const std::string& user = plan.users[op.user];
    obs::Tracer* tracer = traced ? &session->tracer() : nullptr;
    double t0 = NowSeconds();
    obs::ScopedSpan root(tracer, "op.change");
    auto recheck = [&]() -> std::string {
      obs::ScopedSpan span(tracer, "session.RecheckRequirements");
      auto reports = session->RecheckRequirements(user_reqs[op.user]);
      if (!reports.ok()) return reports.status().ToString();
      return VerdictMismatch(*reports, plan.workspace.expected_satisfied,
                             plan.user_requirements[op.user]);
    };
    common::Status status;
    {
      obs::ScopedSpan span(tracer, "session.RemoveCapability");
      status = session->RemoveCapability(user, op.revoke);
    }
    std::string failure = status.ok() ? recheck() : status.ToString();
    if (failure.empty()) {
      {
        obs::ScopedSpan span(tracer, "session.AddCapability");
        status = session->AddCapability(user, op.grant);
      }
      failure = status.ok() ? recheck() : status.ToString();
    }
    double elapsed = NowSeconds() - t0;
    SampleThreads(r);
    if (traced) root_ops[root.id()] = op_index;
    ++r.attempted;
    if (!failure.empty()) Fail(r, failure);
    return elapsed;
  };

  // Warm-up: the sequence starts from a structured grant set (the same
  // size for every seed, for a steady set-up); these ops walk it to the
  // mixed state the rest of the run stays in. Checked, not timed.
  for (int k = 0; k < (o.tiny ? 4 : kChurnWarmOps); ++k) churn(false, k);

  if (!o.trace) {
    std::vector<double> at;
    std::vector<double> lat = Measure(o.seconds, false, speed, churn, &at);
    FinishEndToEnd(r, setups, lat, at, 0.9, PeakRssMb(), speed);
    ReportCommon(r);
    std::vector<double> ms;
    for (double s : lat) ms.push_back(s * 1e3);
    r.report.emplace_back("recheck_p50_ms",
                          StrCat(Median(ms), " ms (", ms.size(), " ops)"));
    std::optional<double> p90 = Percentile(ms, 0.9);
    r.report.emplace_back(
        "recheck_p90_ms",
        p90 ? StrCat(*p90, " ms") : std::string("n/a (<10 samples beyond)"));
    return r;
  }
  std::vector<double> before = Measure(o.seconds / 3, false, speed, churn);
  core::ClosureCache::Stats cache_before = session->recheck_cache().stats();
  auto counter = [&](const char* name) {
    return static_cast<double>(session->metrics().counter(name)->value());
  };
  double revokes0 = counter("session.revokes");
  double fast0 = counter("session.retractions_fast");
  std::map<std::string, double> counters0 = Counters(session->metrics());
  session->tracer().set_enabled(true);
  std::vector<double> traced = Measure(o.seconds / 3, true, speed, churn);
  session->tracer().set_enabled(false);
  rec.Harvest(session->tracer(), -1, -1, &root_ops);
  const int ops = static_cast<int>(traced.size());
  const core::ClosureCache::Stats c = session->recheck_cache().stats();
  const double revokes = counter("session.revokes") - revokes0;
  const double fast = counter("session.retractions_fast") - fast0;
  std::map<std::string, double> counters1 = Counters(session->metrics());
  std::vector<double> plain =
      Concat(before, Measure(o.seconds / 3, false, speed, churn));
  Layers layers;
  FillFromSpans(rec, ops, o, layers);
  SpanTotals t = Summarize(rec);
  layers["session.grant_ms"] = Median(t.durations_ms["session.AddCapability"]);
  layers["session.revoke_ms"] =
      Median(t.durations_ms["session.RemoveCapability"]);
  layers["session.recheck_ms"] =
      Median(t.durations_ms["session.RecheckRequirements"]);
  layers["session.retractions_fast_ratio"] = Ratio(fast, revokes);
  double built = static_cast<double>(
      (c.warm_builds + c.cold_builds + c.retract_builds) -
      (cache_before.warm_builds + cache_before.cold_builds +
       cache_before.retract_builds));
  double hits = static_cast<double>(c.exact_hits - cache_before.exact_hits);
  layers["cache.closures_built"] = built / ops;
  layers["cache.warm_starts"] =
      static_cast<double>(c.warm_builds - cache_before.warm_builds) / ops;
  layers["cache.retract_builds"] =
      static_cast<double>(c.retract_builds - cache_before.retract_builds) /
      ops;
  layers["cache.signature_hit_ratio"] = Ratio(hits, hits + built);
  layers["check.requirements"] = static_cast<double>(user_reqs[0].size());
  FillFromCounters(counters1, counters0, 1.0 / ops, layers);
  layers["text.bytes"] = static_cast<double>(plan.workspace.text.size());
  layers["trace.overhead_ratio"] = Median(traced) / Median(plain) - 1;
  layers.Finish(r);
  return r;
}

// ---------------------------------------------------------------------
// guard_serving

namespace {

// Everything the serving path needs, built in set-up.
struct GuardSetup {
  GuardPlan plan;
  std::unique_ptr<text::Workspace> ws;
  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<dynamic::SessionGuard> guard;
  // Per serving thread: its own database and its own bound queries.
  std::vector<std::unique_ptr<store::Database>> dbs;
  std::vector<std::unordered_map<std::string,
                                 std::unique_ptr<query::SelectQuery>>>
      queries;
  std::vector<const query::SelectQuery*> request_query;
  std::vector<const schema::User*> request_user;
};

void BuildGuard(const RunOptions& o, int serving, GuardSetup& g) {
  g = GuardSetup{};
  g.plan = GenerateGuard(o.seed, o.seconds + kWarmSeconds, kGuardRate,
                         serving, o.tiny);
  g.ws = std::make_unique<text::Workspace>(Load(g.plan.workspace.text));
  dynamic::GuardOptions options;
  if (o.trace) {
    g.obs = std::make_unique<obs::Observability>();
    options.obs = g.obs.get();
  }
  g.guard = std::make_unique<dynamic::SessionGuard>(
      *g.ws->schema, *g.ws->users, g.ws->requirements, options);
  g.queries.resize(serving);
  for (int t = 0; t < serving; ++t) {
    g.dbs.push_back(
        std::make_unique<store::Database>(g.ws->database->Clone()));
  }
  for (const GuardRequest& req : g.plan.requests) {
    auto& mine = g.queries[req.thread];
    auto it = mine.find(req.query);
    if (it == mine.end()) {
      auto parsed = query::ParseQueryString(req.query);
      if (!parsed.ok()) Fatal("query: " + parsed.status().ToString());
      common::Status bound = query::BindQuery(*parsed.value(), *g.ws->schema);
      if (!bound.ok()) Fatal("query: " + bound.ToString());
      it = mine.emplace(req.query, std::move(parsed).value()).first;
    }
    g.request_query.push_back(it->second.get());
    const schema::User* user = g.ws->users->Find(req.user);
    if (user == nullptr) Fatal("unknown user " + req.user);
    g.request_user.push_back(user);
  }
}

}  // namespace

RunResult RunGuardServing(const RunOptions& o) {
  RunResult r;
  HostSpeed speed(o.max_threads);
  // One serving thread: a serving thread spins while it waits (see
  // serve_stretch), so it holds a whole vCPU of the shared host for the
  // entire run, and at kGuardRate one is busy under a tenth of the time.
  const int serving = 1;
  Setups setups;
  GuardSetup g;
  for (int k = 0; k < kSetupReps; ++k) {
    double t0 = NowSeconds();
    BuildGuard(o, serving, g);
    setups.Add(t0, speed);
  }
  const std::vector<GuardRequest>& requests = g.plan.requests;
  const size_t n = requests.size();
  std::vector<double> latency_s(n, 0), lag_s(n, 0), done_at(n, 0);
  // Per request: 1 allowed, 2 denied, 3 other error.
  std::vector<char> outcome(n, 0);
  std::vector<std::string> errors(n);

  // Serves requests [begin, end) open-loop on the seeded schedule: each
  // serving thread walks its own requests in due order and starts each
  // at its due time, or at once when it is still busy with an earlier
  // one, so latency — timed from the due time — includes any queueing.
  // Lag is how late a request started although its server was idle: the
  // schedule's own error. Servers spin while they wait: a sleeping
  // thread's wake-up alone runs tens of microseconds late at the median
  // and milliseconds late at the p99 on a shared host (an idle vCPU has
  // to be scheduled again), which would read as guard latency.
  auto serve_stretch = [&](size_t begin, size_t end, bool traced,
                           std::vector<std::map<int, int>>& root_ops) {
    if (begin >= end) return;
    obs::Tracer* tracer = traced ? &g.obs->tracer : nullptr;
    const auto origin =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    const double base = requests[begin].due_s;
    auto due_of = [&](size_t i) {
      return origin +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(requests[i].due_s - base));
    };
    std::vector<std::thread> servers;
    for (int t = 0; t < serving; ++t) {
      servers.emplace_back([&, t] {
        for (size_t i = begin; i < end; ++i) {
          if (requests[i].thread != t) continue;
          const auto due = due_of(i);
          if (std::chrono::steady_clock::now() < due) {
            while (std::chrono::steady_clock::now() < due) {
            }
            lag_s[i] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - due)
                           .count();
          }
          common::Result<query::QueryResult> result =
              common::InternalError("not run");
          {
            // Every kDecideSample-th traced request first runs Decide
            // alone (guard.decide_us); its Run then mostly executes the
            // query (query.exec_us).
            const bool sampled = traced && i % kDecideSample == 0;
            obs::ScopedSpan root(tracer, "op.request");
            if (sampled) {
              obs::ScopedSpan span(tracer, "guard.Decide");
              (void)g.guard->Decide(*g.request_user[i], *g.request_query[i]);
            }
            obs::ScopedSpan span(tracer, sampled ? "guard.Run.after_decide"
                                                 : "guard.Run");
            result = g.guard->Run(*g.dbs[t], *g.request_user[i],
                                  *g.request_query[i]);
            if (traced) root_ops[t][root.id()] = static_cast<int>(i);
          }
          latency_s[i] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - due)
                             .count();
          done_at[i] = NowSeconds();
          if (result.ok()) {
            outcome[i] = 1;
          } else if (result.status().code() ==
                     common::StatusCode::kPermissionDenied) {
            outcome[i] = 2;
          } else {
            outcome[i] = 3;
            errors[i] = result.status().ToString();
          }
        }
      });
    }
    SampleThreads(r);
    for (std::thread& s : servers) s.join();
  };
  // Serves [begin, end) in stretches of about a second of the schedule
  // and samples the host's speed between them, while no server spins.
  auto serve = [&](size_t begin, size_t end, bool traced,
                   std::vector<std::map<int, int>>& root_ops) {
    const size_t stretch = static_cast<size_t>(kGuardRate);
    for (size_t b = begin; b < end; b += stretch) {
      serve_stretch(b, std::min(end, b + stretch), traced, root_ops);
      for (int k = 0; k < 3; ++k) speed.Sample();
    }
  };

  // The first kWarmSeconds of the schedule warm the serving path (lazily
  // built relevance tables, the host's idle cores); its verdicts are
  // checked but its latencies are not reported.
  const size_t warm =
      std::min<size_t>(n / 2, static_cast<size_t>(kWarmSeconds * kGuardRate));
  SpanRecorder rec;
  std::vector<std::map<int, int>> root_ops(serving);
  serve(0, warm, false, root_ops);
  // Traced runs trace the middle third [t0, t1) of the measured requests.
  const size_t t0 = o.trace ? warm + (n - warm) / 3 : n;
  const size_t t1 = o.trace ? warm + 2 * (n - warm) / 3 : n;
  serve(warm, t0, false, root_ops);
  std::map<std::string, double> counters0, counters1;
  dynamic::GuardStats stats0, stats1;
  if (o.trace) {
    counters0 = Counters(g.obs->metrics);
    stats0 = g.guard->Stats();
    g.obs->tracer.set_enabled(true);
    serve(t0, t1, true, root_ops);
    g.obs->tracer.set_enabled(false);
    counters1 = Counters(g.obs->metrics);
    stats1 = g.guard->Stats();
    serve(t1, n, false, root_ops);
  }

  r.attempted = n;
  for (size_t i = 0; i < n; ++i) {
    bool allowed = outcome[i] == 1;
    if (outcome[i] == 3) {
      Fail(r, StrCat("request ", i, ": ", errors[i]));
    } else if (allowed != requests[i].expect_allowed) {
      Fail(r, StrCat("request ", i, " (", requests[i].user, ": ",
                     requests[i].query, ") was ",
                     allowed ? "allowed" : "denied", ", expected ",
                     requests[i].expect_allowed ? "allowed" : "denied"));
    }
  }
  auto slice_us = [&](size_t b, size_t e, const std::vector<double>& v) {
    std::vector<double> us;
    for (size_t i = b; i < e; ++i) us.push_back(v[i] * 1e6);
    return us;
  };

  if (!o.trace) {
    std::vector<double> lat = slice_us(warm, n, latency_s);
    // The contract's tail is the p90: on a shared host the p99 of a
    // 10-second run moves with the hypervisor's stalls, not the guard.
    FinishEndToEnd(r, setups,
                   std::vector<double>(latency_s.begin() + warm, latency_s.end()),
                   std::vector<double>(done_at.begin() + warm, done_at.end()),
                   0.9, PeakRssMb(), speed);
    ReportCommon(r);
    r.report.emplace_back(
        "decide_p50_us", StrCat(Median(lat), " us (", lat.size(),
                                " requests at ", kGuardRate, "/s, ", serving,
                                " serving threads)"));
    for (double q : {0.9, 0.99}) {
      std::optional<double> p = Percentile(lat, q);
      r.report.emplace_back(
          StrCat("decide_p", static_cast<int>(q * 100), "_us"),
          p ? StrCat(*p, " us") : std::string("n/a (<10 samples beyond)"));
    }
    const char* kinds[] = {"repeat", "unrelated", "grow", "probe"};
    for (int k = 0; k < 4; ++k) {
      std::vector<double> mine;
      for (size_t i = warm; i < n; ++i) {
        if (static_cast<int>(requests[i].kind) == k) {
          mine.push_back(latency_s[i] * 1e6);
        }
      }
      r.report.emplace_back(
          StrCat("  ", kinds[k], "_us"),
          StrCat("p50 ", Median(mine), "  p90 ", Tail(mine, 0.9), "  (",
                 mine.size(), " requests)"));
    }
    r.report.emplace_back("loadgen_lag_p99_us",
                          StrCat(Tail(slice_us(warm, n, lag_s), 0.99), " us"));
    return r;
  }

  std::map<int, int> all_roots;
  for (const std::map<int, int>& ops : root_ops) {
    all_roots.insert(ops.begin(), ops.end());
  }
  rec.Harvest(g.obs->tracer, -1, -1, &all_roots);
  Layers layers;
  FillFromSpans(rec, static_cast<int>(t1 - t0), o, layers);
  SpanTotals t = Summarize(rec);
  auto to_us = [](std::vector<double> ms) {
    for (double& v : ms) v *= 1e3;
    return ms;
  };
  layers["guard.decide_us"] = Median(to_us(t.durations_ms["guard.Decide"]));
  layers["query.exec_us"] =
      Median(to_us(t.selves_ms["guard.Run.after_decide"]));
  // Tier counts of the traced third, whose sampled pre-flight Decides
  // count as decisions too.
  const dynamic::GuardStats& stats = stats1;
  double decisions = static_cast<double>(stats.decisions - stats0.decisions);
  layers["guard.fastpath_ratio"] = Ratio(
      static_cast<double>(stats.fastpath_allows - stats0.fastpath_allows),
      decisions);
  layers["guard.session_hit_ratio"] = Ratio(
      static_cast<double>(stats.session_hits - stats0.session_hits),
      decisions);
  layers["guard.delta_rechecks"] =
      static_cast<double>(stats.delta_rechecks - stats0.delta_rechecks);
  layers["guard.cold_builds"] =
      static_cast<double>(stats.cold_builds - stats0.cold_builds);
  layers["guard.denials"] = static_cast<double>(stats.denials - stats0.denials);
  FillFromCounters(counters1, counters0, 1.0 / static_cast<double>(t1 - t0),
                   layers);
  layers["text.bytes"] = static_cast<double>(g.plan.workspace.text.size());
  layers["loadgen.lag_ms"] = Tail(slice_us(t0, t1, lag_s), 0.99) / 1e3;
  layers["trace.overhead_ratio"] =
      Median(slice_us(t0, t1, latency_s)) /
          Median(Concat(slice_us(warm, t0, latency_s),
                        slice_us(t1, n, latency_s))) -
      1;
  layers.Finish(r);
  return r;
}

std::optional<std::string> WorkspaceText(const std::string& workload,
                                         uint64_t seed, double seconds,
                                         bool tiny) {
  if (workload == "audit_cold") return GenerateAudit(seed, tiny).text;
  if (workload == "audit_fleet_warm") return GenerateFleet(seed, tiny).text;
  if (workload == "policy_churn") {
    return GenerateChurn(seed, tiny).workspace.text;
  }
  if (workload == "guard_serving") {
    // The serving-thread count assigns sessions to threads; the text
    // depends only on the schedule's length.
    return GenerateGuard(seed, seconds + kWarmSeconds, kGuardRate, 1, tiny)
        .workspace.text;
  }
  return std::nullopt;
}

}  // namespace perfbench
