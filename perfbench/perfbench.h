// perfbench: the repository's end-to-end benchmark.
//
// Four seeded workloads drive oodbsec from workspace text to verdicts
// through its public APIs only (text::LoadWorkspace,
// core::AnalysisSession, service::AnalysisService, service::TcpTransport,
// snapshot::OpenPackedStore, dynamic::SessionGuard). The program under
// test sees nothing but the generated inputs; every verdict it returns
// is checked against the generator's construction.
//
//   generate.cc   seeded workspace text + expected verdicts per workload
//   measure.cc    percentiles, span recorder, self times, RSS, host stamp
//   workloads.cc  the four workloads (timed and traced runs)
//   main.cc       command line, result table and the final JSON line
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Generation (generate.cc). Deterministic per seed on every platform:
// the generator draws from its own SplitMix64 stream, never from
// implementation-defined std:: distributions.

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Exponential with the given mean.
  double Exponential(double mean);
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  uint64_t state_;
};

// What a role holds of one department. The generator emits only the
// paper's scored shapes (§3.1): kInfer is the clerk's flaw
// (checkBudget_i + w_budget_i lets r_salary_i be totally inferred),
// kAlter the updater's (updateSalary_i + w_budget_i + w_profit_i lets
// w_salary_i be totally altered), kFull both.
enum class Bundle { kNone, kInfer, kAlter, kFull };

struct GeneratedWorkspace {
  std::string text;
  // Per `require` line, in declaration order: the verdict A(R) must
  // reach.
  std::vector<bool> expected_satisfied;
};

// audit_cold: one Broker class with 20 departments; six roles with
// partly nested bundles, the largest the full 16-department shape.
GeneratedWorkspace GenerateAudit(uint64_t seed, bool tiny = false);

// audit_fleet_warm: the same family with many small signatures.
GeneratedWorkspace GenerateFleet(uint64_t seed, bool tiny = false);

// policy_churn: heavy users and a random sequence of policy changes that
// keeps every requirement in a scored shape (so its verdict is known at
// each step). One change moves a user from one duty to another: revoke
// a held function, then grant one the user lacks, so every user's grant
// set keeps its size. The seed picks the departments, not the shape of
// the walk (see GenerateChurn).
struct ChurnOp {
  int user = 0;  // index into ChurnPlan::users
  std::string revoke;
  std::string grant;
};
struct ChurnPlan {
  GeneratedWorkspace workspace;
  std::vector<std::string> users;
  // Requirement indices (into the workspace's declaration order) of
  // each user; their expected verdicts hold under every op.
  std::vector<std::vector<int>> user_requirements;

  // The next change of the seeded, unbounded sequence.
  ChurnOp Next();

  Rng rng{0};
  std::vector<std::vector<std::string>> toggles;  // per user
  std::vector<std::set<std::string>> held;        // per user, current grants
};
ChurnPlan GenerateChurn(uint64_t seed, bool tiny = false);

// guard_serving: an open-loop request schedule over many short user
// sessions, each request with its due time and expected guard verdict.
enum class RequestKind { kRepeat, kUnrelated, kGrow, kProbe };
struct GuardRequest {
  double due_s = 0;   // offset from the start of the schedule
  int thread = 0;     // serving thread that owns the user's session
  std::string user;
  std::string query;  // select-query text
  RequestKind kind = RequestKind::kRepeat;
  bool expect_allowed = true;
};
struct GuardPlan {
  GeneratedWorkspace workspace;
  std::vector<GuardRequest> requests;  // sorted by due_s
};
GuardPlan GenerateGuard(uint64_t seed, double seconds, double rate_per_s,
                        int serving_threads, bool tiny = false);

// ---------------------------------------------------------------------
// Measurement (measure.cc).

// The q-quantile (0 < q < 1, nearest rank) of `samples`, only when at
// least ten samples lie strictly above its rank; nullopt otherwise.
// That rule decides which percentile a sample count supports.
std::optional<double> Percentile(std::vector<double> samples, double q);
// Percentile(q) when the samples support it; otherwise the highest
// quantile that has ten samples beyond it, or the largest sample when
// there are ten or fewer. 0 for no samples.
double Tail(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

double NowSeconds();         // steady clock
double ProcessCpuSeconds();  // CPU time of every thread of this process

// Host speed. On a shared host every timing of a run moves together, by
// up to 2x, for stretches of tens of seconds to minutes (the
// neighbours' load), which would read as the program getting slower or
// faster. HostSpeed times a fixed reference kernel that never
// calls oodbsec — hash-table inserts and probes and a sort, the kind of
// work the closure engine does, and dependent loads from memory — at
// intervals through a run, while the workload itself is idle, on
// min(4, nproc) threads at once (their vCPUs may run at different
// speeds). A timing
// multiplied by ScaleAt(its time) is in time of the reference host, on
// which the kernel takes kReferenceKernelMs. The raw timings are printed
// beside them.
inline constexpr double kReferenceKernelMs = 3.0;
double ReferenceKernelMs();  // runs the kernel once; its wall time

class HostSpeed {
 public:
  explicit HostSpeed(int threads) : threads_(threads) {}
  // Runs the kernel now on `threads` threads; one sample is their mean.
  void Sample();
  // Samples when kIntervalS have passed since the last sample.
  void MaybeSample();
  // kReferenceKernelMs over the median of the samples taken within
  // kWindowS of `at` (a NowSeconds() time), or of the kMinSamples
  // nearest to it when the window holds fewer; 1 before the first
  // sample.
  double ScaleAt(double at) const;
  // The same over every sample of the run, for the report.
  double Scale() const;
  size_t samples() const { return samples_.size(); }

  static constexpr double kIntervalS = 0.1;
  static constexpr double kWindowS = 1.0;
  static constexpr size_t kMinSamples = 3;

 private:
  int threads_;
  std::vector<std::pair<double, double>> samples_;  // (time, kernel ms)
};

// Spans the benchmark records around its calls into each layer, plus
// the spans src/obs emitted inside those calls, harvested per op. Kept
// in memory; written as JSON lines at the end of a traced run.
struct Span {
  std::string name;
  int64_t start_ns = 0;  // steady-clock ns since the recorder's epoch
  int64_t end_ns = 0;
  int parent = -1;       // index into spans, -1 for an op root
  int op = -1;           // the op (request, audit, grant/revoke) it serves
};

class SpanRecorder {
 public:
  SpanRecorder();
  int64_t Now() const;
  // Opens/closes a span of the benchmark's own.
  int Begin(std::string name, int parent, int op);
  void End(int index);
  // Copies every span of `tracer` in, re-timed onto this recorder's
  // clock. obs root spans are parented under `parent` and serve `op`,
  // unless `root_ops` maps their obs id to another op; other spans
  // inherit their parent's op.
  void Harvest(const oodbsec::obs::Tracer& tracer, int parent, int op,
               const std::map<int, int>* root_ops = nullptr);

  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJsonLines(const std::string& path) const;

  // Per span, in ms: its self time — duration minus the union of its
  // children's intervals (children on pool threads may overlap).
  std::vector<double> SelfMs() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

// The layer a span name belongs to, for the per-layer self-time split.
std::string LayerOf(const std::string& span_name);

double PeakRssMb();
int ThreadCount();  // live threads of this process

// nproc, CPU model, compiler, build type and the commit given on the
// command line, as one JSON object.
std::string HostFingerprintJson(const std::string& commit);
bool IsReleaseBuild();

// ---------------------------------------------------------------------
// Workloads (workloads.cc).

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // JSON lines of every span (traced runs)
  std::string work_dir = ".bench_build/perfbench";  // scratch files
  int max_threads = 4;     // min(4, nproc) unless a test lowers it
  // Tests shrink the inputs; the benchmark itself never sets this.
  bool tiny = false;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  int threads_peak = 0;  // live threads, sampled while ops run
  // Contract metrics in the order they are printed.
  std::vector<std::pair<std::string, double>> end_to_end;
  std::vector<std::pair<std::string, double>> per_layer;
  // The per-workload report names (audit_s, recheck_p90_ms, decide_p99_us,
  // …) with their values and units, printed in the human-readable table.
  std::vector<std::pair<std::string, std::string>> report;
};

RunResult RunAuditCold(const RunOptions& options);
RunResult RunAuditFleetWarm(const RunOptions& options);
RunResult RunPolicyChurn(const RunOptions& options);
RunResult RunGuardServing(const RunOptions& options);

// The generated workspace text of a workload run for `seconds`, for
// replay with `oodbsec_shell <file> analyze`.
std::optional<std::string> WorkspaceText(const std::string& workload,
                                         uint64_t seed, double seconds,
                                         bool tiny = false);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
