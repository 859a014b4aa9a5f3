#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "common/strings.h"
#include "perfbench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using oodbsec::common::StrCat;

double Tail(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  if (std::optional<double> p = Percentile(samples, q)) return *p;
  std::sort(samples.begin(), samples.end());
  return samples.size() > 10 ? samples[samples.size() - 11] : samples.back();
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (samples.empty() || q <= 0 || q >= 1) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  if (samples.size() - rank < 10) return std::nullopt;
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  struct timespec ts {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

// The reference kernel's result, so that its work cannot be dropped.
volatile uint64_t kernel_sink;

// A 16 MiB ring of indices in one random cycle (Sattolo's shuffle), for
// the kernel's dependent loads; built on first use.
const std::vector<uint32_t>& ChaseRing() {
  static const std::vector<uint32_t> ring = [] {
    std::vector<uint32_t> next(1u << 22);
    for (uint32_t i = 0; i < next.size(); ++i) next[i] = i;
    Rng rng(0x72696e67);  // "ring"
    for (size_t i = next.size() - 1; i > 0; --i) {
      std::swap(next[i], next[rng.Below(i)]);
    }
    return next;
  }();
  return ring;
}

}  // namespace

double ReferenceKernelMs() {
  const std::vector<uint32_t>& ring = ChaseRing();
  double t0 = NowSeconds();
  // Hash-table inserts and probes and a sort over fixed inputs from a
  // fixed LCG: the closure engine's kind of work, in cache.
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 17;
  };
  std::unordered_map<uint64_t, uint32_t> table;
  table.reserve(1 << 13);
  std::vector<uint64_t> keys(12000);
  for (uint64_t& k : keys) k = next() % 20000;
  for (uint32_t i = 0; i < keys.size(); ++i) table.emplace(keys[i], i);
  uint64_t acc = 0;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k : keys) {
      auto it = table.find(k ^ static_cast<uint64_t>(round));
      if (it != table.end()) acc += it->second;
    }
  }
  std::sort(keys.begin(), keys.end());
  // Dependent loads across the ring: memory latency, which the
  // neighbours' traffic moves too.
  uint32_t at = 0;
  for (int step = 0; step < 8000; ++step) at = ring[at];
  kernel_sink = acc + keys[keys.size() / 2] + table.size() + at;
  return (NowSeconds() - t0) * 1e3;
}

void HostSpeed::Sample() {
  std::vector<double> ms(std::max(threads_, 1));
  std::vector<std::thread> crew;
  for (size_t t = 1; t < ms.size(); ++t) {
    crew.emplace_back([&ms, t] { ms[t] = ReferenceKernelMs(); });
  }
  ms[0] = ReferenceKernelMs();
  for (std::thread& thread : crew) thread.join();
  double sum = 0;
  for (double v : ms) sum += v;
  samples_.emplace_back(NowSeconds(), sum / static_cast<double>(ms.size()));
}

void HostSpeed::MaybeSample() {
  if (samples_.empty() || NowSeconds() - samples_.back().first >= kIntervalS) {
    Sample();
  }
}

double HostSpeed::ScaleAt(double at) const {
  if (samples_.empty()) return 1;
  // Samples are in time order: the window holds every sample within
  // kWindowS of `at`, widened towards the nearer neighbour until it
  // holds at least kMinSamples.
  size_t lo = std::lower_bound(samples_.begin(), samples_.end(),
                               std::make_pair(at - kWindowS, 0.0)) -
              samples_.begin();
  size_t hi = std::lower_bound(samples_.begin(), samples_.end(),
                               std::make_pair(at + kWindowS, 0.0)) -
              samples_.begin();
  while (hi - lo < kMinSamples && (lo > 0 || hi < samples_.size())) {
    if (hi == samples_.size() ||
        (lo > 0 && at - samples_[lo - 1].first < samples_[hi].first - at)) {
      --lo;
    } else {
      ++hi;
    }
  }
  std::vector<double> ms;
  for (size_t i = lo; i < hi; ++i) ms.push_back(samples_[i].second);
  return kReferenceKernelMs / Median(ms);
}

double HostSpeed::Scale() const {
  if (samples_.empty()) return 1;
  std::vector<double> ms;
  for (const auto& sample : samples_) ms.push_back(sample.second);
  return kReferenceKernelMs / Median(ms);
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::Begin(std::string name, int parent, int op) {
  int64_t now = Now();
  spans_.push_back({std::move(name), now, now, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int index) { spans_[index].end_ns = Now(); }

void SpanRecorder::Harvest(const oodbsec::obs::Tracer& tracer, int parent,
                           int op, const std::map<int, int>* root_ops) {
  // The tracer's epoch, on this recorder's clock: now minus the
  // tracer's elapsed time (both read back to back).
  int64_t offset = Now() - tracer.ElapsedNs();
  std::vector<oodbsec::obs::SpanRecord> records = tracer.Snapshot();
  int base = static_cast<int>(spans_.size());
  for (const oodbsec::obs::SpanRecord& r : records) {
    Span span;
    span.name = r.name;
    span.start_ns = offset + r.start_ns;
    span.end_ns = span.start_ns + std::max<int64_t>(r.duration_ns, 0);
    if (r.parent == oodbsec::obs::kNoSpan) {
      span.parent = parent;
      span.op = op;
      if (root_ops != nullptr) {
        auto it = root_ops->find(r.id);
        if (it != root_ops->end()) span.op = it->second;
      }
    } else {
      span.parent = base + r.parent;
      span.op = spans_[span.parent].op;
    }
    spans_.push_back(std::move(span));
  }
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << JsonEscape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<double> SpanRecorder::SelfMs() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    int p = spans_[i].parent;
    if (p >= 0 && p < static_cast<int>(spans_.size())) children[p].push_back(i);
  }
  std::vector<double> self(spans_.size());
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    intervals.clear();
    for (int c : children[i]) {
      int64_t a = std::max(spans_[c].start_ns, s.start_ns);
      int64_t b = std::min(spans_[c].end_ns, s.end_ns);
      if (b > a) intervals.emplace_back(a, b);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    for (size_t k = 0; k < intervals.size();) {
      auto [run_a, run_b] = intervals[k];
      for (++k; k < intervals.size() && intervals[k].first <= run_b; ++k) {
        run_b = std::max(run_b, intervals[k].second);
      }
      covered += run_b - run_a;
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

std::string LayerOf(const std::string& name) {
  auto starts = [&](const char* prefix) { return name.starts_with(prefix); };
  if (starts("text.")) return "text";
  if (name == "unfold") return "unfold";
  if (name == "closure.snapshot.replay" || starts("snapshot")) {
    return "snapshot";
  }
  if (name == "closure.build") return "cache";
  if (starts("closure")) return "closure";
  if (name == "check" || name == "check-requirement") return "analyzer";
  if (starts("session.")) return "session";
  if (starts("tcp.") || starts("shard.")) return "tcp";
  if (starts("batch") || starts("service.")) return "service";
  if (starts("guard.")) return "dynamic";
  return "benchmark";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("Threads:")) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

std::string HostFingerprintJson(const std::string& commit) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.starts_with("model name")) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  return StrCat("{\"nproc\": ", sysconf(_SC_NPROCESSORS_ONLN),
                ", \"cpu\": \"", JsonEscape(cpu), "\", \"compiler\": \"",
                JsonEscape(PERFBENCH_COMPILER), "\", \"build_type\": \"",
                JsonEscape(PERFBENCH_BUILD_TYPE), "\", \"commit\": \"",
                JsonEscape(commit), "\"}");
}

bool IsReleaseBuild() {
  return std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
}

}  // namespace perfbench
