// perfbench command line. perfbench/run.py builds this binary and runs
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file>] [--commit <sha>]
//   perfbench --workload <name> --seed <n> [--seconds <s>] --dump <file>
//
// It prints the host fingerprint, a human-readable table (the metric
// per-workload report names, with units), and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exit status: 0 when every verdict was correct, 1 when
// any op failed or the run could not start, 2 on a usage error.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "perfbench.h"

namespace {

using namespace perfbench;

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

// A metric's unit, from its name's suffix.
std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    return name.ends_with(std::string("_") + suffix) ||
           name.ends_with(std::string(".") + suffix);
  };
  if (ends("ms")) return "ms";
  if (ends("us")) return "us";
  if (ends("s")) return "s";
  if (ends("mb")) return "MB";
  if (ends("ratio") || ends("imbalance")) return "ratio";
  if (ends("bytes")) return "bytes";
  return "count";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<audit_cold|audit_fleet_warm|policy_churn|guard_serving> "
               "--seed <n> [--seconds <s>] [--trace <0|1>] [--work-dir <dir>] "
               "[--trace-out <file>] [--commit <sha>] [--dump <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (!key.starts_with("--")) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.contains("workload") || !args.contains("seed")) {
    return Usage();
  }
  const std::string workload = args["workload"];
  RunOptions options;
  options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);

  options.seconds = args.contains("seconds") ? std::atof(args["seconds"].c_str())
                                             : 10;
  if (args.contains("dump")) {
    std::optional<std::string> text =
        WorkspaceText(workload, options.seed, options.seconds);
    if (!text) return Usage();
    std::ofstream out(args["dump"]);
    out << *text;
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args["dump"].c_str());
      return 1;
    }
    std::printf("wrote %s workspace (seed %llu) to %s\n", workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                args["dump"].c_str());
    return 0;
  }

  if (!IsReleaseBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure a non-Release build\n");
    return 1;
  }
  options.trace = args.contains("trace") && args["trace"] == "1";
  if (args.contains("work-dir")) options.work_dir = args["work-dir"];
  if (args.contains("trace-out")) options.trace_path = args["trace-out"];
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  options.max_threads = static_cast<int>(std::clamp<long>(nproc, 1, 4));

  RunResult result;
  if (workload == "audit_cold") {
    result = RunAuditCold(options);
  } else if (workload == "audit_fleet_warm") {
    result = RunAuditFleetWarm(options);
  } else if (workload == "policy_churn") {
    result = RunPolicyChurn(options);
  } else if (workload == "guard_serving") {
    result = RunGuardServing(options);
  } else {
    return Usage();
  }

  std::printf("host: %s\n",
              HostFingerprintJson(args.contains("commit") ? args["commit"]
                                                          : "unknown")
                  .c_str());
  std::printf("workload: %s  seed: %llu  seconds: %s  trace: %d  threads: %d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              Number(options.seconds).c_str(), options.trace ? 1 : 0,
              options.max_threads);
  for (const auto& [name, value] : result.report) {
    std::printf("  %-22s %s\n", name.c_str(), value.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    std::printf("  %-34s %s %s\n", name.c_str(), Number(value).c_str(),
                UnitOf(name).c_str());
    json += (i == 0 ? "" : ", ");
    json += "\"" + name + "\": {\"value\": " + Number(value) +
            ", \"unit\": \"" + UnitOf(name) + "\"}";
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
