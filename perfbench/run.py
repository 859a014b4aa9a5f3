#!/usr/bin/env python3
"""Builds and runs oodbsec's end-to-end benchmark (perfbench).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]
  python3 perfbench/run.py --workload <name> --seed <n> [--seconds <s>] --dump <file>
  python3 perfbench/run.py --self-test

Workloads: audit_cold, audit_fleet_warm, policy_churn, guard_serving.
The benchmark is configured as a Release CMake tree in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and refuses
any other build type. Output: the host fingerprint, a table of every
metric by name and unit, and as the last line one JSON object with keys
correct, attempted, failed and metrics. --trace 1 reports the per-layer
split instead of the end-to-end metrics and writes every span as JSON
lines under <build dir>/traces/. --dump writes a workload's generated
workspace, replayable with `oodbsec_shell <file> analyze`. The exit
status is 0 only when every verdict was correct.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ["audit_cold", "audit_fleet_warm", "policy_churn", "guard_serving"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            build_type = next((line.split("=", 1)[1].strip() for line in f
                               if line.startswith("CMAKE_BUILD_TYPE:")), "")
        if build_type != "Release":
            log(f"perfbench: {bdir} is a '{build_type}' tree; only Release "
                "builds are measured (remove it to reconfigure)")
            sys.exit(1)
    else:
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("perfbench: configure failed")
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return bdir


def git_commit():
    """The checkout's commit, read from .git without running git (which
    could look above the checkout); 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    """Metric names and units the contract in BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_one(binary, bdir, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed result)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", os.path.join(bdir, "work"),
               "--commit", git_commit()]
    if trace:
        command += ["--trace-out",
                    os.path.join(bdir, "traces", f"{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} printed no result "
            f"(exit status {proc.returncode})")
        sys.exit(1)
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        log(f"perfbench: {workload} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}")
        sys.exit(1)
    return lines, result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--dump", metavar="FILE")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        bdir = build("perfbench_test")
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_test")],
                                cwd=bdir).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is None:
        with open(os.path.join(HERE, "plan.json")) as f:
            args.seed = json.load(f)["committed_seed"]

    bdir = build("perfbench")
    binary = os.path.join(bdir, "perfbench")
    if args.dump:
        if args.workload == "all":
            parser.error("--dump takes one workload")
        sys.exit(subprocess.run([binary, "--workload", args.workload,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--dump",
                                 os.path.abspath(args.dump)]).returncode)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        lines, result, code = run_one(binary, bdir, workload, args.seed,
                                      args.seconds, args.trace == 1)
        status = status or code
        if len(workloads) == 1:
            print("\n".join(lines), flush=True)
            sys.exit(code)
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
