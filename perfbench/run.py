#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload screen_s2 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Run from the repository root. Builds perfbench/ (and the src/ modules it
uses) into .bench_build/perfbench, then runs one workload. The last line of
standard output is the result JSON; the line before it is the run's detail
line (every metric, golden digest, check errors), and the one before that
the environment record (CPU, nproc, compiler, flags, build type, workload
parameters).
Exits non-zero without a result when the sources are missing or the build
or run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(name, args, spec):
    """Runs one workload; returns (exit status, env record, output lines)."""
    params = spec["workloads"][name].get("params", {})
    cmd = [os.path.join(BUILD, "advh_perfbench"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden", args.golden,
           "--models", os.path.join(ROOT, "advh_models")]
    for key, value in sorted(params.items()):
        cmd += ["--" + key.replace("_", "-"), str(value)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (name, args.seed))]

    with open(os.path.join(BUILD, "build_info.json")) as f:
        env = json.load(f)
    env.update({"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                "workload": name, "seed": args.seed, "params": params})
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("benchmark exited with status %d" % done.returncode)
    return done.returncode, env, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of spec.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--golden", default=os.path.join(HERE, "golden.txt"),
                    help="golden digest file (the self-test perturbs it)")
    args = ap.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    names = list(spec["workloads"]) if args.workload == "all" else [
        args.workload]
    for name in names:
        if name not in spec["workloads"]:
            fail("unknown workload " + name)
    build()

    if len(names) == 1:
        code, env, lines = run_workload(names[0], args, spec)
        print(json.dumps({"env": env}))
        print("\n".join(lines))
        sys.exit(code)

    # All workloads: one line per workload, then the combined result with
    # metrics named <workload>.<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, env, lines = run_workload(name, args, spec)
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, "env": env, "result": result}))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
