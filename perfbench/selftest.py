#!/usr/bin/env python3
"""Negative controls for the benchmark's output check.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it runs a short benchmark
three ways and fails (exit 1) unless each behaves as stated:
  * with the committed golden file: correct, nothing failed, exit 0;
  * with a perturbed copy of the golden file: correct is false, at least
    one failed operation, exit 1 (the check can fail);
  * with an ADVH_* knob set: no result line, non-zero exit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def run(workload, golden=None, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", "0"]
    if golden:
        cmd += ["--golden", golden]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=300)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def perturbed_golden():
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, "golden_perturbed.txt")
    with open(os.path.join(HERE, "golden.txt")) as f, open(path, "w") as out:
        for line in f:
            name, digest = line.split()
            flipped = "0" if digest[-1] != "0" else "1"
            out.write("%s %s%s\n" % (name, digest[:-1], flipped))
    return path


def main():
    bad = perturbed_golden()
    with open(os.path.join(HERE, "spec.json")) as f:
        workloads = list(json.load(f)["workloads"])
    problems = []
    for w in workloads:
        code, res = run(w)
        if code != 0 or not res or not res["correct"] or res["failed"] != 0:
            problems.append("%s: clean run not correct (exit %d, %s)" %
                            (w, code, res))
        code, res = run(w, golden=bad)
        if code != 1 or not res or res["correct"] or res["failed"] < 1:
            problems.append("%s: perturbed golden was not caught (exit %d, %s)"
                            % (w, code, res))
        env = dict(os.environ, ADVH_THREADS="1")
        code, res = run(w, env=env)
        if code == 0 or res is not None:
            problems.append("%s: ran with ADVH_THREADS set" % w)
        print("%s: checked" % w, flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
