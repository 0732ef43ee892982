#!/usr/bin/env python3
"""Validates the perf trajectory file against the benchmark's definition.

    python3 tools/check_bench_perf.py [BENCH_perf.json] [BENCHMARK.json]

Both paths default to the files at the repository root. Every record must
name its commit, its parent and its host (CPU model and nproc). Every run
must name a BENCHMARK.json workload and count at least one pair, and its
`parent` and `change` must hold the same metric names, each an end-to-end
metric of BENCHMARK.json. `paired_ratio_medians` may only name end-to-end
metrics; a `traced` block needs `runs_per_side` >= 1 and the same metric
names on both sides, each a metric of BENCHMARK.json, and an
`untraced_per_layer` block (per-layer medians of the untraced runs) the
same names on both sides, each a per-layer metric. Prints one line per
problem and exits 1 when there is any, 0 otherwise.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problems(perf, bench):
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    metrics = end_to_end | per_layer
    out = []

    def sides(where, block, allowed):
        names = []
        for side in ("parent", "change"):
            values = block.get(side)
            if not isinstance(values, dict) or not values:
                out.append(f"{where}: no {side} metrics")
                return
            names.append(set(values))
            for name in sorted(set(values) - allowed):
                out.append(f"{where}.{side}: unknown metric {name!r}")
        if names[0] != names[1]:
            out.append(f"{where}: parent and change name different metrics "
                       f"({sorted(names[0] ^ names[1])})")

    records = perf.get("records")
    if not isinstance(records, list) or not records:
        return ["no records"]
    for i, rec in enumerate(records):
        where = f"records[{i}]"
        for key in ("commit", "parent"):
            if not isinstance(rec.get(key), str) or not rec[key]:
                out.append(f"{where}: missing {key}")
        host = rec.get("host", {})
        if not isinstance(host.get("cpu_model"), str) or not host["cpu_model"]:
            out.append(f"{where}: missing host.cpu_model")
        if not isinstance(host.get("nproc"), int) or host["nproc"] < 1:
            out.append(f"{where}: missing host.nproc")
        runs = rec.get("runs")
        if not isinstance(runs, list) or not runs:
            out.append(f"{where}: no runs")
            continue
        for j, run in enumerate(runs):
            at = f"{where}.runs[{j}]"
            if run.get("workload") not in workloads:
                out.append(f"{at}: unknown workload {run.get('workload')!r}")
            if not isinstance(run.get("pairs"), int) or run["pairs"] < 1:
                out.append(f"{at}: pairs must be an integer >= 1")
            sides(at, run, end_to_end)
            for name in sorted(set(run.get("paired_ratio_medians", {})) -
                               end_to_end):
                out.append(f"{at}.paired_ratio_medians: unknown metric "
                           f"{name!r}")
            if "traced" in run:
                traced = run["traced"]
                n = traced.get("runs_per_side")
                if not isinstance(n, int) or n < 1:
                    out.append(f"{at}.traced: runs_per_side must be >= 1")
                sides(at + ".traced", traced, metrics)
            if "untraced_per_layer" in run:
                sides(at + ".untraced_per_layer", run["untraced_per_layer"],
                      per_layer)
    return out


def main(argv):
    perf_path = argv[1] if len(argv) > 1 else os.path.join(ROOT,
                                                           "BENCH_perf.json")
    bench_path = argv[2] if len(argv) > 2 else os.path.join(ROOT,
                                                            "BENCHMARK.json")
    with open(perf_path) as f:
        perf = json.load(f)
    with open(bench_path) as f:
        bench = json.load(f)
    found = problems(perf, bench)
    for line in found:
        print(f"{perf_path}: {line}")
    if not found:
        print(f"{perf_path}: {len(perf['records'])} records valid")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
