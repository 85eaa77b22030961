#!/usr/bin/env python3
"""Regenerate the reference figures of README.md.

    python3 benchmark/figures.py --seeds 1-10 --seconds 20

Runs two sets of untraced runs of every workload, in separate processes:
set A on the given seeds and set B on as many further seeds, alternating
which set goes first.  Then one traced run per workload.  Prints markdown
tables: per set, the median and quartile spread of every end-to-end metric;
how far set B's median is from set A's, against the bound in
BENCHMARK.json; and the per-layer metrics of the traced runs.  Raw results
are appended to ``benchmark/out/figures.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace)
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=MANIFEST["run_seconds"])
    args = parser.parse_args(argv)

    sets = {"A": args.seeds,
            "B": [s + len(args.seeds) for s in args.seeds]}
    (HERE / "out").mkdir(exist_ok=True)
    results = []
    with open(HERE / "out" / "figures.jsonl", "a") as log:
        def record(result, label):
            result["set"] = label
            results.append(result)
            log.write(json.dumps(result) + "\n")
            log.flush()

        for i in range(len(args.seeds)):
            for label in ("AB" if i % 2 == 0 else "BA"):
                for workload in WORKLOADS:
                    record(run(workload, sets[label][i], args.seconds, 0),
                           label)
        for workload in WORKLOADS:
            record(run(workload, args.seeds[0], args.seconds, 1), "traced")

    bounds = {m["name"]: m for m in MANIFEST["end_to_end"]}
    for workload in WORKLOADS:
        mine = [r for r in results if r["workload"] == workload]
        by_set = {label: [r for r in mine if r["set"] == label]
                  for label in "AB"}
        plain = by_set["A"] + by_set["B"]
        print(f"\n### {workload}\n\n{len(plain)} runs, "
              f"{sum(r['failed'] for r in plain)} failed of "
              f"{sum(r['attempted'] for r in plain)} attempted, all correct: "
              f"{all(r['correct'] for r in mine)}\n")
        print("| metric | unit | median A | spread A | median B | spread B "
              "| B worse by | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for name, spec in bounds.items():
            med_a, spread_a = summary(
                [r["metrics"][name]["value"] for r in by_set["A"]])
            med_b, spread_b = summary(
                [r["metrics"][name]["value"] for r in by_set["B"]])
            worse = (med_b - med_a) / med_a
            if spec["better"] == "higher":
                worse = -worse
            print(f"| {name} | {spec['unit']} | {med_a:.4g} | {spread_a:.3f} "
                  f"| {med_b:.4g} | {spread_b:.3f} | {worse:+.3f} "
                  f"| {spec['bound']} |")
        traced = [r for r in mine if r["set"] == "traced"][0]
        print("\n| per-layer metric | unit | value |\n|---|---|---|")
        for name, m in traced["metrics"].items():
            print(f"| {name} | {m['unit']} | {m['value']:.4g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
