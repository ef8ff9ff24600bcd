#!/usr/bin/env python3
"""Same-host A/B comparison of a base commit against the working tree.

Usage (from the repository root, inside a git checkout):
  python3 perfbench/ab.py --base COMMIT [--pairs 10]
                          [--workloads vhost,serving] [--trace]

The base commit is exported with `git archive` into
.bench_build/ab/base, and this tree's perfbench/ and BENCHMARK.json are
copied over it, so both sides run identical benchmark code. Each pair
runs both sides on the same seed (seed = --seed-start + pair index) for
BENCHMARK.json's run_seconds, the run length its bounds were set at,
alternating which side goes first. For every workload and metric the
report gives each side's median and quartiles, the change/base ratio of
medians, the pairs the change won, and a verdict:

  gain        the change won >= 9/10 of the pairs and the medians differ
              by more than the base's own quartile spread
  regression  the change's median is worse by more than the bound
  unresolved  the base's spread is wider than the bound
  same        otherwise

Metrics without a bound (per-layer, --trace) get no regression verdict.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASE = os.path.join(ROOT, ".bench_build", "ab", "base")


def export_base(commit):
    """Base sources + this tree's benchmark, in a fresh directory."""
    shutil.rmtree(BASE, ignore_errors=True)
    os.makedirs(BASE)
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", BASE], input=archive, check=True)
    bench_dir = os.path.join(BASE, os.path.basename(HERE))
    shutil.rmtree(bench_dir, ignore_errors=True)
    shutil.copytree(HERE, bench_dir,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BASE)


def run(tree, workload, seed, trace):
    # No --seconds: run.py measures for BENCHMARK.json's run_seconds.
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"ab: {' '.join(cmd)} failed in {tree}:\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"ab: WARNING {workload} seed {seed} in {tree} is not "
              f"correct:\n{p.stderr}", file=sys.stderr)
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound, wins, pairs):
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    spread = q3 - q1
    worse = (med_c - med_b) if better == "lower" else (med_b - med_c)
    if wins >= 0.9 * pairs and abs(med_c - med_b) > spread and worse < 0:
        return "gain"
    if bound is not None and med_b and spread / abs(med_b) > bound:
        return "unresolved"
    if bound is not None and med_b and worse / abs(med_b) > bound:
        return "regression"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base commit-ish")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=100)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--trace", action="store_true",
                    help="compare the per-layer metrics instead")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    export_base(args.base)
    sides = {"base": BASE, "change": ROOT}
    vals = {s: {w: {} for w in workloads} for s in sides}
    for i in range(args.pairs):
        seed = args.seed_start + i
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for w in workloads:
            for side in order:
                got = run(sides[side], w, seed, args.trace)
                for name, v in got.items():
                    vals[side][w].setdefault(name, []).append(v)
        print(f"ab: pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"base {args.base} vs working tree, {args.pairs} pairs, "
          f"{spec['run_seconds']} s runs")
    print(f"{'workload':<13} {'metric':<32} {'base med [q1,q3]':<34} "
          f"{'change med [q1,q3]':<34} {'ratio':>7} {'wins':>5}  verdict")
    for w in workloads:
        for m in listed:
            base = vals["base"][w][m["name"]]
            change = vals["change"][w][m["name"]]
            wins = sum((c < b) if m["better"] == "lower" else (c > b)
                       for b, c in zip(base, change))
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            ratio = cmed / bmed if bmed else float("nan")
            v = verdict(base, change, m["better"], m.get("bound"), wins,
                        args.pairs)
            print(f"{w:<13} {m['name']:<32} "
                  f"{f'{bmed:.6g} [{bq1:.6g},{bq3:.6g}]':<34} "
                  f"{f'{cmed:.6g} [{cq1:.6g},{cq3:.6g}]':<34} "
                  f"{ratio:>7.3f} {wins:>2}/{args.pairs:<2}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
