#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, check it.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
  python3 perfbench/run.py --record    # re-record fingerprints.json

The first run configures and builds perfbench/ (CMake, optimized) into
.bench_build/perfbench; later runs rebuild incrementally. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. Build output and
diagnostics go to standard error.

A run is correct when every functional check passed, no simulated
operation failed, every iteration reproduced the same simulated
fingerprint, and -- at the seed recorded in fingerprints.json -- the
fingerprint and sim_* values equal the recorded ones exactly.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("vhost", "cachebench", "serving", "opcode_sweep")
RECORD_SEED = 1
RECORD_SECONDS = 1
# A run must end within 180 s; the binary stops starting iterations
# after --seconds, so this only catches a hung simulation.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output to stderr."""
    # Keep compiler temporaries inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def run_binary(workload, seed, seconds, trace):
    os.makedirs(os.path.join(ROOT, ".bench_build", "results"),
                exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    out = os.path.join(ROOT, ".bench_build", "results", tag + ".json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    if trace:
        cmd += ["--trace-out",
                os.path.join(ROOT, ".bench_build", "results",
                             tag + ".trace.json")]
    subprocess.run(cmd, stdout=sys.stderr, check=True,
                   timeout=RUN_TIMEOUT_S)
    with open(out) as f:
        return json.load(f)


def recorded_fingerprint(res):
    return {"stream_hash": res["fingerprint"]["stream_hash"],
            "events": res["fingerprint"]["events"],
            "end_ticks": res["fingerprint"]["end_ticks"],
            "sim": res["sim"]}


def check(res, seed):
    """Functional checks, iteration agreement, recorded fingerprint."""
    problems = list(res["errors"])
    if res["failed"]:
        problems.append(f"{res['failed']} simulated operation(s) failed")
    if res["attempted"] < 1:
        problems.append("no simulated operation was attempted")
    with open(FINGERPRINTS) as f:
        recorded = json.load(f)
    want = recorded["workloads"].get(res["workload"])
    if seed == recorded["seed"] and want is not None:
        got = recorded_fingerprint(res)
        for key in ("stream_hash", "events", "end_ticks", "sim"):
            if got[key] != want[key]:
                problems.append(f"{key} {got[key]} differs from the "
                                f"recorded {want[key]}")
    return problems


def record():
    build()
    prints = {}
    for w in WORKLOADS:
        res = run_binary(w, RECORD_SEED, RECORD_SECONDS, 0)
        if res["errors"] or res["failed"]:
            log(f"{w}: not recording a failing run: {res['errors']}")
            return 1
        prints[w] = recorded_fingerprint(res)
    with open(FINGERPRINTS, "w") as f:
        json.dump({"seed": RECORD_SEED, "workloads": prints}, f, indent=2)
        f.write("\n")
    log(f"recorded {FINGERPRINTS}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=RECORD_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measured host time (default: BENCHMARK.json's "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record fingerprints.json at the default seed")
    args = ap.parse_args()
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    build()
    res = run_binary(args.workload, args.seed, seconds, args.trace)

    problems = check(res, args.seed)
    for p in problems:
        log(f"perfbench: {args.workload} seed {args.seed}: {p}")
    host = res["host"]
    fp = res["fingerprint"]
    print(f"host: {host['cpu']}, nproc {host['nproc']}, {host['compiler']}, "
          f"{host['build_type']}")
    print(f"{args.workload} seed {args.seed}: {res['iterations']} "
          f"iteration(s), stream_hash {fp['stream_hash']}, events "
          f"{fp['events']}, sim {json.dumps(res['sim'])}")
    raw = res["raw"]
    print(f"host speed: probe chunk {raw['probe_ms']:.2f} ms over "
          f"{raw['probe_samples']:.0f} samples; raw wall_s "
          f"{raw['wall_s']:.6f}, raw setup_s {raw['setup_s']:.6f}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = res["per_layer"] if args.trace else res["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in values:
            log(f"perfbench: metric {m['name']} missing from the run")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": not problems,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
