#!/usr/bin/env python3
"""End-to-end benchmark of the TM3270 simulator.

Run from the repository root:

    python3 tmbench/run.py --workload figure7 --seed 1 --seconds 10 --trace 0

Builds tmbench/tm_e2ebench (with the simulator libraries, from source)
under .bench_build/, runs one workload for --seconds seconds, checks
the results and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1
the per-layer ones. Build output and diagnostics go to standard error.
See tmbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tmbench")
BINARY = os.path.join(BUILD_DIR, "tm_e2ebench")
WORKLOADS = ("figure7", "cabac", "stream")
BUILD_JOBS = "2"


def build():
    """Configure once, then (re)build the harness; fails loudly."""
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "tm_e2ebench",
                    "-j", BUILD_JOBS], stdout=sys.stderr, check=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(raw):
    return {
        "batch_ms": median(raw["serial_ms"]),
        "batch_par_ms": median(raw["parallel_ms"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": median(raw["setup_s"]),
    }


def per_layer(raw):
    c = raw["counts"]
    instrs = c.get("run.instrs", 0)
    setup_prof = raw["setup_profile"]

    def scope(p, name, field):  # field: 0 total ns, 1 self ns, 2 calls
        return p.get(name, [0, 0, 0])[field]

    def per_batch(f):
        """Median over the traced batches of f(profile, job wall sum)."""
        return median([f(p, w) for p, w in zip(raw["profiles"],
                                                raw["job_ms_sum"])])

    def covered_ms(p):
        return sum(scope(p, s, 0) for s in
                   ("workload.stage", "core.run", "workload.verify")) / 1e6

    def lsu_ns(p):
        return sum(scope(p, s, 1) for s in
                   ("lsu.refill", "prefetch.service", "prefetch.issue"))

    def ratio(a, b):
        return a / b if b else 0.0

    loads = c.get("lsu.load_line_hits", 0) + c.get("lsu.load_line_misses", 0)
    return {
        "batch_traced_ms": median(raw["serial_ms"]),
        "setup.compile_ms": ratio(scope(setup_prof, "compile", 0) / 1e6,
                                  len(raw["setup_s"])),
        "job.stage_ms": per_batch(lambda p, w:
                                  scope(p, "workload.stage", 0) / 1e6),
        "job.run_ms": per_batch(lambda p, w: scope(p, "core.run", 0) / 1e6),
        "job.verify_ms": per_batch(lambda p, w:
                                   scope(p, "workload.verify", 0) / 1e6),
        "job.unscoped_ms": per_batch(lambda p, w: w - covered_ms(p)),
        "job.coverage_pct": per_batch(lambda p, w:
                                      100.0 * ratio(covered_ms(p), w)),
        "core.step_ms": per_batch(lambda p, w: scope(p, "core.run", 1) / 1e6),
        "core.predecode_ms": per_batch(lambda p, w:
                                       scope(p, "predecode", 0) / 1e6),
        "core.ns_per_instr": per_batch(lambda p, w:
                                       ratio(scope(p, "core.run", 1), instrs)),
        "lsu.miss_ms": per_batch(lambda p, w: lsu_ns(p) / 1e6),
        "lsu.ns_per_refill": per_batch(lambda p, w: ratio(
            scope(p, "lsu.refill", 0), scope(p, "lsu.refill", 2))),
        "sim.instrs": instrs,
        "sim.cycles": c.get("run.cycles", 0),
        "sim.ipc": ratio(instrs, c.get("run.cycles", 0)),
        "cpu.stall_cycles": c.get("cpu.dstall_or_istall_cycles", 0),
        "dcache.load_hit_pct": 100.0 * ratio(c.get("lsu.load_line_hits", 0),
                                             loads),
        "dcache.refills": c.get("dcache.refills", 0),
        "dcache.copybacks": c.get("dcache.copybacks", 0),
        "biu.transactions": (c.get("biu.demand_reads", 0) +
                             c.get("biu.prefetch_reads", 0) +
                             c.get("biu.writes", 0)),
        "mem.row_misses": c.get("mem.row_misses", 0),
        "lsu.prefetch_useful": c.get("lsu.prefetch_useful", 0),
        "setup.compiles": raw["compiles"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build()
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    for err in raw["errors"]:
        print("job failed: " + err, file=sys.stderr)
    print("%s: %d set-ups, %d 1-worker and %d %d-worker batches of %d jobs"
          % (args.workload, len(raw["setup_s"]), len(raw["serial_ms"]),
             len(raw["parallel_ms"]), raw["parallel_workers"], raw["jobs"]),
          file=sys.stderr)

    values = (per_layer if args.trace else end_to_end)(raw)
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        sys.exit("metrics not in both BENCHMARK.json and run.py: %s"
                 % sorted(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    correct = (raw["failed"] == 0 and raw["attempted"] > 0 and
               all(math.isfinite(v["value"]) and v["value"] >= 0
                   for v in metrics.values()))
    if not args.trace:
        correct = correct and all(v["value"] > 0 for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
