"""Smoke self-test of the benchmark.

Usage (from the root of a checkout): python3 bench/selftest.py

Runs every workload at its smallest size, untraced and traced, and checks
that each run exits 0, ends with the result object, answers correctly and
reports every metric named in BENCHMARK.json.  It also checks the counts the
workloads predict (no poly work on member and orders, only the partitions
layer on orders, the known-crash share on cli), and that the benchmark
refuses to run, printing no result, in a directory holding only
BENCHMARK.json and the benchmark's own files.  It makes no assertion about
timing.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.01", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check(workload, trace, spec, problems):
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"{where}: metrics {sorted(set(names) ^ set(result['metrics']))} differ")
        return
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        share = result["failed"] / result["attempted"]
        if workload == "cli":
            from workloads import CLI_KNOWN_DEFECTS, CLI_POOL

            per_round = len(CLI_POOL) + len(CLI_KNOWN_DEFECTS) + 6
            want = len(CLI_KNOWN_DEFECTS) / per_round
            if abs(share - want) > 1e-9:
                problems.append(f"{where}: error rate {share}, known-crash share {want}")
        elif share:
            problems.append(f"{where}: error rate {share}")
        return
    zero = []
    if workload in ("member", "orders"):
        zero.append("poly.vanishing_ideal.calls")
    if workload == "orders":
        zero += [k for k in m if k.endswith(".calls") and k.split(".")[0] in ("variety", "corr")]
    nonzero = {
        "synth": ["equations.i_lambda_z.calls", "poly.vanishing_ideal.calls"],
        "member": ["variety.theta_member.calls", "corr.enumerate_good.calls"],
        "orders": ["partitions.preceq.calls", "partitions.min_excluded.calls"],
        "cli": ["cli.startup_s", "cli.selfcheck.p50_ms"],
    }[workload]
    problems += [f"{where}: {k} = {m[k]}, predicted 0" for k in zero if m[k]]
    problems += [f"{where}: {k} is 0" for k in nonzero if not m[k]]


def check_refuses(problems):
    """Without the program's sources the benchmark must fail, printing no
    result."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("orders", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("runs without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, spec, problems)
            print(f"{w['name']} --trace {trace}: done", flush=True)
    check_refuses(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
