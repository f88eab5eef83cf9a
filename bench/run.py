"""symvar benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload synth|member|orders|cli --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics, untraced.  The workload is
set up in SETUPS fresh interpreters, one after another; ``setup_s`` is the
median of their set-up times (interpreter start, imports, input generation),
and the last of them runs the timed loop for about S seconds, stopping at a
round boundary.  ``--trace 1`` runs a fixed number of rounds twice, untraced
and then traced, and reports the per-layer metrics and the tracing overhead.

The answers are checked outside the timed region.  The report is printed as
lines of text, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It is also written
with the seed, Python version, git revision and ``nproc`` to
``.bench_out/result-<workload>-trace<T>.json``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import clock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUPS = 7
DEADLINE_S = 170

# workload: (a lower bound on one round's seconds, which sizes the inputs
# generated for a timed run; rounds of a traced run; tail percentile)
WORKLOADS = {
    "synth": (1.0, 1, 75),
    "member": (0.3, 2, 99.5),
    "orders": (1.0, 2, 95),
    "cli": (2.0, 1, 75),
}
CLI_SUBCOMMANDS = ["type", "preceq", "min-excluded", "equations", "member", "contains",
                   "gamma", "selfcheck"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_revision():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Worker:
    """A fresh interpreter running worker.py, driven over its stdin."""

    def __init__(self, workload, seed, rounds, seconds, trace):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload, str(seed),
               str(rounds), str(seconds), str(trace), OUT_DIR]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        self.ready = time.perf_counter()
        if line.strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"{workload} worker failed during set-up")

    def stop(self):
        self.proc.communicate("exit\n", timeout=30)

    def run(self, deadline):
        try:
            out, _ = self.proc.communicate("run\n", timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("worker ran past the deadline") from None
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exited with status {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def tail(latencies, pct):
    """(percentile, value): the workload's tail percentile, or the highest
    lower one on the ladder that still has ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in [pct] + [q for q in (95, 90, 75, 50) if q < pct]:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == 50:
            return p, xs[max(rank, 1) - 1]


def end_to_end(workload, seed, seconds):
    min_round_s, _, tail_pct = WORKLOADS[workload]
    rounds = math.ceil(seconds / min_round_s) + 1
    deadline = time.monotonic() + DEADLINE_S
    spans = []
    with clock.Sampler(timer=False) as sampler:
        for i in range(SETUPS):
            w = Worker(workload, seed, rounds, seconds, 0)
            spans.append((w.started, w.ready))
            sampler.take()
            if i < SETUPS - 1:
                w.stop()
    setups = clock.scaled(spans, sampler.samples, in_process=False)
    rep = w.run(deadline)
    n = rep["ops"]
    lat, raw = rep["latencies"], rep["raw_latencies"]
    p, tail_s = tail(lat, tail_pct)
    metrics = {
        "throughput_ops": (n / sum(lat), "1/s",
                           f"{rep['rounds']} rounds; {n / sum(raw):.4g} unscaled"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms",
                           f"{n} samples; {statistics.median(raw) * 1e3:.4g} unscaled"),
        "latency_tail_ms": (tail_s * 1e3, "ms",
                            f"p{p} of {n} samples; {tail(raw, tail_pct)[1] * 1e3:.4g} unscaled"),
        "success_rate": (1 - rep["failed"] / n, "ratio",
                         f"error_rate {rep['failed'] / n:.4f} = {rep['failed']} failed of {n}"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB",
                        "CLI child processes" if workload == "cli" else "worker process"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {SETUPS} fresh interpreters; "
                    f"{statistics.median(b - a for a, b in spans):.4g} unscaled"),
    }
    return rep, metrics


def per_layer(workload, seed):
    import tracing

    _, rounds, _ = WORKLOADS[workload]
    deadline = time.monotonic() + DEADLINE_S
    plain = Worker(workload, seed, rounds, 0, 0).run(deadline)
    rep = Worker(workload, seed, rounds, 0, 1).run(deadline)
    out = {}
    if rep.get("totals"):
        out.update(tracing.layer_metrics(rep["totals"]))
    children = rep.get("children", [])
    if children:
        out["cli.startup_s"] = statistics.median(c[2] for c in children)
        out["cli.import_s"] = statistics.median(c[3] for c in children)
        for sub in CLI_SUBCOMMANDS:
            walls = [c[1] for c in children if c[0] == sub]
            out[f"cli.{sub}.p50_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
        out["cli.contract_violations"] = rep["failed"]
    out["trace.overhead_ratio"] = sum(rep["raw_latencies"]) / sum(plain["raw_latencies"])
    rep["wrong"] += plain["wrong"]
    return rep, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "symvar", "__init__.py")):
        print("error: no symvar sources under src/; run from the root of a symvar checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            rep, values = per_layer(args.workload, args.seed)
            metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                       for m in spec()["per_layer"]}
            notes = {}
        else:
            rep, values = end_to_end(args.workload, args.seed, args.seconds)
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
            notes = {k: note for k, (_, _, note) in values.items()}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": rep["wrong"] == 0,
        "attempted": rep["ops"],
        "failed": rep["failed"],
        "metrics": metrics,
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "revision": git_revision(),
        "nproc": os.cpu_count(),
    }
    print(" ".join(f"{k}={v}" for k, v in context.items()))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(context, **result), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
