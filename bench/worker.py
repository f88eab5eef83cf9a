"""One benchmark process: set up a workload, wait, run it, check it.

Usage: worker.py WORKLOAD SEED ROUNDS SECONDS TRACE OUT_DIR

Started in a fresh interpreter, so symvar's caches start cold.  After
importing symvar and generating ROUNDS rounds of inputs from SEED it prints
``ready`` and reads one line: ``exit`` ends it, ``run`` starts the timed
loop.  With SECONDS > 0 the loop stops at the first round boundary after
SECONDS; with SECONDS = 0 it runs every round (the fixed work of a traced
run).  With TRACE = 1 the wrappers of ``tracing.py`` are installed first and
the spans are written to OUT_DIR.  The answers are checked after the loop,
outside the timed region, and the result is printed as one JSON line.
"""

import gc
import json
import os
import random
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import clock  # noqa: E402
import workloads  # noqa: E402  (imports symvar)


def make(name, out_dir, traced):
    if name == "synth":
        return workloads.Synth()
    if name == "member":
        return workloads.Member()
    if name == "orders":
        return workloads.Orders()
    return workloads.Cli(os.path.join(out_dir, f"work-{os.getpid()}"), traced)


def main():
    name, seed, rounds, seconds, trace, out_dir = sys.argv[1:]
    seconds, traced = float(seconds), trace == "1"
    proto = sys.stdout
    sys.stdout = sys.stderr
    wl = make(name, out_dir, traced)
    try:
        plan = wl.generate(random.Random(int(seed)), int(rounds))
        # the collector need not scan the inputs held for the whole run
        gc.freeze()
        proto.write("ready\n")
        proto.flush()
        if sys.stdin.readline().strip() != "run":
            return
        report = run(wl, plan, seconds, traced, out_dir)
    finally:
        if name == "cli":
            wl.close()
    proto.write(json.dumps(report) + "\n")
    proto.flush()


def run(wl, plan, seconds, traced, out_dir):
    import tracing

    tracer = restore = None
    child_spans = []
    if traced and wl.name != "cli":
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    done = []
    spans = []
    rounds = 0
    # CLI operations run in child processes and are sampled between
    # operations; in a traced run of the other workloads the samples would
    # land inside the spans, so only entry and exit are sampled
    in_process = wl.name != "cli"
    with clock.Sampler(timer=in_process and not traced) as sampler:
        start = time.perf_counter()
        for ops in plan:
            for op in ops:
                if not in_process:
                    sampler.between()
                if tracer is not None:
                    tracer.op_id = len(done)
                t0 = time.perf_counter()
                try:
                    result = wl.execute(op)
                except Exception as exc:  # the operation failed; counted below
                    result = exc
                spans.append((t0, time.perf_counter()))
                done.append((op, result))
                if traced and wl.name == "cli":
                    wl.collect(op, len(done) - 1, spans[-1][1] - t0, child_spans)
            rounds += 1
            if seconds and time.perf_counter() - start >= seconds:
                break
    if restore is not None:  # the checks below are not traced
        restore()

    failed = wrong = 0
    for op, result in done:
        if isinstance(result, Exception):
            ok, bad = False, True
        else:
            ok, bad = wl.check(op, result)
        failed += not ok
        wrong += bad
    if hasattr(wl, "check_anchors") and not wl.check_anchors():
        failed += 1
        wrong += 1

    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    report = {
        "ops": len(done),
        "rounds": rounds,
        "latencies": clock.scaled(spans, sampler.samples, in_process),
        "raw_latencies": clock.unscaled(spans, sampler.samples, in_process),
        "failed": failed,
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if traced:
        spans_path = os.path.join(out_dir, f"spans-{wl.name}.jsonl")
        if wl.name == "cli":
            report["totals"] = wl.totals
            report["children"] = wl.children
            with open(spans_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"totals": wl.totals}) + "\n")
                fh.writelines(json.dumps(span) + "\n" for span in child_spans)
        else:
            report["totals"] = tracer.totals
            tracer.dump(spans_path)
    return report


if __name__ == "__main__":
    main()
