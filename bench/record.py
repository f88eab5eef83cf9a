"""Record the expected answers into bench/expected.json.

Usage (from the root of a checkout): python3 bench/record.py

Run once, on a commit whose answers are trusted; the benchmark then checks
every run against the file.  Before writing, the member answers inside the
exact domain are cross-checked against the equation route, and every
min_excluded answer against the filling search.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import workloads  # noqa: E402
from symvar.equations import i_lambda_z, member_by_equations  # noqa: E402
from symvar.partitions import GenPartition, good_filling_exists  # noqa: E402

PATH = os.path.join(BENCH_DIR, "expected.json")


def cross_check_member(table, sets, spaces):
    for s, ((lam, Z), (thetas, _)) in enumerate(zip(sets, spaces)):
        lam = lam.shape()
        if not workloads.in_exact_domain(lam):
            continue
        ideal = i_lambda_z(lam, Z)
        for x, bit in zip(thetas, table["theta"][s]):
            if member_by_equations(ideal, x) != (bit == "1"):
                raise SystemExit(f"direct and equation routes disagree on {lam} {x}")


def cross_check_orders(table):
    for text, answer in table.items():
        lam = GenPartition.parse(text)
        antichain = [GenPartition.parse(a) for a in answer.split(";")]
        for a in antichain:
            if good_filling_exists(a, lam):
                raise SystemExit(f"min_excluded({lam}) lists {a}, which is below it")
            for b in antichain:
                if a != b and good_filling_exists(a, b):
                    raise SystemExit(f"min_excluded({lam}) is not an antichain")


def main():
    # the workload constructors read the file being written
    if not os.path.exists(PATH):
        with open(PATH, "w", encoding="utf-8") as fh:
            json.dump({"member": {}, "orders": {}, "synth": {}, "cli": {}}, fh)
    member = workloads.Member()
    expected = {"member": member.record()}
    cross_check_member(expected["member"], member.sets, member.spaces)
    expected["orders"] = workloads.Orders().record()
    cross_check_orders(expected["orders"])
    expected["synth"] = workloads.Synth.anchors()
    cli = workloads.Cli(os.path.join(os.path.dirname(BENCH_DIR), ".bench_out", "record"))
    try:
        cli.generate(None, 0)
        expected["cli"] = cli.record()
    finally:
        cli.close()
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
