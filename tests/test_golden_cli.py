"""Golden CLI corpus: stdout digests and exit codes of fixed commands.

Each case in ``golden_cli.json`` holds a command line, the sha256 of its
stdout and its exit code.  Replaying the cases through ``symvar.cli.main``
must reproduce both exactly: the CLI promises byte-identical output for
fixed inputs and seed, and a change that only makes things faster must not
move a single byte.  The corpus covers the README examples, the acceptance
varieties (including ``Z3`` on ``inf,inf,2``), rational coordinates and
the error exits.

Re-record only when the documented output changes on purpose:

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from symvar.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "golden_cli.json")

FILES = {
    "Z.json": '{"lambda": ["inf", "inf"], "points": [[0, 1], [1, 0]]}',
    "Z3.json": '{"lambda":["inf","inf",2],"points":[[0,1,2],[1,2,3],[2,3,4]]}',
    "za.json": '{"lambda": ["inf", 1], "points": [[0, 1]]}',
    "zb.json": '{"lambda": ["inf", 2], "points": [[0, 1]]}',
    "zc.json": '{"lambda": ["inf", "inf", "inf"], "points": [[0, 1, 2]]}',
    "zf.json": '{"lambda": ["inf", 1, 1], "points": [[0, 1, 2]]}',
    "zr.json": '{"lambda": ["inf", 2, 1, 1], "points": [[1, 2, 3, 3]]}',
    "zq.json": '{"lambda": ["inf", "inf"], "points": [["1/2", "-3/7"], ["-3/7", "1/2"], [2, "1/3"]]}',
    "zq3.json": '{"lambda": ["inf", "inf", 1], "points": [["1/2", -1, "2/7"], [3, "1/2", "-5/3"]]}',
    "zq2.json": '{"lambda": [1, "inf"], "points": [["-2/3", "1/2"], ["1/6", 0]]}',
    "z6.json": '{"lambda": ["inf", "inf", "inf", "inf", "inf", "inf"], '
               '"points": [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]]}',
    "z5.json": '{"lambda": ["inf", "inf", "inf", "inf", 3], "points": [[0, 1, 2, 3, 4]]}',
    "z21.json": '{"lambda":["inf","inf",2,1],"points":[[0,1,2,3],["1/2",2,1,0]]}',
    "z4.json": '{"lambda":["inf","inf",1,1],"points":[[0,1,2,3],[3,2,1,0]]}',
    "zfin.json": '{"lambda": [2, 1], "points": [[0, 1]]}',
    "zrep.json": '{"lambda":["inf",1,1],"points":[[0,1,1],[2,2,3]]}',
    "zk.json": '{"lambda": ["inf", 2, 1], "points": [["6/2", "-1/2", -2], [-2, 3, "5/3"]]}',
    "zk1.json": '{"lambda": ["inf", 1], "points": [[3, "-1/2"]]}',
    "zg.json": '{"lambda":["inf",2,1,1],"points":[[0,1,2,3],[5,-7,11,13]]}',
    "zo.json": '{"lambda": ["inf", 2, 1], "points": [[0, 4, 2], [1, 3, 2]]}',
    "ze.json": '{"lambda": ["inf", 1], "points": []}',
}

COMMANDS = [
    # README
    ["type", "3^3,5^2,6^inf,7^inf"],
    ["min-excluded", "inf,1"],
    ["equations", "inf,inf", "--variety", "Z.json"],
    ["member", "inf,inf", "0^inf,1^inf", "--variety", "Z.json", "--method", "both"],
    # partitions
    ["type", "--json", "1/2^inf,2^1,-3^1"],
    ["preceq", "4,4,4", "inf,inf,2,1"],
    ["preceq", "--json", "inf,5", "inf,inf"],
    ["min-excluded", "inf,inf,2,1"],
    ["min-excluded", "--json", "inf,inf,inf,inf,6"],
    ["min-excluded", "inf,inf,inf,inf,inf,8"],
    ["min-excluded", "--json", "inf,2,1,1"],
    ["min-excluded", "inf,inf,3,1"],
    # equations
    ["equations", "inf,1"],
    ["equations", "inf,inf", "--variety", "Z.json", "--reduce"],
    ["equations", "--json", "inf,inf,inf", "--variety", "zc.json"],
    ["equations", "inf,inf,2", "--variety", "Z3.json"],
    ["equations", "--json", "inf,inf,2", "--variety", "Z3.json"],
    ["equations", "inf,1,1", "--variety", "zf.json"],
    ["equations", "inf,inf", "--variety", "zq.json"],
    ["equations", "--json", "inf,inf,1", "--variety", "zq3.json"],
    ["equations", "inf,1", "--variety", "zq2.json", "--reduce", "--seed", "5"],
    # membership
    ["member", "inf,inf", "0^inf,1^inf,2^1", "--variety", "Z.json"],
    ["member", "inf,1", "0^inf,1^1"],
    ["member", "inf,inf,2", "0^inf,1^2,2^1", "--variety", "Z3.json", "--method", "both"],
    ["member", "inf,inf,2", "1^inf,2^inf,3^2", "--variety", "Z3.json", "--method", "both"],
    ["member", "--json", "inf,inf,2", "4^inf,3^2", "--variety", "Z3.json", "--method", "both"],
    ["member", "inf,inf,2", "0^inf,1^1,2^1,3^1", "--variety", "Z3.json", "--method", "equations"],
    ["member", "inf,inf,inf", "0^inf,1^inf,2^inf", "--variety", "zc.json", "--method", "both"],
    ["member", "inf,1,1", "0^inf,2^1", "--variety", "zf.json", "--method", "both"],
    ["member", "inf,inf", "1/2^inf,-3/7^inf", "--variety", "zq.json", "--method", "both"],
    ["member", "inf,inf", "1/3^inf,2^3", "--variety", "zq.json", "--method", "both"],
    ["member", "inf,inf", "1/3^inf,1/2^1", "--variety", "zq.json", "--method", "both"],
    ["member", "inf,inf,1", "2/7^inf,-1^inf,1/2^1", "--variety", "zq3.json", "--method", "both"],
    ["member", "inf,inf,1", "1/2^inf,-5/3^1", "--variety", "zq3.json", "--method", "both"],
    ["member", "inf,1", "1/2^inf,-2/3^1", "--variety", "zq2.json", "--method", "both"],
    ["member", "inf,1", "0^inf,1/6^1", "--variety", "zq2.json", "--method", "both"],
    # containment and slices
    ["contains", "inf,1", "za.json", "inf,2", "zb.json"],
    ["contains", "inf,2", "zb.json", "inf,1", "za.json"],
    ["contains", "inf,inf", "Z.json", "inf,inf,inf", "zc.json"],
    ["gamma", "inf,inf", "Z.json", "1,1"],
    ["gamma", "--json", "inf,inf", "Z.json", "1"],
    ["gamma", "inf,inf,2", "Z3.json", "3,3,1"],
    ["gamma", "inf,inf,2", "Z3.json", "inf,2"],
    ["gamma", "inf,2,1,1", "zr.json", "inf,2,1,1"],
    ["gamma", "inf,inf", "zq.json", "2,1"],
    ["gamma", "--json", "inf,inf,1", "zq3.json", "inf,1,1"],
    ["gamma", "inf,1", "zq2.json", "2,2"],
    # invariant battery
    ["selfcheck"],
    ["selfcheck", "--seed", "7"],
    # error exits
    ["type", "1/0^inf"],
    ["equations", "inf,1", "--variety", "Z.json"],
    ["member", "inf,inf", "0^inf", "--variety", "missing.json"],
    # point-set rule on wide compositions
    ["gamma", "inf,inf,inf,inf,inf,inf", "z6.json", "inf,inf,inf"],
    ["member", "inf,inf,inf,inf,3", "0^inf,1^inf,2^inf,3^inf,4^2", "--variety", "z5.json",
     "--method", "direct"],
    ["member", "inf,inf,inf,inf,3", "0^inf,1^inf,2^inf,3^inf,4^4", "--variety", "z5.json",
     "--method", "direct"],
    ["contains", "--json", "inf,inf", "zq.json", "inf,inf,1", "zq3.json"],
    # partition orders decided on the finite tail
    ["min-excluded", "--json", "inf,inf,inf,inf,inf,inf,inf,inf,12"],
    ["preceq", "inf,3,3", "inf,inf,2,1"],
    ["preceq", "inf,inf,3", "inf,inf,inf,1"],
    ["preceq", "5,5", "inf,4,4,1"],
    ["preceq", "--json", "3,3", "2,2,2"],
    # slices collapsed along each point
    ["gamma", "--json", "inf,2,1,1", "zr.json", "2,2,1"],
    ["gamma", "inf,2,1,1", "zr.json", "3,2,1"],
    ["gamma", "inf,inf,2,1", "z21.json", "3,3,2,1,1"],
    ["equations", "inf,inf,1,1", "--variety", "z4.json"],
    ["contains", "2,1", "zfin.json", "2,1", "zfin.json"],
    # one search for weight-respecting maps: repeated coordinates, finite rooms
    ["selfcheck", "--seed", "3"],
    ["gamma", "inf,1,1", "zrep.json", "2,1,1,1"],
    ["gamma", "--json", "inf,1,1", "zrep.json", "inf,2"],
    # one integral value written as 6/2 and as 3, with negative and non-integral values
    ["member", "inf,2,1", "3^inf,-1/2^2", "--variety", "zk.json", "--method", "direct"],
    ["member", "inf,2,1", "3^inf,5/3^2", "--variety", "zk.json", "--method", "direct"],
    ["contains", "inf,1", "zk1.json", "inf,2,1", "zk.json"],
    ["contains", "inf,2,1", "zk.json", "inf,1", "zk1.json"],
    ["gamma", "inf,2,1", "zk.json", "2,1,1"],
    # a 4-part lambda on a generic pair: slices of up to 230 points
    ["equations", "inf,2,1,1", "--variety", "zg.json"],
    # invariant battery: the JSON summary and the per-suite check counts of more seeds
    ["selfcheck", "--json"],
    ["selfcheck", "--seed", "1"],
    ["selfcheck", "--json", "--seed", "7"],
    # equation membership at points of 16 classes: row fits from the cover-group search
    ["member", "inf,1",
     "0^inf,1^1,2^1,3^1,4^1,5^1,6^1,7^1,8^1,9^1,10^1,11^1,12^1,13^1,14^1,15^1",
     "--method", "both"],
    ["member", "inf,2,1",
     "3^inf,-1/2^1,-2^1,5/3^1,4^1,5^1,6^1,7^1,8^1,9^1,10^1,11^1,12^1,13^1,14^1,15^1",
     "--variety", "zk.json", "--method", "both"],
    # combining order decided by the tail search, with and without infinite parts
    ["preceq", "5,5", "4,3,3"],
    ["preceq", "inf,6,6", "inf,5,4,3"],
    ["preceq", "--json", "7,5", "4,4,3,1"],
    ["min-excluded", "inf,3,3,2,2,1"],
    ["min-excluded", "--json", "inf,inf,4,3,2,1"],
    # the routes disagree outside the equation route's exact domain: exit 3
    ["member", "inf,2,1", "0^inf,4^3", "--variety", "zo.json", "--method", "both"],
    # an empty classified set: each slice generator is its bare tableau polynomial
    ["equations", "inf,1", "--variety", "ze.json"],
]


def _run(argv, directory):
    argv = [os.path.join(directory, a) if a in FILES or a == "missing.json" else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _write_files(directory):
    for name, text in FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _load():
    if not os.path.exists(CORPUS):
        return []  # before the first recording; test_corpus_lists_every_command fails
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_files(str(directory))
    return str(directory)


def test_corpus_lists_every_command():
    assert [case["argv"] for case in _load()] == COMMANDS


@pytest.mark.parametrize("case", _load(), ids=lambda c: " ".join(c["argv"]))
def test_replay(case, corpus_dir):
    code, digest = _run(case["argv"], corpus_dir)
    assert (code, digest) == (case["exit"], case["stdout_sha256"])


def record():
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        _write_files(directory)
        cases = []
        for argv in COMMANDS:
            code, digest = _run(argv, directory)
            cases.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
