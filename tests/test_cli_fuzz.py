"""The CLI contract under fuzzed input.

``cli.main`` runs in process on argument vectors that Hypothesis draws
from the CLI's grammars: point literals (``value^mult`` classes), partition
literals (comma-separated weights) and variety files (JSON objects with
``lambda`` and ``points``), mostly well formed so that the commands reach
their computations, with tokens that are not.  The commands are ``type``,
``preceq``, ``min-excluded``, ``member --method both``, ``gamma``,
``contains`` and ``equations --variety``.  On every run:

- the exit code is 0 to 3 (4 is an internal error);
- stderr holds no ``Traceback`` and no ``internal error``;
- an exit 2, a usage or data error, prints nothing on stdout.

The explicit examples are inputs once found by hand: non-ASCII digits,
``_`` inside numbers, ``1/-2``, a zero denominator, JSON ``true`` and
``false``, missing keys, an empty ``lambda``, a file holding a bare JSON
value and a file nested 200,000 levels deep.  The search is derandomized, so every run draws the same
inputs.  Finite weights stay at most 2 and partitions at most 3 parts,
which keeps each run to milliseconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from symvar.cli import main

# tokens the grammars accept, inf repeated so that most partitions and
# points have an infinite part, and tokens they refuse
WEIGHTS = ["inf", "inf", "1", "2", "1", "inf"]
BAD_WEIGHTS = ["0", "", "-1", "²", "٣", "1_0", "inf2", "1.5", "True"]
VALUES = ["0", "1", "2", "-1", "1/2", "-4/3", "2/2", "3"]
BAD_VALUES = ["1/0", "1/-2", "٣", "1/٢", "1_0", "", "1e3", "1/2/3", "x", "１"]


def mostly(good, bad):
    """A token of `good`, or one of `bad` about one time in eight."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(bad if i == 7 else good))


weights = mostly(WEIGHTS, BAD_WEIGHTS)
values = mostly(VALUES, BAD_VALUES)
# most partitions have an infinite part, which every command but preceq needs
partitions = st.tuples(mostly(["inf"], WEIGHTS),
                       st.lists(weights, max_size=2)).map(lambda t: [t[0]] + t[1])


def literal(tokens) -> str:
    return ",".join(tokens)


@st.composite
def points(draw) -> str:
    """A point literal of 1 to 4 classes."""
    first = draw(st.tuples(values, mostly(["inf"], BAD_WEIGHTS)))
    classes = [first] + draw(st.lists(st.tuples(values, weights), max_size=3))
    return literal(f"{v}^{m}" for v, m in classes)


def as_json(token):
    # a weight or value token as a variety file spells it: an int where it
    # is one, else the string
    return int(token) if token.isascii() and token.isdigit() else token


# JSON values of the wrong kind, for any field
ODD = st.sampled_from([None, True, False, 1.5, -1, 0, [], {}, "", [[]], "inf", "1/0"])


@st.composite
def variety_files(draw, lam) -> str:
    """The text of a variety file over the parts `lam` of a partition
    literal: one or two points of the right length, or odd coordinates,
    an odd ``lambda`` or ``points``, a missing key, or any JSON at all."""
    shape = draw(st.sampled_from(["well formed"] * 4 + [
        "odd coordinates", "odd lambda", "odd points", "missing key", "any", "any"]))
    if shape == "any":
        # any JSON at all, a bare scalar included
        tree = st.recursive(ODD, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(["lambda", "points", "x"]), inner, max_size=3), max_leaves=6)
        return json.dumps(draw(st.one_of(ODD, tree)))
    data = {"lambda": [as_json(w) for w in lam]}
    width = len(lam)
    odd = shape == "odd coordinates"
    coords = st.one_of(values.map(as_json), ODD) if odd else values.map(as_json)
    data["points"] = draw(st.lists(st.lists(coords, min_size=width, max_size=width,
                                            unique=not odd), min_size=1, max_size=2))
    if shape == "odd lambda":
        data["lambda"] = draw(st.one_of(ODD, st.lists(ODD, max_size=3)))
    elif shape == "odd points":
        data["points"] = draw(st.one_of(ODD, st.lists(ODD, max_size=2)))
    elif shape == "missing key":
        del data[draw(st.sampled_from(["lambda", "points"]))]
    return json.dumps(data)


@st.composite
def invocations(draw):
    """(argv, file texts): ``{i}`` in argv names the file of text i."""
    command = draw(st.sampled_from(["type", "preceq", "min-excluded", "member", "gamma",
                                    "contains", "equations"]))
    lam, mu = draw(partitions), draw(partitions)
    files = []

    def file_over(parts):
        files.append(draw(variety_files(parts)))
        return "{%d}" % (len(files) - 1)

    if command == "type":
        argv = [command, draw(points())]
    elif command == "preceq":
        argv = [command, literal(mu), literal(lam)]
    elif command == "min-excluded":
        argv = [command, literal(lam)]
    elif command == "member":
        argv = [command, literal(lam), draw(points()), "--method", "both"]
        if draw(st.booleans()):
            argv += ["--variety", file_over(lam)]
    elif command == "gamma":
        argv = [command, literal(lam), file_over(lam), literal(mu)]
    elif command == "contains":
        argv = [command, literal(mu), file_over(mu), literal(lam), file_over(lam)]
    else:
        argv = [command, literal(lam), "--variety", file_over(lam)]
    if draw(st.integers(0, 3)) == 0:
        argv.append("--json")
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(workdir, argv, files):
    paths = []
    for i, text in enumerate(files):
        path = workdir / f"z{i}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(*paths) for a in argv])
    return code, out.getvalue(), err.getvalue()


NESTED = "[" * 200_000


@settings(derandomize=True, database=None, deadline=None, max_examples=250,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=invocations())
@example(case=(["type", "٣^inf,1^2"], []))
@example(case=(["preceq", "²", "inf,inf"], []))
@example(case=(["type", "0^inf,1_0^2"], []))
@example(case=(["min-excluded", "inf,1_0"], []))
@example(case=(["type", "1/-2^inf"], []))
@example(case=(["type", "1/0^inf"], []))
@example(case=(["member", "inf,inf", "0^inf", "--method", "both", "--variety", "{0}"],
               ['{"lambda": ["inf", "inf"], "points": [[0, "1/0"]]}']))
@example(case=(["gamma", "inf,inf", "{0}", "1"],
               ['{"lambda": ["inf", "inf"], "points": [[0, "1/-2"], ["1_0", 1]]}']))
@example(case=(["equations", "inf,1", "--variety", "{0}"],
               ['{"lambda": ["inf", true], "points": [[false, 1]]}']))
@example(case=(["equations", "inf,inf", "--variety", "{0}"], ['{"points": [[0, 1]]}']))
@example(case=(["equations", "inf,inf", "--variety", "{0}"], ['{"lambda": ["inf", "inf"]}']))
@example(case=(["contains", "inf", "{0}", "inf", "{1}"],
               ['{"lambda": [], "points": []}', '{"lambda": ["inf"], "points": [[0]]}']))
@example(case=(["gamma", "inf", "{0}", "1"], ["5"]))
@example(case=(["equations", "inf", "--variety", "{0}"], ["true"]))
@example(case=(["equations", "inf,inf", "--variety", "{0}"], [NESTED]))
@example(case=(["contains", "inf,1", "{0}", "inf,inf", "{1}"], ["[1, 2]", NESTED]))
def test_every_input_keeps_the_exit_code_contract(workdir, case):
    argv, files = case
    code, out, err = run(workdir, argv, files)
    assert 0 <= code <= 3, (argv, files, code, err)
    assert "Traceback" not in err and "internal error" not in err, (argv, files, err)
    if code == 2:
        assert out == "", (argv, files, out)
