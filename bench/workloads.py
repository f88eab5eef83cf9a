"""The four workloads: seeded input generators, operations and answer checks.

Inputs come only from ``random.Random(seed)`` and the fixed tables below; the
program receives nothing but the generated inputs.  Each workload is a list
of rounds.  Every round holds the same classes of operation in the same
numbers, in a seeded order, so a run's figures do not depend on which seed
it was given; the seed changes the particular inputs.

An operation is a tuple whose first entry names its kind.  ``execute`` runs
one operation and returns what must be consumed inside the timed region;
``check`` compares that result with the recorded answers (``expected.json``,
written by ``record.py``) or with an independent route, and returns
``(ok, wrong)``: whether the operation met its contract, and whether it gave
a wrong answer.
"""

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

# the program is called through its modules' attributes, where a traced run
# installs its wrappers
from symvar import equations, partitions, variety
from symvar.partitions import INF, GenComposition, GenPartition
from symvar.variety import FinitaryPoint, PointSetVariety

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
P = GenPartition.parse


def load_expected():
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def comp(lam):
    return GenComposition.from_partition(lam)


def in_exact_domain(lam):
    """Where the equation route decides membership exactly."""
    return lam.finite_weight <= 1 or lam.length <= 2


# ---------------------------------------------------------------- synth

# (lambda, number of points), one pair each per round.  Two classes come
# twice, so that the median and the 75th percentile fall inside a class and
# not between two.  4-part lambdas are left out: one generic pair costs
# 5-14 s, most of a run.
SYNTH_CLASSES = [
    ("inf,inf", 1), ("inf,1", 1), ("inf,inf", 2), ("inf,2", 1), ("inf,1", 2), ("inf,2", 2),
    ("inf,inf,inf", 1), ("inf,1,1", 1), ("inf,1,1", 1), ("inf,inf,1", 1), ("inf,2,1", 1),
    ("inf,1,1", 2), ("inf,1,1", 2), ("inf,inf,inf", 2), ("inf,inf,1", 2), ("inf,2,1", 2),
]

# fixed pairs whose rendered ideal and verdicts are recorded
SYNTH_ANCHORS = [
    ("inf,inf", [(0, 1), (1, 0)], ["0^inf,1^inf", "0^inf,1^inf,2^1", "0^inf"]),
    ("inf,1", [(0, 1)], ["0^inf,1^1", "1^inf,0^1", "0^inf,1^2"]),
    ("inf,inf,inf", [(0, 1, 2)], ["0^inf,1^inf,2^inf", "0^inf,1^inf", "0^inf,1^inf,3^inf"]),
]


class Synth:
    """Distinct pairs (lambda, Z) through ``i_lambda_z`` and
    ``member_by_equations``."""

    name = "synth"

    def generate(self, rng, rounds):
        seen = set()
        out = []
        for _ in range(rounds):
            ops = []
            for text, npts in SYNTH_CLASSES:
                lam = P(text)
                while True:
                    values = rng.sample(range(-30, 31), lam.length * npts)
                    pts = [tuple(values[i * lam.length:(i + 1) * lam.length]) for i in range(npts)]
                    Z = PointSetVariety(comp(lam), pts)
                    if (lam, Z) not in seen:
                        seen.add((lam, Z))
                        break
                ops.append(("synth", lam, Z, self._points(rng, lam, Z)))
            rng.shuffle(ops)
            out.append(ops)
        return out

    @staticmethod
    def _points(rng, lam, Z):
        z = Z.points[0]
        member = list(zip(z, lam.parts))
        # drop the last class: a point of smaller type over the same values
        smaller = member[:-1]
        width = rng.randint(1, lam.length)
        values = rng.sample(range(-30, 31), width)
        mults = [INF] + [rng.choice([INF, 1, 2]) for _ in range(width - 1)]
        return [FinitaryPoint(c) for c in (member, smaller, list(zip(values, mults)))]

    def execute(self, op):
        _, lam, Z, points = op
        ideal = equations.i_lambda_z(lam, Z)
        return len(ideal.generators), [equations.member_by_equations(ideal, x) for x in points]

    def check(self, op, result):
        _, lam, Z, points = op
        _, verdicts = result
        for x, by_equations in zip(points, verdicts):
            direct = variety.theta_member(comp(lam), Z, x)
            # every emitted generator vanishes on the classified set, so the
            # equation route never rejects a member; inside the exact domain
            # it also never accepts a non-member
            if direct and not by_equations:
                return False, True
            if in_exact_domain(lam) and direct != by_equations:
                return False, True
        return True, False

    def check_anchors(self):
        """Do the fixed anchor pairs still give their recorded answers?"""
        return self.anchors() == load_expected()["synth"]

    @staticmethod
    def anchors():
        """Rendered ideal and verdicts of the fixed anchor pairs."""
        out = {}
        for text, pts, xs in SYNTH_ANCHORS:
            lam = P(text)
            Z = PointSetVariety(comp(lam), pts)
            ideal = equations.i_lambda_z(lam, Z)
            verdicts = [equations.member_by_equations(ideal, FinitaryPoint.parse(x))
                        for x in xs]
            out[text] = {"ideal": digest(ideal.render()), "member": verdicts}
        return out


# ---------------------------------------------------------------- member

# fixed pool of classified sets (lambda, Z), at most 4 parts
MEMBER_POOL = [
    ("inf,inf", [(0, 1), (1, 0)]),
    ("inf,1", [(0, 1)]),
    ("inf,2", [(0, 1), (2, 3)]),
    ("inf,inf,1", [(0, 1, 2)]),
    ("inf,inf,2", [(0, 1, 2), (1, 2, 3), (2, 3, 4)]),
    ("inf,inf,inf", [(0, 1, 2), (2, 1, 0)]),
    ("inf,1,1", [(0, 1, 2)]),
    ("inf,inf,1,1", [(0, 1, 2, 3)]),
]
MEMBER_SLICES = ["inf", "inf,1", "inf,inf", "inf,2", "inf,1,1", "inf,inf,1", "1", "1,1", "2,1"]
MEMBER_CONTAINS = ["inf", "inf,1", "inf,inf", "inf,2", "inf,inf,1"]
MULTS = [INF, 1, 2]
# per set and round: one theta_member query of each type, and the numbers of
# contains and gamma_at queries
MEMBER_TYPES = ["inf", "inf,inf", "inf,1", "inf,2", "inf,inf,inf", "inf,inf,1", "inf,inf,2",
                "inf,1,1", "inf,2,1", "inf,2,2"]
MEMBER_MIX = (3, 1)


def member_sets():
    return [(comp(P(text)), PointSetVariety(comp(P(text)), pts)) for text, pts in MEMBER_POOL]


def member_values(Z):
    return sorted({c for p in Z.points for c in p} | {Fraction(7)})


def theta_space(Z):
    """Every point of width at most 3 on the set's values, multiplicities in
    {inf, 1, 2}, in a fixed order."""
    values = member_values(Z)
    seen = set()
    out = []
    for width in (1, 2, 3):
        for vals in itertools.permutations(values, width):
            for mults in itertools.product(MULTS, repeat=width):
                if INF not in mults:
                    continue
                x = FinitaryPoint(zip(vals, mults))
                if x not in seen:
                    seen.add(x)
                    out.append(x)
    return out


def contains_space(Z):
    """Single-point sets over small infinite partitions on the set's values."""
    values = member_values(Z)
    out = []
    for text in MEMBER_CONTAINS:
        mu = comp(P(text))
        for vals in itertools.permutations(values, mu.length):
            out.append((mu, PointSetVariety(mu, [vals])))
    return out


class Member:
    """Direct-route queries against a small fixed pool of classified sets."""

    name = "member"

    def __init__(self):
        self.sets = member_sets()
        self.spaces = [(theta_space(Z), contains_space(Z)) for _, Z in self.sets]
        self.expected = load_expected()["member"]

    def generate(self, rng, rounds):
        n_contains, n_gamma = MEMBER_MIX
        by_type = [
            [[i for i, x in enumerate(thetas) if str(variety.type_of(x)) == t]
             for t in MEMBER_TYPES]
            for thetas, _ in self.spaces
        ]
        out = []
        for _ in range(rounds):
            ops = []
            for s, (_, conts) in enumerate(self.spaces):
                ops += [("theta", s, rng.choice(indices)) for indices in by_type[s]]
                ops += [("contains", s, rng.randrange(len(conts))) for _ in range(n_contains)]
                ops += [("gamma", s, rng.randrange(len(MEMBER_SLICES))) for _ in range(n_gamma)]
            rng.shuffle(ops)
            out.append(ops)
        return out

    def execute(self, op):
        kind, s, i = op
        lam, Z = self.sets[s]
        if kind == "theta":
            return variety.theta_member(lam, Z, self.spaces[s][0][i])
        if kind == "contains":
            mu, Z1 = self.spaces[s][1][i]
            return variety.contains(mu, Z1, lam, Z)
        result = variety.gamma_at(lam, Z, comp(P(MEMBER_SLICES[i])))
        return digest(repr(result.points))

    def check(self, op, result):
        kind, s, i = op
        want = self.expected[kind][s][i]
        if kind != "gamma":
            want = want == "1"
        return result == want, result != want

    def record(self):
        out = {"theta": [], "contains": [], "gamma": []}
        for s, (thetas, conts) in enumerate(self.spaces):
            out["theta"].append("".join("01"[self.execute(("theta", s, i))]
                                        for i in range(len(thetas))))
            out["contains"].append("".join("01"[self.execute(("contains", s, i))]
                                           for i in range(len(conts))))
            out["gamma"].append([self.execute(("gamma", s, i))
                                 for i in range(len(MEMBER_SLICES))])
        return out


# ---------------------------------------------------------------- orders

ORDERS_SWEEP = ["inf,inf,2", "inf,inf,inf,4", "inf,inf,inf,inf,6", "inf,inf,inf,inf,inf,8"]
# per round: batches of preceq pairs, pairs per batch, min_excluded on
# random lambdas
ORDERS_MIX = (20, 100, 8)


def orders_space():
    """Lambdas for the random min_excluded queries: 1-3 infinite parts,
    finite parts at most 3, at most 4 parts, finite weight at most 4."""
    out = []
    for k in (1, 2, 3):
        for finite in itertools.chain.from_iterable(
            itertools.combinations_with_replacement((3, 2, 1), r) for r in range(0, 5 - k)
        ):
            if sum(finite) <= 4:
                out.append(GenPartition((INF,) * k + finite))
    return sorted(set(out))


def preceq_distribution():
    """Partitions for the preceq pairs with their weights: 1-5 parts, each
    inf with probability 1/4, else uniform on 1..5."""
    weights = {}
    part_weight = {INF: 5, 1: 3, 2: 3, 3: 3, 4: 3, 5: 3}
    for length in range(1, 6):
        for parts in itertools.product(part_weight, repeat=length):
            p = GenPartition(parts)
            w = 20 ** (5 - length)
            for q in parts:
                w *= part_weight[q]
            weights[p] = weights.get(p, 0) + w
    return list(weights), list(itertools.accumulate(weights.values()))


class Orders:
    """The two partition orders: ``preceq`` and ``min_excluded``."""

    name = "orders"

    def __init__(self):
        self.space = orders_space()
        self.partitions, self.cum_weights = preceq_distribution()
        self.expected = load_expected()["orders"]

    def generate(self, rng, rounds):
        n_batches, batch, n_random = ORDERS_MIX
        out = []
        for _ in range(rounds):
            ops = []
            for _ in range(n_batches):
                mus = rng.choices(self.partitions, cum_weights=self.cum_weights, k=batch)
                lams = rng.choices(self.partitions, cum_weights=self.cum_weights, k=batch)
                ops.append(("preceq", list(zip(mus, lams))))
            ops += [("min_excluded", P(t)) for t in ORDERS_SWEEP]
            ops += [("min_excluded", rng.choice(self.space)) for _ in range(n_random)]
            rng.shuffle(ops)
            out.append(ops)
        return out

    def execute(self, op):
        if op[0] == "preceq":
            return [partitions.preceq(mu, lam) for mu, lam in op[1]]
        return ";".join(str(a) for a in partitions.min_excluded(op[1]))

    def check(self, op, result):
        if op[0] == "preceq":
            want = [partitions.good_filling_exists(mu, lam) for mu, lam in op[1]]
        else:
            want = self.expected[str(op[1])]
        return result == want, result != want

    def record(self):
        lams = [P(t) for t in ORDERS_SWEEP] + self.space
        return {str(lam): self.execute(("min_excluded", lam)) for lam in lams}


# ---------------------------------------------------------------- cli

Z_README = '{"lambda": ["inf", "inf"], "points": [[0, 1], [1, 0]]}'
Z3 = '{"lambda":["inf","inf",2],"points":[[0,1,2],[1,2,3],[2,3,4]]}'
FILES = {
    "Z.json": Z_README,
    "Z3.json": Z3,
    "za.json": '{"lambda": ["inf", 1], "points": [[0, 1]]}',
    "zb.json": '{"lambda": ["inf", 2], "points": [[0, 1]]}',
    "zc.json": '{"lambda": ["inf", "inf", "inf"], "points": [[0, 1, 2]]}',
    # known defects: each prints a traceback and exits 1
    "points5.json": '{"lambda": ["inf", "inf"], "points": 5}',
    "array.json": "[1, 2]",
    "zeroden.json": '{"lambda": ["inf", "inf"], "points": [[0, "1/0"]]}',
}

# the commands of every round, with their answers recorded in expected.json
CLI_POOL = [
    ["type", "3^3,5^2,6^inf,7^inf"],
    ["type", "0^inf,1^3"],
    ["type", "--json", "1/2^inf,2^1,-3^1"],
    ["preceq", "4,4,4", "inf,inf,2,1"],
    ["preceq", "3,3", "inf,2"],
    ["preceq", "--json", "inf,5", "inf,inf"],
    ["min-excluded", "inf,1"],
    ["min-excluded", "inf,inf,2,1"],
    ["min-excluded", "--json", "inf,inf,inf,inf,6"],
    ["equations", "inf,inf", "--variety", "Z.json"],
    ["equations", "inf,inf", "--variety", "Z.json", "--reduce"],
    ["equations", "inf,1"],
    ["equations", "--json", "inf,inf,inf", "--variety", "zc.json"],
    ["equations", "inf,inf,2", "--variety", "Z3.json"],
    ["member", "inf,inf", "0^inf,1^inf", "--variety", "Z.json", "--method", "both"],
    ["member", "inf,inf", "0^inf,1^inf,2^1", "--variety", "Z.json"],
    ["member", "inf,1", "0^inf,1^1"],
    ["member", "inf,inf,2", "0^inf,1^2,2^1", "--variety", "Z3.json", "--method", "both"],
    ["contains", "inf,1", "za.json", "inf,2", "zb.json"],
    ["contains", "inf,2", "zb.json", "inf,1", "za.json"],
    ["gamma", "inf,inf", "Z.json", "1,1"],
    ["gamma", "--json", "inf,inf", "Z.json", "1"],
    ["selfcheck"],
]

# inputs that break the documented contract at the time of writing: the
# contract asks for exit 2 and no traceback
CLI_KNOWN_DEFECTS = [
    ["type", "1/0^inf"],
    ["equations", "inf,inf", "--variety", "points5.json"],
    ["equations", "inf,inf", "--variety", "array.json"],
    ["member", "inf,inf", "0^inf", "--variety", "zeroden.json"],
]

BAD_WEIGHTS = ["x", "-1", "1.5", "", "2^3", "in"]
BAD_POINTS = ["0inf,1^3", "0^x", "0^inf,0^1", "0^1,1^2", "a^inf", "0^inf,,1^2", "0^-2"]
BAD_FILES = [
    ("notjson.json", "not json"),
    ("nolambda.json", '{"points": [[0, 1]]}'),
    ("badlength.json", '{"lambda": ["inf", "inf"], "points": [[0, 1, 2]]}'),
    ("badweight.json", '{"lambda": ["inf", "w"], "points": [[0, 1]]}'),
    ("repeated.json", '{"lambda": ["inf", "inf"], "points": [[3, 3]]}'),
]


def malformed_commands(rng):
    """One malformed command per template, each varied by the seed.  All
    must exit 2 with one line on stderr and nothing on stdout."""
    part = ",".join(["inf", str(rng.randint(1, 4)), rng.choice(BAD_WEIGHTS)])
    point = rng.choice(BAD_POINTS)
    bad_file, _ = rng.choice(BAD_FILES)
    finite = ",".join(str(rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
    return [
        ["preceq", rng.choice(["3,2", "1", "inf,1"]), part],
        ["type", point],
        ["member", "inf,inf", point, "--variety", "Z.json"],
        [rng.choice(["min-excluded", "equations"]), finite],
        ["equations", "inf,inf", "--variety", bad_file if rng.random() < 0.8 else "missing.json"],
        ["gamma", "inf,inf", "Z.json", rng.choice(["", "1,x", "-1"])],
    ]


class Cli:
    """One ``symvar`` child process per operation, one at a time."""

    name = "cli"
    timeout_s = 60

    def __init__(self, workdir, traced=False):
        self.workdir = workdir
        self.traced = traced
        self.totals = None
        self.children = []  # (subcommand, wall seconds, startup_s, import_s)
        self.corpus = load_expected()["cli"]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def generate(self, rng, rounds):
        os.makedirs(self.workdir, exist_ok=True)
        for name, text in list(FILES.items()) + BAD_FILES:
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        out = []
        for _ in range(rounds):
            ops = [("pool", i) for i in range(len(CLI_POOL))]
            ops += [("defect", i) for i in range(len(CLI_KNOWN_DEFECTS))]
            ops += [("malformed", argv) for argv in malformed_commands(rng)]
            rng.shuffle(ops)
            out.append(ops)
        return out

    @staticmethod
    def argv(op):
        kind, arg = op
        if kind == "pool":
            return CLI_POOL[arg]
        if kind == "defect":
            return CLI_KNOWN_DEFECTS[arg]
        return arg

    def execute(self, op):
        argv = self.argv(op)
        if self.traced:
            spans = os.path.join(self.workdir, "child-spans.jsonl")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_launcher.py"), spans] + argv
            env = dict(self.env, BENCH_SPAWN_NS=str(time.time_ns()))
        else:
            cmd = [sys.executable, "-m", "symvar.cli"] + argv
            env = self.env
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                                  text=True, timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            return None
        return proc.returncode, proc.stdout, proc.stderr

    def collect(self, op, op_id, wall, spans_out):
        """After a traced operation: merge the child's totals, and its spans
        renumbered into `spans_out` under the operation's id."""
        from tracing import merge_totals

        path = os.path.join(self.workdir, "child-spans.jsonl")
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            base = len(spans_out)
            for line in fh:
                name, start, end, parent, _ = json.loads(line)
                spans_out.append((name, start, end, parent + base if parent >= 0 else -1, op_id))
        os.remove(path)
        if self.totals is None:
            self.totals = header["totals"]
        else:
            merge_totals(self.totals, header["totals"])
        self.children.append((self.argv(op)[0], wall, header["startup_s"], header["import_s"]))

    def check(self, op, result):
        if result is None:  # timed out
            return False, False
        code, out, err = result
        if op[0] == "pool":
            want = self.corpus[" ".join(self.argv(op))]
            wrong = digest(out) != want["stdout_sha256"] or code != want["exit"]
            return not wrong and "Traceback" not in err, wrong
        # malformed input: no answer on stdout, exit 2, no traceback
        return code == 2 and "Traceback" not in err and not out, bool(out)

    def record(self):
        corpus = {}
        for i, argv in enumerate(CLI_POOL):
            code, out, _ = self.execute(("pool", i))
            corpus[" ".join(argv)] = {"exit": code, "stdout_sha256": digest(out)}
        return corpus

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
