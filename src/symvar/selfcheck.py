"""Randomized invariant battery behind the ``selfcheck`` subcommand.

Each suite is a generator over one RNG: it yields one list of failure
strings per check, empty when the check passes, and an iteration that
checks nothing yields nothing.  ``SUITES`` names the suites in run order;
``run_all`` runs each to the end before starting the next, counts a suite's
checks as its yields and concatenates their failures into one summary, and
``report`` renders it as one line per suite and an overall verdict.  All
randomness is drawn from a caller-provided seed so runs are reproducible.

The polynomials the battery checks live here too, as nothing else runs
them: ``Poly``, exact sparse polynomials over Q in x1, x2, ... (the ambient
coordinates, acted on by finite permutations) and t1, t2, ... (which only
the tests build), ordered graded-lexicographically with x1 > x2 > ... > t1
> t2 > ...; discriminants and their sign action; the coset skew-sum
identity; and constructive discriminant extraction with replayable
witnesses.  ``Poly`` prints with ``poly._format_terms``, the formatter of
the slice factors.
"""

import itertools
import random
from fractions import Fraction

from .corr import (
    CompMap,
    apply_corr,
    compose,
    enumerate_end,
    enumerate_good,
    factor,
    pullback_square,
)
from .equations import VALUE_POOL, i_lambda, i_lambda_z, member_by_equations, random_point
from .partitions import (
    INF,
    GenComposition,
    GenPartition,
    _Frozen,
    good_filling_exists,
    preceq,
)
from .poly import _format_terms, scaled, vanishing_ideal
from .variety import (
    PointSetVariety,
    _gamma_points,
    end_closure,
    theta_member,
    type_of,
)


X_FAMILY = 0


def _default_name(v):
    return f"{'x' if v[0] == X_FAMILY else 't'}{v[1]}"


def xvar(i):
    return (X_FAMILY, i)


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class Poly(_Frozen):
    """Immutable sparse polynomial: mapping from monomials to nonzero rationals.

    A monomial is a sorted tuple of ((family, index), exponent) pairs.  A
    coefficient is an int or a Fraction, which compare, hash and print alike
    when equal; any other number is stored as the Fraction it equals exactly.
    Arithmetic on ints keeps ints.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if type(c) not in (int, Fraction):
                    c = Fraction(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def x(cls, i):
        return cls({((xvar(i), 1),): 1})

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), 0)

    def degree_in(self, v):
        best = 0
        for m in self.terms:
            for var, e in m:
                if var == v:
                    best = max(best, e)
        return best

    def coefficient_of(self, v, k):
        """Coefficient polynomial of v**k."""
        out = {}
        for m, c in self.terms.items():
            e = dict(m).get(v, 0)
            if e == k:
                rest = tuple(p for p in m if p[0] != v)
                out[rest] = out.get(rest, 0) + c
        return Poly(out)

    def variables(self):
        return {v for m in self.terms for v, _ in m}

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly({m: other * v for m, v in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def subs_vars(self, mapping) -> "Poly":
        """Relabel variables; mapping from variable to variable."""
        out = {}
        for m, c in self.terms.items():
            exps = {}
            for v, e in m:
                w = mapping.get(v, v)
                exps[w] = exps.get(w, 0) + e
            m2 = tuple(sorted(exps.items()))
            out[m2] = out.get(m2, 0) + c
        return Poly(out)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return _format_terms(self.terms.items(), _default_name)

    def __repr__(self):
        return f"Poly({self})"


def difference(a: int, b: int) -> Poly:
    """x_a - x_b."""
    return Poly.x(a) - Poly.x(b)


def discriminant_on(indices) -> Poly:
    """Product of (x_j - x_i) over pairs i before j in the index sequence."""
    indices = list(indices)
    out = Poly.constant(1)
    for p in range(len(indices)):
        for q in range(p + 1, len(indices)):
            out = out * difference(indices[q], indices[p])
    return out


def discriminant(n: int) -> Poly:
    """The n-th discriminant: product of (x_j - x_i) for 1 <= i < j <= n."""
    if n < 1:
        raise ValueError("discriminant requires n >= 1")
    return discriminant_on(range(1, n + 1))


def apply_perm(sigma: dict, p: Poly) -> Poly:
    """Relabel the x-variables of p by a finite-support permutation."""
    support = set(sigma) | set(sigma.values())
    if sorted(sigma.get(i, i) for i in support) != sorted(support):
        raise ValueError("sigma is not a permutation")
    return p.subs_vars({xvar(i): xvar(sigma.get(i, i)) for i in support})


def perm_sign(sigma: dict) -> int:
    """Sign of a finite-support permutation: the parity of the inverted
    pairs among its images, read in increasing order of the support."""
    support = sorted(set(sigma) | set(sigma.values()))
    images = [sigma.get(s, s) for s in support]
    inversions = sum(a > b for i, a in enumerate(images) for b in images[i + 1:])
    return -1 if inversions % 2 else 1


def skew_sum(n: int, k: int) -> Poly:
    """Signed coset sum of x_n^k * discriminant(n-1) over representatives of
    the cosets of the stabilizer of n.  Equals discriminant(n) when k = n-1
    and 0 when k < n-1; computed by the explicit sum, not by the identity."""
    if n < 2 or not 0 <= k <= n - 1:
        raise ValueError("skew_sum requires n >= 2 and 0 <= k <= n-1")
    base = Poly.x(n) ** k * discriminant(n - 1)
    total = base  # identity representative
    for i in range(1, n):
        total = total - apply_perm({i: n, n: i}, base)
    return total


class ExtractionWitness(_Frozen):
    """Replayable certificate that the orbit ideal of a polynomial contains
    c times a discriminant.

    Each step is (multiplier, op) with op a tuple of (coefficient, finite
    permutation) pairs; replaying a step sends p to the sum of
    coeff * sigma(multiplier * p).  After all steps the result must equal
    c * discriminant(n) exactly.
    """

    __slots__ = ("steps", "c", "n")

    def __init__(self, steps, c, n):
        object.__setattr__(self, "steps", tuple((m, tuple(op)) for m, op in steps))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n", int(n))

    def __repr__(self):
        return f"ExtractionWitness(steps={len(self.steps)}, c={self.c}, n={self.n})"


def replay_witness(f: Poly, witness: ExtractionWitness) -> Poly:
    p = f
    for mult, op in witness.steps:
        q = mult * p
        acc = Poly.zero()
        for coeff, sigma in op:
            acc = acc + apply_perm(dict(sigma), q) * coeff
        p = acc
    return p


def verify_witness(f: Poly, witness: ExtractionWitness) -> bool:
    """Replay the witness on f and compare exactly with c * discriminant(n)."""
    return replay_witness(f, witness) == discriminant(witness.n) * witness.c


def _fresh_indices(used, count):
    out, i = [], 1
    while len(out) < count:
        if i not in used:
            out.append(i)
            used.add(i)
        i += 1
    return out


def extract_discriminant(f: Poly) -> ExtractionWitness:
    """Build a witness that the orbit ideal of f contains c * discriminant(n).

    Follows the inductive construction: write f in its highest-used variable,
    skew-symmetrize against fresh indices to isolate the leading coefficient
    times a discriminant block, recurse on the leading coefficient, then
    multiply by the separating product joining the two index blocks.
    """
    if f.is_zero:
        raise ValueError("cannot extract a discriminant from the zero polynomial")
    if any(fam != X_FAMILY for fam, _ in f.variables()):
        raise ValueError("extraction requires a polynomial in the x-variables only")
    used = {i for _, i in f.variables()}

    def go(p):
        # returns (c, index sequence S, steps); replaying steps on p gives
        # c * product of (x_b - x_a) over a before b in S
        if p.is_constant:
            return p.constant_value(), (), []
        r = max(i for _, i in p.variables())
        d = p.degree_in(xvar(r))
        g_top = p.coefficient_of(xvar(r), d)
        fresh = _fresh_indices(used, d)
        op = [(1, ())]
        op += [(-1, ((i, r), (r, i))) for i in fresh]
        skew_step = (discriminant_on(fresh), tuple(op))
        c, seq, sub_steps = go(g_top)
        block = tuple(fresh) + (r,)
        cross = Poly.constant(1)
        for a in seq:
            for b in block:
                cross = cross * difference(b, a)
        steps = [skew_step] + sub_steps
        if not cross.is_constant:
            steps.append((cross, ((1, ()),)))
        return c, seq + block, steps

    c, seq, steps = go(f)
    if not seq:
        return ExtractionWitness(steps, c, 1)
    n = len(seq)
    union = sorted(set(seq) | set(range(1, n + 1)))
    table = {s: i + 1 for i, s in enumerate(seq)}
    leftovers_src = [u for u in union if u not in table]
    leftovers_dst = [u for u in union if u not in set(table.values())]
    table.update(dict(zip(leftovers_src, leftovers_dst)))
    final_perm = tuple(sorted((a, b) for a, b in table.items() if a != b))
    steps.append((Poly.constant(1), ((1, final_perm),)))
    return ExtractionWitness(steps, c, n)


def random_inf_partition(rng):
    """Random partition with at least one infinite part: at most four parts,
    finite parts summing to at most 4."""
    n_inf = rng.randint(1, 4)
    parts = [INF] * n_inf
    budget = 4
    while len(parts) < 4 and budget > 0 and rng.random() < 0.7:
        p = rng.randint(1, budget)
        parts.append(p)
        budget -= p
    return GenPartition(parts)


def random_exact_domain_partition(rng):
    """Random partition inside the exactness domain of the slice equations:
    at most two parts, or all-but-at-most-one part infinite with the finite
    part equal to 1."""
    if rng.random() < 0.6:
        n = rng.randint(1, 2)
        parts = [INF] * rng.randint(1, n)
        while len(parts) < n:
            parts.append(rng.randint(1, 4))
        return GenPartition(parts)
    n_inf = rng.randint(1, 3)
    parts = [INF] * n_inf
    if n_inf < 3 and rng.random() < 0.6:
        parts.append(1)
    return GenPartition(parts[:3])


def random_poly(rng, nvars=3, max_degree=3):
    p = Poly.zero()
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(0, max_degree)
        mono = Poly.constant(1)
        for _ in range(deg):
            mono = mono * Poly.x(rng.randint(1, nvars))
        p = p + mono * rng.choice([-2, -1, 1, 2])
    return p


def random_variety(rng, lam):
    comp = GenComposition.from_partition(lam)
    pts = [tuple(rng.sample(VALUE_POOL[:4], lam.length)) for _ in range(rng.randint(1, 3))]
    return PointSetVariety(comp, pts)


def random_composition(rng, max_len=3):
    weights = []
    for _ in range(rng.randint(1, max_len)):
        weights.append(INF if rng.random() < 0.5 else rng.randint(1, 4))
    if INF not in weights:
        weights[rng.randrange(len(weights))] = INF
    return GenComposition.from_weights(weights)


def random_map_onto(rng, mu, principal=False, injection=False):
    """Random map into mu, assembled fiberwise."""
    weights, table = {}, {}
    nxt = 1
    for j in mu.labels:
        target = mu.weight(j)
        if injection:
            if rng.random() < 0.5:
                w = INF if target == INF and rng.random() < 0.5 else rng.randint(
                    1, target if target != INF else 4
                )
                weights[nxt] = w
                table[nxt] = j
                nxt += 1
            continue
        if principal:
            remaining = target
            while True:
                if remaining == INF:
                    if rng.random() < 0.5:
                        weights[nxt], table[nxt] = INF, j
                        nxt += 1
                        break
                    weights[nxt], table[nxt] = rng.randint(1, 3), j
                    nxt += 1
                else:
                    if remaining == 0:
                        break
                    w = rng.randint(1, remaining)
                    weights[nxt], table[nxt] = w, j
                    nxt += 1
                    remaining -= w
        else:
            budget = 4 if target == INF else target
            while budget > 0 and rng.random() < 0.6:
                w = rng.randint(1, budget)
                weights[nxt], table[nxt] = w, j
                nxt += 1
                budget -= w
    dom = GenComposition(weights) if weights else GenComposition({1: 1})
    if not weights:
        table = {1: mu.labels[0]}
    return CompMap(dom, mu, table)


def suite_skew_identity(rng):
    for n in range(2, 5):
        for k in range(0, n):
            want = discriminant(n) if k == n - 1 else Poly.zero()
            yield [] if skew_sum(n, k) == want else [f"skew_sum({n},{k})"]


def suite_discriminant_signs(rng):
    for n in range(2, 5):
        d = discriminant(n)
        for _ in range(4):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            sigma = {i + 1: perm[i] for i in range(n)}
            ok = apply_perm(sigma, d) == d * perm_sign(sigma)
            yield [] if ok else [f"sgn behavior at n={n}, sigma={sigma}"]


def suite_pullback(rng):
    for t in range(40):
        mu = random_composition(rng)
        flavor = t % 3
        f1 = random_map_onto(rng, mu)
        f2 = random_map_onto(rng, mu, principal=(flavor == 0), injection=(flavor == 1))
        wmu, g1, g2 = pullback_square(f1, f2)
        fails = []
        if g1.then(f1) != g2.then(f2):
            fails.append(f"square {t} does not commute")
        if flavor == 0 and f2.is_principal and not g1.is_principal:
            fails.append(f"square {t}: principal surjection not preserved")
        if flavor == 1 and f2.is_injection and not g1.is_injection:
            fails.append(f"square {t}: injection not preserved")
        yield fails


def suite_factor(rng):
    for t in range(30):
        mu = random_composition(rng)
        f = random_map_onto(rng, mu)
        h, g = factor(f)
        ok = h.then(g) == f and h.is_principal and g.is_injection
        yield [] if ok else [f"factorization {t}"]


def suite_compose(rng):
    for t in range(12):
        lam = random_composition(rng, max_len=2)
        mu = random_composition(rng, max_len=2)
        nu = random_composition(rng, max_len=2)
        # neither list is empty: an infinite part, which every random
        # composition has, takes every weight
        f = rng.choice(enumerate_good(lam, mu))
        g = rng.choice(enumerate_good(mu, nu))
        h = compose(f, g)
        S = PointSetVariety(nu, [tuple(rng.sample(VALUE_POOL[:4], nu.length)) for _ in range(2)])
        via = apply_corr(f, apply_corr(g, S))
        direct = apply_corr(h, S)
        yield [] if set(via.points) <= set(direct.points) else [f"composition containment {t}"]


def suite_extraction(rng):
    for t in range(15):
        f = Poly.zero()
        while f.is_zero:
            f = random_poly(rng)
        w = extract_discriminant(f)
        yield [] if verify_witness(f, w) else [f"witness replay {t}: {f}"]


def suite_vanishing(rng):
    for t in range(12):
        r = rng.randint(1, 3)
        pts = {tuple(rng.choice(VALUE_POOL[:4]) for _ in range(r)) for _ in range(rng.randint(1, 5))}
        pts = sorted(pts)
        gens = vanishing_ideal(pts)
        fails = []

        def all_vanish(p):
            # the generators share one table: its values at p, with t_{j+1}
            # taking the value p[j], serve every generator's zero test
            q, xs = scaled(p)
            vals = gens[0].table.values(range(r), xs, q)
            return all(g.vanishes_at(vals) for g in gens)

        if not all(all_vanish(p) for p in pts):
            fails.append(f"nonvanishing generator {t}")
        outside = tuple(Fraction(9) for _ in range(r))
        if outside not in pts and all_vanish(outside):
            fails.append(f"outside point not separated {t}")
        yield fails


def suite_orders(rng):
    vals = [1, 2, INF]
    parts_list = sorted(
        {GenPartition(c) for L in range(0, 4) for c in itertools.product(vals, repeat=L)},
        key=lambda q: (q.length, q.parts),
    )
    for m in parts_list:
        for l in parts_list:
            ok = preceq(m, l) == good_filling_exists(m, l)
            yield [] if ok else [f"order disagreement {m} vs {l}"]


def suite_type_locus(rng):
    for t in range(25):
        lam = random_inf_partition(rng)
        x = random_point(rng)
        ok = member_by_equations(i_lambda(lam), x) == preceq(type_of(x), lam)
        yield [] if ok else [f"type-locus oracle {t}: {lam} at {x}"]


def suite_classified(rng):
    for t in range(1, 16):
        lam = random_exact_domain_partition(rng)
        Z = random_variety(rng, lam)
        x = random_point(rng, max_width=4)
        ok = member_by_equations(i_lambda_z(lam, Z), x) == theta_member(Z.lam, Z, x)
        yield [] if ok else [f"classified oracle {t}: {lam}"]


def suite_end_closure(rng):
    for t in range(15):
        lam = random_composition(rng)
        Z = PointSetVariety(lam, [tuple(rng.sample(VALUE_POOL[:5], lam.length)) for _ in range(2)])
        Ze = end_closure(lam, Z)
        fails = []
        if end_closure(lam, Ze) != Ze:
            fails.append(f"idempotence {t}")
        if len(enumerate_end(lam)) < 1 or not set(Z.points) <= set(Ze.points):
            fails.append(f"closure containment {t}")
        # the slice over lam by its definition (the union of the good
        # correspondences' images) against the collapse route, on Z and on
        # its closure, which adds no point (see variety.gamma_at)
        by_corr = {p for c in enumerate_good(lam, lam) for p in apply_corr(c, Z).points}
        if not by_corr == _gamma_points(Z.tables, lam) == _gamma_points(Ze.tables, lam):
            fails.append(f"slice routes disagree {t}")
        yield fails


SUITES = [
    ("skew-sum identity", suite_skew_identity),
    ("discriminant sign action", suite_discriminant_signs),
    ("pullback squares", suite_pullback),
    ("map factorization", suite_factor),
    ("correspondence composition", suite_compose),
    ("discriminant extraction", suite_extraction),
    ("vanishing ideals", suite_vanishing),
    ("combining order vs fillings", suite_orders),
    ("type-locus equations", suite_type_locus),
    ("classified-set equations", suite_classified),
    ("endomorphism closure", suite_end_closure),
]


def run_all(seed: int) -> dict:
    """Run every suite to the end, in ``SUITES`` order, on one RNG seeded
    with `seed`; the summary is what ``selfcheck --json`` prints and what
    ``report`` renders."""
    rng = random.Random(seed)
    suites = []
    for name, suite in SUITES:
        results = list(suite(rng))
        failures = [f for fails in results for f in fails]
        suites.append({"name": name, "checks": len(results), "failures": failures})
    return {
        "seed": seed,
        "ok": not any(s["failures"] for s in suites),
        "checks": sum(s["checks"] for s in suites),
        "suites": suites,
    }


def report(summary: dict) -> str:
    """One line per suite, at most five failures under a failing one, then
    the verdict."""
    lines = []
    for suite in summary["suites"]:
        name, checks, fails = suite["name"], suite["checks"], suite["failures"]
        if fails:
            lines.append(f"{name}: FAIL ({len(fails)}/{checks} checks failed)")
            lines.extend(f"  - {f}" for f in fails[:5])
        else:
            lines.append(f"{name}: pass ({checks} checks)")
    verdict = "all suites passed" if summary["ok"] else "FAILURES PRESENT"
    lines.append(f"{verdict} ({summary['checks']} checks, seed {summary['seed']})")
    return "\n".join(lines)
