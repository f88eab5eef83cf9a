"""Randomized invariant battery behind the ``selfcheck`` subcommand.

Each suite is a generator over one RNG: it yields one list of failure
strings per check, empty when the check passes, and an iteration that
checks nothing yields nothing.  ``SUITES`` names the suites in run order;
``run_all`` runs each to the end before starting the next, counts a suite's
checks as its yields and concatenates their failures into one summary, and
``report`` renders it as one line per suite and an overall verdict.  All
randomness is drawn from a caller-provided seed so runs are reproducible.
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
    good_filling_exists,
    preceq,
)
from .poly import (
    Poly,
    apply_perm,
    discriminant,
    extract_discriminant,
    perm_sign,
    scaled,
    skew_sum,
    vanishing_ideal,
    verify_witness,
)
from .variety import (
    PointSetVariety,
    _gamma_points,
    end_closure,
    theta_member,
    type_of,
)


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
        goods_fg = enumerate_good(lam, mu)
        goods_gh = enumerate_good(mu, nu)
        if not goods_fg or not goods_gh:
            continue
        f = rng.choice(goods_fg)
        g = rng.choice(goods_gh)
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
            vals = gens[0].table.values(xs, q)
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
