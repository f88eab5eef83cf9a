"""Randomized invariant battery behind the ``selfcheck`` subcommand.

Each suite returns (name, number of checks, list of failure strings); the
driver prints one line per suite and an overall verdict.  All randomness is
drawn from a caller-provided seed so runs are reproducible.
"""

import random
from fractions import Fraction

from .corr import (
    CompMap,
    compose,
    enumerate_end,
    enumerate_good,
    factor,
    pullback_square,
)
from .equations import i_lambda, i_lambda_z, member_by_equations
from .partitions import (
    INF,
    GenComposition,
    GenPartition,
    good_filling_exists,
    is_inf,
    preceq,
)
from .poly import (
    Poly,
    apply_perm,
    discriminant,
    extract_discriminant,
    perm_sign,
    skew_sum,
    vanishing_ideal,
    verify_witness,
)
from .variety import (
    FinitaryPoint,
    PointSetVariety,
    apply_corr,
    end_closure,
    theta_member,
    type_of,
)

VALUE_POOL = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)]


def random_inf_partition(rng, max_len=4, max_finite=4):
    """Random partition with at least one infinite part."""
    n_inf = rng.randint(1, max_len)
    parts = [INF] * n_inf
    budget = max_finite
    while len(parts) < max_len and budget > 0 and rng.random() < 0.7:
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


def random_point(rng, max_width=5, max_mult=4):
    width = rng.randint(1, max_width)
    values = rng.sample(VALUE_POOL, width)
    n_inf = rng.randint(1, width)
    classes = []
    for i, v in enumerate(values):
        classes.append((v, INF if i < n_inf else rng.randint(1, max_mult)))
    return FinitaryPoint(classes)


def random_variety(rng, lam, max_points=3):
    comp = GenComposition.from_partition(lam)
    pts = [tuple(rng.sample(VALUE_POOL[:4], lam.length)) for _ in range(rng.randint(1, max_points))]
    return PointSetVariety(comp, pts)


def random_composition(rng, max_len=3, max_weight=4):
    weights = []
    for _ in range(rng.randint(1, max_len)):
        weights.append(INF if rng.random() < 0.5 else rng.randint(1, max_weight))
    if not any(is_inf(w) for w in weights):
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
                w = INF if is_inf(target) and rng.random() < 0.5 else rng.randint(
                    1, target if not is_inf(target) else 4
                )
                weights[nxt] = w
                table[nxt] = j
                nxt += 1
            continue
        if principal:
            remaining = target
            while True:
                if is_inf(remaining):
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
            budget = 4 if is_inf(target) else target
            while budget > 0 and rng.random() < 0.6:
                w = rng.randint(1, budget)
                weights[nxt], table[nxt] = w, j
                nxt += 1
                budget -= w
    dom = GenComposition(weights) if weights else GenComposition({1: 1})
    if not weights:
        table = {1: mu.labels[0]}
    return CompMap(dom, mu, table)


def suite_skew_identity():
    fails = []
    checks = 0
    for n in range(2, 5):
        for k in range(0, n):
            checks += 1
            got = skew_sum(n, k)
            want = discriminant(n) if k == n - 1 else Poly.zero()
            if got != want:
                fails.append(f"skew_sum({n},{k})")
    return "skew-sum identity", checks, fails


def suite_discriminant_signs(rng):
    fails = []
    checks = 0
    for n in range(2, 5):
        d = discriminant(n)
        for _ in range(4):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            sigma = {i + 1: perm[i] for i in range(n)}
            sign = perm_sign(sigma)
            checks += 1
            if apply_perm(sigma, d) != d * sign:
                fails.append(f"sgn behavior at n={n}, sigma={sigma}")
    return "discriminant sign action", checks, fails


def suite_pullback(rng, squares=40):
    fails = []
    checks = 0
    for t in range(squares):
        mu = random_composition(rng)
        flavor = t % 3
        f1 = random_map_onto(rng, mu)
        f2 = random_map_onto(rng, mu, principal=(flavor == 0), injection=(flavor == 1))
        wmu, g1, g2 = pullback_square(f1, f2)
        checks += 1
        if g1.then(f1) != g2.then(f2):
            fails.append(f"square {t} does not commute")
        if flavor == 0 and f2.is_principal and not g1.is_principal:
            fails.append(f"square {t}: principal surjection not preserved")
        if flavor == 1 and f2.is_injection and not g1.is_injection:
            fails.append(f"square {t}: injection not preserved")
    return "pullback squares", checks, fails


def suite_factor(rng, count=30):
    fails = []
    checks = 0
    for t in range(count):
        mu = random_composition(rng)
        f = random_map_onto(rng, mu)
        h, g = factor(f)
        checks += 1
        if h.then(g) != f or not h.is_principal or not g.is_injection:
            fails.append(f"factorization {t}")
    return "map factorization", checks, fails


def suite_compose(rng, count=12):
    fails = []
    checks = 0
    for t in range(count):
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
        checks += 1
        if not set(via.points) <= set(direct.points):
            fails.append(f"composition containment {t}")
    return "correspondence composition", checks, fails


def suite_extraction(rng, count=15):
    fails = []
    checks = 0
    for t in range(count):
        f = Poly.zero()
        while f.is_zero:
            f = _random_poly(rng, nvars=3, max_degree=3)
        w = extract_discriminant(f)
        checks += 1
        if not verify_witness(f, w):
            fails.append(f"witness replay {t}: {f}")
    return "discriminant extraction", checks, fails


def _random_poly(rng, nvars=3, max_degree=3, terms=4):
    p = Poly.zero()
    for _ in range(rng.randint(1, terms)):
        deg = rng.randint(0, max_degree)
        mono = Poly.constant(1)
        for _ in range(deg):
            mono = mono * Poly.x(rng.randint(1, nvars))
        p = p + mono * rng.choice([-2, -1, 1, 2])
    return p


def suite_vanishing(rng, count=12):
    fails = []
    checks = 0
    for t in range(count):
        r = rng.randint(1, 3)
        pts = {tuple(rng.choice(VALUE_POOL[:4]) for _ in range(r)) for _ in range(rng.randint(1, 5))}
        pts = sorted(pts)
        gens = vanishing_ideal(pts)
        checks += 1
        bad = [g for g in gens for p in pts if g.evaluate(_tassign(p)) != 0]
        if bad:
            fails.append(f"nonvanishing generator {t}")
        outside = tuple(Fraction(9) for _ in range(r))
        if outside not in pts and all(g.evaluate(_tassign(outside)) == 0 for g in gens):
            fails.append(f"outside point not separated {t}")
    return "vanishing ideals", checks, fails


def _tassign(pt):
    return {(1, i + 1): c for i, c in enumerate(pt)}


def suite_orders(rng):
    fails = []
    checks = 0
    import itertools

    vals = [1, 2, INF]
    parts_list = sorted(
        {GenPartition(c) for L in range(0, 4) for c in itertools.product(vals, repeat=L)},
        key=lambda q: (q.length, q.parts),
    )
    for m in parts_list:
        for l in parts_list:
            checks += 1
            if preceq(m, l) != good_filling_exists(m, l):
                fails.append(f"order disagreement {m} vs {l}")
    return "combining order vs fillings", checks, fails


def suite_type_locus(rng, count=25):
    fails = []
    checks = 0
    for t in range(count):
        lam = random_inf_partition(rng)
        x = random_point(rng)
        checks += 1
        if member_by_equations(i_lambda(lam), x) != preceq(type_of(x), lam):
            fails.append(f"type-locus oracle {t}: {lam} at {x}")
    return "type-locus equations", checks, fails


def suite_classified(rng, count=15):
    fails = []
    checks = 0
    t = 0
    while t < count:
        lam = random_exact_domain_partition(rng)
        Z = random_variety(rng, lam)
        x = random_point(rng, max_width=4)
        t += 1
        checks += 1
        comp = GenComposition.from_partition(lam)
        if member_by_equations(i_lambda_z(lam, Z), x) != theta_member(comp, Z, x):
            fails.append(f"classified oracle {t}: {lam}")
    return "classified-set equations", checks, fails


def suite_end_closure(rng, count=15):
    fails = []
    checks = 0
    for t in range(count):
        lam = random_composition(rng)
        Z = PointSetVariety(lam, [tuple(rng.sample(VALUE_POOL[:5], lam.length)) for _ in range(2)])
        Ze = end_closure(lam, Z)
        checks += 1
        if end_closure(lam, Ze) != Ze:
            fails.append(f"idempotence {t}")
        if len(enumerate_end(lam)) < 1 or not set(Z.points) <= set(Ze.points):
            fails.append(f"closure containment {t}")
    return "endomorphism closure", checks, fails


def run_all(seed: int, out) -> bool:
    rng = random.Random(seed)
    suites = [
        suite_skew_identity(),
        suite_discriminant_signs(rng),
        suite_pullback(rng),
        suite_factor(rng),
        suite_compose(rng),
        suite_extraction(rng),
        suite_vanishing(rng),
        suite_orders(rng),
        suite_type_locus(rng),
        suite_classified(rng),
        suite_end_closure(rng),
    ]
    ok = True
    total = 0
    for name, checks, fails in suites:
        total += checks
        if fails:
            ok = False
            out.write(f"{name}: FAIL ({len(fails)}/{checks} checks failed)\n")
            for f in fails[:5]:
                out.write(f"  - {f}\n")
        else:
            out.write(f"{name}: pass ({checks} checks)\n")
    out.write(f"{'all suites passed' if ok else 'FAILURES PRESENT'} ({total} checks, seed {seed})\n")
    return ok
