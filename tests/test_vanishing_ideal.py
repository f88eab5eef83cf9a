"""vanishing_ideal against two independent routes.

The first is the former elimination over ``fractions.Fraction``, kept here
as a test-only oracle: the integer elimination in ``symvar.poly`` must give
exactly the same generators.  The second is sympy's Groebner basis, which
must reproduce the output as a reduced graded-lex basis.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from symvar.poly import Poly, T_FAMILY, _border, vanishing_ideal

from oracles import divides, monomials_of_degree


def _exps_to_poly(exps, coeff=1):
    m = tuple(((T_FAMILY, i + 1), e) for i, e in enumerate(exps) if e)
    return Poly({m: Fraction(coeff)})


def oracle_vanishing_ideal(points):
    """Evaluation-matrix kernels degree by degree, all arithmetic in
    Fraction: each candidate monomial is evaluated from scratch and reduced
    against every earlier row."""
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    r = len(pts[0])
    npts = len(pts)

    def eval_mono(exps, pt):
        val = Fraction(1)
        for e, c in zip(exps, pt):
            if e:
                val *= c ** e
        return val

    rows = []  # (pivot index, vector, combination dict exps -> coeff)
    standard = []
    gens = []
    leads = []
    degree = 0
    while True:
        candidates = [
            m
            for m in monomials_of_degree(r, degree)
            if not any(divides(l, m) for l in leads)
        ]
        if not candidates and degree > 0:
            break
        for m in candidates:
            vec = [eval_mono(m, p) for p in pts]
            combo = {m: Fraction(1)}
            for piv, rvec, rcombo in rows:
                if vec[piv]:
                    factor = vec[piv] / rvec[piv]
                    vec = [a - factor * b for a, b in zip(vec, rvec)]
                    for mm, cc in rcombo.items():
                        combo[mm] = combo.get(mm, Fraction(0)) - factor * cc
            if any(vec):
                piv = next(i for i, a in enumerate(vec) if a)
                rows.append((piv, vec, combo))
                standard.append(m)
            else:
                lead_coeff = combo[m]
                poly = Poly.zero()
                for mm, cc in combo.items():
                    poly = poly + _exps_to_poly(mm, cc / lead_coeff)
                gens.append(poly)
                leads.append(m)
        degree += 1
    assert len(standard) == npts
    return gens


DENOMINATORS = (1, 2, 3, 7)
KINDS = ("generic", "repeated", "single", "collinear")


def point_set(rng, r, den, kind):
    def value(lo=-9, hi=9):
        return Fraction(rng.randint(lo, hi), den)

    if kind == "single":
        return [tuple(value() for _ in range(r))]
    if kind == "repeated":
        pool = [value() for _ in range(rng.randint(1, 3))]
        return [tuple(rng.choice(pool) for _ in range(r)) for _ in range(rng.randint(2, 8))]
    if kind == "collinear":
        base = [value() for _ in range(r)]
        step = [value(-3, 3) for _ in range(r)]
        step[rng.randrange(r)] = Fraction(rng.choice([-1, 1]), den)
        return [tuple(b + k * s for b, s in zip(base, step)) for k in range(rng.randint(2, 6))]
    return [tuple(value() for _ in range(r)) for _ in range(rng.randint(2, 8))]


def point_sets(seed, count, max_r=4):
    """`count` seeded point sets cycling through every r in 1..max_r, every
    denominator and every kind."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        r = 1 + t % max_r
        den = DENOMINATORS[(t // max_r) % len(DENOMINATORS)]
        kind = KINDS[(t // (max_r * len(DENOMINATORS))) % len(KINDS)]
        out.append(point_set(rng, r, den, kind))
    return out


def tassign(pt):
    return {(T_FAMILY, i + 1): c for i, c in enumerate(pt)}


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_identical_to_fraction_oracle(seed):
    for pts in point_sets(seed, 112):
        got = vanishing_ideal(pts)
        want = oracle_vanishing_ideal(pts)
        assert got == want, pts
        assert [str(g) for g in got] == [str(g) for g in want], pts


def test_point_sets_cover_the_grid():
    sets = point_sets(11, 112) + point_sets(12, 112) + point_sets(13, 112)
    assert len(sets) >= 300
    assert {len(p[0]) for p in sets} == {1, 2, 3, 4}
    dens = {math.lcm(*(c.denominator for pt in p for c in pt)) for p in sets}
    assert {1, 2, 3, 7} <= dens
    assert any(len(p) == 1 for p in sets)
    assert any(len(set(p)) < len(p) for p in sets)  # repeated points
    assert any(len({c for pt in p for c in pt}) < sum(len(pt) for pt in p) for p in sets)


def test_border_candidates_match_filtered_monomials():
    """At every degree, the border of the standard monomials one degree
    below equals the former candidates: every monomial of the degree that
    no lower-degree leading term divides."""
    sets = point_sets(31, 112)
    assert any(c.denominator > 1 for p in sets for pt in p for c in pt)
    assert any(len(set(pt)) < len(pt) for p in sets for pt in p)  # repeated coordinates
    for pts in sets:
        r = len(pts[0])
        leads = []
        for g in vanishing_ideal(pts):
            exps = [tuple(dict(m).get((T_FAMILY, i + 1), 0) for i in range(r)) for m in g.terms]
            leads.append(max(exps, key=lambda e: (sum(e), e)))
        top = max(sum(l) for l in leads)
        for d in range(1, top + 2):
            below = [l for l in leads if sum(l) < d]
            standard = [m for m in monomials_of_degree(r, d - 1)
                        if not any(divides(l, m) for l in leads)]
            want = [m for m in monomials_of_degree(r, d)
                    if not any(divides(l, m) for l in below)]
            assert _border(standard, r) == want, (pts, d)


def _check_against_sympy(sympy, pts):
    """The output vanishes on the points, is sympy's reduced graded-lex
    Groebner basis of itself, and leaves len(points) standard monomials."""
    ts = sympy.symbols("t1:5")
    r = len(pts[0])

    def to_sympy(g):
        expr = sympy.Integer(0)
        for mono, c in g.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for (_, i), e in mono:
                term *= ts[i - 1] ** e
            expr += term
        return sympy.Poly(expr, *ts[:r], domain="QQ")

    gens = vanishing_ideal(pts)
    for g in gens:
        for p in pts:
            assert g.evaluate(tassign(p)) == 0, (g, p)
    ours = {to_sympy(g) for g in gens}
    basis = sympy.groebner([p.as_expr() for p in ours], *ts[:r], order="grlex")
    assert {sympy.Poly(e, *ts[:r], domain="QQ") for e in basis.exprs} == ours, pts
    # the standard monomials span a quotient of dimension len(points), so
    # the generators cut out exactly the points
    leads = [p.monoms(order="grlex")[0] for p in ours]
    bound = max(max(m) for m in leads)
    standard = [
        m
        for d in range(r * bound + 1)
        for m in monomials_of_degree(r, d)
        if not any(divides(l, m) for l in leads)
    ]
    assert len(standard) == len(set(pts)), pts


def test_matches_sympy_groebner():
    sympy = pytest.importorskip("sympy")
    for pts in point_sets(29, 48, max_r=3):
        _check_against_sympy(sympy, pts)


def _many_pivot_sets():
    """Point sets far past the seeded ones' 8 points, where the elimination
    runs through many pivots: the 54-point union of two 3x3x3 grids (the
    largest slice the synth benchmark makes, from inf,inf,inf on 2 points),
    and 23 points with denominators 2 and 3 and a repeated coordinate."""
    grids = [list(itertools.product(values, repeat=3)) for values in ((-12, 7, 26), (1, 24, 2))]
    rng = random.Random(5)
    values = [Fraction(n, d) for d in (2, 3) for n in range(-7, 8) if n % d]
    rational = [tuple(rng.choice(values) for _ in range(3)) for _ in range(22)]
    rational.append((Fraction(1, 2), Fraction(1, 2), Fraction(-1, 3)))
    return {"grids54": grids[0] + grids[1], "rational23": rational}


MANY_PIVOT_SETS = _many_pivot_sets()


def test_many_pivot_sets_are_large():
    grid, rational = MANY_PIVOT_SETS["grids54"], MANY_PIVOT_SETS["rational23"]
    assert len(set(grid)) == 54
    assert len(set(rational)) >= 20
    assert {c.denominator for pt in rational for c in pt} == {2, 3}
    assert any(len(set(pt)) < len(pt) for pt in rational)


@pytest.mark.parametrize("name", sorted(MANY_PIVOT_SETS))
def test_many_pivots_identical_to_fraction_oracle(name):
    pts = MANY_PIVOT_SETS[name]
    got = vanishing_ideal(pts)
    want = oracle_vanishing_ideal(pts)
    assert got == want
    assert [str(g) for g in got] == [str(g) for g in want]


@pytest.mark.parametrize("name", sorted(MANY_PIVOT_SETS))
def test_many_pivots_match_sympy_groebner(name):
    sympy = pytest.importorskip("sympy")
    _check_against_sympy(sympy, MANY_PIVOT_SETS[name])
