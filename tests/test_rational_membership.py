"""Equation membership on rational data.

``member_by_equations`` tests each slice factor on integers: the class
values are scaled by their common denominator q, and the factor, the
integer row ``vanishing_ideal`` left, is multiplied into the values of its
slice's monomial table.  With integer data q is 1; here Z and the points
carry denominators 2, 3 and 7 and negative values, so q > 1.  Five checks:

- inside the exact domain the equation route equals ``theta_member``, and
  outside it never rejects a member;
- the structured search equals the former one, which evaluated every tail
  in ``Fraction`` arithmetic for every support choice (kept here as the
  oracle), both per generator and over a whole ideal, whose runs of equal
  rows share one support search; a shuffled generator tuple splits those
  runs and must not change the answer;
- the integer zero test agrees with ``Poly.evaluate(...) == 0`` on the
  factor's rational form (``oracles.factor_poly``) on every choice of one
  class per tail row;
- it also agrees with the former zero test, rebuilt from the ``Poly`` at
  every point (``oracles.tail_zero_test_by_poly``), on rational values, on
  factors whose integer lead is negative and on factors that skip a row;
  there the factor's text also equals that of its ``Poly``;
- the value vectors of a table shared by the factors of two capped shapes
  give every generator the verdict of the ``Poly``-based search.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from symvar.equations import TypeIdeal, _orbits_vanish, i_lambda_z, member_by_equations
from symvar.partitions import INF, GenComposition, GenPartition
from symvar.poly import scaled, tvar, vanishing_ideal
from symvar.variety import FinitaryPoint, PointSetVariety, theta_member

from oracles import factor_poly, orbits_vanish_by_masks, tail_zero_test_by_poly

C = GenComposition.from_partition

POOL = sorted({Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3, 7)})
EXACT = ["inf", "inf,1", "inf,2", "inf,inf", "inf,3", "inf,inf,1", "inf,inf,inf"]
OUTSIDE = ["inf,1,1", "inf,2,1"]


def in_exact_domain(lam):
    return lam.finite_weight <= 1 or lam.length <= 2


def oracle_exists_nonzero_assignment(gen, classes):
    """The former search: every support choice re-evaluates the tail in
    Fraction arithmetic."""
    rows, tail_rows = gen.rows, gen.tail_rows
    tail = None if gen.factor is None else factor_poly(gen.factor)
    k = len(rows)
    n = len(classes)

    def feasible(size, support):
        if len(support) > size:
            return False
        return sum(classes[c][1] for c in support) >= size

    def rec(i, available, supports):
        if i == k:
            if tail is None:
                return True
            for combo in itertools.product(*(supports[r] for r in tail_rows)):
                env = {tvar(tail_rows[p] + 1): classes[c][0] for p, c in enumerate(combo)}
                if tail.evaluate(env) == 0:
                    return False
            return True
        size = len(rows[i])
        avail = [c for c in range(n) if available >> c & 1]
        for m in range(1, 1 << len(avail)):
            support = [avail[b] for b in range(len(avail)) if m >> b & 1]
            if not feasible(size, support):
                continue
            supports.append(support)
            if rec(i + 1, available & ~sum(1 << c for c in support), supports):
                return True
            supports.pop()
        return False

    return rec(0, (1 << n) - 1, [])


def rational_case(rng, text):
    """A pair (lam, Z) with rational coordinates and points near it: Z's
    own values at lam's multiplicities, that point with a class dropped,
    and random points reusing Z's values."""
    lam = GenPartition.parse(text)
    npts = rng.randint(1, 2)
    pts = [tuple(rng.sample(POOL, lam.length)) for _ in range(npts)]
    Z = PointSetVariety(C(lam), pts)
    z = rng.choice(Z.points)
    member = list(zip(z, lam.parts))
    points = [FinitaryPoint(member)]
    if len(member) > 1:
        points.append(FinitaryPoint(member[:-1]))
    values = sorted(set(z) | set(rng.sample(POOL, 3)))
    for _ in range(4):
        width = rng.randint(1, min(4, len(values)))
        mults = [INF] + [rng.choice([INF, 1, 2]) for _ in range(width - 1)]
        points.append(FinitaryPoint(zip(rng.sample(values, width), mults)))
    return lam, Z, points


def cases():
    for text in EXACT + OUTSIDE:
        for k in range(4):
            yield text, k


@pytest.fixture(scope="module")
def ideals():
    """Each case with its ideal, built once for all three checks."""
    out = {}
    for text, k in cases():
        lam, Z, points = rational_case(random.Random(f"{text}/{k}"), text)
        out[text, k] = (lam, Z, points, i_lambda_z(lam, Z))
    return out


@pytest.mark.parametrize("text,k", list(cases()))
def test_equations_match_direct(ideals, text, k):
    lam, Z, points, ideal = ideals[text, k]
    for x in points:
        direct = theta_member(C(lam), Z, x)
        by_equations = member_by_equations(ideal, x)
        if in_exact_domain(lam):
            assert by_equations == direct, (Z.points, str(x))
        else:
            assert by_equations or not direct, (Z.points, str(x))


@pytest.mark.parametrize("text,k", list(cases()))
def test_search_matches_fraction_oracle(ideals, text, k):
    lam, _, points, ideal = ideals[text, k]
    for g in ideal.generators:
        for x in points:
            want = not oracle_exists_nonzero_assignment(g, list(x.classes))
            assert member_by_equations(TypeIdeal(lam, [g]), x) == want, (g, str(x))


@pytest.mark.parametrize("text,k", list(cases()))
def test_shared_search_matches_oracle(ideals, text, k):
    _, _, points, ideal = ideals[text, k]
    for x in points:
        want = all(not oracle_exists_nonzero_assignment(g, list(x.classes))
                   for g in ideal.generators)
        assert member_by_equations(ideal, x) == want, str(x)


def runs(generators):
    return len(list(itertools.groupby(generators, key=lambda g: g.rows)))


def test_shuffled_generators_match_oracle(ideals):
    lam, _, points, ideal = ideals["inf,inf,1", 0]
    gens = list(ideal.generators)
    random.Random(5).shuffle(gens)
    shuffled = TypeIdeal(lam, gens)
    assert runs(shuffled.generators) > runs(ideal.generators)
    answers = set()
    for x in points:
        want = all(not oracle_exists_nonzero_assignment(g, list(x.classes)) for g in gens)
        assert member_by_equations(shuffled, x) == want == member_by_equations(ideal, x), str(x)
        answers.add(want)
    assert answers == {True, False}


def dot_product_test(f, values):
    """``vanishes(combo)``: is the factor zero when its variable
    t_{used[p]+1} takes the value ``values[combo[p]]``?  Read as membership
    reads it, a dot product of the row with the values of its table."""
    q, xs_of_value = scaled(values)

    def vanishes(combo):
        xs = [0] * f.table.nvars
        for j, c in zip(f.used, combo):
            xs[j] = xs_of_value[c]
        return f.vanishes_at(f.table.values(xs, q))

    return vanishes


def test_integer_zero_test_matches_evaluation(ideals):
    seen = {"zero": 0, "nonzero": 0}
    for (_, k), (_, _, points, ideal) in ideals.items():
        # every eighth generator, a different eighth per case, keeps the
        # exhaustive check over class choices short
        for g in ideal.generators[k::8]:
            if g.factor is None:
                continue
            tail = factor_poly(g.factor)
            for x in points:
                classes = list(x.classes)
                vanishes = dot_product_test(g.factor, [v for v, _ in classes])
                for combo in itertools.product(range(len(classes)), repeat=len(g.tail_rows)):
                    env = {tvar(r + 1): classes[c][0] for r, c in zip(g.tail_rows, combo)}
                    want = tail.evaluate(env) == 0
                    assert vanishes(combo) == want, (tail, str(x), combo)
                    if math.lcm(*(classes[c][0].denominator for c in combo)) > 1:
                        seen["zero" if want else "nonzero"] += 1
    # both outcomes occur at values that are not all integers
    assert seen["zero"] > 0 and seen["nonzero"] > 0, seen


def test_dot_product_test_matches_poly_oracle():
    """Factors of seeded rational point sets in three coordinates, half of
    them with the middle one held fixed so that factors skip row 2, tested
    at class values drawn from the points' coordinates and from POOL."""
    rng = random.Random(27)
    seen = {"q > 1": 0, "negative lead": 0, "skips a row": 0, "zero": 0, "nonzero": 0}
    for t in range(24):
        middle = rng.choice(POOL)
        pts = [(rng.choice(POOL), middle if t % 2 else rng.choice(POOL), rng.choice(POOL))
               for _ in range(rng.randint(2, 6))]
        coords = sorted({c for p in pts for c in p})
        values = rng.sample(coords, min(3, len(coords))) + rng.sample(POOL, 1)
        values = list(dict.fromkeys(values))
        classes = [(v, INF) for v in values]
        factors = vanishing_ideal(pts)
        # one table per call, listing every factor's lead after the
        # standard monomials, one per point
        table = factors[0].table
        assert all(f.table is table for f in factors)
        assert sorted(f.index for f in factors) == list(range(len(set(pts)), len(table.monomials)))
        for f in factors:
            # the text formatted from the row is that of its rational form
            assert str(f) == str(factor_poly(f)), pts
            vanishes = dot_product_test(f, values)
            want = tail_zero_test_by_poly(factor_poly(f), f.used, classes)
            for combo in itertools.product(range(len(values)), repeat=len(f.used)):
                assert vanishes(combo) == want(combo), (str(f), values, combo)
                seen["zero" if want(combo) else "nonzero"] += 1
            seen["q > 1"] += math.lcm(*(v.denominator for v in values)) > 1
            seen["negative lead"] += f.lead < 0
            seen["skips a row"] += f.used[-1] - f.used[0] + 1 > len(f.used)
    assert all(seen.values()), seen


def test_table_shared_by_two_shapes():
    """Capped shapes whose slices hold the same points share that slice's
    factors, and so its table and the value vectors membership keeps per
    (table, variables, classes).  At seeded rational points, the shared
    vectors give every generator the verdict of ``orbits_vanish_by_masks``,
    which rebuilds each factor's zero test from its ``Poly``
    (``oracles.tail_zero_test_by_poly``)."""
    rng = random.Random(30)
    lam = GenPartition.parse("inf,2,1")
    Z = PointSetVariety(C(lam), [(0, Fraction(1, 2), -1), (Fraction(2, 3), 3, Fraction(-7, 3))])
    gens = i_lambda_z(lam, Z).generators
    shapes = {}  # table -> the shapes whose factors are written over it
    for g in gens:
        if g.factor is not None:
            shapes.setdefault(g.factor.table, set()).add(g.shape)
    shared = {table for table, s in shapes.items() if len(s) > 1}
    assert shared
    values = sorted({c for p in Z.points for c in p} | {Fraction(5, 7)})
    seen = set()
    for _ in range(40):
        width = rng.randint(1, 4)
        mults = [INF] + [rng.choice([INF, 1, 2]) for _ in range(width - 1)]
        classes = list(FinitaryPoint(zip(rng.sample(values, width), mults)).classes)
        got = list(_orbits_vanish(gens, classes))
        assert got == list(orbits_vanish_by_masks(gens, classes)), classes
        seen.update(v for g, v in zip(gens, got) if g.factor is not None and g.factor.table in shared)
    assert seen == {True, False}
