"""Membership and containment by the point-set rule.

``theta_member`` and ``contains`` decide from the points of Z alone, with no
slice, no endomorphism closure and no correspondence.  They must agree with
the slice-based decisions kept in ``oracles`` on seeded inputs: ``lambda``
with up to 4 parts, coordinates with denominators 1, 2, 3 and 7, negative
values, integral values given as ints, Fractions and unreduced Fractions,
and both verdicts.  Their input errors stay those of the slice
construction.
"""

import random
from fractions import Fraction

import pytest

import symvar.corr
import symvar.equations
import symvar.variety
from symvar.equations import i_lambda_z
from symvar.partitions import INF, GenComposition, GenPartition
from symvar.variety import (
    DistinctnessError,
    FinitaryPoint,
    PointSetVariety,
    contains,
    gamma_at,
    theta_member,
)

from oracles import contains_by_slice, spelled, theta_member_by_slice

P = GenPartition.parse
C = GenComposition.from_partition

POOL = sorted({Fraction(n, d) for n in (-3, -1, 0, 1, 2, 5) for d in (1, 2, 3, 7)})
LAMBDAS = ["inf", "inf,1", "inf,inf", "inf,2", "inf,3", "inf,inf,1", "inf,2,1", "inf,1,1",
           "inf,inf,inf", "inf,inf,2", "inf,1,1,1", "inf,inf,1,1", "inf,2,1,1",
           "inf,inf,inf,1", "inf,inf,inf,inf"]
MULTS = [INF, 1, 2, 3]


def distinct_variety(rng, lam):
    """1-3 points with pairwise distinct coordinates, sharing values across
    points, each integral value spelled at random."""
    values = rng.sample(POOL, lam.length + 2)
    return PointSetVariety(lam, [tuple(spelled(rng, v) for v in rng.sample(values, lam.length))
                                 for _ in range(rng.randint(1, 3))])


def random_point(rng, lam, Z):
    """A point of at most 4 classes on the values of one point of Z, with
    multiplicities mostly within the weights there; sometimes a value from
    outside Z.  Both verdicts occur."""
    p = rng.choice(Z.points)
    weights = [lam.weight(k) for k in lam.labels]
    classes = {p[0]: INF}  # the first label of lam is infinite
    for k in rng.sample(range(1, len(p)), min(rng.randint(0, 2), len(p) - 1)):
        classes[p[k]] = rng.choice([weights[k], weights[k], INF, 1, 2, 3])
    if rng.random() < 0.3:
        classes[rng.choice([v for v in POOL if v not in classes])] = rng.choice(MULTS)
    return FinitaryPoint((spelled(rng, v), m) for v, m in classes.items())


@pytest.mark.parametrize("text", LAMBDAS)
def test_theta_member_matches_slice_oracle(text):
    rng = random.Random(text)
    lam = C(P(text))
    verdicts = []
    for _ in range(6):
        Z = distinct_variety(rng, lam)
        for _ in range(6):
            x = random_point(rng, lam, Z)
            want = theta_member_by_slice(lam, Z, x)
            assert theta_member(lam, Z, x) is want, (Z.points, str(x))
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def random_subpoint(rng, mu, lam, Z2):
    """A tuple over mu that mostly reads a point of Z2 at positions heavy
    enough for each label, and otherwise takes a value from outside it.
    Both verdicts occur."""
    p2 = rng.choice(Z2.points)
    free = set(range(len(p2)))
    coords = []
    for i in mu.labels:
        fits = sorted(k for k in free if mu.weight(i) <= lam.weight(lam.labels[k]))
        if fits and rng.random() < 0.85:
            k = rng.choice(fits)
            free.remove(k)
            coords.append(p2[k])
        else:
            coords.append(rng.choice([v for v in POOL if v not in p2 and v not in coords]))
    return tuple(spelled(rng, v) for v in coords)


@pytest.mark.parametrize("text", LAMBDAS)
def test_contains_matches_slice_oracle(text):
    rng = random.Random(f"contains/{text}")
    lam = C(P(text))
    verdicts = []
    for _ in range(12):
        Z2 = distinct_variety(rng, lam)
        mu_p = P(rng.choice(["inf", "inf,1", "inf,inf", "inf,2", "2,1", "1,1", "inf,1,1",
                             "inf,inf,1", "3"]))
        mu = C(mu_p)
        Z1 = PointSetVariety(mu, [random_subpoint(rng, mu, lam, Z2)
                                  for _ in range(rng.randint(1, 2))])
        want = contains_by_slice(mu, Z1, lam, Z2)
        assert contains(mu, Z1, lam, Z2) is want, (Z1.points, str(mu_p), Z2.points)
        verdicts.append(want)
        # a point of Z2 read over lam is always contained in its own system
        assert contains(lam, Z2, lam, Z2) is True
    assert True in verdicts and False in verdicts


def test_rational_classes_against_position_weights():
    lam = C(P("inf,inf,inf,1"))
    Z = PointSetVariety(lam, [(Fraction(-1, 2), Fraction(2, 3), Fraction(5, 7), 2)])
    assert theta_member(lam, Z, FinitaryPoint.parse("2/3^inf,-1/2^inf,2^1")) is True
    assert theta_member(lam, Z, FinitaryPoint.parse("2/3^inf,-1/2^inf,2^2")) is False
    assert theta_member(lam, Z, FinitaryPoint.parse("2/3^inf,-1/2^inf,3^1")) is False


def test_points_are_sorted_deduplicated_fractions():
    lam = C(P("inf,2,1"))
    Z = PointSetVariety(lam, [(3, Fraction(-1, 2), -2), (Fraction(6, 2), Fraction(-2, 4), -2),
                              (-2, Fraction(3), Fraction(5, 3)), (-2, 3, Fraction(10, 6))])
    assert Z.points == ((Fraction(-2), Fraction(3), Fraction(5, 3)),
                        (Fraction(3), Fraction(-1, 2), Fraction(-2)))
    assert all(type(c) is Fraction for p in Z.points for c in p)
    Z.require_distinct()
    with pytest.raises(DistinctnessError, match="pairwise distinct coordinates"):
        PointSetVariety(C(P("inf,inf")), [(3, Fraction(6, 2))]).require_distinct()


def test_a_value_spelled_twice_is_repeated():
    lam = C(P("inf,inf"))
    Z = PointSetVariety(lam, [(3, Fraction(6, 2))])
    assert Z.distinct is False
    fine = PointSetVariety(lam, [(0, 1)])
    x = FinitaryPoint.parse("3^inf")
    for call in (lambda: theta_member(lam, Z, x),
                 lambda: contains(lam, Z, lam, fine),
                 lambda: contains(lam, fine, lam, Z),
                 lambda: i_lambda_z(P("inf,inf"), Z)):
        with pytest.raises(DistinctnessError, match="pairwise distinct coordinates"):
            call()


def test_slices_sum_the_rooms_of_a_repeated_value():
    # 0 sits on both weight-1 positions, so it has room 2
    lam = C(P("inf,1,1"))
    Z = PointSetVariety(lam, [(5, Fraction(0), Fraction(0, 2))])
    assert Z.distinct is False
    assert gamma_at(lam, Z, C(P("2"))).points == ((0,), (5,))
    got = gamma_at(lam, Z, C(P("2,1"))).points
    assert (0, 0) not in got
    assert got == ((0, 5), (5, 0), (5, 5))


def test_errors_are_those_of_the_slice():
    lam = C(P("inf,inf"))
    x = FinitaryPoint.parse("0^inf")
    repeated = PointSetVariety(lam, [(0, 0)])
    with pytest.raises(DistinctnessError, match="pairwise distinct coordinates"):
        theta_member(lam, repeated, x)
    with pytest.raises(DistinctnessError, match="pairwise distinct coordinates"):
        contains(lam, repeated, lam, PointSetVariety(lam, [(0, 1)]))
    with pytest.raises(DistinctnessError, match="pairwise distinct coordinates"):
        contains(lam, PointSetVariety(lam, [(0, 1)]), lam, repeated)
    elsewhere = PointSetVariety(C(P("inf,1")), [(0, 1)])
    with pytest.raises(ValueError, match="^point set does not live over lam$"):
        theta_member(lam, elsewhere, x)
    with pytest.raises(ValueError, match="^point set does not live over lam$"):
        gamma_at(lam, elsewhere, C(P("1")))
    with pytest.raises(ValueError, match="^point sets must live over the stated compositions$"):
        contains(lam, elsewhere, lam, elsewhere)
    # each composition is checked on its own: one mismatch is enough
    here = PointSetVariety(lam, [(0, 1)])
    for call in (lambda: contains(lam, elsewhere, lam, here),
                 lambda: contains(lam, here, lam, elsewhere)):
        with pytest.raises(ValueError, match="^point sets must live over the stated compositions$"):
            call()
    empty = GenComposition({})
    with pytest.raises(ValueError, match="^the slice composition must be non-empty$"):
        gamma_at(lam, PointSetVariety(lam, [(0, 1)]), empty)
    with pytest.raises(ValueError, match="^the slice composition must be non-empty$"):
        contains(empty, PointSetVariety(empty, [()]), lam, PointSetVariety(lam, [(0, 1)]))
    finite = C(P("2,1"))
    Zf = PointSetVariety(finite, [(0, 1)])
    for call in (lambda: theta_member(finite, Zf, x),
                 lambda: contains(finite, Zf, finite, Zf),
                 lambda: gamma_at(finite, Zf, finite)):
        with pytest.raises(ValueError, match="^the ambient composition must have an infinite part$"):
            call()
    # an empty Z1 gets the same checks, and is contained when they pass
    with pytest.raises(ValueError, match="^the slice composition must be non-empty$"):
        contains(empty, PointSetVariety(empty, []), finite, Zf)
    with pytest.raises(ValueError, match="^the ambient composition must have an infinite part$"):
        contains(lam, PointSetVariety(lam, []), finite, Zf)
    assert contains(lam, PointSetVariety(lam, []), lam, PointSetVariety(lam, [(0, 1)])) is True


def _refuse(*args, **kwargs):
    raise AssertionError("slice machinery called")


def _patch(monkeypatch, names):
    for module in (symvar.variety, symvar.corr, symvar.equations):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)


def test_membership_and_containment_build_no_slice(monkeypatch):
    # GenComposition too: a query builds no composition for the type of x
    _patch(monkeypatch, ["end_closure", "enumerate_end", "enumerate_good", "_gamma_points",
                         "gamma_at", "GenComposition"])
    lam = C(P("inf,inf,inf,inf,3"))
    Z = PointSetVariety(lam, [(0, 1, 2, 3, 4), (3, 2, 1, 0, 4)])
    assert theta_member(lam, Z, FinitaryPoint.parse("0^inf,1^inf,2^inf,3^inf,4^2")) is True
    assert theta_member(lam, Z, FinitaryPoint.parse("0^inf,1^inf,2^inf,3^inf,4^4")) is False
    mu = C(P("inf,1"))
    assert contains(mu, PointSetVariety(mu, [(1, 4)]), lam, Z) is True
    assert contains(mu, PointSetVariety(mu, [(4, 0)]), lam, Z) is False


def test_slices_and_equations_skip_the_closure(monkeypatch):
    _patch(monkeypatch, ["end_closure", "enumerate_end", "enumerate_good"])
    lam = C(P("inf,inf"))
    Z = PointSetVariety(lam, [(0, 1), (1, 0)])
    assert set(gamma_at(lam, Z, C(P("1,1"))).points) == {(0, 1), (1, 0), (0, 0), (1, 1)}
    assert len(i_lambda_z(P("inf,inf"), Z).generators) > 0
    # the weight 2 labels reach value 3 only split over its two positions
    lam = C(P("inf,2,1,1"))
    got = gamma_at(lam, PointSetVariety(lam, [(1, 2, 3, 3)]), C(P("2,2,1"))).points
    assert got == ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 3), (1, 3, 1), (1, 3, 2),
                   (2, 1, 1), (2, 1, 3), (2, 3, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1))
