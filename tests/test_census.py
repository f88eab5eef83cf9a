"""The equation route against the direct route over a bounded universe.

Every query of a small universe, with no sampling (the small-scope
hypothesis: most defects show on small inputs):

- every lambda of 1 to 3 parts over {inf, 1, 2, 3} with an infinite part;
- every Z of 1 or 2 points over {0, 1, 2}, each point with pairwise
  distinct coordinates;
- every x of width at most 3 over {0, 1, 2, 3}, multiplicities in
  {inf, 1, 2, 3}, at least one of them infinite.

Three checks.  The equation route never rejects a member.  Inside its exact
domain (finite weight at most 1, or at most two parts) it agrees with
``theta_member``.  Outside it, the number of over-accepted queries of each
lambda is at most its pinned count: the counts may shrink as equations are
added, never grow.  The universe is written out, not drawn, so it cannot
move between Python versions.
"""

import itertools

from symvar.equations import i_lambda_z, member_by_equations
from symvar.partitions import INF, GenComposition, GenPartition
from symvar.variety import FinitaryPoint, PointSetVariety, theta_member

PARTS = [INF, 3, 2, 1]
MULTS = [INF, 1, 2, 3]

# over-accepted queries per lambda; a lambda not listed has none
OVER_ACCEPTED = {"inf,1,1": 66, "inf,2,1": 96, "inf,2,2": 66, "inf,3,1": 60, "inf,3,2": 30}


def lambdas():
    """The 15 partitions of 1 to 3 parts over PARTS with an infinite part."""
    return [GenPartition(parts) for k in (1, 2, 3)
            for parts in itertools.combinations_with_replacement(PARTS, k) if parts[0] == INF]


def point_sets(length):
    points = [p for p in itertools.permutations(range(3), length)]
    return [[p] for p in points] + [list(pair) for pair in itertools.combinations(points, 2)]


def finitary_points():
    for width in (1, 2, 3):
        for values in itertools.combinations(range(4), width):
            for mults in itertools.product(MULTS, repeat=width):
                if INF in mults:
                    yield FinitaryPoint(zip(values, mults))


def in_exact_domain(lam):
    return lam.finite_weight <= 1 or lam.length <= 2


def test_census():
    xs = list(finitary_points())
    assert len(xs) == 194
    rejected, disagree = [], []
    over, queries = {}, 0
    for lam in lambdas():
        comp = GenComposition.from_partition(lam)
        for pts in point_sets(lam.length):
            Z = PointSetVariety(comp, pts)
            ideal = i_lambda_z(lam, Z)
            for x in xs:
                queries += 1
                direct = theta_member(comp, Z, x)
                by_equations = member_by_equations(ideal, x)
                if direct and not by_equations:
                    rejected.append((str(lam), pts, str(x)))
                elif by_equations and not direct:
                    if in_exact_domain(lam):
                        disagree.append((str(lam), pts, str(x)))
                    over[str(lam)] = over.get(str(lam), 0) + 1
    assert len(lambdas()) == 15 and queries == 58_200
    assert rejected == []
    assert disagree == []
    assert all(count <= OVER_ACCEPTED.get(lam, 0) for lam, count in over.items()), over
