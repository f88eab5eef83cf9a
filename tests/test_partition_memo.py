"""The two partition-only memos of the equation route.

``equations._skeleton(lam)`` holds what lam alone fixes in
``i_lambda_z``: lam's composition, the excluded blocks of ``i_lambda`` and
the admissible capped shapes with their saturations.
``equations._supports(mults, sizes)`` holds the support assignments that
``_orbits_vanish`` searches for rows of a block's sizes at a point with
these class multiplicities.  Neither reads a value of Z or of x.  These tests check:

- a second pair over the same lambda calls neither ``min_excluded`` nor
  ``capped_shapes``, and a second point with the same multiplicities runs
  no cover-group search;
- over the census's 300 pairs (see ``test_census.py``), the verdicts on a
  fixed list of points, and the rendered ideal of one seeded pair of each
  lambda, are the same with both memos cleared before every call and with
  both warm;
- pruning one ideal of lambda with ``reduce_generators`` leaves the shared
  excluded blocks as they were.

Every test that patches a function the memos read clears both memos before
and after, so that no patched result stays in them.
"""

import random

import pytest

from symvar import equations
from symvar.equations import i_lambda_z, member_by_equations, random_point, reduce_generators
from symvar.partitions import GenComposition, GenPartition
from symvar.variety import FinitaryPoint, PointSetVariety

from test_census import lambdas, point_sets

P = GenPartition.parse
C = GenComposition.from_partition
POINTS = ["0^inf", "1^inf,2^inf", "0^inf,1^1", "0^inf,2^2", "0^inf,1^inf,2^1",
          "0^inf,1^1,2^1", "0^inf,1^2,2^3", "0^inf,1^inf,3^inf", "3^inf,0^3"]


def clear():
    equations._skeleton.cache_clear()
    equations._supports.cache_clear()


@pytest.fixture
def cold():
    clear()
    yield
    clear()


def counting(monkeypatch, name):
    """Patch ``equations.<name>`` to count its calls; return the counter."""
    calls = []
    fn = getattr(equations, name)
    monkeypatch.setattr(equations, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_bounds():
    assert equations._skeleton.cache_parameters()["maxsize"] == 64
    assert equations._supports.cache_parameters()["maxsize"] == 1024


def test_second_pair_of_lambda_enumerates_no_partition(cold, monkeypatch):
    lam = P("inf,2,1")
    excluded = counting(monkeypatch, "min_excluded")
    capped = counting(monkeypatch, "capped_shapes")
    first = i_lambda_z(lam, PointSetVariety(C(lam), [(0, 1, 2)]))
    assert (len(excluded), len(capped)) == (1, 1)
    second = i_lambda_z(lam, PointSetVariety(C(lam), [(5, -7, 11), (1, 2, 3)]))
    assert (len(excluded), len(capped)) == (1, 1)
    # the excluded blocks are the same objects; the slice blocks are not
    n = len(equations.i_lambda(lam).blocks)
    assert all(a is b for a, b in zip(first.blocks[:n], second.blocks[:n]))
    assert [b.keys for b in first.blocks[n:]] != [b.keys for b in second.blocks[n:]]


def test_second_point_with_the_same_multiplicities_searches_no_cover_group(cold, monkeypatch):
    lam = P("inf,2,1")
    ideal = i_lambda_z(lam, PointSetVariety(C(lam), [(0, 1, 2), (5, -7, 11)]))
    groups = counting(monkeypatch, "_cover_groups")
    assert member_by_equations(ideal, FinitaryPoint.parse("0^inf,1^2,2^1")) is True
    assert groups
    searched = len(groups)
    assert member_by_equations(ideal, FinitaryPoint.parse("4^inf,9^2,-3^1")) is False
    assert len(groups) == searched
    # other multiplicities are a new search
    member_by_equations(ideal, FinitaryPoint.parse("4^inf,9^1,-3^1"))
    assert len(groups) > searched


def census_pairs():
    return [(lam, PointSetVariety(C(lam), pts)) for lam in lambdas()
            for pts in point_sets(lam.length)]


def answers(pairs, xs, rendered, clear_first):
    """Per pair: the verdicts at `xs`, and the rendered ideal if the pair's
    index is in `rendered`, with both memos cleared before every call if
    `clear_first`."""
    out = []
    for i, (lam, Z) in enumerate(pairs):
        if clear_first:
            clear()
        ideal = i_lambda_z(lam, Z)
        verdicts = []
        for x in xs:
            if clear_first:
                clear()
            verdicts.append(member_by_equations(ideal, x))
        out.append((ideal.render() if i in rendered else None, verdicts))
    return out


def test_cold_equals_warm_over_the_census(cold):
    pairs = census_pairs()
    xs = [FinitaryPoint.parse(x) for x in POINTS]
    assert len(pairs) == 300
    # printing builds every slice's factors, most of the time here, so one
    # seeded pair of each lambda is printed
    rng = random.Random(33)
    rendered = {rng.choice([i for i, (mu, _) in enumerate(pairs) if mu == lam])
                for lam in lambdas()}
    got_cold = answers(pairs, xs, rendered, True)
    for lam, Z in pairs:  # fill both memos
        ideal = i_lambda_z(lam, Z)
        for x in xs:
            member_by_equations(ideal, x)
    skeleton, supports = equations._skeleton.cache_info(), equations._supports.cache_info()
    got_warm = answers(pairs, xs, rendered, False)
    # the second pass was warm: it missed neither memo
    assert equations._skeleton.cache_info().misses == skeleton.misses
    assert equations._supports.cache_info().misses == supports.misses
    assert equations._supports.cache_info().currsize < 1024
    assert got_cold == got_warm
    assert {v for _, vs in got_cold for v in vs} == {True, False}


def test_pruning_leaves_the_shared_blocks_alone(cold):
    lam = P("inf,inf,1")
    Z = PointSetVariety(C(lam), [(0, 1, 2), (1, 2, 0)])
    ideal = i_lambda_z(lam, Z)
    before = ideal.render()
    excluded = equations._skeleton(lam)[1]
    rng = random.Random(4)
    reduced = reduce_generators(ideal, [random_point(rng, max_width=4) for _ in range(40)])
    assert len(reduced.generators) < len(ideal.generators)
    assert equations._skeleton(lam)[1] is excluded
    assert all(b.factors == (None,) for b in excluded)
    assert i_lambda_z(lam, Z).render() == before
