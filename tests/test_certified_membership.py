"""Equation membership over shape blocks, certified by slice points.

``i_lambda_z`` holds its ideal as one block per shape, and builds a
slice's factors on their first read.  ``member_by_equations`` walks the
blocks; where every support of a block has a choice of one class per row
that is a point of the block's slice (the set test), the block passes
without reading a factor.  These tests check:

- the verdict equals that of the walk over every factor
  (``oracles.member_by_factors``) on seeded queries over 4-part lambdas
  whose points share values, and on an ideal pruned by
  ``reduce_generators``, where a block keeps only some of its factors;
- the generators read from the ideal are those built from its blocks'
  factors, a second read builds no slice again, and blocks whose
  slices hold the same points share one factor tuple; a slice that is a
  product over its coordinates takes its factors from its components, and
  each distinct indecomposable component is eliminated once per ideal;
- on ``inf,2,1,1`` over a generic pair, a member builds no slice ideal,
  and a non-member builds only those of the blocks whose set test fails,
  up to the first block that fails.
"""

import itertools
import random

import pytest

from symvar import poly
from symvar.equations import (
    IdealGenerator,
    i_lambda_z,
    member_by_equations,
    random_point,
    reduce_generators,
    shape_rows,
)
from symvar.partitions import INF, GenComposition, GenPartition
from symvar.variety import FinitaryPoint, PointSetVariety

from oracles import (
    member_by_factors,
    orbits_vanish_by_factors,
    set_test_by_masks,
    supports_by_masks,
)

P = GenPartition.parse
C = GenComposition.from_partition

GENERIC = ("inf,2,1,1", [(0, 1, 2, 3), (5, -7, 11, 13)])


@pytest.fixture
def built(monkeypatch):
    """The point sets ``vanishing_ideal`` is called on, in call order."""
    calls = []
    vanishing_ideal = poly.vanishing_ideal
    monkeypatch.setattr(poly, "vanishing_ideal",
                        lambda points: calls.append(points) or vanishing_ideal(points))
    return calls


def block_generators(b) -> list:
    return [IdealGenerator(b.kind, b.shape, f) for f in b.factors]


def generic_ideal():
    lam = P(GENERIC[0])
    return i_lambda_z(lam, PointSetVariety(C(lam), GENERIC[1]))


@pytest.mark.parametrize("point", ["0^inf,1^2", "0^inf,1^1,2^1,3^1"])
def test_member_builds_no_slice_ideal(built, point):
    assert member_by_equations(generic_ideal(), FinitaryPoint.parse(point)) is True
    assert built == []


def test_non_member_builds_only_the_slices_its_set_tests_fail(built):
    ideal = generic_ideal()
    x = FinitaryPoint.parse("0^inf,5^2")
    assert member_by_equations(ideal, x) is False
    got = list(built)
    # the blocks the walk reads up to the first that fails, with the
    # supports and the set test of the mask-table oracle
    classes, want = list(x.classes), []
    for block in ideal.blocks:
        if (not supports_by_masks(shape_rows(block.shape), classes)
                or set_test_by_masks(block, classes)):
            continue
        if block.keys and block.keys not in want:
            want.append(block.keys)
        if not all(orbits_vanish_by_factors(block_generators(block), classes)):
            break
    assert got == want
    assert 1 <= len(got) < len({b.keys for b in ideal.blocks if b.keys})


def components(keys) -> set:
    """The key sets of the factors of `keys` as a product: one set of
    1-tuples per coordinate i with |pi_i(S)| * |pi_rest(S)| = |S|, each
    tested on the whole set, and the projection onto the other coordinates;
    `keys` itself when no coordinate splits off."""
    r = len(next(iter(keys)))
    split = [i for i in range(r)
             if len({p[i] for p in keys}) * len({p[:i] + p[i + 1:] for p in keys}) == len(keys)]
    if not split:
        return {keys}
    rest = [i for i in range(r) if i not in split]
    out = {frozenset((p[i],) for p in keys) for i in split}
    if rest:
        out.add(frozenset(tuple(p[i] for i in rest) for p in keys))
    return out


def test_blocks_print_the_flat_view_and_share_factors(built):
    lam = P("inf,2,1")
    Z = PointSetVariety(C(lam), [(0, 1, 2), (2, 0, 1)])
    ideal = i_lambda_z(lam, Z)
    assert built == []
    gens = ideal.generators
    # one vanishing_ideal per distinct indecomposable component of the
    # non-empty slices; a slice that splits is never eliminated whole
    slices = {b.keys for b in ideal.blocks if b.keys}
    parts = set().union(*map(components, slices))
    assert sorted(map(sorted, built)) == sorted(map(sorted, parts))
    assert len(built) == len(parts) < len(slices)
    assert len(slices) < sum(1 for b in ideal.blocks if b.keys)
    # blocks with the same slice share one factor tuple
    for a, b in itertools.combinations(ideal.blocks, 2):
        if a.keys is not None and a.keys == b.keys:
            assert a.factors is b.factors
    assert [g.provenance() for g in gens] == [
        g.provenance() for b in ideal.blocks for g in block_generators(b)]
    assert [str(g) for g in gens] == [str(g) for b in ideal.blocks for g in block_generators(b)]
    # a second read builds the printed form again from the held factors
    assert [str(g) for g in ideal.generators] == [str(g) for g in gens]
    assert len(built) == len(parts)


def test_one_point_grid_slices_eliminate_one_set(built):
    # every slice of inf,inf,inf over one point is a grid {0,1,2}^r
    lam = P("inf,inf,inf")
    ideal = i_lambda_z(lam, PointSetVariety(C(lam), [(0, 1, 2)]))
    assert len(ideal.generators) > 3
    assert built == [frozenset({(0,), (1,), (2,)})]


def test_product_slices_reuse_their_components(built):
    # the slice of 2,1,1 is {0} x slice(1,1), that of 3,1 is {0} x {0,1,2};
    # only the slices of 1, 1,1 and 1,1,1 and the set {0} are eliminated
    lam = P("inf,1,1")
    ideal = i_lambda_z(lam, PointSetVariety(C(lam), [(0, 1, 2)]))
    ideal.generators
    slices = {str(b.shape): b.keys for b in ideal.blocks}
    assert sorted(built, key=len) == [
        frozenset({(0,)}), slices["1"], slices["1,1"], slices["1,1,1"]]


LAMBDAS4 = ["inf,1,1,1", "inf,2,1,1", "inf,3,1,1", "inf,inf,1,1", "inf,inf,2,1",
            "inf,inf,inf,1", "inf,inf,inf,inf"]


def test_four_part_queries_with_shared_values_match_the_factor_walk():
    # Z: one or two points over {0, 1, 2, 3}, so that its points and slices
    # share values; x: one to four classes, on Z's values and on 4
    rng = random.Random(31)
    seen = set()
    for text in LAMBDAS4:
        lam = P(text)
        for _ in range(2):
            pts = [tuple(rng.sample(range(4), 4)) for _ in range(rng.randint(1, 2))]
            ideal = i_lambda_z(lam, PointSetVariety(C(lam), pts))
            for _ in range(20):
                width = rng.randint(1, 4)
                mults = [INF] + [rng.choice([INF, 1, 2, 3]) for _ in range(width - 1)]
                x = FinitaryPoint(zip(rng.sample(range(5), width), mults))
                verdict = member_by_equations(ideal, x)
                assert verdict == member_by_factors(ideal, x), (text, pts, str(x))
                seen.add(verdict)
    assert seen == {True, False}


def test_pruned_ideal_matches_the_factor_walk():
    lam = P("inf,inf,1")
    Z = PointSetVariety(C(lam), [(0, 1, 2), (1, 2, 0)])
    ideal = i_lambda_z(lam, Z)
    rng = random.Random(4)
    reduced = reduce_generators(ideal, [random_point(rng, max_width=4) for _ in range(40)])
    # a block that lost some of its factors keeps its key set
    full = {b.shape: b for b in ideal.blocks}
    assert any(b.keys and len(b.factors) < len(full[b.shape].factors) for b in reduced.blocks)
    seen = set()
    for width in (1, 2, 3):
        for values in itertools.combinations(range(4), width):
            for mults in itertools.product([INF, 1, 2], repeat=width):
                if INF in mults:
                    x = FinitaryPoint(zip(values, mults))
                    verdict = member_by_equations(reduced, x)
                    assert verdict == member_by_factors(reduced, x), str(x)
                    seen.add(verdict)
    assert seen == {True, False}
