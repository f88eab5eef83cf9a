"""Slice factors assembled from the components of a product.

A slice that is a product over its coordinates, a core times one or more
sets of values, takes its reduced basis from its components'
(``poly._slice_factors``).  Direct elimination of the whole set,
``poly.vanishing_ideal``, is the oracle: on seeded products with rational,
negative and repeated values, single points, full grids and up to five
coordinates, the assembled factors print the same strings in the same
order, mention the same variables, and agree on ``vanishes_at`` at random
rational points.  An assembled factor is its component's factor placed in
the slice's variables: the same row over the very same table, with
``local`` naming that table's positions of the variables in ``used``.  So
it is tested over the values of its component's table, scaled by
q^(D - |m|) with D that table's largest degree; the points are drawn with
denominators q > 1 and from the values of the set, where the factors
vanish.  Its printed template is its table's, so every placed copy of one
eliminated generator is formatted once.
"""

import random
from fractions import Fraction

from symvar import poly
from symvar.equations import i_lambda_z
from symvar.partitions import GenComposition, GenPartition
from symvar.poly import _components, _slice_factors, scaled, vanishing_ideal
from symvar.variety import PointSetVariety

from test_certified_membership import components

POOL = [0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-4, 3), Fraction(7, 5), Fraction(-2, 7)]


def random_product(rng):
    """A core of 0 to 3 coordinates times 1 to 3 sets of values, with the
    coordinates shuffled, at most five in all: the set of points and the
    number of factors it was built from."""
    nsets = rng.randint(1, 3)
    width = rng.randint(0, min(3, 5 - nsets))
    factors = [[(v,) for v in rng.sample(POOL, rng.randint(1, 3))] for _ in range(nsets)]
    if width:
        core = {tuple(rng.choice(POOL) for _ in range(width)) for _ in range(rng.randint(1, 5))}
        factors.append(sorted(core))
    points = [()]
    for factor in factors:
        points = [p + q for p in points for q in factor]
    order = list(range(len(points[0])))
    rng.shuffle(order)
    return frozenset(tuple(p[i] for i in order) for p in points), len(factors)


def test_assembled_factors_match_direct_elimination():
    rng = random.Random(34)
    seen = {"splits": 0, "single point": 0, "grid": 0, "five coordinates": 0,
            "q > 1": 0, "zero": 0, "nonzero": 0}
    shared = {}
    for _ in range(150):
        keys, nfactors = random_product(rng)
        r = len(next(iter(keys)))
        assembled = _slice_factors(keys, shared)
        direct = vanishing_ideal(keys)
        assert [str(f) for f in assembled] == [str(f) for f in direct], sorted(keys)
        assert [f.used for f in assembled] == [f.used for f in direct]
        seen["splits"] += len(_components(keys)) > 1
        seen["single point"] += len(keys) == 1
        seen["grid"] += nfactors == r
        seen["five coordinates"] += r == 5
        values = sorted({c for p in keys for c in p})
        for _ in range(6):
            if rng.random() < 0.5:
                # a point of the set with one coordinate moved, or not
                point = list(rng.choice(sorted(keys)))
                point[rng.randrange(r)] = rng.choice(values)
            else:
                point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(r)]
            q, xs = scaled(point)
            for f, g in zip(assembled, direct):
                want = g.vanishes_at(g.table.values(g.used, [xs[j] for j in g.used], q))
                got = f.vanishes_at(f.table.values(f.local, [xs[j] for j in f.used], q))
                assert got == want, (str(f), point)
                seen["zero" if want else "nonzero"] += 1
                seen["q > 1"] += q > 1
    assert all(seen.values()), seen


def test_components_peel_what_splits_off_the_whole_set():
    """Each coordinate is tested once, on what earlier peels left, and
    that finds the coordinates that split off the whole set
    (``test_certified_membership.components``), next ones included."""
    rng = random.Random(8)
    seen = {"adjacent splits": 0, "four parts or more": 0}
    for _ in range(200):
        keys, _ = random_product(rng)
        parts = _components(keys)
        assert {part for _, part in parts} == components(keys), sorted(keys)
        assert sorted(c for coords, _ in parts for c in coords) == list(range(len(next(iter(keys)))))
        seen["adjacent splits"] += any(a[0][0] + 1 == b[0][0] for a, b in zip(parts, parts[1:-1]))
        seen["four parts or more"] += len(parts) >= 4
    assert all(seen.values()), seen


def test_placed_factors_keep_their_components_tables():
    """Each factor of a split slice is a factor of one of its components,
    placed by the component's coordinates: the same row over the very same
    table, ``used`` renamed through the coordinates, ``local`` kept."""
    rng = random.Random(42)
    seen = {"splits": 0, "one table at two maps": 0, "local != used": 0}
    for _ in range(150):
        keys, _ = random_product(rng)
        parts = _components(keys)
        if len(parts) == 1:
            continue
        shared = {}
        assembled = _slice_factors(keys, shared)
        own, tables = {}, set()  # (table id, lead index, placed used) -> component factor
        for coords, part in parts:
            seen["one table at two maps"] += id(shared[part][0].table) in tables
            tables.add(id(shared[part][0].table))
            own.update(((id(g.table), g.index, tuple(coords[j] for j in g.used)), g)
                       for g in shared[part])
        assert len(assembled) == len(own)
        for f in assembled:
            g = own.get((id(f.table), f.index, f.used))
            assert g is not None, f"{f} is not over its component's table"
            assert f.table is g.table and f.coeffs == g.coeffs and f.lead == g.lead
            assert f.local == g.local and len(f.local) == len(f.used)
            # local indexes the table, and the lead's variables are among it
            lead = f.table.monomials[f.index]
            assert f.local == tuple(sorted(set(f.local))) and f.local[-1] < len(lead)
            assert {k for k, e in enumerate(lead) if e} <= set(f.local)
            seen["local != used"] += f.local != f.used
        seen["splits"] += 1
    assert all(seen.values()), seen


def test_components_are_eliminated_once_per_shared_dict(calls):
    # {a, b} x {c} and {c} x {a, b} share the elimination of each component
    eliminated = calls(poly, "vanishing_ideal")
    shared = {}
    first = _slice_factors(frozenset({(1, 3), (2, 3)}), shared)
    second = _slice_factors(frozenset({(3, 1), (3, 2)}), shared)
    assert sorted((points for points, in eliminated), key=len) == [
        frozenset({(3,)}), frozenset({(1,), (2,)})]
    assert [str(f) for f in first] == ["t2 - 3", "t1^2 - 3*t1 + 2"]
    assert [str(f) for f in second] == ["t1 - 3", "t2^2 - 3*t2 + 2"]
    assert _slice_factors(frozenset({(1, 3), (2, 3)}), shared) is first


def test_each_eliminated_generator_is_formatted_once(calls):
    # zq4.json of the golden corpus: one rational point of inf,inf,inf,1,
    # whose product slices place the same component factors many times
    formatted = calls(poly, "_format_terms")
    lam = GenPartition.parse("inf,inf,inf,1")
    point = (Fraction(1, 2), 3, Fraction(-4, 3), 7)
    ideal = i_lambda_z(lam, PointSetVariety(GenComposition.from_partition(lam), [point]))
    ideal.render()
    factors = [f for block in ideal.blocks for f in block.factors if f is not None]
    assert len(formatted) == len({(id(f.table), f.index) for f in factors}) == 21 < len(factors)
