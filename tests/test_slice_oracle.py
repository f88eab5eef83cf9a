"""The slice loop against its former implementation.

``end_closure`` and ``apply_corr`` act through source positions, the
latter reading them off the legs of the correspondence.  ``gamma_at``
neither closes Z under
End(lambda) nor runs a correspondence: it collapses lambda along the values
of each point and enumerates the weight-respecting maps from mu into the
collapse.  The oracle below is the earlier code, which closed Z and applied
every map and every good correspondence to the rational tuples themselves;
both must give the same point sets on seeded inputs: ``lambda`` with up to
4 parts, infinite and saturated finite slices, slices with more parts than
``lambda`` or finite parts above its finite weight, coordinates with
denominators 2, 3 and 7, negative values, values shared within and
between points, and integral values given as ints, Fractions and
unreduced Fractions.
"""

import random
from fractions import Fraction

import pytest

from symvar.corr import apply_corr, compose, enumerate_good
from symvar.equations import capped_shapes
from symvar.partitions import INF, GenComposition, GenPartition, mu_s
from symvar.variety import (
    PointSetVariety,
    _gamma_points,
    end_closure,
    gamma_at,
)

from oracles import enumerate_end_by_product, spelled

C = GenComposition.from_partition


def oracle_act_point(f, x):
    cod_pos = {k: i for i, k in enumerate(f.codomain.labels)}
    return tuple(x[cod_pos[f.table[i]]] for i in f.domain.labels)


def oracle_corr_image(f, pts):
    src_pos = {k: i for i, k in enumerate(f.source.labels)}
    f2_idx = [src_pos[f.f2.table[j]] for j in f.rho.labels]
    rho_pos = {k: i for i, k in enumerate(f.rho.labels)}
    fibers = [[rho_pos[j] for j in f.f1.fiber(i)] for i in f.target.labels]
    out = set()
    for s in pts:
        y = [s[i] for i in f2_idx]
        coords = []
        for positions in fibers:
            v0 = y[positions[0]]
            if any(y[p] != v0 for p in positions[1:]):
                coords = None
                break
            coords.append(v0)
        if coords is not None:
            out.add(tuple(coords))
    return out


def oracle_end_closure(lam, Z):
    return {oracle_act_point(f, z) for f in enumerate_end_by_product(lam) for z in Z.points}


def oracle_gamma(lam, Z, mu):
    closed = oracle_end_closure(lam, Z)
    out = set()
    for f in enumerate_good(mu, lam):
        out |= oracle_corr_image(f, closed)
    return out


POOL = [Fraction(n, d) for n in (-3, -1, 0, 1, 2, 5) for d in (1, 2, 3, 7)]
LAMBDAS = ["inf", "inf,1", "inf,inf", "inf,2", "inf,3", "inf,inf,1", "inf,2,1", "inf,1,1",
           "inf,inf,inf", "inf,inf,2", "inf,1,1,1", "inf,inf,1,1", "inf,2,1,1",
           "inf,inf,inf,1", "inf,inf,inf,inf"]


def random_variety(rng, lam):
    """1-3 points drawing coordinates from a few values, so that values
    repeat within and across points."""
    values = rng.sample(POOL, rng.randint(2, 4))
    npts = rng.randint(1, 3)
    return PointSetVariety(lam, [tuple(rng.choice(values) for _ in range(lam.length))
                                 for _ in range(npts)])


def slices(rng, lam_p):
    """Two infinite slices and up to three saturated capped shapes."""
    infinite = [GenPartition([INF] + list(rng.choice([(), (1,), (2,), (1, 1), (INF,), (INF, 1)])))
                for _ in range(2)]
    e = lam_p.finite_weight
    shapes = capped_shapes(lam_p)
    finite = [mu_s(mu, e) for mu in rng.sample(shapes, min(3, len(shapes)))]
    return infinite + finite


@pytest.mark.parametrize("text", LAMBDAS)
@pytest.mark.parametrize("k", [0, 1])
def test_closure_and_slices_match_oracle(text, k):
    rng = random.Random(f"{text}/{k}")
    lam_p = GenPartition.parse(text)
    lam = C(lam_p)
    Z = random_variety(rng, lam)
    closed = end_closure(lam, Z)
    assert closed.points == tuple(sorted(oracle_end_closure(lam, Z)))
    for mu_p in slices(rng, lam_p):
        mu = C(mu_p)
        want = oracle_gamma(lam, Z, mu)
        assert _gamma_points(closed.tables, mu) == want, (Z.points, str(mu_p))
        assert _gamma_points(Z.tables, mu) == want, (Z.points, str(mu_p))
        assert gamma_at(lam, Z, mu).points == tuple(sorted(want))


@pytest.mark.parametrize("text", LAMBDAS)
def test_integral_values_in_every_spelling(text):
    # the slice search runs on keys and maps them back to Z's own values
    rng = random.Random(f"spelling/{text}")
    lam_p = GenPartition.parse(text)
    lam = C(lam_p)
    integral = [v for v in POOL if v.denominator == 1]
    rational = [v for v in POOL if v.denominator != 1]
    values = rng.sample(integral, 2) + rng.sample(rational, rng.randint(1, 2))
    Z = PointSetVariety(lam, [tuple(spelled(rng, rng.choice(values)) for _ in range(lam.length))
                              for _ in range(rng.randint(1, 3))])
    own = {id(c) for p in Z.points for c in p}
    for mu_p in slices(rng, lam_p):
        mu = C(mu_p)
        got = gamma_at(lam, Z, mu).points
        assert got == tuple(sorted(oracle_gamma(lam, Z, mu))), (Z.points, str(mu_p))
        assert all(type(c) is Fraction and id(c) in own for p in got for c in p)


@pytest.mark.parametrize("text", LAMBDAS)
def test_apply_corr_matches_oracle(text):
    rng = random.Random(text)
    lam_p = GenPartition.parse(text)
    lam = C(lam_p)
    S = end_closure(lam, random_variety(rng, lam))
    corrs = []
    for mu_p in slices(rng, lam_p):
        goods = enumerate_good(C(mu_p), lam)
        corrs += rng.sample(goods, min(4, len(goods)))
    # composites carry a rho that is not the canonical one of enumerate_good
    selfs = enumerate_good(lam, lam)
    corrs += [compose(f, rng.choice(selfs)) for f in rng.sample(corrs, min(4, len(corrs)))]
    for f in corrs:
        assert apply_corr(f, S).points == tuple(sorted(oracle_corr_image(f, S.points))), f


def test_collapsed_slices_match_oracle():
    rng = random.Random(2011)
    seen = set()
    for text in LAMBDAS:
        lam_p = GenPartition.parse(text)
        lam = C(lam_p)
        e = lam_p.finite_weight
        for _ in range(5):
            size = rng.randint(1, min(lam.length + 2, 4))
            mu_p = GenPartition([rng.choice([INF, 1, 2, e + 1, e + 2]) for _ in range(size)])
            values = rng.sample(POOL, rng.randint(1, 3))
            Z = PointSetVariety(lam, [tuple(rng.choice(values) for _ in range(lam.length))
                                      for _ in range(rng.randint(1, 2))])
            mu = C(mu_p)
            assert _gamma_points(Z.tables, mu) == oracle_gamma(lam, Z, mu), (Z.points, mu)
            seen.add("longer" if mu.length > lam.length else "not longer")
            seen.add("above e" if any(e < w < INF for w in mu_p.parts) else "within e")
            seen.add("repeats" if any(len(set(p)) < len(p) for p in Z.points) else "distinct")
    assert len(seen) == 6
