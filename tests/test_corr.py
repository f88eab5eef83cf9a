"""Maps of compositions, pullback squares, correspondences."""

import itertools
import random

import pytest

from symvar.corr import (
    CompMap,
    Correspondence,
    compose,
    enumerate_end,
    enumerate_good,
    factor,
    pullback_square,
    pushforward,
)
from symvar.partitions import INF, GenComposition, GenPartition
from symvar.selfcheck import random_composition, random_map_onto
from symvar.variety import PointSetVariety, apply_corr

from oracles import is_good

P = GenPartition.parse
C = GenComposition.from_partition


class TestCompMap:
    def test_weight_condition_enforced(self):
        lam, mu = C(P("inf,1")), C(P("inf"))
        CompMap(lam, mu, {1: 1, 2: 1})  # fine: inf + 1 <= inf
        with pytest.raises(ValueError):
            CompMap(mu, C(P("3")), {1: 1})  # inf > 3

    def test_flags(self):
        lam = C(P("inf,1"))
        f = CompMap(lam, C(P("inf")), {1: 1, 2: 1})
        assert f.is_principal and not f.is_injection
        g = CompMap(C(P("2,1")), C(P("4,4")), {1: 1, 2: 2})
        assert g.is_injection and not g.is_principal


class TestPushforward:
    def test_collapse(self):
        f = CompMap(C(P("inf,1")), C(P("inf")), {1: 1, 2: 1})
        assert pushforward(f) == C(P("inf"))

    def test_all_to_one(self):
        f = CompMap(C(P("1,1,1")), C(P("3")), {1: 1, 2: 1, 3: 1})
        assert pushforward(f) == C(P("3"))

    def test_injection_drops_unhit(self):
        f = CompMap(C(P("2,1")), C(P("4,4")), {1: 1, 2: 2})
        assert pushforward(f) == GenComposition({1: 2, 2: 1})


class TestFactor:
    def test_injective_map_gives_iso_h(self):
        f = CompMap(C(P("2,1")), C(P("4,4")), {1: 1, 2: 2})
        h, g = factor(f)
        assert h.then(g) == f and h.is_injection and h.is_principal

    def test_principal_gives_iso_g(self):
        f = CompMap(C(P("inf,1")), C(P("inf")), {1: 1, 2: 1})
        h, g = factor(f)
        assert h.then(g) == f and g.is_injection and g.is_principal

    def test_two_to_one_factorization(self):
        f = CompMap(C(P("1,1")), C(P("5,2")), {1: 2, 2: 2})
        h, g = factor(f)
        assert h.then(g) == f
        assert h.codomain == GenComposition({2: 2})
        assert h.is_principal and g.is_injection

    def test_exhaustive_small_sweep(self):
        # all maps between compositions with <= 3 labels drawn from a pool
        pool = [C(P(t)) for t in ["inf", "inf,1", "inf,2", "inf,inf", "2,1,inf"]]
        count = 0
        for dom in pool:
            for cod in pool:
                for images in itertools.product(cod.labels, repeat=dom.length):
                    table = dict(zip(dom.labels, images))
                    ok = all(
                        sum(dom.weight(i) for i in table if table[i] == j)
                        <= cod.weight(j)
                        for j in cod.labels
                    )
                    if not ok:
                        continue
                    f = CompMap(dom, cod, table)
                    h, g = factor(f)
                    assert h.then(g) == f and h.is_principal and g.is_injection
                    count += 1
        assert count > 50


class TestPullbackSquare:
    def test_frozen_recursion_output(self):
        mu = C(P("inf,8"))
        mu1 = C(P("inf,6,2"))
        mu2 = C(P("inf,4,4"))
        f1 = CompMap(mu1, mu, {1: 1, 2: 2, 3: 2})
        f2 = CompMap(mu2, mu, {1: 1, 2: 2, 3: 2})
        wmu, g1, g2 = pullback_square(f1, f2)
        # frozen output of the deterministic largest-first recursion
        assert wmu.shape() == P("inf,4,2,2")
        assert g1.then(f1) == g2.then(f2)
        assert g1.is_principal  # f2 is a principal surjection

    def test_identity_second_leg(self):
        mu = C(P("inf,3"))
        f1 = CompMap(C(P("inf,2,1")), mu, {1: 1, 2: 2, 3: 2})
        f2 = CompMap.identity(mu)
        wmu, g1, g2 = pullback_square(f1, f2)
        assert g1.then(f1) == g2.then(f2)
        assert g1.is_principal and g1.is_injection  # identity is both

    def test_both_identity(self):
        mu = C(P("inf,3"))
        ident = CompMap.identity(mu)
        wmu, g1, g2 = pullback_square(ident, ident)
        assert wmu.shape() == mu.shape()

    def test_double_infinity_principality(self):
        mu = C(P("inf"))
        f1 = CompMap(C(P("inf,inf")), mu, {1: 1, 2: 1})
        f2 = CompMap(C(P("inf,3")), mu, {1: 1, 2: 1})
        _, g1, _ = pullback_square(f1, f2)
        assert g1.is_principal

    def test_random_squares_properties(self):
        rng = random.Random(411)
        done = 0
        for t in range(120):
            mu = random_composition(rng)
            flavor = t % 3
            f1 = random_map_onto(rng, mu)
            f2 = random_map_onto(rng, mu, principal=(flavor == 0), injection=(flavor == 1))
            wmu, g1, g2 = pullback_square(f1, f2)
            assert g1.then(f1) == g2.then(f2)
            if f2.is_principal:
                assert g1.is_principal
            if f2.is_injection:
                assert g1.is_injection
            done += 1
        assert done == 120


class TestEnumerateEnd:
    def test_counts(self):
        assert len(enumerate_end(C(P("inf")))) == 1
        assert len(enumerate_end(C(P("inf,inf")))) == 4

    def test_inf_one_by_exhaustion(self):
        # oracle: all 4 functions on two labels, keep the weight-respecting
        lam = C(P("inf,1"))
        valid = []
        for images in itertools.product([1, 2], repeat=2):
            table = dict(zip([1, 2], images))
            if all(
                sum(lam.weight(i) for i in table if table[i] == j) <= lam.weight(j)
                for j in set(images)
            ):
                valid.append(table)
        assert len(valid) == 2
        assert [f.table for f in enumerate_end(lam)] == valid


def brute_force_good(mu, lam):
    """Independent enumerator: all small rho with explicit tables."""
    e = lam.finite_weight
    weight_pool = list(range(1, e + 1)) + [INF]
    keys = set()
    max_parts = mu.length * lam.length
    for m in range(1, max_parts + 1):
        for weights in itertools.product(weight_pool, repeat=m):
            rho_try = {i + 1: w for i, w in enumerate(weights)}
            for t1 in itertools.product(mu.labels, repeat=m):
                # principality screen before building objects
                ok = True
                for j in mu.labels:
                    s = sum(weights[i] for i in range(m) if t1[i] == j)
                    if s != mu.weight(j):
                        ok = False
                        break
                if not ok:
                    continue
                for t2 in itertools.product(lam.labels, repeat=m):
                    ok2 = all(
                        sum(weights[i] for i in range(m) if t2[i] == k)
                        <= lam.weight(k)
                        for k in lam.labels
                    )
                    if not ok2:
                        continue
                    rho = GenComposition(rho_try)
                    corr = Correspondence(
                        rho,
                        CompMap(rho, mu, dict(zip(rho.labels, t1))),
                        CompMap(rho, lam, dict(zip(rho.labels, t2))),
                    )
                    if is_good(corr):
                        keys.add(corr.canonical_key())
    return keys


class TestEnumerateGood:
    def test_identity_case(self):
        lam = C(P("inf"))
        goods = enumerate_good(lam, lam)
        assert len(goods) == 1

    @pytest.mark.parametrize("mu,lam", [("inf", "inf"), ("inf,1", "inf,1"), ("inf", "inf,1")])
    def test_matches_brute_force(self, mu, lam):
        mu, lam = C(P(mu)), C(P(lam))
        ours = {c.canonical_key() for c in enumerate_good(mu, lam)}
        assert ours == brute_force_good(mu, lam)

    def test_all_good_and_unique(self):
        mu = C(P("inf,2,1,1"))
        goods = enumerate_good(mu, mu)
        keys = [c.canonical_key() for c in goods]
        assert len(keys) == len(set(keys))
        assert all(is_good(c) for c in goods)

    def test_two_leg_combiner_present(self):
        lam = C(P("inf,2,1,1"))
        want = ((1, ((INF, 1),)), (2, ((1, 3), (1, 4))), (3, ((1, 2),)), (4, ((1, 2),)))
        assert any(c.canonical_key() == want for c in enumerate_good(lam, lam))

    def test_aut_relabeling_closure(self):
        mu = C(P("inf,inf"))
        goods = enumerate_good(mu, mu)
        keys = {c.canonical_key() for c in goods}
        swap = {1: 2, 2: 1}

        def relabel(key):
            return tuple(
                sorted(
                    (swap[i], tuple(sorted(((w, swap[k]) for w, k in fiber),
                                           key=lambda p: (-p[0], p[1]))))
                    for i, fiber in key
                )
            )

        assert {relabel(k) for k in keys} == keys


class TestCompose:
    def test_middle_mismatch_raises(self):
        a = Correspondence.identity(C(P("inf,1")))
        b = Correspondence.identity(C(P("inf,2")))
        with pytest.raises(ValueError):
            compose(a, b)

    def test_identity_neutrality_on_points(self):
        lam = C(P("inf,1"))
        ident = Correspondence.identity(lam)
        S = PointSetVariety(lam, [(0, 1), (2, 3)])
        for f in enumerate_good(lam, lam):
            left = apply_corr(compose(f, ident), S)
            assert apply_corr(f, S) == left

    def test_containment_under_composition(self):
        rng = random.Random(99)
        lam = C(P("inf,1"))
        goods = enumerate_good(lam, lam)
        for _ in range(30):
            f, g = rng.choice(goods), rng.choice(goods)
            h = compose(f, g)
            S = PointSetVariety(lam, [(0, 1), (1, 2)])
            via = apply_corr(f, apply_corr(g, S))
            assert set(via.points) <= set(apply_corr(h, S).points)
