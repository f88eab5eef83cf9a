"""Acceptance criteria: worked-example reproduction plus property batteries.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
all) and asserts its stated tolerance and time budget.
"""

import contextlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from symvar.corr import pullback_square
from symvar.equations import i_lambda, i_lambda_z, member_by_equations, random_point
from symvar.partitions import (
    INF,
    GenComposition,
    GenPartition,
    good_filling_exists,
    preceq,
)
from symvar.poly import vanishing_ideal
from symvar.selfcheck import (
    Poly,
    difference,
    discriminant,
    extract_discriminant,
    random_composition,
    random_exact_domain_partition,
    random_inf_partition,
    random_map_onto,
    random_poly,
    random_variety,
    skew_sum,
    verify_witness,
)
from symvar.variety import (
    FinitaryPoint,
    PointSetVariety,
    end_closure,
    gamma_at,
    theta_member,
)

from oracles import eager_product, equivalent_mod_relabeling, expand, product_shape
from test_golden_cli import run_cli

P = GenPartition.parse
C = GenComposition.from_partition


@contextlib.contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def reference_h_triple():
    return difference(1, 2) * difference(2, 3) * difference(3, 1)


def reference_h_pair_block(n):
    return tuple(
        difference(n + 1 - k, 2 * n + 2 - l)
        for k in range(n + 1)
        for l in range(n + 1)
    )


def reference_four_part_generators():
    h1 = tuple(difference(i, j) for i in range(1, 6) for j in range(i + 1, 6))
    h2 = tuple(
        difference(2 * i - k, 2 * j - l)
        for i in range(1, 5)
        for j in range(i + 1, 5)
        for k in range(2)
        for l in range(2)
    )
    h3 = tuple(difference(i, 10) for i in range(1, 10)) + tuple(
        difference(3 * i - k, 3 * j - l)
        for i in range(1, 4)
        for j in range(i + 1, 4)
        for k in range(3)
        for l in range(3)
    )
    h4 = tuple(
        difference(4 * i - k, 4 * j - l)
        for i in range(1, 4)
        for j in range(i + 1, 4)
        for k in range(4)
        for l in range(4)
    )
    return [h1, h2, h3, h4]


def test_criterion_1_two_part_type_loci():
    # a pure difference product with the complete cross-row pattern is
    # determined, up to sign and relabeling, by its row-size partition, so
    # shape certificates decide the large comparisons exactly
    with criterion(1, "two-part type-locus generators", budget=1.0):
        for n in range(1, 6):
            code, out, _ = run_cli("min-excluded", f"inf,{n}")
            assert code == 0
            assert out.splitlines() == sorted(["1,1,1", f"{n + 1},{n + 1}"])
            ideal = i_lambda(GenPartition([INF, n]))
            assert len(ideal.generators) == 2
            ours = {str(product_shape(eager_product(g))): g for g in ideal.generators}
            assert set(ours) == {"1,1,1", f"{n + 1},{n + 1}"}
            assert equivalent_mod_relabeling(
                expand(eager_product(ours["1,1,1"])), reference_h_triple()
            )
            assert product_shape(reference_h_pair_block(n)) == GenPartition([n + 1, n + 1])


def test_criterion_2_four_part_type_locus():
    with criterion(2, "four-part type-locus generators", budget=5.0):
        code, out, _ = run_cli("min-excluded", "inf,inf,2,1")
        assert code == 0
        assert out.splitlines() == ["1,1,1,1,1", "2,2,2,2", "3,3,3,1", "4,4,4"]
        ideal = i_lambda(P("inf,inf,2,1"))
        got_shapes = sorted(str(product_shape(eager_product(g))) for g in ideal.generators)
        reference_shapes = sorted(
            str(product_shape(h)) for h in reference_four_part_generators()
        )
        assert got_shapes == reference_shapes == sorted(
            ["1,1,1,1,1", "2,2,2,2", "3,3,3,1", "4,4,4"]
        )


def test_criterion_3_boolean_pair_classification():
    with criterion(3, "boolean-pair classification data"):
        lam = C(P("inf,inf"))
        Z = PointSetVariety(lam, [(0, 1), (1, 0)])
        g11 = gamma_at(lam, Z, C(P("1,1")))
        assert set(g11.points) == {(0, 1), (1, 0), (0, 0), (1, 1)}
        g1 = gamma_at(lam, Z, C(P("1")))
        assert set(g1.points) == {(0,), (1,)}
        assert {str(g) for g in vanishing_ideal(g11.points)} == {
            "t1^2 - t1",
            "t2^2 - t2",
        }
        assert {str(g) for g in vanishing_ideal(g1.points)} == {"t1^2 - t1"}
        ideal = i_lambda_z(P("inf,inf"), Z)
        ours = [expand(eager_product(g)) for g in ideal.generators]
        x1, x2 = Poly.x(1), Poly.x(2)
        displays = [
            reference_h_triple(),
            difference(1, 2) * (x1 * (x1 - 1)),
            difference(1, 2) * (x2 * (x2 - 1)),
            x1 * (x1 - 1),
        ]
        for pg in displays:
            assert any(equivalent_mod_relabeling(pg, og) for og in ours)


def test_criterion_4_type_locus_cross_oracle():
    with criterion(4, "type-locus cross-oracle (200 pairs)", budget=60.0):
        rng = random.Random(84)
        for _ in range(200):
            lam = random_inf_partition(rng)
            x = random_point(rng, max_width=5)
            got = member_by_equations(i_lambda(lam), x)
            want = preceq(type_of_point(x), lam)
            assert got == want, (lam, x)


def type_of_point(x):
    from symvar.variety import type_of

    return type_of(x)


def test_criterion_5_classified_set_cross_oracle():
    with criterion(5, "classified-set cross-oracle (100 triples)", budget=120.0):
        rng = random.Random(90125)
        trials = members = 0
        while trials < 100:
            lam = random_exact_domain_partition(rng)
            Z = random_variety(rng, lam)
            if rng.random() < 0.5:
                x = realization_of(rng, lam, Z)
                if x is None:
                    continue
            else:
                x = random_point(rng, max_width=4)
            trials += 1
            got = member_by_equations(i_lambda_z(lam, Z), x)
            want = theta_member(C(lam), Z, x)
            members += want
            assert got == want, (lam, Z.points, x)
        assert members >= 10  # both outcomes must actually occur
        assert trials - members >= 10


def realization_of(rng, lam, Z):
    z = rng.choice(Z.points)
    classes, used = [], set()
    for i, w in enumerate(lam.parts):
        v = z[i]
        if v in used:
            return None
        used.add(v)
        mult = w if w == INF else rng.choice([w, max(1, w - rng.randint(0, 2))])
        classes.append((v, mult))
    if rng.random() < 0.3 and Fraction(7) not in used:
        classes.append((Fraction(7), rng.randint(1, 2)))
    try:
        return FinitaryPoint(classes)
    except ValueError:
        return None


def test_criterion_6_filling_vs_grouping():
    with criterion(6, "filling order equals grouping order (exhaustive)"):
        vals = [1, 2, 3, INF]
        box = sorted(
            {GenPartition(c) for n in range(0, 5) for c in itertools.product(vals, repeat=n)},
            key=lambda q: (q.length, q.parts),
        )
        for mu in box:
            for lam in box:
                assert good_filling_exists(mu, lam) == preceq(mu, lam), (mu, lam)


def test_criterion_7_skew_identity():
    with criterion(7, "skew-sum identity (n <= 5, exact)"):
        for n in range(2, 6):
            for k in range(0, n):
                got = skew_sum(n, k)
                want = discriminant(n) if k == n - 1 else Poly.zero()
                assert got == want, (n, k)


def test_criterion_8_extraction_battery():
    with criterion(8, "discriminant extraction (50 witnesses, exact replay)"):
        rng = random.Random(271828)
        done = 0
        while done < 50:
            p = random_poly(rng)
            if p.is_zero:
                continue
            w = extract_discriminant(p)
            assert verify_witness(p, w), p
            done += 1


def test_criterion_9_pullback_properties():
    with criterion(9, "pullback squares (100 seeded)"):
        rng = random.Random(1618)
        for t in range(100):
            mu = random_composition(rng)
            flavor = t % 3
            f1 = random_map_onto(rng, mu)
            f2 = random_map_onto(
                rng, mu, principal=(flavor == 0), injection=(flavor == 1)
            )
            _, g1, g2 = pullback_square(f1, f2)
            assert g1.then(f1) == g2.then(f2)
            if f2.is_principal:
                assert g1.is_principal
            if f2.is_injection:
                assert g1.is_injection


def test_criterion_10_closure_regression():
    with criterion(10, "closure slice strictly above endomorphism closure"):
        lam = C(P("inf,2,1,1"))
        Z = PointSetVariety(lam, [(1, 2, 3, 3)])
        Ze = end_closure(lam, Z)
        assert (1, 3, 2, 2) not in Ze
        assert (1, 3, 2, 2) in gamma_at(lam, Z, lam)


def test_criterion_11_membership_semantics():
    with criterion(11, "membership semantics of the worked examples"):
        lam = C(P("inf,inf"))
        Z = PointSetVariety(lam, [(0, 1), (1, 0)])
        for lit in ["0^inf,1^inf", "0^inf,1^3", "0^inf", "1^inf"]:
            assert theta_member(lam, Z, FinitaryPoint.parse(lit)) is True, lit
        assert theta_member(lam, Z, FinitaryPoint.parse("0^inf,2^1")) is False
        for n in (1, 2, 3):
            lamn = C(GenPartition([INF, n]))
            Zn = PointSetVariety(lamn, [(0, 1)])
            accept = FinitaryPoint(((Fraction(0), INF), (Fraction(1), n)))
            reject = FinitaryPoint(((Fraction(0), INF), (Fraction(1), n + 1)))
            assert theta_member(lamn, Zn, accept) is True
            assert theta_member(lamn, Zn, reject) is False
