"""Generator synthesis for the defining ideals and equation-based membership."""

import itertools
import random
from fractions import Fraction

import pytest

from symvar.equations import (
    IdealGenerator,
    capped_shapes,
    generator_orbit_vanishes,
    h_tableau,
    i_lambda,
    i_lambda_z,
    member_by_equations,
    reduce_generators,
)
from symvar.partitions import (
    INF,
    GenComposition,
    GenPartition,
    Tableau,
    mu_s,
    preceq,
    row_major_tableau,
)
from symvar.poly import Poly, PolyProduct, parse_poly, tvar, xvar
from symvar.selfcheck import (
    random_exact_domain_partition,
    random_inf_partition,
    random_point,
    random_variety,
)
from symvar.variety import FinitaryPoint, PointSetVariety, gamma_at, theta_member, type_of

from oracles import (
    equivalent_mod_relabeling,
    expand,
    generator_orbit_vanishes_brute,
    product_shape,
)

P = GenPartition.parse
C = GenComposition.from_partition


def reference_pair_block_product(n):
    """prod over 0 <= k,l <= n of (x_{n+1-k} - x_{2n+2-l})."""
    return PolyProduct(
        tuple(
            parse_poly(f"x{n + 1 - k} - x{2 * n + 2 - l}")
            for k in range(n + 1)
            for l in range(n + 1)
        )
    )


class TestHTableau:
    def test_triple(self):
        h = h_tableau(row_major_tableau(P("1,1,1")))
        reference = parse_poly("(x1 - x2)*(x2 - x3)*(x3 - x1)")
        assert equivalent_mod_relabeling(expand(h), reference)

    def test_pair_shape(self):
        h = h_tableau(row_major_tableau(P("2,2")))
        want = parse_poly("(x1 - x3)*(x1 - x4)*(x2 - x3)*(x2 - x4)")
        assert expand(h) == want

    def test_single_row_is_one(self):
        assert expand(h_tableau(row_major_tableau(P("4")))) == Poly.constant(1)

    def test_square_invariant_under_row_preserving_relabeling(self):
        from symvar.partitions import Tableau

        a = expand(h_tableau(Tableau([(1, 2), (3,)])))
        b = expand(h_tableau(Tableau([(2, 1), (3,)])))
        c = expand(h_tableau(Tableau([(3, 1), (2,)])))
        assert a * a == b * b
        assert equivalent_mod_relabeling(a, c)


class TestProductShape:
    def test_recovers_shapes(self):
        for lit in ["1,1,1", "2,2", "3,3,3,1", "4,4,4", "2,1"]:
            shape = P(lit)
            assert product_shape(h_tableau(row_major_tableau(shape))) == shape

    def test_rejects_non_multipartite(self):
        assert product_shape(PolyProduct((parse_poly("x1 - x2"), parse_poly("x3 - x4")))) is None
        assert product_shape(PolyProduct((parse_poly("x1 + x2"),))) is None
        assert product_shape(PolyProduct(())) is None


class TestILambda:
    def test_two_part_family_shapes(self):
        for n in range(1, 6):
            ideal = i_lambda(GenPartition([INF, n]))
            shapes = sorted(str(product_shape(g.product)) for g in ideal.generators)
            assert shapes == sorted(["1,1,1", f"{n + 1},{n + 1}"])

    def test_four_part_family_shapes(self):
        ideal = i_lambda(P("inf,inf,2,1"))
        shapes = sorted(str(product_shape(g.product)) for g in ideal.generators)
        assert shapes == sorted(["1,1,1,1,1", "2,2,2,2", "3,3,3,1", "4,4,4"])

    def test_single_infinite(self):
        ideal = i_lambda(P("inf"))
        assert len(ideal.generators) == 1
        assert equivalent_mod_relabeling(
            expand(ideal.generators[0].product), parse_poly("x1 - x2")
        )

    def test_requires_infinite_part(self):
        with pytest.raises(ValueError):
            i_lambda(P("2,1"))


class TestILambdaZ:
    def test_boolean_pair_generators(self):
        lam = P("inf,inf")
        Z = PointSetVariety(C(lam), [(0, 1), (1, 0)])
        ideal = i_lambda_z(lam, Z)
        displays = [
            parse_poly("(x1 - x2)*(x2 - x3)*(x3 - x1)"),
            parse_poly("(x1 - x2)*(x1*(x1 - 1))"),
            parse_poly("(x1 - x2)*(x2*(x2 - 1))"),
            parse_poly("x1*(x1 - 1)"),
        ]
        ours = [expand(g.product) for g in ideal.generators]
        for pg in displays:
            assert any(equivalent_mod_relabeling(pg, og) for og in ours)

    def test_single_point_single_slot(self):
        lam = P("inf")
        Z = PointSetVariety(C(lam), [(Fraction(5),)])
        ideal = i_lambda_z(lam, Z)
        expanded = [expand(g.product) for g in ideal.generators]
        assert any(equivalent_mod_relabeling(e, parse_poly("x1 - 5")) for e in expanded)
        assert any(equivalent_mod_relabeling(e, parse_poly("x1 - x2")) for e in expanded)

    def test_provenance_total(self):
        lam = P("inf,1")
        Z = PointSetVariety(C(lam), [(0, 1)])
        ideal = i_lambda_z(lam, Z)
        for g in ideal.generators:
            assert g.origin[0] in ("excluded", "slice")
            assert g.provenance()

    def test_distinctness_required(self):
        lam = P("inf,inf")
        Z = PointSetVariety(C(lam), [(0, 0)])
        with pytest.raises(ValueError):
            i_lambda_z(lam, Z)

    def test_empty_slice_contributes_bare_tableau(self):
        # a variety whose values cannot repeat leaves deep slices empty
        lam = P("inf,inf")
        Z = PointSetVariety(C(lam), [])
        ideal = i_lambda_z(lam, Z)
        assert any(g.origin[0] == "slice" and g.tail is None for g in ideal.generators)

    def test_saturated_slices_match_capped_slices(self):
        # the slice over a capped shape equals the slice over its saturation
        lam = P("inf,1")
        Z = PointSetVariety(C(lam), [(0, 1)])
        e = lam.finite_weight
        for mu in capped_shapes(lam):
            a = gamma_at(C(lam), Z, C(mu))
            b = gamma_at(C(lam), Z, C(mu_s(mu, e)))
            assert set(a.points) == set(b.points), mu


def eager_product(rows, tail):
    """The product as IdealGenerator built it in its constructor before it
    became lazy: h_tableau times one tail copy per choice of a cell in each
    row the tail mentions."""
    product = h_tableau(Tableau(rows))
    if tail is not None:
        used = sorted(i - 1 for fam, i in tail.variables() if fam == 1)
        for combo in itertools.product(*(rows[i] for i in used)):
            product = product * tail.subs_vars(
                {tvar(i + 1): xvar(cell) for i, cell in zip(used, combo)})
    return product


class TestLazyProduct:
    CASES = [
        ("inf,inf", [(0, 1), (1, 0)]),
        ("inf,1", [(Fraction(1, 2), Fraction(-3, 7))]),
        ("inf,inf,1", [(0, 2, 5), (Fraction(1, 3), 2, -1)]),
        ("inf,2,1", [(1, 2, 3)]),
    ]

    def test_equals_eager_construction(self):
        for text, pts in self.CASES:
            lam = P(text)
            for g in i_lambda_z(lam, PointSetVariety(C(lam), pts)).generators:
                want = eager_product(g.rows, g.tail)
                assert g.product == want
                assert str(g.product) == str(want)
                assert g.product is g.product  # built once, then kept

    def test_equality_and_hash_follow_the_product(self):
        lam = P("inf,1")
        Z = PointSetVariety(C(lam), [(0, 1)])
        gens = i_lambda_z(lam, Z).generators
        again = i_lambda_z(lam, Z).generators
        for g, h in zip(gens, again):
            assert g == h and hash(g) == hash(h) == hash(eager_product(g.rows, g.tail))
        # provenance is not part of equality
        g = next(g for g in gens if g.tail is not None)
        relabeled = IdealGenerator(g.rows, g.tail, ("slice", P("1"), Poly.constant(7)))
        assert relabeled == g and hash(relabeled) == hash(g)
        assert len(set(gens)) == len({eager_product(g.rows, g.tail) for g in gens})

    def test_tail_without_a_row_is_rejected_up_front(self):
        with pytest.raises(ValueError):
            IdealGenerator(((1, 2),), parse_poly("t2 - 1"), ("slice", P("2"), None))


class TestMembership:
    def test_two_part_membership(self):
        for n in (1, 2, 3):
            lam = GenPartition([INF, n])
            ideal = i_lambda(lam)
            for a in range(0, n + 2):
                classes = [(Fraction(0), INF)] + ([(Fraction(1), a)] if a else [])
                x = FinitaryPoint(classes)
                assert member_by_equations(ideal, x) == (a <= n)

    def test_boolean_pair_point_membership(self):
        lam = P("inf,inf")
        Z = PointSetVariety(C(lam), [(0, 1), (1, 0)])
        ideal = i_lambda_z(lam, Z)
        assert member_by_equations(ideal, FinitaryPoint.parse("0^inf,1^inf")) is True
        assert member_by_equations(ideal, FinitaryPoint.parse("0^inf,2^1")) is False

    def test_width_generator_rejects(self):
        ideal = i_lambda(P("inf"))
        assert member_by_equations(ideal, FinitaryPoint.parse("0^inf,1^1")) is False

    def test_member_kept_on_counterexample_instances(self):
        # instances where first-label slice tails would wrongly reject
        lam = P("inf,1")
        Z = PointSetVariety(C(lam), [(0, 1)])
        ideal = i_lambda_z(lam, Z)
        assert member_by_equations(ideal, FinitaryPoint.parse("0^inf,1^1")) is True
        assert member_by_equations(ideal, FinitaryPoint.parse("1^inf")) is False

        lam4 = P("inf,4")
        Z4 = PointSetVariety(C(lam4), [(-1, 1)])
        ideal4 = i_lambda_z(lam4, Z4)
        for k in range(0, 7):
            classes = [(Fraction(-1), INF)] + ([(Fraction(1), k)] if k else [])
            x = FinitaryPoint(classes)
            assert member_by_equations(ideal4, x) == (k <= 4)

    def test_structured_matches_brute(self):
        lam = P("inf,1")
        Z = PointSetVariety(C(lam), [(0, 1)])
        gens = i_lambda_z(lam, Z).generators + i_lambda(P("inf,inf")).generators
        points = [
            FinitaryPoint.parse(lit)
            for lit in ["0^inf,1^1", "0^inf,1^inf", "0^inf,2^1", "1^inf,0^2", "0^inf"]
        ]
        for g in gens:
            for x in points:
                assert generator_orbit_vanishes(g, x) == generator_orbit_vanishes_brute(g, x)


class TestOracleEquivalences:
    def test_type_locus_battery(self):
        rng = random.Random(2025)
        for _ in range(80):
            lam = random_inf_partition(rng)
            x = random_point(rng)
            got = member_by_equations(i_lambda(lam), x)
            assert got == preceq(type_of(x), lam), (lam, x)

    def test_classified_set_battery(self):
        rng = random.Random(31337)
        for _ in range(40):
            lam = random_exact_domain_partition(rng)
            Z = random_variety(rng, lam)
            x = random_point(rng, max_width=4)
            got = member_by_equations(i_lambda_z(lam, Z), x)
            want = theta_member(C(lam), Z, x)
            assert got == want, (lam, Z.points, x)


class TestReduce:
    def test_reduction_drops_redundant(self):
        # the three products with the difference factor lie in the orbit
        # ideal of the bare quadratic; the heuristic finds them redundant
        lam = P("inf,inf")
        Z = PointSetVariety(C(lam), [(0, 1), (1, 0)])
        ideal = i_lambda_z(lam, Z)
        rng = random.Random(4)
        battery = [random_point(rng, max_width=4) for _ in range(40)]
        reduced = reduce_generators(ideal, battery)
        assert len(reduced.generators) < len(ideal.generators)
        for x in battery:
            assert member_by_equations(reduced, x) == member_by_equations(ideal, x)
