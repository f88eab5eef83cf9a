"""Sparse polynomials, discriminants, extraction witnesses, vanishing ideals."""

import itertools
import random
from fractions import Fraction

import pytest

from symvar.partitions import INF
from symvar.poly import (
    ExtractionWitness,
    Poly,
    PolyProduct,
    apply_perm,
    discriminant,
    extract_discriminant,
    orbit_evaluations,
    parse_poly,
    replay_witness,
    skew_sum,
    vanishing_ideal,
    verify_witness,
)


def random_poly(rng, nvars=3, max_degree=3, terms=4):
    p = Poly.zero()
    for _ in range(rng.randint(1, terms)):
        deg = rng.randint(0, max_degree)
        mono = Poly.constant(1)
        for _ in range(deg):
            mono = mono * Poly.x(rng.randint(1, nvars))
        p = p + mono * rng.choice([-2, -1, 1, 2])
    return p


class TestDiscriminant:
    def test_base_cases(self):
        assert discriminant(1) == Poly.constant(1)
        assert discriminant(2) == Poly.x(2) - Poly.x(1)

    def test_three_variables_expansion(self):
        # oracle: multiply the three factors by hand
        want = (
            (Poly.x(2) - Poly.x(1))
            * (Poly.x(3) - Poly.x(1))
            * (Poly.x(3) - Poly.x(2))
        )
        got = discriminant(3)
        assert got == want
        assert len(got.terms) == 6

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            discriminant(0)


class TestApplyPerm:
    def test_identity(self):
        p = parse_poly("x1^2*x2 - x2 + 3/2")
        assert apply_perm({}, p) == p

    def test_antisymmetry(self):
        p = Poly.x(1) - Poly.x(2)
        assert apply_perm({1: 2, 2: 1}, p) == -p

    def test_relabeling(self):
        p = Poly.x(1) * Poly.x(2) ** 2
        assert apply_perm({1: 2, 2: 3, 3: 1}, p) == Poly.x(2) * Poly.x(3) ** 2

    def test_ring_homomorphism(self):
        rng = random.Random(5)
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            sigma = {1: 3, 3: 2, 2: 1}
            assert apply_perm(sigma, p + q) == apply_perm(sigma, p) + apply_perm(sigma, q)
            assert apply_perm(sigma, p * q) == apply_perm(sigma, p) * apply_perm(sigma, q)

    def test_sign_on_discriminant(self):
        d = discriminant(4)
        assert apply_perm({1: 2, 2: 1}, d) == -d
        assert apply_perm({1: 2, 2: 3, 3: 1}, d) == d  # 3-cycle is even

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            apply_perm({1: 2}, Poly.x(1))


class TestSkewSum:
    def test_degenerate(self):
        assert skew_sum(2, 0).is_zero
        assert skew_sum(2, 1) == discriminant(2)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_identity_all_n(self, n):
        for k in range(0, n):
            got = skew_sum(n, k)
            if k == n - 1:
                assert got == discriminant(n)
            else:
                assert got.is_zero

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            skew_sum(2, 2)


class TestExtraction:
    def test_difference(self):
        f = Poly.x(1) - Poly.x(2)
        w = extract_discriminant(f)
        assert w.n == 2
        assert replay_witness(f, w) == discriminant(2) * w.c

    def test_constant(self):
        w = extract_discriminant(Poly.constant(5))
        assert (w.c, w.n) == (5, 1) and not w.steps
        assert verify_witness(Poly.constant(5), w)

    def test_product_of_variables(self):
        f = Poly.x(1) * Poly.x(2)
        w = extract_discriminant(f)
        assert verify_witness(f, w)

    def test_corrupted_witness_fails(self):
        f = Poly.x(1) - Poly.x(2)
        w = extract_discriminant(f)
        bumped = ExtractionWitness(w.steps, w.c + 1, w.n)
        assert not verify_witness(f, bumped)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            extract_discriminant(Poly.zero())

    def test_t_variables_rejected(self):
        with pytest.raises(ValueError):
            extract_discriminant(Poly.t(1))

    def test_randomized_sweep(self):
        rng = random.Random(2024)
        done = 0
        while done < 30:
            f = random_poly(rng)
            if f.is_zero:
                continue
            w = extract_discriminant(f)
            assert verify_witness(f, w), f
            done += 1


class TestOrbitEvaluations:
    def test_single_variable(self):
        assert orbit_evaluations(Poly.x(1), [(0, INF), (1, 3)]) == [0, 1]

    def test_discriminant_pigeonhole(self):
        assert orbit_evaluations(discriminant(3), [(0, INF), (1, INF)]) == [0]

    def test_quadratic(self):
        p = Poly.x(1) * (Poly.x(1) - 1)
        assert orbit_evaluations(p, [(0, INF), (1, INF), (2, 1)]) == [0, 2]

    def test_matches_truncation_brute_force(self):
        rng = random.Random(17)
        for _ in range(15):
            p = random_poly(rng, nvars=2, max_degree=2)
            classes = [(Fraction(0), INF), (Fraction(1), 2), (Fraction(2), 1)]
            support = sorted(i for f, i in p.variables() if f == 0)
            k = len(support)
            # oracle: expand each class to min(mult, k) copies and evaluate
            # over all injections of the support into the copies
            values = []
            for v, m in classes:
                values.extend([v] * (k if m == INF else min(m, k)))
            brute = set()
            for chosen in itertools.permutations(values, k):
                brute.add(p.evaluate({(0, i): c for i, c in zip(support, chosen)}))
            if k == 0:
                brute = {p.evaluate({})}
            assert sorted(brute) == orbit_evaluations(p, classes)


class TestVanishingIdeal:
    def test_two_points_on_line(self):
        assert vanishing_ideal([(0,), (1,)]) == [parse_poly("t1^2 - t1")]

    def test_square(self):
        gens = vanishing_ideal([(0, 1), (1, 0), (0, 0), (1, 1)])
        assert {str(g) for g in gens} == {"t1^2 - t1", "t2^2 - t2"}

    def test_single_point(self):
        gens = vanishing_ideal([(Fraction(1, 2), 3)])
        assert {str(g) for g in gens} == {"t1 - 1/2", "t2 - 3"}

    def test_point_of_zero_length(self):
        # the ring of polynomials in no variables is Q: the ideal is zero
        assert vanishing_ideal([()]) == []

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vanishing_ideal([])

    def test_properties_random(self):
        rng = random.Random(88)
        pool = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1)]
        for _ in range(15):
            r = rng.randint(1, 3)
            pts = sorted({tuple(rng.choice(pool) for _ in range(r)) for _ in range(rng.randint(1, 6))})
            gens = vanishing_ideal(pts)
            for g in gens:
                for p in pts:
                    assert g.evaluate({(1, i + 1): c for i, c in enumerate(p)}) == 0
            outside = tuple(Fraction(7) for _ in range(r))
            assert any(
                g.evaluate({(1, i + 1): c for i, c in enumerate(outside)}) != 0
                for g in gens
            )


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "x1^2*x2 - x2 + 3/2",
            "t1^2 - t1",
            "-x1 + 2",
            "(x1 - x2)*(x1^2 - x1)",
            "5",
            "x12*t3 - 7/3",
        ],
    )
    def test_round_trip(self, text):
        q = parse_poly(text)
        assert parse_poly(str(q)) == q

    def test_canonical_order(self):
        assert str(parse_poly("3/2 - x2 + x2*x1^2")) == "x1^2*x2 - x2 + 3/2"

    def test_bad_syntax(self):
        for bad in ["x", "1 +", "x1^^2", "(x1", "x1 & x2"]:
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_product_round_trip(self):
        pp = PolyProduct((Poly.x(1) - Poly.x(2), parse_poly("x1^2 - x1")))
        assert parse_poly(str(pp)) == pp.expand()

    def test_empty_product(self):
        assert str(PolyProduct(())) == "1"
        assert PolyProduct(()).expand() == Poly.constant(1)
