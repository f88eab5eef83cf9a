"""Sparse polynomials, discriminants, extraction witnesses, vanishing ideals."""

import itertools
import random
from fractions import Fraction

import pytest

from symvar.equations import IdealGenerator
from symvar.partitions import INF, GenPartition
from symvar.poly import _format_terms, vanishing_ideal
from symvar.selfcheck import (
    ExtractionWitness,
    Poly,
    apply_perm,
    discriminant,
    extract_discriminant,
    perm_sign,
    random_poly,
    replay_witness,
    skew_sum,
    tvar,
    verify_witness,
    xvar,
)

from oracles import (
    eager_product,
    evaluate,
    expand,
    factor_poly,
    orbit_evaluations,
    perm_sign_by_cycles,
    terms_by_dense_key,
)


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
        p = Poly.x(1) ** 2 * Poly.x(2) - Poly.x(2) + Fraction(3, 2)
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


class TestPermSign:
    def test_matches_cycle_parity_on_every_small_permutation(self):
        for n in range(0, 7):
            for images in itertools.permutations(range(1, n + 1)):
                sigma = dict(zip(range(1, n + 1), images))
                assert perm_sign(sigma) == perm_sign_by_cycles(sigma), sigma
                # the same permutation with its fixed points left out
                moved = {i: j for i, j in sigma.items() if i != j}
                assert perm_sign(moved) == perm_sign(sigma), sigma

    def test_sparse_supports(self):
        cases = [{}, {5: 5}, {2: 9, 9: 2}, {3: 7, 7: 11, 11: 3}, {10: 4, 4: 1, 1: 10, 6: 8, 8: 6}]
        for sigma in cases:
            assert perm_sign(sigma) == perm_sign_by_cycles(sigma), sigma
        assert [perm_sign(s) for s in cases] == [1, 1, -1, 1, -1]


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
                brute.add(evaluate(p, {(0, i): c for i, c in zip(support, chosen)}))
            if k == 0:
                brute = {evaluate(p, {})}
            assert sorted(brute) == orbit_evaluations(p, classes)


class TestVanishingIdeal:
    def test_two_points_on_line(self):
        assert [factor_poly(g) for g in vanishing_ideal([(0,), (1,)])] == [Poly.t(1) ** 2 - Poly.t(1)]

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
            gens = [factor_poly(g) for g in vanishing_ideal(pts)]
            for g in gens:
                for p in pts:
                    assert evaluate(g, {(1, i + 1): c for i, c in enumerate(p)}) == 0
            outside = tuple(Fraction(7) for _ in range(r))
            assert any(
                evaluate(g, {(1, i + 1): c for i, c in enumerate(outside)}) != 0
                for g in gens
            )


class TestCoefficients:
    """Integer coefficients stay ints, others are Fractions, never floats."""

    def test_integer_polynomials_hold_ints(self):
        for p in (discriminant(3), (Poly.x(1) - Poly.x(2)) ** 2):
            assert p.terms and all(type(c) is int for c in p.terms.values())

    def test_rational_literal_holds_a_fraction(self):
        c = (Fraction(1, 2) * Poly.t(1)).terms[((tvar(1), 1),)]
        assert type(c) is Fraction and c == Fraction(1, 2)

    def test_float_is_stored_as_exact_fraction(self):
        c = Poly({(): 0.5}).terms[()]
        assert type(c) is Fraction and c == Fraction(1, 2)

    def test_int_and_fraction_coefficients_agree(self):
        ints = Poly({((xvar(1), 2),): 3, (): -1})
        fracs = Poly({((xvar(1), 2),): Fraction(3), (): Fraction(-1)})
        assert ints == fracs and hash(ints) == hash(fracs)
        assert str(ints) == str(fracs) == "3*x1^2 - 1"


class TestGrammar:
    """The printed form: terms in decreasing graded-lex order, signs
    between terms, and a factor-free generator printed as 1."""

    def test_canonical_order(self):
        x1, x2 = Poly.x(1), Poly.x(2)
        assert str(Fraction(3, 2) - x2 + x2 * x1**2) == "x1^2*x2 - x2 + 3/2"

    def test_terms_in_dense_key_order(self):
        # the printed terms, sign tokens between them, against the order of
        # a dense exponent key, on mixed x/t polynomials with rationals
        rng = random.Random(20)
        coeffs = [1, -1, 3, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(22, 7)]
        for _ in range(1000):
            terms = {}
            for _ in range(rng.randint(1, 7)):
                exps = {}
                for _ in range(rng.randint(0, 4)):
                    v = rng.choice((xvar, tvar))(rng.randint(1, 11))
                    exps[v] = exps.get(v, 0) + rng.randint(1, 3)
                terms[tuple(sorted(exps.items()))] = rng.choice(coeffs)
            p = Poly(terms)
            tokens = []
            for m, c in terms_by_dense_key(p):
                body = str(Poly({m: abs(c)}))
                if tokens:
                    tokens += ["-" if c < 0 else "+", body]
                else:
                    tokens.append(f"-{body}" if c < 0 else body)
            assert str(p) == " ".join(tokens)

    def test_custom_names(self):
        p = 3 * Poly.x(1) ** 2 * Poly.t(2) - Poly.t(2) + Poly.t(10) * Poly.x(4) + Fraction(1, 2)
        assert str(p) == "3*x1^2*t2 + x4*t10 - t2 + 1/2"
        assert (_format_terms(p.terms.items(), lambda v: f"{'ab'[v[0]]}[{v[1]}]")
                == "3*a[1]^2*b[2] + a[4]*b[10] - b[2] + 1/2")
        assert _format_terms([], lambda v: "y") == str(Poly.zero()) == "0"

    def test_empty_product(self):
        # a generator with no factors prints as 1 and expands to 1
        g = IdealGenerator("excluded", GenPartition.parse("3"))
        assert str(g) == "1"
        assert expand(eager_product(g)) == expand(()) == Poly.constant(1)
