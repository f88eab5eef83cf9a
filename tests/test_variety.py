"""Finitary points, point actions, the closure calculus, membership."""

import itertools
import random
from fractions import Fraction

import pytest

from symvar.corr import CompMap, Correspondence, apply_corr
from symvar.partitions import INF, GenComposition, GenPartition, preceq
from symvar.selfcheck import discriminant
from symvar.variety import (
    DistinctnessError,
    FinitaryPoint,
    PointSetVariety,
    contains,
    end_closure,
    gamma_at,
    theta_member,
    type_of,
    variety_from_json,
)

from oracles import arrangements, aut, identity_correspondence, orbit_evaluations
from test_golden_cli import COMMANDS, FILES

P = GenPartition.parse
C = GenComposition.from_partition


class TestFinitaryPoint:
    def test_type_example(self):
        x = FinitaryPoint.parse("3^3,5^2,6^inf,7^inf")
        assert type_of(x) == P("inf,inf,3,2")

    def test_constant_point(self):
        assert type_of(FinitaryPoint.parse("4^inf")) == P("inf")

    def test_sorted_multiplicities(self):
        x = FinitaryPoint.parse("0^inf,1^3,2^inf")
        assert type_of(x) == P("inf,inf,3")

    def test_needs_infinite_class(self):
        with pytest.raises(ValueError):
            FinitaryPoint(((Fraction(0), 3),))

    def test_distinct_values(self):
        with pytest.raises(ValueError):
            FinitaryPoint(((0, INF), (0, 2)))

    def test_literal_round_trip(self):
        for lit in ["0^inf,1^3", "1/2^inf,-1^2,3^inf"]:
            x = FinitaryPoint.parse(lit)
            assert FinitaryPoint.parse(str(x)) == x

    def test_keyed_pairs_match_classes(self):
        x = FinitaryPoint([(Fraction(6, 2), 2), (Fraction(-1, 2), INF), (0, INF)])
        assert x.classes == ((Fraction(-1, 2), INF), (0, INF), (3, 2))
        assert [type(k) for k, _ in x.classes] == [Fraction, int, int]
        assert str(x) == "-1/2^inf,0^inf,3^2"
        with pytest.raises(AttributeError, match="immutable"):
            x.classes = ()

    @pytest.mark.parametrize("mult", [True, False, 0, -1, 2.0, "3"])
    def test_multiplicity_is_a_positive_weight(self, mult):
        with pytest.raises(ValueError, match="weight must be"):
            FinitaryPoint([(0, INF), (1, mult)])

    @pytest.mark.parametrize("value", [0.1, 2.0, True, "1/2", None])
    def test_values_are_ints_or_fractions(self, value):
        with pytest.raises(ValueError, match="an int or a Fraction"):
            FinitaryPoint([(value, INF)])
        with pytest.raises(ValueError, match="an int or a Fraction"):
            PointSetVariety(C(P("inf,1")), [(0, value)])


class TestWidth:
    def test_examples(self):
        x = FinitaryPoint.parse("0^inf,1^inf")
        assert x.width <= 2 and not x.width <= 1

    def test_agrees_with_discriminant_vanishing(self):
        rng = random.Random(3)
        pool = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1)]
        for _ in range(12):
            w = rng.randint(1, 3)
            values = rng.sample(pool, w)
            classes = [(v, INF if i == 0 else rng.choice([INF, 1, 2])) for i, v in enumerate(values)]
            x = FinitaryPoint(classes)
            for n in range(1, 4):
                vanishes = orbit_evaluations(discriminant(n + 1), x.classes) == [0]
                assert (x.width <= n) == vanishes


class TestApplyCorr:
    def test_identity_correspondence(self):
        lam = C(P("inf,1"))
        S = PointSetVariety(lam, [(0, 1), (2, 3)])
        assert apply_corr(identity_correspondence(lam), S) == S

    def test_empty(self):
        lam = C(P("inf,1"))
        S = PointSetVariety(lam, [])
        assert len(apply_corr(identity_correspondence(lam), S)) == 0

    def test_set_over_another_source_rejected(self):
        S = PointSetVariety(C(P("inf,inf")), [(0, 1)])
        with pytest.raises(ValueError, match="^point set does not live over the correspondence source$"):
            apply_corr(identity_correspondence(C(P("inf,1"))), S)

    def test_two_leg_correspondence_action(self):
        lam = C(P("inf,2,1,1"))
        rho = C(P("inf,1,1,1,1"))
        f1 = CompMap(rho, lam, {1: 1, 2: 2, 3: 2, 4: 3, 5: 4})
        f2 = CompMap(rho, lam, {1: 1, 2: 3, 3: 4, 4: 2, 5: 2})
        corr = Correspondence(rho, f1, f2)
        Ze = end_closure(lam, PointSetVariety(lam, [(1, 2, 3, 3)]))
        image = apply_corr(corr, Ze)
        assert (1, 3, 2, 2) in image


class TestEndClosure:
    def test_rearranged_point_missing(self):
        lam = C(P("inf,2,1,1"))
        Ze = end_closure(lam, PointSetVariety(lam, [(1, 2, 3, 3)]))
        assert (1, 3, 2, 2) not in Ze

    def test_idempotent(self):
        lam = C(P("inf,2,1,1"))
        Ze = end_closure(lam, PointSetVariety(lam, [(1, 2, 3, 3)]))
        assert end_closure(lam, Ze) == Ze

    def test_two_infinite_slots(self):
        lam = C(P("inf,inf"))
        Ze = end_closure(lam, PointSetVariety(lam, [(0, 1)]))
        assert set(Ze.points) == {(0, 1), (1, 0), (0, 0), (1, 1)}

    def test_stable_set_fixed(self):
        lam = C(P("inf,inf"))
        Z = PointSetVariety(lam, [(0, 0)])
        assert end_closure(lam, Z) == Z

    def test_set_over_another_lambda_rejected(self):
        Z = PointSetVariety(C(P("inf,inf")), [(0, 1)])
        with pytest.raises(ValueError, match="^point set does not live over lam$"):
            end_closure(C(P("inf,1")), Z)


class TestPointSetKeys:
    def test_keys_match_points(self):
        lam = C(P("inf,inf,1"))
        Z = PointSetVariety(lam, [(Fraction(4, 2), Fraction(1, 3), 0), (-1, 2, Fraction(5))])
        assert Z.keys == Z.points
        assert [[type(k) for k in ks] for ks in Z.keys] == [[int, int, int], [int, Fraction, int]]
        assert Z.distinct is True
        assert Z.tables == ({-1: INF, 2: INF, 5: 1}, {2: INF, Fraction(1, 3): INF, 0: 1})
        for name in ("keys", "tables", "distinct"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(Z, name, ())


    def test_room_of_a_repeated_value_sums_its_weights(self):
        Z = PointSetVariety(C(P("inf,1,1")), [(5, 0, 0), (1, 2, 3), (4, 4, Fraction(8, 2))])
        assert Z.tables == ({1: INF, 2: 1, 3: 1}, {4: INF}, {5: INF, 0: 2})
        assert Z.distinct is False


class TestGammaAt:
    def setup_method(self):
        self.lam = C(P("inf,inf"))
        self.Z = PointSetVariety(self.lam, [(0, 1), (1, 0)])

    def test_known_slices(self):
        g11 = gamma_at(self.lam, self.Z, C(P("1,1")))
        assert set(g11.points) == {(0, 1), (1, 0), (0, 0), (1, 1)}
        g1 = gamma_at(self.lam, self.Z, C(P("1")))
        assert set(g1.points) == {(0,), (1,)}

    def test_only_the_room_tables_are_built_late(self):
        g = gamma_at(self.lam, self.Z, C(P("1,1")))
        with pytest.raises(AttributeError, match="^no_such_slot$"):
            g.no_such_slot

    def test_strictly_contains_end_closure(self):
        lam = C(P("inf,2,1,1"))
        Z = PointSetVariety(lam, [(1, 2, 3, 3)])
        g = gamma_at(lam, Z, lam)
        assert (1, 3, 2, 2) in g

    def test_monotone_in_z(self):
        small = PointSetVariety(self.lam, [(0, 1)])
        for mu in [C(P("1,1")), C(P("inf,1")), C(P("inf,inf"))]:
            a = set(gamma_at(self.lam, small, mu).points)
            b = set(gamma_at(self.lam, self.Z, mu).points)
            assert a <= b

    def test_principal_surjection_compatibility(self):
        # points of the finer slice constant on the fibers of a principal
        # surjection collapse exactly onto the coarser slice
        mu = C(P("inf,1,1"))
        nu = C(P("inf,2"))
        f = CompMap(mu, nu, {1: 1, 2: 2, 3: 2})
        assert f.is_principal
        fine = gamma_at(self.lam, self.Z, mu)
        coarse = gamma_at(self.lam, self.Z, nu)
        collapsed = {
            (p[0], p[1]) for p in fine.points if p[1] == p[2]
        }
        assert collapsed == set(coarse.points)

    def test_restriction_is_aut_orbit(self):
        g = gamma_at(self.lam, self.Z, self.lam)
        distinct = {p for p in g.points if len(set(p)) == len(p)}
        expected = set()
        for t in aut(self.lam):
            for z in self.Z.points:
                expected.add(tuple(z[t[k] - 1] for k in self.lam.labels))
        assert distinct == expected

    def test_empty_z(self):
        empty = PointSetVariety(self.lam, [])
        assert len(gamma_at(self.lam, empty, C(P("1,1")))) == 0


def _golden_gamma_inputs():
    """(lambda, Z, mu) of each golden ``gamma`` command, once each."""
    out = []
    for argv in COMMANDS:
        if argv[0] == "gamma":
            case = tuple(a for a in argv[1:] if a != "--json")
            if case not in out:
                out.append(case)
    return out


def _outcome(f, *args):
    """What a call answers: its value, or the type and text of its error."""
    try:
        return "ok", f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("lam_text, name, mu_text", _golden_gamma_inputs())
class TestSliceTables:
    """A slice builds its room tables only when they are read, and then
    answers as a set the constructor built from its points."""

    def _slice(self, name, mu_text):
        Z = variety_from_json(FILES[name])
        mu = C(P(mu_text))
        return Z, mu, gamma_at(Z.lam, Z, mu)

    def test_tables_built_on_first_read(self, lam_text, name, mu_text):
        Z, mu, result = self._slice(name, mu_text)
        assert Z.lam.shape() == P(lam_text)
        for slot in ("tables", "distinct"):
            with pytest.raises(AttributeError):
                object.__getattribute__(result, slot)
        copy = PointSetVariety(mu, result.points)
        assert result.keys == copy.keys
        assert result.tables == copy.tables
        assert result.distinct is copy.distinct
        assert result == copy and hash(result) == hash(copy)

    def test_queries_answer_as_on_a_constructed_copy(self, lam_text, name, mu_text):
        Z, mu, result = self._slice(name, mu_text)
        copy = PointSetVariety(mu, result.points)
        values = sorted({v for p in result.points for v in p})[:3] + [Fraction(-9, 7)]
        xs = [FinitaryPoint(zip(vals, mults))
              for width in (1, 2)
              for vals in itertools.permutations(values, width)
              for mults in itertools.product((INF, 1, 2), repeat=width) if INF in mults]
        for x in xs:
            assert _outcome(theta_member, mu, result, x) == _outcome(theta_member, mu, copy, x)
        for S, T in ((result, copy), (copy, result)):
            assert _outcome(contains, mu, S, mu, S) == _outcome(contains, mu, T, mu, T)
            assert _outcome(contains, mu, S, Z.lam, Z) == _outcome(contains, mu, T, Z.lam, Z)
        for nu in (mu, C(P("inf,1")), C(P("1,1"))):
            got, want = (_outcome(lambda S: gamma_at(mu, S, nu).points, S)
                         for S in (result, copy))
            assert got == want

    def test_a_repeated_value_is_not_distinct(self, lam_text, name, mu_text):
        _, _, result = self._slice(name, mu_text)
        if any(len(set(p)) < len(p) for p in result.points):
            with pytest.raises(DistinctnessError):
                result.require_distinct()
        else:
            result.require_distinct()


def test_a_golden_slice_repeats_a_value():
    Z = variety_from_json(FILES["zrep.json"])
    mu = C(P("inf,2"))
    result = gamma_at(Z.lam, Z, mu)
    assert result.points == ((0, 0), (0, 1), (2, 2))
    with pytest.raises(DistinctnessError):
        theta_member(mu, result, FinitaryPoint.parse("0^inf"))


class TestThetaMember:
    def test_boolean_pair_membership(self):
        lam = C(P("inf,inf"))
        Z = PointSetVariety(lam, [(0, 1), (1, 0)])
        assert theta_member(lam, Z, FinitaryPoint.parse("0^inf,1^inf")) is True
        assert theta_member(lam, Z, FinitaryPoint.parse("0^inf,1^inf,2^1")) is False
        assert theta_member(lam, Z, FinitaryPoint.parse("0^inf")) is True

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_bound(self, n):
        lam = C(GenPartition([INF, n]))
        Z = PointSetVariety(lam, [(0, 1)])
        ok = FinitaryPoint(((Fraction(0), INF), (Fraction(1), n)))
        too_many = FinitaryPoint(((Fraction(0), INF), (Fraction(1), n + 1)))
        assert theta_member(lam, Z, ok) is True
        assert theta_member(lam, Z, too_many) is False

    def test_false_when_type_not_below(self):
        rng = random.Random(12)
        lam = C(P("inf,2"))
        Z = PointSetVariety(lam, [(0, 1)])
        for _ in range(15):
            w = rng.randint(1, 4)
            pool = [Fraction(i) for i in range(6)]
            values = rng.sample(pool, w)
            classes = [(v, INF if i == 0 else rng.randint(1, 4)) for i, v in enumerate(values)]
            x = FinitaryPoint(classes)
            if not preceq(type_of(x), lam.shape()):
                assert theta_member(lam, Z, x) is False

    def test_distinctness_enforced(self):
        lam = C(P("inf,inf"))
        Z = PointSetVariety(lam, [(0, 0)])
        with pytest.raises(DistinctnessError):
            theta_member(lam, Z, FinitaryPoint.parse("0^inf"))

    def test_empty_z_rejects_all(self):
        lam = C(P("inf,inf"))
        Z = PointSetVariety(lam, [])
        assert theta_member(lam, Z, FinitaryPoint.parse("0^inf")) is False


class TestContains:
    def test_one_one(self):
        Za = PointSetVariety(C(P("inf,1")), [(0, 1)])
        Zb = PointSetVariety(C(P("inf,2")), [(0, 1)])
        assert contains(C(P("inf,1")), Za, C(P("inf,2")), Zb) is True
        assert contains(C(P("inf,2")), Zb, C(P("inf,1")), Za) is False

    def test_reflexive(self):
        Z = PointSetVariety(C(P("inf,1")), [(0, 1)])
        assert contains(C(P("inf,1")), Z, C(P("inf,1")), Z) is True

    def test_empty_contained(self):
        Z0 = PointSetVariety(C(P("inf,1")), [])
        Z = PointSetVariety(C(P("inf,2")), [(0, 1)])
        assert contains(C(P("inf,1")), Z0, C(P("inf,2")), Z) is True

    def test_preorder_on_samples(self):
        rng = random.Random(7)
        pool = [Fraction(0), Fraction(1), Fraction(2)]
        pairs = []
        for lit in ["inf,1", "inf,2", "inf"]:
            lam = C(P(lit))
            for _ in range(2):
                pts = {tuple(rng.sample(pool, lam.length)) for _ in range(rng.randint(1, 2))}
                pairs.append((lam, PointSetVariety(lam, pts)))
        for a_lam, a in pairs:
            assert contains(a_lam, a, a_lam, a)
        for (al, a), (bl, b), (cl, c) in [
            (pairs[i], pairs[j], pairs[k])
            for i in range(len(pairs))
            for j in range(len(pairs))
            for k in range(len(pairs))
        ][:80]:
            if contains(al, a, bl, b) and contains(bl, b, cl, c):
                assert contains(al, a, cl, c)

    def test_agreement_with_membership(self):
        # containment of classified sets must match pointwise membership of
        # the realizations of Z1's points
        lam1, lam2 = C(P("inf,1")), C(P("inf,2"))
        Z1 = PointSetVariety(lam1, [(0, 1)])
        Z2 = PointSetVariety(lam2, [(0, 1)])
        x = FinitaryPoint(((Fraction(0), INF), (Fraction(1), 1)))
        assert contains(lam1, Z1, lam2, Z2) == theta_member(lam2, Z2, x)


class TestVarietyFiles:
    def test_reads_integers_and_rationals(self):
        Z = PointSetVariety(C(P("inf,inf")), [(0, 1), (Fraction(1, 2), 3)])
        text = '{"lambda": ["inf", "inf"], "points": [[0, 1], ["1/2", 3]]}'
        assert variety_from_json(text) == Z

    def test_unsorted_weights_are_canonicalized(self):
        V = variety_from_json('{"lambda": [2, "inf"], "points": [["1/2", 1]]}')
        assert V.lam == C(P("inf,2"))
        assert V.points == ((Fraction(1), Fraction(1, 2)),)

    def test_bad_point_length(self):
        with pytest.raises(ValueError):
            variety_from_json('{"lambda": ["inf"], "points": [[1, 2]]}')

    def test_constructor_checks_point_length(self):
        lam = GenComposition.from_weights([INF, INF])
        with pytest.raises(ValueError, match="^each point needs one coordinate per label$"):
            PointSetVariety(lam, [(0, 1, 2)])


class TestWeightOrder:
    """Infinite weights first, then decreasing: the order of point classes,
    of variety-file coordinates and of arrangement blocks."""

    def test_point_classes(self):
        x = FinitaryPoint.parse("1^2,5^inf,3^2,0^inf,2^7")
        assert str(x) == "0^inf,5^inf,2^7,1^2,3^2"

    def test_variety_file_coordinates(self):
        # equal weights keep their order in the file
        V = variety_from_json(
            '{"lambda": [2, "inf", 2, "inf", 1], "points": [[10, 11, 12, 13, 14]]}'
        )
        assert V.lam == C(P("inf,inf,2,2,1"))
        assert V.points == ((11, 13, 10, 12, 14),)

    def test_arrangement_blocks(self):
        # labels list the finite weight first; the infinite block still
        # leads the product, so the finite block varies fastest
        mu = GenComposition({1: 3, 2: INF, 3: 3, 4: INF})
        x = FinitaryPoint.parse("0^inf,1^inf,2^3,3^3")
        assert list(arrangements(x, mu)) == [
            (2, 0, 3, 1), (3, 0, 2, 1), (2, 1, 3, 0), (3, 1, 2, 0),
        ]
