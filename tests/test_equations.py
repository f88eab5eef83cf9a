"""Generator synthesis for the defining ideals and equation-based membership."""

import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import symvar
from symvar import cli
from symvar.equations import (
    IdealGenerator,
    _orbits_vanish,
    _supports,
    capped_shapes,
    i_lambda,
    i_lambda_z,
    member_by_equations,
    random_point,
    reduce_generators,
)
from symvar.partitions import (
    INF,
    GenComposition,
    GenPartition,
    min_excluded,
    mu_s,
    preceq,
)
from symvar.poly import MonomialTable, SliceFactor
from symvar.selfcheck import (
    Poly,
    difference,
    random_exact_domain_partition,
    random_inf_partition,
    random_variety,
)
from symvar.variety import (
    FinitaryPoint,
    PointSetVariety,
    gamma_at,
    theta_member,
    type_of,
    variety_from_json,
)

from oracles import (
    by_block,
    eager_product,
    equivalent_mod_relabeling,
    expand,
    factor_from_poly,
    generator_orbit_vanishes_brute,
    h_tableau,
    ideal_of,
    orbits_vanish_by_masks,
    product_shape,
    supports_by_fits,
)
from test_golden_cli import FILES

P = GenPartition.parse
C = GenComposition.from_partition


def excluded(text):
    return IdealGenerator("excluded", P(text))


class TestHTableau:
    def test_triple(self):
        g = excluded("1,1,1")
        assert str(g) == "(x1 - x2)*(x1 - x3)*(x2 - x3)"
        reference = difference(1, 2) * difference(2, 3) * difference(3, 1)
        assert equivalent_mod_relabeling(expand(eager_product(g)), reference)

    def test_pair_shape(self):
        g = excluded("2,2")
        assert g.rows == ((1, 2), (3, 4))
        assert str(g) == "(x1 - x3)*(x1 - x4)*(x2 - x3)*(x2 - x4)"
        want = difference(1, 3) * difference(1, 4) * difference(2, 3) * difference(2, 4)
        assert expand(eager_product(g)) == want

    def test_single_row_is_one(self):
        g = excluded("4")
        assert str(g) == "1"
        assert expand(eager_product(g)) == Poly.constant(1)


class TestProductShape:
    def test_recovers_shapes(self):
        for lit in ["1,1,1", "2,2", "3,3,3,1", "4,4,4", "2,1"]:
            shape = P(lit)
            assert product_shape(h_tableau(excluded(lit).rows)) == shape

    def test_rejects_non_multipartite(self):
        assert product_shape((difference(1, 2), difference(3, 4))) is None
        assert product_shape((Poly.x(1) + Poly.x(2),)) is None
        assert product_shape(()) is None


class TestILambda:
    def test_two_part_family_shapes(self):
        for n in range(1, 6):
            ideal = i_lambda(GenPartition([INF, n]))
            shapes = sorted(str(product_shape(eager_product(g))) for g in ideal.generators)
            assert shapes == sorted(["1,1,1", f"{n + 1},{n + 1}"])

    def test_four_part_family_shapes(self):
        ideal = i_lambda(P("inf,inf,2,1"))
        shapes = sorted(str(product_shape(eager_product(g))) for g in ideal.generators)
        assert shapes == sorted(["1,1,1,1,1", "2,2,2,2", "3,3,3,1", "4,4,4"])

    def test_single_infinite(self):
        ideal = i_lambda(P("inf"))
        assert len(ideal.generators) == 1
        assert equivalent_mod_relabeling(
            expand(eager_product(ideal.generators[0])), difference(1, 2)
        )

    def test_requires_infinite_part(self):
        with pytest.raises(ValueError):
            i_lambda(P("2,1"))


class TestILambdaZ:
    def test_boolean_pair_generators(self):
        lam = P("inf,inf")
        Z = PointSetVariety(C(lam), [(0, 1), (1, 0)])
        ideal = i_lambda_z(lam, Z)
        x1, x2 = Poly.x(1), Poly.x(2)
        displays = [
            difference(1, 2) * difference(2, 3) * difference(3, 1),
            difference(1, 2) * (x1 * (x1 - 1)),
            difference(1, 2) * (x2 * (x2 - 1)),
            x1 * (x1 - 1),
        ]
        ours = [expand(eager_product(g)) for g in ideal.generators]
        for pg in displays:
            assert any(equivalent_mod_relabeling(pg, og) for og in ours)

    def test_single_point_single_slot(self):
        lam = P("inf")
        Z = PointSetVariety(C(lam), [(Fraction(5),)])
        ideal = i_lambda_z(lam, Z)
        expanded = [expand(eager_product(g)) for g in ideal.generators]
        assert any(equivalent_mod_relabeling(e, Poly.x(1) - 5) for e in expanded)
        assert any(equivalent_mod_relabeling(e, difference(1, 2)) for e in expanded)

    def test_provenance_total(self):
        lam = P("inf,1")
        Z = PointSetVariety(C(lam), [(0, 1)])
        ideal = i_lambda_z(lam, Z)
        for g in ideal.generators:
            assert g.kind in ("excluded", "slice")
            assert g.provenance()

    def test_distinctness_required(self):
        lam = P("inf,inf")
        Z = PointSetVariety(C(lam), [(0, 0)])
        with pytest.raises(ValueError):
            i_lambda_z(lam, Z)

    def test_finite_partition_is_refused(self):
        lam = P("2,1")
        with pytest.raises(ValueError, match="^i_lambda_z requires a partition with an infinite part$"):
            i_lambda_z(lam, PointSetVariety(C(lam), [(0, 1)]))

    def test_variety_over_another_composition_is_refused(self):
        Z = PointSetVariety(C(P("inf,inf")), [(0, 1)])
        with pytest.raises(ValueError, match="^Z must live over the composition of lam$"):
            i_lambda_z(P("inf,1"), Z)

    def test_empty_slice_contributes_bare_tableau(self):
        # a variety whose values cannot repeat leaves deep slices empty
        lam = P("inf,inf")
        Z = PointSetVariety(C(lam), [])
        ideal = i_lambda_z(lam, Z)
        assert any(g.kind == "slice" and g.factor is None for g in ideal.generators)

    def test_saturated_slices_match_capped_slices(self):
        # the slice over a capped shape equals the slice over its saturation
        lam = P("inf,1")
        Z = PointSetVariety(C(lam), [(0, 1)])
        e = lam.finite_weight
        for mu in capped_shapes(lam):
            a = gamma_at(C(lam), Z, C(mu))
            b = gamma_at(C(lam), Z, C(mu_s(mu, e)))
            assert set(a.points) == set(b.points), mu


def golden_pair(name):
    Z = variety_from_json(FILES[name])
    return GenPartition(w for _, w in Z.lam.items()), Z


def cli_stdout(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


class TestLazyProduct:
    """A generator's product is never built: it prints its factored form
    straight from shape and tail, and the text must be the product the
    polynomial oracle builds, factor by factor."""

    CASES = [
        ("inf,inf", [(0, 1), (1, 0)]),
        ("inf,1", [(Fraction(1, 2), Fraction(-3, 7))]),
        ("inf,inf,1", [(0, 2, 5), (Fraction(1, 3), 2, -1)]),
        ("inf,2,1", [(1, 2, 3)]),
    ]
    GOLDEN = ["zq.json", "zq3.json", "z21.json"]

    @pytest.fixture(scope="class")
    def golden(self):
        """Each golden variety file with its ideal, built once."""
        return {name: i_lambda_z(*golden_pair(name)) for name in self.GOLDEN}

    def test_equals_eager_construction(self, golden):
        ideals = [i_lambda_z(P(text), PointSetVariety(C(P(text)), pts))
                  for text, pts in self.CASES]
        ideals += list(golden.values()) + [i_lambda(P("inf,inf,2,1"))]
        for ideal in ideals:
            for g in ideal.generators:
                want = "*".join(f"({f})" for f in eager_product(g)) or "1"
                assert str(g) == want, g

    def test_json_generators_match_text(self, golden, capsys, tmp_path, monkeypatch):
        # the command prints the ideal the fixture built; the golden corpus
        # covers how it is built
        by_lam = {str(golden_pair(name)[0]): name for name in self.GOLDEN}
        monkeypatch.setattr(cli.equations, "i_lambda_z", lambda lam, Z: golden[by_lam[str(lam)]])
        commands = [["inf,inf,2,1"]]
        for name in self.GOLDEN:
            path = tmp_path / name
            path.write_text(FILES[name])
            commands.append([str(golden_pair(name)[0]), "--variety", str(path)])
        for argv in commands:
            text = cli_stdout(capsys, "equations", *argv)
            payload = json.loads(cli_stdout(capsys, "equations", "--json", *argv))
            lines = [line for line in text.splitlines() if not line.startswith("#")]
            assert payload["generators"] == lines
            assert len(payload["provenance"]) == len(lines)

    def test_tails_on_sparse_and_two_digit_rows(self):
        # tails that skip a row (t1, t3) or name a row past 9; the texts
        # were recorded from the printer that renamed t<i> in str(tail)
        t = Poly.t
        cases = [
            ("2,2,1",
             Fraction(-3, 2) * t(1) ** 2 * t(3) + Fraction(5, 7) * t(3) ** 2 - t(1) + 4,
             "(x1 - x3)*(x1 - x4)*(x1 - x5)*(x2 - x3)*(x2 - x4)*(x2 - x5)*(x3 - x5)*(x4 - x5)"
             "*(-3/2*x1^2*x5 + 5/7*x5^2 - x1 + 4)*(-3/2*x2^2*x5 + 5/7*x5^2 - x2 + 4)"),
            ("2,1,1,1,1,1,1,1,1,1",
             t(10) ** 2 - Fraction(2, 3) * t(1) * t(10) - 7 * t(1) + Fraction(-1, 4),
             "*(-2/3*x1*x11 + x11^2 - 7*x1 - 1/4)*(-2/3*x2*x11 + x11^2 - 7*x2 - 1/4)"),
            ("2,1,1,1,1,1,1,1,1,1,1",
             Fraction(9, 5) * t(11) * t(2) - t(11) ** 3 + t(2) - 1,
             "*(x11 - x12)*(-x12^3 + 9/5*x3*x12 + x3 - 1)"),
        ]
        for shape, tail, text in cases:
            g = IdealGenerator("slice", P(shape), factor_from_poly(tail))
            assert str(g).endswith(text), shape
            assert str(g) == "*".join(f"({f})" for f in eager_product(g))
        assert g.provenance() == "slice 2,1,1,1,1,1,1,1,1,1,1 : -t11^3 + 9/5*t2*t11 + t2 - 1"

    def test_tail_without_a_row_is_rejected_up_front(self):
        with pytest.raises(ValueError, match="^tail uses a t-variable with no matching row$"):
            IdealGenerator("slice", P("2"), factor_from_poly(Poly.t(2) - 1))

    def test_tail_with_an_x_variable_is_rejected_up_front(self):
        with pytest.raises(ValueError, match="not a t-variable"):
            factor_from_poly(Poly.x(1) + Poly.t(1))

    def test_infinite_shape_is_rejected(self):
        with pytest.raises(ValueError, match="infinite part"):
            IdealGenerator("excluded", P("inf,1"))


class TestRationalFormOnlyToPrint:
    # the membership and printing of one ideal, as a child process runs them
    PROBE = """
import contextlib, io, sys
from symvar import cli
from symvar.equations import i_lambda_z, member_by_equations
from symvar.partitions import GenComposition, GenPartition
from symvar.variety import FinitaryPoint, PointSetVariety
lam = GenPartition.parse("inf,2,1")
ideal = i_lambda_z(lam, PointSetVariety(GenComposition.from_partition(lam),
                                        [(0, 1, 2), (5, -7, 11)]))
member_by_equations(ideal, FinitaryPoint.parse("5^inf,-7^2,11^1"))
ideal.render()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["equations", "--json", "inf,2,1", "--variety", sys.argv[1]]) == 0
print("symvar.selfcheck" in sys.modules)
"""

    def test_membership_and_printing_build_no_poly(self, monkeypatch, tmp_path, capsys):
        # a slice factor is tested on its integer row and printed from it;
        # Poly lives in selfcheck, which none of this imports
        evaluated = []
        values = MonomialTable.values
        monkeypatch.setattr(MonomialTable, "values",
                            lambda table, *args: evaluated.append(table) or values(table, *args))
        lam = P("inf,2,1")
        Z = PointSetVariety(C(lam), [(0, 1, 2), (5, -7, 11)])
        ideal = i_lambda_z(lam, Z)
        verdicts = [member_by_equations(ideal, FinitaryPoint.parse(x))
                    for x in ("0^inf,1^2,2^1", "5^inf,-7^2,11^1", "0^inf,5^2")]
        assert verdicts == [True, True, False]
        assert evaluated
        factors = {id(g.factor) for g in ideal.generators if g.factor is not None}
        # shapes with the same slice share its factors
        assert len(factors) < sum(g.factor is not None for g in ideal.generators)
        lines = [line for line in ideal.render().splitlines() if not line.startswith("#")]
        path = tmp_path / "z.json"
        path.write_text('{"lambda": ["inf", 2, 1], "points": [[0, 1, 2], [5, -7, 11]]}',
                        encoding="utf-8")
        assert cli.main(["equations", "--json", "inf,2,1", "--variety", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["generators"] == lines
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symvar.__file__)))
        done = subprocess.run([sys.executable, "-c", self.PROBE, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    def test_terms_are_built_only_to_print(self, monkeypatch):
        # membership reads a factor's row as a dot product; only printing
        # builds its terms, once per distinct factor, kept in its template
        reads = []
        terms = SliceFactor.terms
        monkeypatch.setattr(SliceFactor, "terms",
                            property(lambda f: reads.append(f) or terms.__get__(f)))
        lam = P("inf,2,1")
        Z = PointSetVariety(C(lam), [(0, 1, 2), (5, -7, 11)])
        ideal = i_lambda_z(lam, Z)
        verdicts = [member_by_equations(ideal, FinitaryPoint.parse(x))
                    for x in ("0^inf,1^2,2^1", "5^inf,-7^2,11^1", "0^inf,5^2")]
        assert verdicts == [True, True, False]
        assert reads == []
        ideal.render()
        factors = {id(g.factor) for g in ideal.generators if g.factor is not None}
        assert sorted(map(id, reads)) == sorted(factors)
        ideal.render()
        assert len(reads) == len(factors)


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
                got = member_by_equations(ideal_of([g]), x)
                assert got == generator_orbit_vanishes_brute(g, x)


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


class TestRowFits:
    """Rows filled from the cover groups of the combining order: the same
    per-generator verdicts as every fitting class set, and no table over
    all 2^n class masks."""

    LAMBDAS = ["inf", "inf,1", "inf,2", "inf,3", "inf,inf", "inf,1,1", "inf,2,1",
               "inf,inf,1", "inf,inf,2", "inf,inf,3", "inf,inf,inf"]
    VALUES = [Fraction(v) for v in range(-3, 5)] + [
        Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3), Fraction(7, 4)]

    def test_cover_groups_match_mask_table(self):
        # every lambda of at most 3 parts and finite weight at most 3, one or
        # two points of Z, points of width 1..7; every other point starts
        # with Z's values
        rng = random.Random(2026)
        for text in self.LAMBDAS:
            lam = P(text)
            Z = PointSetVariety(C(lam), [tuple(rng.sample(self.VALUES, lam.length))
                                         for _ in range(rng.randint(1, 2))])
            ideal = i_lambda_z(lam, Z)
            gens = ideal.generators
            singles = ideal_of(gens).blocks
            on_z = sorted({c for p in Z.points for c in p})
            fresh = [v for v in self.VALUES if v not in on_z]
            for k in range(8):
                width = rng.randint(1, 7)
                if k % 2:
                    values = (rng.sample(on_z, min(width, len(on_z)))
                              + rng.sample(fresh, max(0, width - len(on_z))))
                else:
                    values = rng.sample(self.VALUES, width)
                mults = [INF] + [rng.choice([INF, 1, 2, 3]) for _ in range(width - 1)]
                classes = list(FinitaryPoint(zip(values, mults)).classes)
                each = list(orbits_vanish_by_masks(gens, classes))
                assert list(_orbits_vanish(singles, classes)) == each, (text, Z.points, classes)
                # the shape blocks, set test included, give each the verdict
                # of all its generators
                assert (list(_orbits_vanish(ideal.blocks, classes))
                        == by_block(ideal, each)), (text, Z.points, classes)

    def test_wide_point_stays_small(self):
        # 18 classes: a table of all class masks would hold 2^18 lists
        x = FinitaryPoint([(0, INF)] + [(v, 1) for v in range(1, 18)])
        ideal = i_lambda(P("inf,1"))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            verdict = member_by_equations(ideal, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert verdict is False
        assert peak < 1_000_000

    def test_supports_keep_the_fits_table_order(self):
        # _orbits_vanish leaves a block at the first support that decides
        # it, so the order of the supports is pinned, not only their set:
        # every multiplicity tuple over {1, 2, 3, inf} of 1..4 classes and
        # every shape of 1..4 rows of at most 5 cells
        cases = 0
        for n in range(1, 5):
            for mults in itertools.product([1, 2, 3, INF], repeat=n):
                for r in range(1, 5):
                    for sizes in itertools.combinations_with_replacement(range(5, 0, -1), r):
                        cases += 1
                        assert _supports.__wrapped__(mults, sizes) == supports_by_fits(
                            mults, sizes), (mults, sizes)
        assert cases == 340 * 125


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

    def test_reduction_shares_the_component_tables_values(self, monkeypatch):
        # over Z.json both slices are built from the component {0, 1}, and
        # every factor stays written over its one table, so the value vectors
        # kept per (table, positions, classes) serve the slice of 1 and both
        # placements in the slice of 1,1; the pin may only go down
        evaluated = []
        values = MonomialTable.values
        monkeypatch.setattr(MonomialTable, "values",
                            lambda table, *args: evaluated.append(table) or values(table, *args))
        lam = P("inf,inf")
        ideal = i_lambda_z(lam, PointSetVariety(C(lam), [(0, 1), (1, 0)]))
        rng = random.Random(1729)  # the battery of ``equations --reduce``
        battery = [random_point(rng, max_width=4) for _ in range(40)]
        reduce_generators(ideal, battery)
        assert len(evaluated) <= 50
        assert len(set(evaluated)) == 1

    def test_pruning_builds_no_flat_view(self, monkeypatch):
        # the one-factor blocks of the pruning come from the ideal's blocks:
        # no IdealGenerator is built until the result is printed
        built = []
        init = IdealGenerator.__init__
        monkeypatch.setattr(IdealGenerator, "__init__",
                            lambda g, *args: built.append(args) or init(g, *args))
        lam = P("inf,inf")
        ideal = i_lambda_z(lam, PointSetVariety(C(lam), [(0, 1), (1, 0)]))
        rng = random.Random(1729)
        reduced = reduce_generators(ideal, [random_point(rng, max_width=4) for _ in range(40)])
        assert built == []
        assert len(reduced.generators) < sum(len(b.factors) for b in ideal.blocks)

    # points of type inf ++ alpha[1:], alpha minimal excluded, that the
    # default battery's reduction of i_lambda accepts (ROADMAP item 20): the
    # battery drops excluded generators that are needed, and only inf,1,1
    # is reduced exactly.  Each count may shrink, never grow.
    OVER_ACCEPTED = {"inf,2": 1, "inf,1,1": 0, "inf,2,1": 1, "inf,3,3": 2, "inf,inf,2": 1,
                     "inf,2,2": 2, "inf,3,1": 2, "inf,4": 1, "inf,inf,1,1": 2,
                     "inf,2,1,1": 1}

    def test_default_battery_over_acceptance_is_pinned(self):
        rng = random.Random(1729)  # the battery of ``equations --reduce``
        battery = [random_point(rng, max_width=4) for _ in range(40)]
        for text, pinned in self.OVER_ACCEPTED.items():
            lam = P(text)
            ideal = i_lambda(lam)
            reduced = reduce_generators(ideal, battery)
            accepted = 0
            for alpha in min_excluded(lam):
                x = FinitaryPoint([(0, INF)] + [(v, m) for v, m in enumerate(alpha.parts[1:], 1)])
                assert not member_by_equations(ideal, x), (text, alpha)
                accepted += member_by_equations(reduced, x)
            assert accepted <= pinned, (text, accepted)

    # the excluded shapes that the note of ``equations --reduce`` names at
    # the default seed: dropped, and implied by no kept excluded shape
    NEEDED_DROPS = {"inf,2": ["1,1,1"], "inf,1,1": [], "inf,2,1": ["1,1,1,1"],
                    "inf,3,3": ["1,1,1,1", "4,4,1"], "inf,inf,2": ["1,1,1,1"],
                    "inf,2,2": ["1,1,1,1", "3,3,1"], "inf,3,1": ["1,1,1,1", "2,2,2"],
                    "inf,4": ["1,1,1"], "inf,inf,1,1": ["1,1,1,1,1", "2,2,2,1"],
                    "inf,2,1,1": ["1,1,1,1,1"]}

    # the census lambdas: 1-3 parts over {inf, 3, 2, 1}, the first infinite
    CENSUS = [",".join(map(str, parts)) for k in (1, 2, 3)
              for parts in itertools.combinations_with_replacement([INF, 3, 2, 1], k)
              if parts[0] == INF]

    @pytest.mark.parametrize("text", list(dict.fromkeys(list(OVER_ACCEPTED) + CENSUS)))
    def test_note_names_the_needed_drops(self, capsys, text):
        # the note names exactly the shapes alpha whose point of type
        # inf ++ alpha[1:] the pruned set accepts, one over-acceptance each,
        # and stdout is the pruned ideal as printed without the note
        assert cli.main(["equations", text, "--reduce"]) == 0
        out, err = capsys.readouterr()
        rng = random.Random(1729)
        battery = [random_point(rng, max_width=4) for _ in range(40)]
        lam = P(text)
        reduced = reduce_generators(i_lambda(lam), battery)
        assert out == reduced.render() + "\n"
        accepted = [str(alpha) for alpha in min_excluded(lam) if member_by_equations(
            reduced, FinitaryPoint([(0, INF)] + [(v, m) for v, m in enumerate(alpha.parts[1:], 1)]))]
        if text in self.NEEDED_DROPS:
            assert accepted == self.NEEDED_DROPS[text]
            assert len(accepted) == self.OVER_ACCEPTED[text]
        if accepted:
            names = "; ".join(f"excluded {alpha}" for alpha in accepted)
            assert err.startswith(f"note: --reduce dropped generators that no kept excluded "
                                  f"generator implies ({names}), ")
            assert err.count("\n") == 1
        else:
            assert err == ""
