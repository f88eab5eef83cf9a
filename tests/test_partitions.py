"""Partition orders, fillings, excluded antichains, truncations."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from symvar import partitions
from symvar.equations import IdealGenerator
from symvar.partitions import (
    INF,
    GenComposition,
    GenPartition,
    finite_partitions_in_box,
    good_filling_exists,
    min_excluded,
    mu_s,
    preceq,
)

from oracles import aut, good_filling_by_cells, leq, mu_minus, preceq_by_groups

P = GenPartition.parse


def leq_oracle(mu, lam):
    """Brute force over decrease-or-remove: pick an ordered subsequence of
    lam's parts and decrease componentwise."""
    for sub in itertools.combinations(lam.parts, mu.length):
        if all(mu[i] <= sub[i] for i in range(mu.length)):
            return True
    return mu.length == 0


@pytest.fixture
def cover_group_calls(monkeypatch):
    """The arguments of every ``_minimal_cover_groups`` call, in order."""
    calls = []
    cover_groups = partitions._minimal_cover_groups

    def counting(*args):
        calls.append(args)
        return cover_groups(*args)

    monkeypatch.setattr(partitions, "_minimal_cover_groups", counting)
    return calls


parts_strategy = st.lists(st.sampled_from([1, 2, 3, INF]), min_size=0, max_size=4).map(GenPartition)


class TestCanonicalize:
    def test_sorting(self):
        assert GenPartition([3, INF, 0, 2]) == P("inf,3,2")

    def test_empty(self):
        assert GenPartition([]) == GenPartition()

    def test_idempotent(self):
        assert GenPartition(P("inf,inf")) == P("inf,inf")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            GenPartition([-1])

    def test_parse_round_trip(self):
        for text in ["inf,inf,3,2", "4", "", "inf"]:
            assert str(P(text)) == text


class TestGenComposition:
    def test_is_infinite(self):
        assert GenComposition({}).is_infinite is False
        assert GenComposition({1: 2, 2: 1}).is_infinite is False
        assert GenComposition({1: 2, 2: INF}).is_infinite is True
        assert GenComposition.from_partition(P("inf,inf,1")).is_infinite is True

    @pytest.mark.parametrize("parts", [
        parts for r in range(5)
        for parts in itertools.combinations_with_replacement((INF, 3, 2, 1), r)])
    def test_from_partition_equals_from_weights(self, parts):
        p = GenPartition(parts)
        a = GenComposition.from_partition(p)
        b = GenComposition.from_weights(p.parts)
        assert type(a) is GenComposition
        assert a == b and hash(a) == hash(b)
        assert a.labels == b.labels == tuple(range(1, len(parts) + 1))
        assert a.items() == b.items()
        assert repr(a) == repr(b)
        assert (a.length, a.finite_weight, a.is_infinite) == (
            b.length, b.finite_weight, b.is_infinite)

    @pytest.mark.parametrize("label", [True, False])
    def test_rejects_bool_labels(self, label):
        # True == 1 and False == 0, so a bool label would pass as an int one
        with pytest.raises(ValueError, match="labels must be integers"):
            GenComposition({label: INF, 2: 1})


class TestLeq:
    def test_examples(self):
        assert leq(P("2"), P("inf,1")) is True
        assert leq(P("inf"), P("3")) is False
        assert leq(GenPartition(), P("inf,3")) is True

    @given(parts_strategy, parts_strategy)
    def test_matches_oracle(self, mu, lam):
        assert leq(mu, lam) == leq_oracle(mu, lam)


class TestPreceq:
    def test_examples(self):
        assert preceq(P("4,4,4"), P("inf,inf,2,1")) is False
        assert preceq(P("inf,3,2"), P("inf,3,2")) is True
        assert preceq(P("2,2"), P("inf,1")) is False

    def test_combining(self):
        assert preceq(P("inf,4"), P("inf,2,2")) is True
        assert preceq(P("4"), P("2,2")) is True
        assert preceq(P("5"), P("2,2")) is False

    @given(parts_strategy)
    def test_reflexive(self, mu):
        assert preceq(mu, mu)

    @settings(max_examples=60)
    @given(parts_strategy, parts_strategy, parts_strategy)
    def test_transitive(self, a, b, c):
        if preceq(a, b) and preceq(b, c):
            assert preceq(a, c)

    @given(parts_strategy, parts_strategy)
    def test_leq_implies_preceq(self, mu, lam):
        if leq(mu, lam):
            assert preceq(mu, lam)

    def test_screens_and_backtracking_match_oracles_exhaustively(self, monkeypatch):
        # Every pair with at most 4 parts over {1,2,3,4,inf}: the tail
        # reduction and its screens agree with the search over all of lam's
        # parts and with the filling search, and each exit is reached.
        box = sorted(
            {GenPartition(c) for n in range(5)
             for c in itertools.combinations_with_replacement([1, 2, 3, 4, INF], n)},
            key=lambda q: (q.length, q.parts),
        )
        searched = []
        cover_groups = partitions._minimal_cover_groups

        def counting(*args):
            searched.append(args)
            return cover_groups(*args)

        monkeypatch.setattr(partitions, "_minimal_cover_groups", counting)
        exits = {}
        for mu in box:
            for lam in box:
                searched.clear()
                verdict = preceq(mu, lam)
                assert verdict == preceq_by_groups(mu, lam) == good_filling_exists(mu, lam), (mu, lam)
                k = lam.num_infinite
                tail, fin = mu.parts[k:], lam.parts[k:]
                if mu.length > lam.length or mu.num_infinite > k or not tail:
                    route = "early"
                elif sum(tail) > sum(fin):
                    route = "sum"
                elif leq(GenPartition(tail), GenPartition(fin)):
                    route = "leq"
                else:
                    route = "search"
                assert bool(searched) == (route == "search"), (mu, lam)
                exits.setdefault(route, set()).add(verdict)
        assert len(box) ** 2 == 15876
        assert exits == {"early": {True, False}, "sum": {False}, "leq": {True},
                         "search": {True, False}}

    def test_matches_filling_search_on_random_pairs(self, cover_group_calls):
        # past the exhaustive box: 1-6 parts, each inf with probability 1/4,
        # else 1-6; the run must reach the backtracking, not only the screens
        part = st.sampled_from([1, 2, 3, 4, 5, 6, INF, INF])
        gen = st.lists(part, min_size=1, max_size=6).map(GenPartition)

        @settings(max_examples=1000, deadline=None)
        @given(gen, gen)
        def check(mu, lam):
            assert preceq(mu, lam) == good_filling_exists(mu, lam), (mu, lam)

        check()
        assert cover_group_calls

    def test_search_visits_each_state_once(self, cover_group_calls):
        # each of 6,5,4,3 needs two of the six 3s, so the search fails; it
        # meets 1 + 15 + 15 + 1 distinct (tail part, unused-parts mask)
        # states, and without the memo of failed states it would make 196
        # cover-group calls
        assert preceq(P("inf,6,5,4,3"), P("inf,3,3,3,3,3,3")) is False
        # the tail parts differ, so a call's target names its state's tail part
        assert len(cover_group_calls) == len(set(cover_group_calls)) == 32


class TestMinimalCoverGroups:
    """The groups are the sufficient index sets whose largest index is
    needed: the search over subsets, restricted to each mask."""

    def test_groups_equal_subset_search(self):
        rng = random.Random(11)
        for n in range(7):
            for parts in {tuple(rng.choice([1, 2, 3, INF]) for _ in range(n)) for _ in range(30)}:
                for target in range(1, 7):
                    minimal = [
                        sum(1 << i for i in sub)
                        for k in range(1, n + 1) for sub in itertools.combinations(range(n), k)
                        if sum(parts[i] for i in sub) >= target > sum(parts[i] for i in sub[:-1])
                    ]
                    for mask in range(1 << n):
                        got = list(partitions._minimal_cover_groups(target, parts, mask))
                        assert len(got) == len(set(got)), (parts, target, mask)
                        assert set(got) == {g for g in minimal if g & mask == g}, (parts, target, mask)

    def test_infinite_part_covers_alone(self):
        parts = [1, INF, 2, INF]
        for target in (1, 5, 100):
            groups = list(partitions._minimal_cover_groups(target, parts, 0b1111))
            assert {1 << 1, 1 << 3} <= set(groups)
            # an infinite part completes every group it joins
            assert all(g >> 2 == 0 for g in groups if g & 1 << 1)
        assert list(partitions._minimal_cover_groups(100, parts, 0b0101)) == []

    def test_at_most_target_members(self):
        parts = [1] * 8 + [INF]
        for target in range(1, 10):
            groups = list(partitions._minimal_cover_groups(target, parts, (1 << 9) - 1))
            assert groups and all(bin(g).count("1") <= target for g in groups)
            assert max(bin(g).count("1") for g in groups) == min(target, 9)


class TestGoodFilling:
    def test_examples(self):
        assert good_filling_exists(P("2,2"), P("inf,1")) is False
        assert good_filling_exists(P("inf,3,2"), P("inf,inf,3,2")) is True
        assert good_filling_exists(GenPartition(), P("inf,1")) is True

    def test_agrees_with_preceq_exhaustively(self):
        vals = [1, 2, 3, INF]
        box = sorted(
            {GenPartition(c) for n in range(0, 4) for c in itertools.product(vals, repeat=n)},
            key=lambda q: (q.length, q.parts),
        )
        for mu in box:
            for lam in box:
                assert good_filling_exists(mu, lam) == preceq(mu, lam), (mu, lam)

    def test_agrees_with_cell_search_on_rows_up_to_five(self):
        # past the exhaustive boxes: 1-5 parts, each inf or 1-5
        rng = random.Random(22)

        def draw():
            return GenPartition(rng.choice([1, 2, 3, 4, 5, INF]) for _ in range(rng.randint(1, 5)))

        verdicts = set()
        for _ in range(2000):
            mu, lam = draw(), draw()
            verdict = good_filling_exists(mu, lam)
            assert verdict == good_filling_by_cells(mu, lam) == preceq(mu, lam), (mu, lam)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_five_rows_of_five_do_not_fit_six_rows_of_four(self):
        assert good_filling_exists(P("5,5,5,5,5"), P("4,4,4,4,4,4")) is False


class TestMinExcluded:
    def test_two_part_family(self):
        for n in range(1, 6):
            got = min_excluded(GenPartition([INF, n]))
            assert got == sorted(
                [P("1,1,1"), GenPartition([n + 1, n + 1])], key=lambda q: q.parts
            )

    def test_four_part_family(self):
        got = min_excluded(P("inf,inf,2,1"))
        assert [str(a) for a in got] == ["1,1,1,1,1", "2,2,2,2", "3,3,3,1", "4,4,4"]

    def test_single_infinite(self):
        assert min_excluded(P("inf")) == [P("1,1")]

    def test_requires_infinite_part(self):
        with pytest.raises(ValueError):
            min_excluded(P("3,1"))

    @pytest.mark.parametrize("lam", ["inf", "inf,1", "inf,2", "inf,inf,2,1", "inf,1,1"])
    def test_antichain_and_domination(self, lam):
        lam = P(lam)
        excluded_min = min_excluded(lam)
        for a, b in itertools.permutations(excluded_min, 2):
            assert not preceq(a, b)
        box = finite_partitions_in_box(lam.length + 1, lam.finite_weight + 1)
        for alpha in box:
            if not preceq(alpha, lam):
                assert any(preceq(m, alpha) for m in excluded_min), alpha

    @pytest.mark.parametrize("lam", ["inf", "inf,1", "inf,2", "inf,inf", "inf,1,1"])
    def test_box_bounds_empirically_exact(self, lam):
        # recompute with a one-larger search box; the minimal antichain must
        # not change
        lam = P(lam)
        bigger = finite_partitions_in_box(lam.length + 2, lam.finite_weight + 2)
        excluded = [a for a in bigger if not preceq(a, lam)]
        minimal = sorted(
            (a for a in excluded if not any(b != a and preceq(b, a) for b in excluded)),
            key=lambda q: q.parts,
        )
        assert minimal == min_excluded(lam)


class TestTruncations:
    def test_mu_minus(self):
        assert mu_minus(P("inf,3,1"), 2) == P("3,3,1")
        assert mu_minus(P("2,1"), 2) == P("2,1")
        assert mu_minus(P("inf,inf"), 0) == P("1,1")

    def test_mu_s(self):
        assert mu_s(P("3,3,1"), 2) == P("inf,inf,1")
        assert mu_s(P("1"), 2) == P("1")
        assert mu_s(P("1,1"), 0) == P("inf,inf")

    def test_mu_s_rejects_oversized_part(self):
        with pytest.raises(ValueError):
            mu_s(P("4,1"), 2)

    @pytest.mark.parametrize("e", [0, 1, 2])
    def test_saturation_round_trip(self, e):
        vals = [1, 2, 3, INF]
        for c in itertools.product(vals, repeat=3):
            nu = mu_minus(GenPartition(c), e)
            assert mu_minus(mu_s(nu, e), e) == nu

    def test_mu_s_maximality(self):
        # nothing with the same capped truncation dominates the saturation
        e = 2
        mu = P("3,3,1")
        sat = mu_s(mu, e)
        vals = [1, 2, 3, 4, 5, INF]
        for c in itertools.product(vals, repeat=3):
            nu = GenPartition(c)
            if mu_minus(nu, e) == mu_minus(mu, e):
                assert leq(nu, sat), nu


class TestFinitePartitionCriterion:
    def test_box_criterion_matches_preceq(self):
        # mu below lam iff every finite partition below mu is below lam; the
        # witness partitions cap infinite parts past both finite weights, so
        # the quantifier box needs parts up to max finite weight + 1 = 5
        vals = [1, 2, INF]
        box = sorted(
            {GenPartition(c) for n in range(0, 3) for c in itertools.product(vals, repeat=n)},
            key=lambda q: (q.length, q.parts),
        )
        finite_box = finite_partitions_in_box(4, 5)
        for mu in box:
            for lam in box:
                criterion = all(
                    preceq(alpha, lam) for alpha in finite_box if preceq(alpha, mu)
                )
                assert criterion == preceq(mu, lam), (mu, lam)


class TestAut:
    def test_two_infinite(self):
        assert len(aut(GenComposition.from_partition(P("inf,inf")))) == 2

    def test_trivial(self):
        for n in (1, 2, 5):
            assert aut(GenComposition.from_partition(GenPartition([INF, n]))) == [
                {1: 1, 2: 2}
            ]

    def test_one_block(self):
        assert len(aut(GenComposition.from_partition(P("inf,2,2,1")))) == 2

    def test_group_closure(self):
        perms = aut(GenComposition.from_partition(P("inf,inf,2,2")))
        assert len(perms) == 4
        tables = {tuple(sorted(p.items())) for p in perms}
        for p in perms:
            for q in perms:
                comp = {k: q[p[k]] for k in p}
                assert tuple(sorted(comp.items())) in tables


class TestTableau:
    def test_row_major(self):
        # generators fill their shape row-major with the cells 1, 2, ...
        g = IdealGenerator("excluded", P("3,2"))
        assert g.rows == ((1, 2, 3), (4, 5))
        assert g.shape == P("3,2")
