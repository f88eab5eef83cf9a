"""Partition orders, fillings, excluded antichains, truncations."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

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


def counted(monkeypatch, name):
    """The arguments of every call of ``partitions.<name>``, in order, from
    now until the test ends."""
    calls = []
    inner = getattr(partitions, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(partitions, name, counting)
    return calls


@pytest.fixture
def cover_group_calls(monkeypatch):
    """The need and state of every ``_cover_groups`` call that the tail
    search makes, one per state it expands, in order; the lister's own
    recursive calls, which pass `first`, are not counted."""
    calls = []
    inner = partitions._cover_groups

    def counting(need, state, slots, *first):
        if not first:
            calls.append((need, state))
        return inner(need, state, slots, *first)

    monkeypatch.setattr(partitions, "_cover_groups", counting)
    return calls


def unit_groups(target, parts, mask):
    """The masks of the cover groups of `parts` within `mask`, listed with
    one slot of one copy per part, as ``equations._supports`` lists them."""
    slots = tuple((p, 1 << i, 2) for i, p in enumerate(parts))
    return [mask ^ left for left in partitions._cover_groups(target, mask, slots)]


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

    def test_screens_and_backtracking_match_oracles_exhaustively(self, monkeypatch, cover_group_calls):
        # Every pair with at most 4 parts over {1,2,3,4,inf}: the tail
        # reduction, its screens, the witness and the no-spare-part exit
        # agree with the search over all of lam's parts and with the filling
        # search, each pair takes its route, and each route gives the
        # verdicts it can give.  The lemma behind the exits is checked
        # directly: the witness places every tail that fits part by part
        # and every one-part tail within the sum, and a tail with no spare
        # part that the witness fails has no filling
        box = sorted(
            {GenPartition(c) for n in range(5)
             for c in itertools.combinations_with_replacement([1, 2, 3, 4, INF], n)},
            key=lambda q: (q.length, q.parts),
        )
        witness = partitions._witness_places
        tail_calls = counted(monkeypatch, "_tail_below")
        witness_calls = counted(monkeypatch, "_witness_places")
        searched = cover_group_calls
        exits = {}
        for mu in box:
            for lam in box:
                for calls in (tail_calls, witness_calls, searched):
                    calls.clear()
                verdict = preceq(mu, lam)
                filling = good_filling_exists(mu, lam)
                assert verdict == preceq_by_groups(mu, lam) == filling, (mu, lam)
                k = lam.num_infinite
                tail, fin = mu.parts[k:], lam.parts[k:]
                if mu.length > lam.length or mu.num_infinite > k:
                    route = "early"
                else:
                    places = witness(tail, fin)
                    fits = leq(GenPartition(tail), GenPartition(fin))
                    if fits or len(tail) == 1 and sum(tail) <= sum(fin):
                        assert places, (mu, lam)
                    if len(tail) == len(fin) and not places:
                        assert not filling, (mu, lam)
                    if not tail:
                        route = "early"
                    elif fits:
                        route = "leq"
                    elif sum(tail) > sum(fin):
                        route = "sum"
                    elif places:
                        route = "witness"
                    elif len(tail) == len(fin):
                        route = "no spare part"
                    else:
                        route = "search"
                # preceq decides the early and leq routes without the tail search
                assert bool(tail_calls) == (route not in ("early", "leq")), (mu, lam)
                assert bool(witness_calls) == (route not in ("early", "leq", "sum")), (mu, lam)
                assert bool(searched) == (route == "search"), (mu, lam)
                exits.setdefault(route, set()).add(verdict)
        assert len(box) ** 2 == 15876
        assert exits == {"early": {True, False}, "leq": {True}, "sum": {False},
                         "witness": {True}, "no spare part": {False}, "search": {True, False}}

    def test_matches_filling_search_on_random_pairs(self, cover_group_calls):
        # past the exhaustive box: 1-6 parts, each inf with probability 1/4,
        # else 1-6; the run must reach the count search, not only the screens
        # and exits, so it also takes two pairs the witness cannot place:
        # 4,3 is below 3,2,2 (4 = 2+2 and 3 = 3), but the witness gives 3,2
        # to the 4 and leaves a 2 for the 3; and inf,6,5,4,3 is not below
        # inf,3^6
        part = st.sampled_from([1, 2, 3, 4, 5, 6, INF, INF])
        gen = st.lists(part, min_size=1, max_size=6).map(GenPartition)

        @example(P("4,3"), P("3,2,2"))
        @example(P("inf,6,5,4,3"), P("inf,3,3,3,3,3,3"))
        @settings(max_examples=1000, deadline=None)
        @given(gen, gen)
        def check(mu, lam):
            assert preceq(mu, lam) == good_filling_exists(mu, lam), (mu, lam)

        check()
        assert cover_group_calls

    def test_search_visits_each_state_once(self, cover_group_calls):
        # each of 6,5,4,3 needs two of the six 3s, so the search fails; it
        # meets one state per tail part, with six, four, two and no 3s
        # unused, where telling the equal 3s apart by index would make
        # 1 + 15 + 15 + 1
        assert preceq(P("inf,6,5,4,3"), P("inf,3,3,3,3,3,3")) is False
        # the tail parts differ, so a call's target names its state's tail part
        assert len(cover_group_calls) == len(set(cover_group_calls)) == 4

    def test_equal_parts_are_searched_once(self, cover_group_calls):
        # 4^12 against inf,3^16: each 4 needs two 3s, so the search fails
        # after placing eight 4s.  The 3s are counted, not told apart, so
        # there is one state per tail part: 9 states, where trying every
        # pair of 3s made 32,768
        assert preceq(P(",".join(["4"] * 12)), P(",".join(["inf"] + ["3"] * 16))) is False
        assert len(cover_group_calls) == 9

    def test_padded_search_grows_linearly(self, cover_group_calls):
        # 6,6,1^n against 5,3,2,2,1^n is false, and the witness cannot
        # place it; a state is the tail part and the counts of 5, 3, 2 and
        # 1 left, so doubling n at most about doubles the states, where
        # telling the ones apart by index would grow them exponentially
        counts = []
        for n in (80, 160):
            cover_group_calls.clear()
            assert preceq(GenPartition([6, 6] + [1] * n), GenPartition([5, 3, 2, 2] + [1] * n)) is False
            counts.append(len(cover_group_calls))
        assert 0 < counts[1] <= 2.5 * counts[0]

    def test_witness_places_what_the_search_would_not_finish(self, cover_group_calls):
        # 3^700 against 2^700,1^700: the search's layers hold every count of
        # 2s and 1s that the 3s placed so far can leave, so a layer grows
        # with the square of the 3s placed and the states expanded with the
        # cube (on 3^80 against 2^80,1^80: at most 790 in a layer, 30,904 in
        # all), about 20 million here; the witness groups each 3 as 2+1 and
        # answers without searching
        assert preceq(P(",".join(["3"] * 700)), P(",".join(["2"] * 700 + ["1"] * 700))) is True
        assert cover_group_calls == []


class TestMinimalCoverGroups:
    """``_cover_groups`` with one slot of one copy per part lists the
    sufficient index sets whose largest index is needed: the search over
    subsets, restricted to each mask.  With counted slots it lists the
    sufficient multisets whose last copy, in slot order, is needed."""

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
                        got = unit_groups(target, parts, mask)
                        assert len(got) == len(set(got)), (parts, target, mask)
                        assert set(got) == {g for g in minimal if g & mask == g}, (parts, target, mask)

    def test_infinite_part_covers_alone(self):
        parts = [1, INF, 2, INF]
        for target in (1, 5, 100):
            groups = unit_groups(target, parts, 0b1111)
            assert {1 << 1, 1 << 3} <= set(groups)
            # an infinite part completes every group it joins
            assert all(g >> 2 == 0 for g in groups if g & 1 << 1)
        assert unit_groups(100, parts, 0b0101) == []

    def test_at_most_target_members(self):
        parts = [1] * 8 + [INF]
        for target in range(1, 10):
            groups = unit_groups(target, parts, (1 << 9) - 1)
            assert groups and all(bin(g).count("1") <= target for g in groups)
            assert max(bin(g).count("1") for g in groups) == min(target, 9)

    def test_counted_slots_equal_multiset_search(self):
        # slots of 0 to 3 copies, the state a mixed-radix number; a group is
        # a vector of copies taken, and the brute force keeps those whose
        # sum reaches the target but falls short without one copy of the
        # last slot taken
        rng = random.Random(12)
        for _ in range(300):
            values = [rng.choice([1, 2, 3, 5, INF]) for _ in range(rng.randint(1, 4))]
            radices = [rng.randint(1, 4) for _ in values]
            places = [1]
            for r in radices:
                places.append(places[-1] * r)
            slots = tuple(zip(values, places, radices))

            def worth(taken):
                return sum(t * v for t, v in zip(taken, values) if t)  # 0 * INF is NaN
            for counts in itertools.product(*(range(r) for r in radices)):
                state = sum(c * p for c, p in zip(counts, places))
                for target in range(1, 8):
                    expected = set()
                    for taken in itertools.product(*(range(c + 1) for c in counts)):
                        used = [s for s, t in enumerate(taken) if t]
                        if used:
                            last = used[-1]
                            short = taken[:last] + (taken[last] - 1,)
                            if worth(taken) >= target > worth(short):
                                expected.add(state - sum(t * p for t, p in zip(taken, places)))
                    got = list(partitions._cover_groups(target, state, slots))
                    assert len(got) == len(set(got)), (slots, state, target)
                    assert set(got) == expected, (slots, state, target)


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

    @pytest.mark.parametrize("k, c, m", [(1, 3, 11), (1, 2, 14), (1, 1, 25), (2, 2, 12), (3, 1, 20)])
    def test_closed_forms_of_equal_finite_parts(self, k, c, m):
        """``min_excluded(inf^k,c^m)`` in closed form, on tails far past
        the whole-candidate oracle's reach.

        A tail tau is below c^m iff N(tau) = sum of ceil(tau_i / c) is at
        most m: a part t needs ceil(t / c) copies of c, and that many
        cover it.  By ``min_excluded``'s cover rule and third lemma, an
        excluded tau is minimal iff every lowering of a part by 1, every
        drop of a part and every merge of two parts below tau_0, capped at
        tau_0, leaves N at most m.  A lowering reduces N by at most 1, so
        N(tau) = m + 1, and then each of these steps must reduce N.
        A drop always does.

        c >= 2: lowering t reduces ceil(t / c) iff t = 1 (mod c), so every
        part is c(r_i - 1) + 1 with ceil = r_i, and r is a partition of
        m + 1.  Merging two such parts a, b gives ceil((a + b) / c) =
        r_a + r_b - 1, which capping only lowers, so every merge reduces N.
        The answers are (tau_0)^k ++ tau for tau_i = c(r_i - 1) + 1, r over
        the partitions of m + 1.

        c = 1: N is the sum, and every lowering reduces it.  A capped
        merge of a, b below tau_0 reduces it iff a + b > tau_0.  The
        answers are (tau_0)^k ++ tau for the tails of sum m + 1 in which
        every two parts below tau_0 sum to more than tau_0.
        """

        def partitions_of(n, top):
            if n == 0:
                yield ()
            for p in range(min(n, top), 0, -1):
                for rest in partitions_of(n - p, p):
                    yield (p,) + rest

        if c == 1:
            tails = [tau for tau in partitions_of(m + 1, m + 1)
                     if all(a + b > tau[0] for a, b in itertools.combinations(
                         [t for t in tau if t < tau[0]], 2))]
        else:
            tails = [tuple(c * (r - 1) + 1 for r in rs) for rs in partitions_of(m + 1, m + 1)]
        expected = sorted(GenPartition((tau[0],) * k + tau) for tau in tails)
        assert min_excluded(GenPartition([INF] * k + [c] * m)) == expected


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
