"""``min_excluded`` against the quadratic minimality filter it replaced,
and against the walk over whole candidates that its tail covers replaced.

The quadratic oracle keeps the box of partitions with at most
length(lam)+1 parts, each at most finite_weight(lam)+1, drops those below
lam, and keeps the excluded ones with no other excluded box member below
them.  The cover test must give the same antichain on every lam with at
most 4 parts and finite weight at most 5, and on the sweep inf^k,2k-2.
The tail identity that lets ``min_excluded`` hand ``preceq`` only the
finite remainder is checked on the same boxes.  The oracle decides the
order with ``preceq_by_groups``, the search over all of lam's parts, so
the tail reduction inside ``preceq`` is not the judge of itself.  Every
answer has alpha_0 = ... = alpha_k, which is why only tails are walked,
and a tail of sum at most finite_weight(lam)+1, which is why only those
tails are walked.

Minimality is tested on tails too: ``_tail_covers(tau)`` yields the tails
of the lower covers of (tau_0)^k ++ tau, each part lowered and each pair
below tau_0 merged and capped, and leaves out the drops, which a lowering
implies.  Each walked tail's covers are checked against the whole
candidate's ``lower_covers``: each is the tail of one, and all are below
lam exactly when all of those are, judged by ``preceq_by_groups``.
``min_excluded`` must also equal ``min_excluded_by_covers`` on every lam
with 1 to 6 infinite parts and at most 4 finite parts of weight at most
8, which reaches the k = 5 of the benchmark's sweep.  A work guard counts
the candidates that reach the cover test and the cover tuples built.

The layered walk is checked against ``min_excluded_by_box_walk``, the walk
over the whole box of tails that it replaced, each tail decided afresh by
``_tail_below``: on 963 lam, and on three wide lam by the count and a
digest of the answers.  A work pin counts the ``_tail_below`` calls (none)
and the tail covers built on a wide lam.
"""

import hashlib
import itertools

import pytest

from symvar import partitions
from symvar.partitions import (
    INF,
    GenPartition,
    _box_parts,
    finite_partitions_in_box,
    min_excluded,
    preceq,
)

from oracles import lower_covers, min_excluded_by_box_walk, min_excluded_by_covers, preceq_by_groups


def min_excluded_quadratic(lam):
    box = finite_partitions_in_box(lam.length + 1, lam.finite_weight + 1)
    excluded = [a for a in box if not preceq_by_groups(a, lam)]
    minimal = [a for a in excluded if not any(b != a and preceq_by_groups(b, a) for b in excluded)]
    return sorted(minimal, key=lambda q: q.parts)


def _finite_partitions_of(e, max_length):
    """Parts tuples of the partitions of e with at most max_length parts."""
    if e == 0:
        return [()]
    return [p for p in _box_parts(max_length, e) if sum(p) == e]


GRID = [
    GenPartition((INF,) * k + fin)
    for k in range(1, 5)
    for e in range(6)
    for fin in _finite_partitions_of(e, 4 - k)
]
SWEEP = [GenPartition((INF,) * k + (2 * k - 2,)) for k in range(2, 5)]
INF8_12 = GenPartition((INF,) * 8 + (12,))


def test_grid_covers_every_small_lambda():
    assert len(GRID) == len(set(GRID)) == 35
    assert all(lam.length <= 4 and lam.finite_weight <= 5 for lam in GRID)


@pytest.mark.parametrize("lam", GRID + SWEEP, ids=str)
def test_matches_quadratic_filter(lam):
    assert min_excluded(lam) == min_excluded_quadratic(lam)


@pytest.mark.parametrize("lam", GRID + SWEEP, ids=str)
def test_tail_identity(lam):
    k = lam.num_infinite
    lam_fin = GenPartition(lam.parts[k:])
    for alpha in finite_partitions_in_box(lam.length + 1, lam.finite_weight + 1):
        tail = GenPartition(alpha.parts[k:])
        assert preceq_by_groups(alpha, lam) == preceq(tail, lam_fin), (alpha, lam)


@pytest.mark.parametrize("lam", GRID + SWEEP + [INF8_12], ids=str)
def test_answers_are_tails_behind_equal_parts(lam):
    k = lam.num_infinite
    for alpha in min_excluded(lam):
        assert alpha.length >= k + 1 and alpha[0] == alpha[k], (alpha, lam)
        assert sum(alpha.parts[k:]) <= lam.finite_weight + 1, (alpha, lam)


@pytest.mark.parametrize("k", range(1, 7))
def test_matches_whole_candidate_walk(k):
    lams = [GenPartition((INF,) * k + fin) for e in range(9) for fin in _finite_partitions_of(e, 4)]
    assert len(lams) == 53
    for lam in lams:
        assert min_excluded(lam) == min_excluded_by_covers(lam), lam


@pytest.mark.parametrize("lam", GRID + SWEEP + [INF8_12], ids=str)
def test_tail_covers_decide_minimality(lam):
    k = lam.num_infinite
    fin = lam.parts[k:]
    w = sum(fin) + 1

    def below_fin(tail):
        return preceq_by_groups(GenPartition(tail), GenPartition(fin))

    for tau in _box_parts(len(fin) + 1, w, w):
        alpha = (tau[0],) * k + tau
        covers = list(lower_covers(alpha))
        tail_covers = list(partitions._tail_covers(tau))
        assert len(tail_covers) == len(set(tail_covers)), tau
        assert set(tail_covers) <= {c[k:] for c in covers}, (tau, lam)
        assert all(map(below_fin, tail_covers)) == all(
            preceq_by_groups(GenPartition(c), lam) for c in covers
        ), (tau, lam)


def test_lower_cover_work_guard(monkeypatch):
    # inf^8,12 has 55 tails of at most 2 parts and sum at most 13, so at
    # most 55 candidates reach the cover test (43 do); the 104 tails of at
    # most 2 parts, each at most 13, sent 92 there, and walking the whole
    # 10-part box made 646,647 cover tests.  Each of the 43 stops at its
    # first tail cover, a lowering that is not below; the whole
    # candidates' lower covers, drawn the same way, built 141 tuples.
    calls, built = [], []
    tail_covers = partitions._tail_covers

    def counting(tau):
        calls.append(tau)
        for cover in tail_covers(tau):
            built.append(cover)
            yield cover

    monkeypatch.setattr(partitions, "_tail_covers", counting)
    got = min_excluded(INF8_12)
    assert got == [GenPartition((1,) * 10), GenPartition((13,) * 9)]
    assert 0 < len(calls) <= 55
    assert len(built) == 43


def test_matches_box_walk():
    # 1-3 infinite parts and a finite part of at most 8 parts, each at most
    # 8, of sum at most 13 (the empty one included)
    lams = [GenPartition((INF,) * k + fin)
            for k in (1, 2, 3) for fin in [()] + list(_box_parts(8, 8, 13))]
    assert len(lams) == 963
    for lam in lams:
        assert min_excluded(lam) == min_excluded_by_box_walk(lam), lam


# the answers on lam too wide for the box walk in tier-1, as recorded from
# it: their number and the first 16 hex digits of the sha256 of
# ";".join(map(str, answers))
WIDE = {
    "inf,8,7,6,5,4,3,2,1": ([INF, 8, 7, 6, 5, 4, 3, 2, 1], 499, "84a135bdee08a33e"),
    "inf,3^11": ([INF] + [3] * 11, 77, "17af06063073aff7"),
    "inf,1^25": ([INF] + [1] * 25, 70, "1021063475fa95ad"),
}


@pytest.mark.parametrize("text", WIDE)
def test_wide_answers_are_pinned(text):
    parts, count, digest = WIDE[text]
    got = min_excluded(GenPartition(parts))
    assert len(got) == count
    assert hashlib.sha256(";".join(map(str, got)).encode()).hexdigest()[:16] == digest


def test_walk_decides_no_tail_afresh(monkeypatch):
    # each tail's layer is one step from its parent's, so no tail is handed
    # to _tail_below; on inf,3^11 the candidates build 10,593 tail covers,
    # where the box walk decided each of 51,968 tails afresh
    tail_calls, built = [], []
    tail_below, tail_covers = partitions._tail_below, partitions._tail_covers

    def building(tau):
        for cover in tail_covers(tau):
            built.append(cover)
            yield cover

    def deciding(*args):
        tail_calls.append(args)
        return tail_below(*args)

    monkeypatch.setattr(partitions, "_tail_below", deciding)
    monkeypatch.setattr(partitions, "_tail_covers", building)
    assert len(min_excluded(GenPartition([INF] + [3] * 11))) == 77
    assert tail_calls == []
    assert len(built) < 20_000


@pytest.mark.parametrize("max_length,max_part", [(0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (3, 3), (5, 6)])
def test_box_parts_order(max_length, max_part):
    streamed = list(_box_parts(max_length, max_part))
    assert streamed == [q.parts for q in finite_partitions_in_box(max_length, max_part)]
    independent = sorted(
        c[::-1]
        for n in range(1, max_length + 1)
        for c in itertools.combinations_with_replacement(range(1, max_part + 1), n)
    )
    assert streamed == independent


@pytest.mark.parametrize("max_sum", [0, 1, 4, 7, 30])
def test_box_parts_sum_bound(max_sum):
    # the sum bound prunes the box and keeps its order
    streamed = list(_box_parts(4, 5, max_sum))
    assert streamed == [p for p in _box_parts(4, 5) if sum(p) <= max_sum]
