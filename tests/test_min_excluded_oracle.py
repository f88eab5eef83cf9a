"""``min_excluded`` against the quadratic minimality filter it replaced.

The oracle keeps the box of partitions with at most length(lam)+1 parts,
each at most finite_weight(lam)+1, drops those below lam, and keeps the
excluded ones with no other excluded box member below them.  The cover
test must give the same antichain on every lam with at most 4 parts and
finite weight at most 5, and on the sweep inf^k,2k-2.  The tail identity
that lets ``min_excluded`` hand ``preceq`` only the finite remainder is
checked on the same boxes.  The oracle decides the order with
``preceq_by_groups``, the search over all of lam's parts, so the tail
reduction inside ``preceq`` is not the judge of itself.  Every answer has
alpha_0 = ... = alpha_k, which is why only tails are walked; a work guard
counts the lower-cover tests this leaves.
"""

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

from oracles import preceq_by_groups


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


def test_lower_cover_work_guard(monkeypatch):
    # inf^8,12 has 104 tails (at most 2 parts, each at most 13), so at most
    # C(15,2) - 1 candidates reach the cover test; walking the whole
    # 10-part box made 646,647 cover tests.
    calls = []
    lower_covers = partitions._lower_covers

    def counting(parts):
        calls.append(parts)
        return lower_covers(parts)

    monkeypatch.setattr(partitions, "_lower_covers", counting)
    got = min_excluded(INF8_12)
    assert got == [GenPartition((1,) * 10), GenPartition((13,) * 9)]
    assert 0 < len(calls) <= 104


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
