"""The one search for weight-respecting maps, and the code that reads it.

``partitions.weight_maps`` gives ``corr.enumerate_end``, ``variety.end_closure``
and the slices of ``variety.gamma_at`` their maps.  Each is checked here
against the direct search it replaced (``tests/oracles.py``), so the search
does not judge itself.
"""

import itertools

import pytest

from symvar import selfcheck, variety
from symvar.corr import enumerate_end
from symvar.partitions import INF, GenComposition, weight_maps

from oracles import enumerate_end_by_product


def weight_maps_by_product(weights, labels, rooms):
    """Every tuple of labels, kept when no slot is overfilled."""
    out = []
    for images in itertools.product(range(len(labels)), repeat=len(weights)):
        if all(sum(w for w, j in zip(weights, images) if j == slot) <= room
               for slot, room in enumerate(rooms)):
            out.append(tuple(labels[j] for j in images))
    return out


@pytest.mark.parametrize("weights, rooms", [
    ([1], [INF]),
    ([INF, INF], [INF, 1]),
    ([INF, 1, 1], [INF, 1, 1]),
    ([2, 1, 1], [2, 1, 1]),
    ([3, 2], [2, 1]),
    ([1, 1, 1, 1, 1], [2, 3]),
    ([INF, 2, 1, 1, 1], [INF, 4, 1]),
    ([1, 2, INF], [1, 1, 1]),
])
def test_weight_maps_match_product(weights, rooms):
    labels = [f"slot{j}" for j in range(len(rooms))]
    assert weight_maps(weights, labels, rooms) == weight_maps_by_product(weights, labels, rooms)


def test_empty_weights_give_the_empty_map():
    assert weight_maps([], [], []) == [()]
    assert weight_maps([], ["a"], [1]) == [()]


def test_labels_are_emitted_as_given():
    # a finite room shrinks, an infinite one does not
    assert weight_maps([1, 1], ["a", "b"], [1, INF]) == [("a", "b"), ("b", "a"), ("b", "b")]


def test_enumerate_end_matches_product_on_small_compositions():
    count = 0
    for n in range(1, 5):
        for weights in itertools.product([1, 2, 3, INF], repeat=n):
            lam = GenComposition.from_weights(weights)
            assert enumerate_end(lam) == enumerate_end_by_product(lam), weights
            count += 1
    assert count == 340


def test_enumerate_end_on_inf_and_six_ones():
    lam = GenComposition.from_weights([INF] + [1] * 6)
    assert len(enumerate_end(lam)) == 13327


def weight_maps_without_shrinking(weights, labels, rooms):
    """``weight_maps`` with rooms that never shrink: a weight fits any slot
    at least its size, however many weights went there before."""
    return list(itertools.product(*([labels[j] for j, r in enumerate(rooms) if w <= r]
                                    for w in weights)))


def test_selfcheck_catches_rooms_that_never_shrink(monkeypatch):
    # the slices and end_closure take their maps from variety's weight_maps;
    # selfcheck's correspondence route does not, so it sees the extra points
    monkeypatch.setattr(variety, "weight_maps", weight_maps_without_shrinking)
    summary = selfcheck.run_all(1)
    assert summary["ok"] is False
    assert "endomorphism closure: FAIL" in selfcheck.report(summary)
