"""Every value of the package refuses both assignment and ``del``.

The value classes are found by walking the ``symvar`` modules: each class
defined there with ``__slots__`` is one, so a new value class is covered
without being listed here.  Each is tested on an instance whose slots are
set without its constructor, and a ``gamma_at`` result (a
``variety._Slice``, whose room tables are built on first read) is tested
as returned.
"""

import importlib
import pkgutil

import pytest

import symvar
from symvar.partitions import GenComposition, GenPartition
from symvar.variety import PointSetVariety, gamma_at


def value_classes():
    for info in pkgutil.iter_modules(symvar.__path__):
        module = importlib.import_module(f"symvar.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and "__slots__" in vars(obj)):
                yield obj


def slots(cls) -> list:
    return [slot for klass in cls.__mro__ for slot in vars(klass).get("__slots__", ())]


def filled(cls):
    """An instance of `cls` with each slot set to its own name."""
    value = object.__new__(cls)
    for slot in slots(cls):
        object.__setattr__(value, slot, slot)
    return value


def a_slice():
    lam = GenComposition.from_partition(GenPartition.parse("inf,inf,2"))
    Z = PointSetVariety(lam, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    return gamma_at(lam, Z, GenComposition.from_partition(GenPartition.parse("inf,1")))


CASES = [pytest.param(lambda cls=cls: filled(cls), slot, id=f"{cls.__name__}.{slot}")
         for cls in value_classes() for slot in slots(cls)]
CASES += [pytest.param(a_slice, slot, id=f"gamma_at.{slot}") for slot in slots(type(a_slice()))]


def test_cases_cover_the_value_classes():
    names = {case.id.split(".")[0] for case in CASES}
    assert {"GenPartition", "PointSetVariety", "_Slice", "SliceFactor", "Correspondence",
            "TypeIdeal", "gamma_at"} <= names


@pytest.mark.parametrize("make, slot", CASES)
def test_assignment_and_del_are_refused(make, slot):
    value = make()
    before = getattr(value, slot)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, slot, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(value, slot)
    assert getattr(value, slot) is before
