"""Finitary points, finite point-set varieties, and the closure calculus.

A finitary point is a finite list of distinct rational values with
multiplicities in N ∪ {inf}, at least one of them infinite.  A point-set
variety is a finite set of rational tuples inside the affine space attached
to a generalized composition.  This module computes the endomorphism
closure; the point action of correspondences lives with them, in
``corr.apply_corr``.  The slices of the closure system need neither: each
is read off the points of Z collapsed along their values (see
``gamma_at``), with the maps of ``partitions.weight_maps``, which the
closure also takes.  Membership and containment build no slice: they follow
the paper's point-set description (see ``theta_member``).  Values are ints
or Fractions, keyed once, at construction (see ``_key``): a finitary point
holds only its keyed classes, and a point set holds, per point, the room of
each of its values.  A query makes at most one lookup per class per point:
it leaves a point at the first class the point fails, and stops at the
first point that passes.  A slice search reads the rooms, hashing ints
where the values are integral.  The constructor builds the room tables; a
slice that ``gamma_at`` returns builds them only when they are first read.
"""

import json
import re
from fractions import Fraction
from itertools import chain

from .partitions import (
    INF,
    GenComposition,
    GenPartition,
    _Frozen,
    _check_weight,
    parse_weight,
    weight_maps,
)


class DistinctnessError(ValueError):
    """Raised when an operation requires points with pairwise distinct
    coordinates and the input violates that."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational(value):
    """`value` as a Fraction.  Only an int (not a bool, as in
    ``partitions._check_weight``) or a Fraction is a value: a float's binary
    expansion is seldom the number meant."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"a value must be an int or a Fraction, got {value!r}")


def _key(value):
    """The key of a Fraction: its numerator when it is integral, else the
    Fraction itself.  Equal values get equal keys, and int keys hash and
    compare without running Python code."""
    return value.numerator if value.denominator == 1 else value


def _parse_rational(text):
    text = text.strip()
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ValueError(f"bad rational {text!r} (expected an integer or p/q)")
    num, den = int(m.group(1)), int(m.group(2) or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


class FinitaryPoint(_Frozen):
    """Finitely many distinct rational values with multiplicities, at least
    one multiplicity infinite.  ``classes`` holds (``_key(value)``, mult)
    pairs in canonical order: infinite classes first, then by decreasing
    multiplicity, ties by increasing value.  A multiplicity is a weight
    (``partitions._check_weight``) other than 0."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        keyed = sorted([(_key(_rational(v)), _check_weight(m)) for v, m in classes],
                       key=lambda cm: (-cm[1], cm[0]))
        if len({k for k, _ in keyed}) != len(keyed):
            raise ValueError("values must be pairwise distinct")
        if INF not in (m for _, m in keyed):
            raise ValueError("a finitary point needs at least one infinite class")
        object.__setattr__(self, "classes", tuple(keyed))

    @classmethod
    def parse(cls, text: str) -> "FinitaryPoint":
        """Literal grammar: comma-separated value^mult, e.g. ``0^inf,1^3``."""
        classes = []
        for tok in text.strip().split(","):
            if "^" not in tok:
                raise ValueError(f"bad point class {tok!r} (expected value^mult)")
            val, mult = tok.split("^", 1)
            classes.append((_parse_rational(val), parse_weight(mult)))
        return cls(classes)

    @property
    def width(self) -> int:
        return len(self.classes)

    def __eq__(self, other):
        return isinstance(other, FinitaryPoint) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def __str__(self):
        return ",".join(f"{v}^{m}" for v, m in self.classes)

    def __repr__(self):
        return f"FinitaryPoint({self})"


def type_of(x: FinitaryPoint) -> GenPartition:
    """Multiplicity profile, sorted non-increasing."""
    return GenPartition(m for _, m in x.classes)


class PointSetVariety(_Frozen):
    """Finite set of rational tuples in the affine space of a composition.

    Coordinates follow the sorted label order of the ambient composition.
    Every value is keyed once, at construction (see ``_key``), and all later
    work runs on the keys.  ``keys`` holds each point's key tuple, in the
    order of ``points``; ``tables`` holds, for each point, a dict from its
    keys to their rooms, the room of a value being the sum of the weights
    at its positions; ``distinct`` says whether no point repeats a value,
    so that every room is one weight.  The slice search (``gamma_at``) reads
    the rooms and maps its result back to Z's own values.

    The constructor fills all five slots, so membership and containment
    read plain slots.  A ``_Slice`` (what ``gamma_at`` returns) builds
    ``tables`` and ``distinct`` on their first read.
    """

    __slots__ = ("lam", "points", "keys", "tables", "distinct")

    def __init__(self, lam: GenComposition, points):
        # the keys do the dedup and the sort.  Coordinates that are already
        # rationals are kept, not copied: points built from other points
        # share their values.
        keyed = {}
        for p in points:
            values = tuple(map(_rational, p))
            keyed.setdefault(tuple(map(_key, values)), values)
        keys = tuple(sorted(keyed))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "points", tuple(map(keyed.__getitem__, keys)))
        object.__setattr__(self, "keys", keys)
        self._fill()

    def _fill(self):
        """Build ``tables`` and ``distinct`` from ``keys``: a value's room
        sums the weights at its positions, and the points are distinct when
        every table has one entry per label."""
        length = self.lam.length
        weights = list(map(self.lam.weight, self.lam.labels))
        tables = []
        for k in self.keys:
            if len(k) != length:
                raise ValueError("each point needs one coordinate per label")
            table = {}
            for v, w in zip(k, weights):
                table[v] = table.get(v, 0) + w
            tables.append(table)
        object.__setattr__(self, "tables", tuple(tables))
        object.__setattr__(self, "distinct", all(len(t) == length for t in tables))

    def require_distinct(self):
        if not self.distinct:
            raise DistinctnessError(
                "operation requires points with pairwise distinct coordinates"
            )

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (
            isinstance(other, PointSetVariety)
            and self.lam == other.lam
            and self.points == other.points
        )

    def __hash__(self):
        return hash((self.lam, self.points))

    def __repr__(self):
        return f"PointSetVariety(lam={self.lam!r}, points={len(self.points)})"


class _Slice(PointSetVariety):
    """The set whose sorted key tuples are ``keys`` and whose points are
    ``points``, in the same order: what ``gamma_at`` returns, whose readers
    mostly read only the points.  Its room tables are built on the first
    read of ``tables`` or ``distinct``.  The hook lives here and not on
    ``PointSetVariety``, because a ``__getattr__`` makes every attribute
    read on a class's instances slower, and membership reads ``tables``
    once per query."""

    __slots__ = ()

    def __init__(self, lam: GenComposition, keys: tuple, points: tuple):
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "keys", keys)

    def __getattr__(self, name):
        if name not in ("tables", "distinct"):
            raise AttributeError(name)
        self._fill()
        return object.__getattribute__(self, name)


def variety_from_json(text: str) -> PointSetVariety:
    """Variety file format: JSON object with ``lambda`` (list of naturals or
    "inf") and ``points`` (list of coordinate lists; rationals as "p/q").
    Weights are sorted non-increasing, infinite first and equal weights in
    file order, permuting coordinates along."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a variety file must hold a JSON object")
    for key in ("lambda", "points"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    raw = data["lambda"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("lambda must be a non-empty list")
    weights = [parse_weight(str(w)) for w in raw]
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    lam = GenComposition.from_weights([weights[i] for i in order])
    if not isinstance(data["points"], list):
        raise ValueError("points must be a list")
    pts = []
    for p in data["points"]:
        if not isinstance(p, list):
            raise ValueError("each point must be a list of coordinates")
        if len(p) != len(weights):
            raise ValueError("point length does not match lambda")
        coords = [_parse_rational(str(c)) for c in p]
        pts.append(tuple(coords[i] for i in order))
    return PointSetVariety(lam, pts)


def end_closure(lam: GenComposition, Z: PointSetVariety) -> PointSetVariety:
    """Closure of Z under all weight-respecting self-maps of lam.  For a
    finite point set this is a finite union of coordinate rearrangements,
    already Zariski closed, and the construction is idempotent.  Each map
    is a position tuple: coordinate i reads position idx[i]."""
    if Z.lam != lam:
        raise ValueError("point set does not live over lam")
    weights = [lam.weight(k) for k in lam.labels]
    maps = weight_maps(weights, range(lam.length), weights)
    return PointSetVariety(lam, {tuple([z[i] for i in idx]) for idx in maps for z in Z.points})


def _gamma_points(tables, mu: GenComposition) -> set:
    """The tuples p . sigma of ``gamma_at``, for the points p of a set whose
    room tables (``PointSetVariety.tables``) are `tables`; the set need not
    be closed under End(lam).  Each label of mu goes to a key of p, and the
    mu weights sent to a key fit in its room.  The tuples hold keys:
    ``gamma_at`` maps them back to values, and ``i_lambda_z`` needs only
    that they hash and compare like the values."""
    weights = [mu.weight(i) for i in mu.labels]
    out = set()
    for t in tables:
        out.update(weight_maps(weights, list(t), t.values()))
    return out


def _check_slice(lam: GenComposition, Z, width: int):
    """The input errors of a slice, over a composition of `width` labels, of
    the system generated by Z, in the order the construction meets them.
    Z is None where the caller has checked that it lives over lam."""
    if width == 0:
        raise ValueError("the slice composition must be non-empty")
    if Z is not None and Z.lam != lam:
        raise ValueError("point set does not live over lam")
    if not lam.is_infinite:
        raise ValueError("the ambient composition must have an infinite part")


def gamma_at(lam: GenComposition, Z: PointSetVariety, mu: GenComposition) -> PointSetVariety:
    """Slice over mu of the smallest compatible closed system containing Z
    over lam: the finite union, over good correspondences mu ~> lam, of the
    correspondence action on Z.  It is computed as the union over p in Z of
    {p . sigma : sigma in Hom(mu, lam_p)}, where lam_p collapses lam along
    the values of p: one label per distinct value v, weighing the ext-sum
    of lam_k over the positions k with p_k = v.

    The endomorphism closure of Z would add no point.  Applying f in End(lam)
    and then a good correspondence (f1, f2) is the action of (f1, f . f2),
    which is again good (goodness constrains only f1 and lam) and again
    weight-respecting (f . f2 composes weight-respecting maps), so its image
    is already in the union.

    The collapse.  A good correspondence has an image at p exactly when the
    positions that f2 sends each f1-fiber to carry one value of p, which
    the image reads at that label of mu; the mu weights so sent to a value
    v fit into the positions of v, because f1 is principal and f2 respects
    weights.  Conversely, given sigma, each label i goes whole to an
    infinite position of sigma(i) if there is one.  Otherwise the weights
    sent to v = sigma(i) are finite and at most e (the finite weight of lam)
    in all, and they fill the positions of v in turn, at most one part per
    position each.  Only weights of at most e are split, so this is a good
    correspondence with image p . sigma.

    For infinite mu this is the mu-slice of the closure system; for finite
    mu it is the extended slice used by the equation synthesis.  The search
    reads Z's room tables, which are the collapses lam_p; each key of the
    result maps back to Z's own value, so its points are Fractions that Z
    holds.  The key tuples are sorted once, and the result builds its own
    room tables only if they are read (see ``_Slice``).
    """
    _check_slice(lam, Z, mu.length)
    value = dict(zip(chain.from_iterable(Z.keys), chain.from_iterable(Z.points)))
    keys = tuple(sorted(_gamma_points(Z.tables, mu)))
    return _Slice(mu, keys, tuple([tuple(map(value.__getitem__, ks)) for ks in keys]))


def _covered(tables, needs) -> bool:
    """Does some room table give each (key, need) pair of `needs` a room of
    at least its need (a key it lacks has room 0)?  A table is left at its
    first failing pair; the search stops at the first table that passes."""
    for t in tables:
        for k, need in needs:
            if t.get(k, 0) < need:
                break
        else:
            return True
    return False


def theta_member(lam: GenComposition, Z: PointSetVariety, x: FinitaryPoint) -> bool:
    """Does the finitary point x lie in the stable closed set classified by
    (lam, Z)?

    The point-set rule: x is a member iff some p in Z has, for every class
    (v, m) of x, a position k with p_k = v and m <= lam_k.  Proof sketch: a
    tuple over the type mu of x lies in the mu-slice iff it is p . sigma for
    some p in Z and a weight-respecting sigma: mu -> lam.  The coordinates
    of p are distinct, so sigma must send the label carrying v to the one
    position of v in p, and it respects weights iff each class fits there:
    one lookup in p's table per class, where a value p lacks reads as weight
    0, below every multiplicity.
    """
    Z.require_distinct()
    _check_slice(lam, Z, x.width)
    return _covered(Z.tables, x.classes)


def contains(mu: GenComposition, Z1: PointSetVariety, lam: GenComposition,
             Z2: PointSetVariety) -> bool:
    """Containment of the classified set of (mu, Z1) in that of (lam, Z2).

    The point-set rule: it holds iff every p1 in Z1 has some p2 in Z2 such
    that, for every i, (p1)_i = (p2)_k for some k with mu_i <= lam_k; that
    is, p1 lies in the mu-slice of the system of Z2, by the argument in
    ``theta_member``.
    """
    Z1.require_distinct()
    Z2.require_distinct()
    if Z1.lam != mu or Z2.lam != lam:
        raise ValueError("point sets must live over the stated compositions")
    _check_slice(lam, None, mu.length)
    for t1 in Z1.tables:
        if not _covered(Z2.tables, t1.items()):
            return False
    return True
