"""Finitary points, finite point-set varieties, and the closure calculus.

A finitary point is a finite list of distinct rational values with
multiplicities in N ∪ {inf}, at least one of them infinite.  A point-set
variety is a finite set of rational tuples inside the affine space attached
to a generalized composition.  This module computes the point action of
correspondences and the endomorphism closure.  The slices of the closure
system need neither: each is read off the points of Z collapsed along their
values (see ``gamma_at``); both take their maps from
``partitions.weight_maps``.  Membership and containment build no slice:
they follow the paper's point-set description, one pass over Z per query
(see ``theta_member``).
"""

import json
from fractions import Fraction

from .partitions import (
    GenComposition,
    GenPartition,
    is_inf,
    parse_weight,
    weight_maps,
)


class DistinctnessError(ValueError):
    """Raised when an operation requires points with pairwise distinct
    coordinates and the input violates that."""


def _parse_rational(text):
    text = text.strip()
    try:
        if "/" in text:
            num, den = (int(s) for s in text.split("/", 1))
        else:
            num, den = int(text), 1
    except ValueError:
        raise ValueError(f"bad rational {text!r} (expected an integer or p/q)") from None
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


class FinitaryPoint:
    """Finitely many distinct rational values with multiplicities, at least
    one multiplicity infinite.  Canonical order: infinite classes first,
    then by decreasing multiplicity, ties by increasing value."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        cleaned = []
        for value, mult in classes:
            value = Fraction(value)
            if not is_inf(mult):
                if not isinstance(mult, int) or mult < 1:
                    raise ValueError(f"multiplicity must be positive or INF, got {mult!r}")
            cleaned.append((value, mult))
        values = [v for v, _ in cleaned]
        if len(set(values)) != len(values):
            raise ValueError("values must be pairwise distinct")
        if not any(is_inf(m) for _, m in cleaned):
            raise ValueError("a finitary point needs at least one infinite class")
        cleaned.sort(key=lambda cm: (-cm[1], cm[0]))
        object.__setattr__(self, "classes", tuple(cleaned))

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

    def __setattr__(self, name, value):
        raise AttributeError("FinitaryPoint is immutable")


def type_of(x: FinitaryPoint) -> GenPartition:
    """Multiplicity profile, sorted non-increasing."""
    return GenPartition(m for _, m in x.classes)


class PointSetVariety:
    """Finite set of rational tuples in the affine space of a composition.

    Coordinates follow the sorted label order of the ambient composition.
    """

    __slots__ = ("lam", "points")

    def __init__(self, lam: GenComposition, points):
        # coordinates that are already rationals are kept, not copied: points
        # built from other points share their values, and equal values that
        # are one object compare without any Fraction arithmetic
        pts = sorted({tuple(c if type(c) is Fraction else Fraction(c) for c in p)
                      for p in points})
        for p in pts:
            if len(p) != lam.length:
                raise ValueError("each point needs one coordinate per label")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "points", tuple(pts))

    def require_distinct(self):
        if any(len(set(p)) != len(p) for p in self.points):
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

    def __setattr__(self, name, value):
        raise AttributeError("PointSetVariety is immutable")


def variety_to_json(Z: PointSetVariety) -> str:
    lam = ["inf" if is_inf(w) else w for _, w in Z.lam.items()]
    pts = [[str(c) if c.denominator != 1 else int(c) for c in p] for p in Z.points]
    return json.dumps({"lambda": lam, "points": pts}, sort_keys=True)


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
    if not isinstance(raw, list):
        raise ValueError("lambda must be a list")
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


def apply_corr(f: "Correspondence", S: PointSetVariety) -> PointSetVariety:
    """Point action of a correspondence: push through the second leg, then
    take the preimage along the first (possible exactly when the pushed
    tuple is constant on the first leg's fibers)."""
    if S.lam != f.source:
        raise ValueError("point set does not live over the correspondence source")
    checks, reads = f.action
    return PointSetVariety(f.target, {tuple([s[r] for r in reads]) for s in S.points
                                      if all(s[a] == s[b] for a, b in checks)})


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


def _gamma_points(lam: GenComposition, closed_pts, mu: GenComposition) -> set:
    """The tuples p . sigma of ``gamma_at`` for p in `closed_pts`, which need
    not be closed under End(lam).  They hold p's own value objects."""
    weights = [mu.weight(i) for i in mu.labels]
    lam_weights = [lam.weight(k) for k in lam.labels]
    out = set()
    for p in closed_pts:
        values = list(dict.fromkeys(p))
        room = [sum(w for q, w in zip(p, lam_weights) if q == v) for v in values]
        out.update(weight_maps(weights, values, room))
    return out


def _check_slice(lam: GenComposition, Z: PointSetVariety, mu: GenComposition):
    """The input errors of a slice over mu of the system generated by Z, in
    the order the construction meets them."""
    if mu.length == 0:
        raise ValueError("the slice composition must be non-empty")
    if Z.lam != lam:
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
    mu it is the extended slice used by the equation synthesis.
    """
    _check_slice(lam, Z, mu)
    return PointSetVariety(mu, _gamma_points(lam, Z.points, mu))


def _realizes(lam: GenComposition, p, pairs) -> bool:
    """Does every (value, weight) pair find the value in p at a position of
    at least that weight in lam?  The coordinates of p are distinct."""
    capacity = dict(zip(p, map(lam.weight, lam.labels)))
    return all(v in capacity and w <= capacity[v] for v, w in pairs)


def theta_member(lam: GenComposition, Z: PointSetVariety, x: FinitaryPoint) -> bool:
    """Does the finitary point x lie in the stable closed set classified by
    (lam, Z)?

    The point-set rule: x is a member iff some p in Z has, for every class
    (v, m) of x, a position k with p_k = v and m <= lam_k.  Proof sketch: a
    tuple over the type mu of x lies in the mu-slice iff it is p . sigma for
    some p in Z and a weight-respecting sigma: mu -> lam.  The coordinates
    of p are distinct, so sigma must send the label carrying v to the one
    position of v in p, and it respects weights iff each class fits there.
    """
    Z.require_distinct()
    _check_slice(lam, Z, GenComposition.from_partition(type_of(x)))
    return any(_realizes(lam, p, x.classes) for p in Z.points)


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
    if not Z1.points:
        return True
    _check_slice(lam, Z2, mu)
    weights = [mu.weight(i) for i in mu.labels]
    return all(any(_realizes(lam, p2, zip(p1, weights)) for p2 in Z2.points)
               for p1 in Z1.points)


def aut_orbits(lam: GenComposition, Z: PointSetVariety) -> list:
    """Orbits of Z under the weight-preserving label permutations acting on
    coordinates.  Z is irreducible for this action iff there is one orbit.

    The permutations permute each block of equal-weight labels freely, so p
    and q share an orbit iff they carry the same multiset of values on every
    block, that is, the same multiset of (weight, value) pairs.  Points are
    grouped by that key; no permutation is enumerated.
    """
    Z.require_distinct()
    weights = [lam.weight(k) for k in lam.labels]
    orbits = {}
    for p in Z.points:  # sorted, so each orbit is too
        orbits.setdefault(tuple(sorted(zip(weights, p))), []).append(p)
    return sorted(tuple(orbit) for orbit in orbits.values())
