"""Finitary points, finite point-set varieties, and the closure calculus.

A finitary point is a finite list of distinct rational values with
multiplicities in N ∪ {inf}, at least one of them infinite.  A point-set
variety is a finite set of rational tuples inside the affine space attached
to a generalized composition.  This module computes point actions of maps
and correspondences, the endomorphism closure, the slice-wise closure
construction over good correspondences, membership of finitary points, and
containment between classified pairs.
"""

import itertools
import json
from fractions import Fraction

from .corr import Correspondence, enumerate_end, enumerate_good
from .partitions import (
    INF,
    GenComposition,
    GenPartition,
    aut,
    format_weight,
    is_inf,
    parse_weight,
)


class DistinctnessError(ValueError):
    """Raised when an operation requires points with pairwise distinct
    coordinates and the input violates that."""


def _parse_rational(text):
    text = text.strip()
    if "/" in text:
        num, den = (int(s) for s in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    return str(q)


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
        cleaned.sort(key=lambda cm: (0 if is_inf(cm[1]) else 1,
                                     0 if is_inf(cm[1]) else -cm[1], cm[0]))
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
        return ",".join(f"{format_rational(v)}^{format_weight(m)}" for v, m in self.classes)

    def __repr__(self):
        return f"FinitaryPoint({self})"

    def __setattr__(self, name, value):
        raise AttributeError("FinitaryPoint is immutable")


def type_of(x: FinitaryPoint) -> GenPartition:
    """Multiplicity profile, sorted non-increasing."""
    return GenPartition(m for _, m in x.classes)


def width_at_most(x: FinitaryPoint, n: int) -> bool:
    return x.width <= n


class PointSetVariety:
    """Finite set of rational tuples in the affine space of a composition.

    Coordinates follow the sorted label order of the ambient composition.
    """

    __slots__ = ("lam", "points")

    def __init__(self, lam: GenComposition, points):
        pts = sorted({tuple(Fraction(c) for c in p) for p in points})
        for p in pts:
            if len(p) != lam.length:
                raise ValueError("each point needs one coordinate per label")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "points", tuple(pts))

    @property
    def has_distinct_coordinates(self) -> bool:
        return all(len(set(p)) == len(p) for p in self.points)

    def require_distinct(self):
        if not self.has_distinct_coordinates:
            raise DistinctnessError(
                "operation requires points with pairwise distinct coordinates"
            )

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return tuple(Fraction(c) for c in p) in set(self.points)

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
    Weights are sorted non-increasing, permuting coordinates along."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a variety file must hold a JSON object")
    raw = data["lambda"]
    if not isinstance(raw, list):
        raise ValueError("lambda must be a list")
    weights = [parse_weight(str(w)) for w in raw]
    order = sorted(range(len(weights)), key=lambda i: (0 if is_inf(weights[i]) else 1,
                                                       0 if is_inf(weights[i]) else -weights[i],
                                                       i))
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


def act_point(f, x):
    """Point action of a map of compositions: coordinate i receives x_{f(i)}.

    `x` is a tuple over the codomain labels; the result lives over the
    domain labels.
    """
    cod_pos = {k: i for i, k in enumerate(f.codomain.labels)}
    return tuple(x[cod_pos[f.table[i]]] for i in f.domain.labels)


def _corr_image(f: Correspondence, pts) -> set:
    """Raw image point set of a correspondence action on tuples over its
    source: push through the second leg, keep tuples constant on the first
    leg's fibers, collapse the fibers."""
    src_pos = {k: i for i, k in enumerate(f.source.labels)}
    f2_idx = [src_pos[f.f2.table[j]] for j in f.rho.labels]
    rho_pos = {k: i for i, k in enumerate(f.rho.labels)}
    fibers = [[rho_pos[j] for j in f.f1.fiber(i)] for i in f.target.labels]
    out = set()
    for s in pts:
        y = [s[i] for i in f2_idx]
        coords = []
        for positions in fibers:
            v0 = y[positions[0]]
            if any(y[p] != v0 for p in positions[1:]):
                coords = None
                break
            coords.append(v0)
        if coords is not None:
            out.add(tuple(coords))
    return out


def apply_corr(f: Correspondence, S: PointSetVariety) -> PointSetVariety:
    """Point action of a correspondence: push through the second leg, then
    take the preimage along the first (possible exactly when the pushed
    tuple is constant on the first leg's fibers)."""
    if S.lam != f.source:
        raise ValueError("point set does not live over the correspondence source")
    return PointSetVariety(f.target, _corr_image(f, S.points))


def end_closure(lam: GenComposition, Z: PointSetVariety) -> PointSetVariety:
    """Closure of Z under all weight-respecting self-maps of lam.  For a
    finite point set this is a finite union of coordinate rearrangements,
    already Zariski closed, and the construction is idempotent."""
    if Z.lam != lam:
        raise ValueError("point set does not live over lam")
    pts = set()
    for f in enumerate_end(lam):
        for z in Z.points:
            pts.add(act_point(f, z))
    return PointSetVariety(lam, pts)


def _gamma_points(lam: GenComposition, closed_pts, mu: GenComposition) -> set:
    pts = set()
    for f in enumerate_good(mu, lam):
        pts |= _corr_image(f, closed_pts)
    return pts


def gamma_at(lam: GenComposition, Z: PointSetVariety, mu: GenComposition) -> PointSetVariety:
    """Slice over mu of the smallest compatible closed system containing Z
    over lam: the finite union, over good correspondences mu ~> lam, of the
    correspondence action on the endomorphism closure of Z.

    For infinite mu this is the mu-slice of the closure system; for finite
    mu it is the extended slice used by the equation synthesis.
    """
    if mu.length == 0:
        raise ValueError("gamma_at requires a non-empty composition")
    Ze = end_closure(lam, Z)
    return PointSetVariety(mu, _gamma_points(lam, Ze.points, mu))


def _arrangements(x: FinitaryPoint, mu: GenComposition):
    """Tuples over mu placing each value class on a label of its own
    multiplicity; ties among equal multiplicities range over all matchings."""
    by_weight = {}
    for k in mu.labels:
        by_weight.setdefault(mu.weight(k), []).append(k)
    classes_by_weight = {}
    for v, m in x.classes:
        classes_by_weight.setdefault(m, []).append(v)
    if {w: len(ls) for w, ls in by_weight.items()} != {
        w: len(vs) for w, vs in classes_by_weight.items()
    }:
        return
    weights = sorted(by_weight, key=lambda w: (0 if is_inf(w) else 1, 0 if is_inf(w) else -w))
    label_blocks = [by_weight[w] for w in weights]
    value_blocks = [classes_by_weight[w] for w in weights]
    pos = {k: i for i, k in enumerate(mu.labels)}
    for perm_choice in itertools.product(*(itertools.permutations(vs) for vs in value_blocks)):
        coords = [None] * mu.length
        for labels, values in zip(label_blocks, perm_choice):
            for k, v in zip(labels, values):
                coords[pos[k]] = v
        yield tuple(coords)


def theta_member(lam: GenComposition, Z: PointSetVariety, x: FinitaryPoint) -> bool:
    """Does the finitary point x lie in the stable closed set classified by
    (lam, Z)?  Decided by arranging x's distinct values into a tuple of its
    type and testing the slice of the closure system there."""
    Z.require_distinct()
    mu = GenComposition.from_partition(type_of(x))
    slice_pts = set(gamma_at(lam, Z, mu).points)
    if not slice_pts:
        return False
    return any(z in slice_pts for z in _arrangements(x, mu))


def contains(mu: GenComposition, Z1: PointSetVariety, lam: GenComposition,
             Z2: PointSetVariety) -> bool:
    """Containment of the classified set of (mu, Z1) in that of (lam, Z2):
    a finite check of Z1 against the mu-slice of the closure system of Z2."""
    Z1.require_distinct()
    Z2.require_distinct()
    if Z1.lam != mu or Z2.lam != lam:
        raise ValueError("point sets must live over the stated compositions")
    if not Z1.points:
        return True
    slice_pts = set(gamma_at(lam, Z2, mu).points)
    return all(p in slice_pts for p in Z1.points)


def aut_orbits(lam: GenComposition, Z: PointSetVariety) -> list:
    """Orbits of Z under the weight-preserving label permutations acting on
    coordinates.  Z is irreducible for this action iff there is one orbit."""
    Z.require_distinct()
    pos = {k: i for i, k in enumerate(lam.labels)}
    perms = aut(lam)
    remaining = set(Z.points)
    orbits = []
    while remaining:
        seed = min(remaining)
        full = set()
        frontier = {seed}
        while frontier:
            p = frontier.pop()
            full.add(p)
            for t in perms:
                q = tuple(p[pos[t[k]]] for k in lam.labels)
                if q in remaining and q not in full:
                    frontier.add(q)
        remaining -= full
        orbits.append(tuple(sorted(full)))
    return sorted(orbits)
