"""Maps of generalized compositions and correspondences.

A map f from composition lam to composition mu is a function on labels whose
fiber ext-sums are bounded by the target weights.  A correspondence lam ~> mu
is a pair (f1, f2) with f1 a principal surjection onto lam and f2 an
arbitrary map to mu; correspondences act on point sets via pushforward along
f2 followed by the f1-preimage (``apply_corr``, the one place that point
action is computed).  No pipeline path runs them: ``variety.gamma_at``
builds the slices they define directly, from the search
(``partitions.weight_maps``) that also gives End(lam) and the second leg
of each good correspondence (``enumerate_good``).

Both classes are immutable values (``partitions._Frozen``); enumeration
output order is deterministic.
"""

import itertools

from .partitions import INF, GenComposition, _Frozen, _box_parts, weight_maps
from .variety import PointSetVariety


class CompMap(_Frozen):
    """Weight-respecting function between generalized compositions."""

    __slots__ = ("domain", "codomain", "table", "_fibers")

    def __init__(self, domain: GenComposition, codomain: GenComposition, table: dict):
        if set(table) != set(domain.labels):
            raise ValueError("table must be defined on exactly the domain labels")
        if not set(table.values()) <= set(codomain.labels):
            raise ValueError("table values must be codomain labels")
        # one pass over the domain: each codomain label, in label order, to
        # its fiber and the ext-sum of the fiber's weights
        fibers = {j: [] for j in codomain.labels}
        for i in domain.labels:
            fibers[table[i]].append(i)
        fibers = {j: (tuple(fiber), sum(map(domain.weight, fiber))) for j, fiber in fibers.items()}
        for j, (_, s) in fibers.items():
            if s > codomain.weight(j):
                raise ValueError(
                    f"weight condition fails at label {j}: fiber sums to {s} > {codomain.weight(j)}"
                )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "table", dict(table))
        object.__setattr__(self, "_fibers", fibers)

    def fiber(self, j):
        """The domain labels sent to the codomain label j, in label order."""
        return self._fibers[j][0]

    @property
    def is_principal(self) -> bool:
        """Pushforward weights hit the codomain weights exactly."""
        return all(s == self.codomain.weight(j) for j, (_, s) in self._fibers.items())

    @property
    def is_injection(self) -> bool:
        vals = list(self.table.values())
        return len(set(vals)) == len(vals)

    def then(self, g: "CompMap") -> "CompMap":
        """Composite map: first self, then g."""
        if g.domain != self.codomain:
            raise ValueError("maps do not compose: codomain/domain mismatch")
        return CompMap(self.domain, g.codomain, {i: g.table[self.table[i]] for i in self.domain.labels})

    def key(self):
        return (
            tuple(self.domain.items()),
            tuple(self.codomain.items()),
            tuple(sorted(self.table.items())),
        )

    def __eq__(self, other):
        return isinstance(other, CompMap) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"CompMap({self.table!r}: {self.domain!r} -> {self.codomain!r})"


def pushforward(f: CompMap) -> GenComposition:
    """Composition on the codomain labels hit by f, weighted by fiber sums."""
    return GenComposition({j: s for j, (_, s) in f._fibers.items() if s != 0})


def factor(f: CompMap):
    """Write f = g . h with h a principal surjection and g an injection."""
    mid = pushforward(f)
    h = CompMap(f.domain, mid, dict(f.table))
    g = CompMap(mid, f.codomain, {j: j for j in mid.labels})
    return h, g


def pullback_square(f1: CompMap, f2: CompMap):
    """Approximate fiber product of f1: mu1 -> mu and f2: mu2 -> mu.

    Returns (wmu, g1, g2) with f1 . g1 = f2 . g2 and:
      (a) f2 principal surjection  =>  g1 principal surjection;
      (b) f2 injection             =>  g1 injection.

    Built fiberwise over the common codomain: residual weights of each fiber
    are paired off largest-first, each new part of weight min of the two
    residuals.  A side-1 part is dropped once saturated; an infinite side-2
    part keeps absorbing, so every side-1 fiber can be filled exactly
    whenever side 2 carries the full codomain weight.
    """
    if f1.codomain != f2.codomain:
        raise ValueError("pullback requires a common codomain")
    mu1, mu2 = f1.domain, f2.domain
    parts = []  # (weight, mu1 label, mu2 label)
    for j in f1.codomain.labels:
        left = [[i, mu1.weight(i)] for i in f1.fiber(j)]
        right = [[i, mu2.weight(i)] for i in f2.fiber(j)]
        while left and right:
            a = max(left, key=lambda t: t[1])
            b = max(right, key=lambda t: t[1])
            w = min(a[1], b[1])
            parts.append((w, a[0], b[0]))
            if w == INF:
                left.remove(a)  # saturated by an infinite part
            elif a[1] != INF:  # an infinite residual is kept
                a[1] -= w
                if a[1] == 0:
                    left.remove(a)
            if b[1] != INF:
                b[1] -= w
                if b[1] == 0:
                    right.remove(b)
            # an infinite side-2 residual persists
    wmu = GenComposition({k + 1: w for k, (w, _, _) in enumerate(parts)})
    g1 = CompMap(wmu, mu1, {k + 1: a for k, (_, a, _) in enumerate(parts)})
    g2 = CompMap(wmu, mu2, {k + 1: b for k, (_, _, b) in enumerate(parts)})
    return wmu, g1, g2


class Correspondence(_Frozen):
    """Pair (f1, f2): f1 a principal surjection rho ->> target, f2: rho -> source."""

    __slots__ = ("rho", "f1", "f2")

    def __init__(self, rho: GenComposition, f1: CompMap, f2: CompMap):
        if f1.domain != rho or f2.domain != rho:
            raise ValueError("both legs must start from rho")
        if not f1.is_principal:
            raise ValueError("f1 must be a principal surjection")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)

    @property
    def target(self) -> GenComposition:
        return self.f1.codomain

    @property
    def source(self) -> GenComposition:
        return self.f2.codomain

    def canonical_key(self):
        """Per-target-label multiset of (fiber-part weight, f2 target) pairs;
        identifies correspondences up to relabeling of rho."""
        return tuple(
            (i, tuple(sorted(((self.rho.weight(j), self.f2.table[j]) for j in self.f1.fiber(i)),
                             key=lambda p: (-p[0], p[1]))))
            for i in self.target.labels
        )

    def __eq__(self, other):
        return isinstance(other, Correspondence) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"Correspondence(rho={self.rho!r}, f1={self.f1.table!r}, f2={self.f2.table!r})"


def compose(f: Correspondence, g: Correspondence) -> Correspondence:
    """Composition of f: lam ~> mu with g: mu ~> nu, via the approximate
    fiber product of f2 against g1."""
    if f.source != g.target:
        raise ValueError(
            f"cannot compose: middle compositions differ ({f.source!r} vs {g.target!r})"
        )
    _, p, q = pullback_square(f.f2, g.f1)
    h1 = p.then(f.f1)
    h2 = q.then(g.f2)
    return Correspondence(p.domain, h1, h2)


def apply_corr(f: Correspondence, S: PointSetVariety) -> PointSetVariety:
    """Point action of a correspondence: push S through the second leg, then
    take the preimage along the first.

    For each target label, f2 sends its f1-fiber to some source positions;
    the fiber is non-empty, as f1 is principal.  A tuple s over the source
    has an image exactly when, for every target label, those positions
    carry one value of s, and the image reads that value at the label.
    Relabelings of rho give the same action.
    """
    if S.lam != f.source:
        raise ValueError("point set does not live over the correspondence source")
    pos = {k: p for p, k in enumerate(f.source.labels)}
    spans = [[pos[f.f2.table[j]] for j in f.f1.fiber(i)] for i in f.target.labels]
    return PointSetVariety(f.target, {tuple([s[span[0]] for span in spans]) for s in S.points
                                      if all(s[p] == s[span[0]] for span in spans for p in span)})


def enumerate_end(lam: GenComposition) -> list:
    """All weight-respecting self-maps of lam, in table order."""
    labels = lam.labels
    weights = [lam.weight(k) for k in labels]
    return [CompMap(lam, lam, dict(zip(labels, images)))
            for images in weight_maps(weights, labels, weights)]


def enumerate_good(mu: GenComposition, lam: GenComposition) -> list:
    """Complete list of good correspondences mu ~> lam, canonically ordered,
    one representative per relabeling class of rho.

    A label of mu of weight w splits into the parts of its f1-fiber: w
    alone when w exceeds e = lam.finite_weight (any infinite w does), else
    a partition of w into at most length(lam) parts.  Each product of
    splits gives rho (fiber by fiber, largest part first) and f1; f2 is
    each map rho -> lam from ``weight_maps`` whose labels do not decrease
    along a run of equal parts of one fiber.  ``canonical_key`` is the
    per-label multiset of (part weight, f2 label) pairs, so the maps that
    permute the labels of such a run relabel one correspondence, and the
    tie rule keeps one: the one whose fibers are sorted like its key.
    """
    if not lam.is_infinite:
        raise ValueError("good correspondences require an infinite source composition")
    e = lam.finite_weight
    splits = [[(w,)] if w > e else [p for p in _box_parts(lam.length, w, w) if sum(p) == w]
              for w in map(mu.weight, mu.labels)]
    rooms = [lam.weight(k) for k in lam.labels]
    out = []
    for combo in itertools.product(*splits):
        fiber_parts = [(i, w) for i, parts in zip(mu.labels, combo) for w in parts]
        weights = [w for _, w in fiber_parts]
        rho = GenComposition.from_weights(weights)
        f1 = CompMap(rho, mu, {k + 1: i for k, (i, _) in enumerate(fiber_parts)})
        ties = [k for k in range(1, len(weights)) if fiber_parts[k] == fiber_parts[k - 1]]
        for images in weight_maps(weights, lam.labels, rooms):
            if all(images[k - 1] <= images[k] for k in ties):
                out.append(Correspondence(rho, f1, CompMap(rho, lam, dict(zip(rho.labels, images)))))
    out.sort(key=lambda c: c.canonical_key())
    return out
