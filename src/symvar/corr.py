"""Maps of generalized compositions and correspondences.

A map f from composition lam to composition mu is a function on labels whose
fiber ext-sums are bounded by the target weights.  A correspondence lam ~> mu
is a pair (f1, f2) with f1 a principal surjection onto lam and f2 an
arbitrary map to mu; correspondences act on point sets via pushforward along
f2 followed by the f1-preimage (``variety.apply_corr``).  No pipeline path
runs them: ``variety.gamma_at`` builds the slices they define directly,
from the search (``partitions.weight_maps``) that also gives End(lam).

Everything is immutable; enumeration output order is deterministic.
"""

import itertools

from .partitions import GenComposition, is_inf, weight_maps


class CompMap:
    """Weight-respecting function between generalized compositions."""

    __slots__ = ("domain", "codomain", "table")

    def __init__(self, domain: GenComposition, codomain: GenComposition, table: dict):
        if set(table) != set(domain.labels):
            raise ValueError("table must be defined on exactly the domain labels")
        if not set(table.values()) <= set(codomain.labels):
            raise ValueError("table values must be codomain labels")
        for j in codomain.labels:
            s = sum(domain.weight(i) for i in table if table[i] == j)
            if s > codomain.weight(j):
                raise ValueError(
                    f"weight condition fails at label {j}: fiber sums to {s} > {codomain.weight(j)}"
                )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "table", dict(table))

    @classmethod
    def identity(cls, lam: GenComposition) -> "CompMap":
        return cls(lam, lam, {i: i for i in lam.labels})

    def fiber(self, j):
        return tuple(i for i in self.domain.labels if self.table[i] == j)

    @property
    def is_principal(self) -> bool:
        """Pushforward weights hit the codomain weights exactly."""
        return all(
            sum(self.domain.weight(i) for i in self.fiber(j)) == self.codomain.weight(j)
            for j in self.codomain.labels
        )

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

    def __setattr__(self, name, value):
        raise AttributeError("CompMap is immutable")


def pushforward(f: CompMap) -> GenComposition:
    """Composition on the codomain labels hit by f, weighted by fiber sums."""
    weights = {}
    for j in f.codomain.labels:
        s = sum(f.domain.weight(i) for i in f.fiber(j))
        if s != 0:
            weights[j] = s
    return GenComposition(weights)


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
            a = max(left, key=lambda t: (t[1], -mu1.labels.index(t[0])))
            b = max(right, key=lambda t: (t[1], -mu2.labels.index(t[0])))
            w = min(a[1], b[1])
            parts.append((w, a[0], b[0]))
            if is_inf(w):
                left.remove(a)  # saturated by an infinite part
            elif not is_inf(a[1]):  # an infinite residual is kept
                a[1] -= w
                if a[1] == 0:
                    left.remove(a)
            if not is_inf(b[1]):
                b[1] -= w
                if b[1] == 0:
                    right.remove(b)
            # an infinite side-2 residual persists
    wmu = GenComposition({k + 1: w for k, (w, _, _) in enumerate(parts)})
    g1 = CompMap(wmu, mu1, {k + 1: a for k, (_, a, _) in enumerate(parts)})
    g2 = CompMap(wmu, mu2, {k + 1: b for k, (_, _, b) in enumerate(parts)})
    return wmu, g1, g2


class Correspondence:
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

    @classmethod
    def identity(cls, lam: GenComposition) -> "Correspondence":
        ident = CompMap.identity(lam)
        return cls(lam, ident, ident)

    @property
    def target(self) -> GenComposition:
        return self.f1.codomain

    @property
    def source(self) -> GenComposition:
        return self.f2.codomain

    @property
    def action(self):
        """The point action as source positions: ``(checks, reads)``.

        A tuple s over the source has an image exactly when s[a] == s[b] for
        every pair (a, b) in `checks`, and the image is
        ``tuple(s[r] for r in reads)``.  For each target label, the source
        positions that f2 sends its f1-fiber to must agree; `checks` ties
        them to the smallest one, which the target coordinate reads.
        Relabelings of rho give the same action.
        """
        src_pos = {k: i for i, k in enumerate(self.source.labels)}
        checks, reads = set(), []
        for i in self.target.labels:
            srcs = sorted({src_pos[self.f2.table[j]] for j in self.f1.fiber(i)})
            checks.update((srcs[0], b) for b in srcs[1:])
            reads.append(srcs[0])
        return tuple(sorted(checks)), tuple(reads)

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

    def __setattr__(self, name, value):
        raise AttributeError("Correspondence is immutable")


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


def enumerate_end(lam: GenComposition) -> list:
    """All weight-respecting self-maps of lam, in table order."""
    labels = lam.labels
    weights = [lam.weight(k) for k in labels]
    return [CompMap(lam, lam, dict(zip(labels, images)))
            for images in weight_maps(weights, labels, weights)]


def _fiber_options(w, lam: GenComposition, e: int):
    """Candidate fibers above a target label of weight w: multisets of
    (part weight, source label) pairs ext-summing to w, at most one part per
    source label count bound, singleton when w exceeds e."""
    targets = lam.labels
    if w > e:  # in particular any infinite w
        return [((w, k),) for k in targets if lam.weight(k) >= w]
    pairs = [
        (pw, k)
        for pw in range(w, 0, -1)
        for k in targets
        if lam.weight(k) >= pw
    ]
    maxlen = lam.length
    out = []

    def rec(remaining, start, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if len(acc) == maxlen:
            return
        for idx in range(start, len(pairs)):
            pw, k = pairs[idx]
            if pw > remaining:
                continue
            acc.append((pw, k))
            rec(remaining - pw, idx, acc)
            acc.pop()

    rec(w, 0, [])
    return out


def enumerate_good(mu: GenComposition, lam: GenComposition) -> list:
    """Complete list of good correspondences mu ~> lam, canonically ordered,
    one representative per relabeling class of rho."""
    if not lam.is_infinite:
        raise ValueError("good correspondences require an infinite source composition")
    e = lam.finite_weight
    options = [_fiber_options(mu.weight(i), lam, e) for i in mu.labels]
    out = []
    for combo in itertools.product(*options):
        # aggregate weight condition on the f2 side
        if any(sum(pw for fiber in combo for pw, tgt in fiber if tgt == k) > lam.weight(k)
               for k in lam.labels):
            continue
        rho_weights, t1, t2 = {}, {}, {}
        nxt = 1
        for i, fiber in zip(mu.labels, combo):
            for pw, tgt in fiber:
                rho_weights[nxt] = pw
                t1[nxt] = i
                t2[nxt] = tgt
                nxt += 1
        rho = GenComposition(rho_weights)
        corr = Correspondence(rho, CompMap(rho, mu, t1), CompMap(rho, lam, t2))
        out.append(corr)
    out.sort(key=lambda c: c.canonical_key())
    return out
