"""Generalized partitions and compositions with parts in N ∪ {inf}.

A generalized partition is a non-increasing tuple of positive weights, each a
natural number or infinity.  A generalized composition is a finite label set
with a positive weight attached to every label.  Two orders are provided:
``leq`` (decrease or remove parts) and ``preceq`` (combine, then decrease or
remove parts), together with the filling criterion equivalent to ``preceq``,
minimal excluded antichains, and the saturation operator used by the equation
synthesis.  ``weight_maps`` is the one search for weight-respecting maps,
End(lam) and the slices' Hom(mu, lam_p) alike.

All values are immutable and every function here is pure.
"""

from functools import lru_cache

# with weights in N ∪ {INF}, the builtin sum is the sum in N ∪ {inf} and
# str(INF) is "inf"
INF = float("inf")


def weight_maps(weights, labels, rooms) -> list:
    """Every tuple whose entry i is the label of the slot that weight i goes
    to, such that the weights sent to each slot sum to at most its room,
    in lexicographic order of slot indices.  Slot j has label ``labels[j]``
    and room ``rooms[j]``; a finite room shrinks by each weight it takes."""
    rooms = list(rooms)
    out = []

    def rec(i, chosen):
        if i == len(weights):
            out.append(chosen)
            return
        w = weights[i]
        for j, r in enumerate(rooms):
            if w <= r:
                rooms[j] = r if r == INF else r - w  # inf - inf is NaN
                rec(i + 1, chosen + (labels[j],))
                rooms[j] = r

    rec(0, ())
    return out


def parse_weight(token: str):
    token = token.strip()
    if token == "inf":
        return INF
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"bad weight token {token!r} (expected a natural number or 'inf')")
    return int(token)


def _check_weight(w, allow_zero=False):
    if w == INF:
        return w
    if isinstance(w, bool) or not isinstance(w, int):
        raise ValueError(f"weight must be a natural number or INF, got {w!r}")
    if w < 0 or (w == 0 and not allow_zero):
        raise ValueError(f"weight must be positive, got {w!r}")
    return w


class GenPartition:
    """Non-increasing tuple of weights in N ∪ {inf}; zeros are dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        cleaned = sorted((_check_weight(p, allow_zero=True) for p in parts), reverse=True)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "parts", tuple(cleaned))

    @classmethod
    def parse(cls, text: str) -> "GenPartition":
        text = text.strip()
        if text in ("", "0", "()"):
            return cls()
        return cls(parse_weight(tok) for tok in text.split(","))

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def num_infinite(self) -> int:
        return self.parts.count(INF)

    @property
    def finite_weight(self) -> int:
        """Sum of the finite parts."""
        return sum(p for p in self.parts if p != INF)

    @property
    def is_infinite(self) -> bool:
        return self.length > 0 and self.parts[0] == INF

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, GenPartition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __le__(self, other):
        return self.parts <= other.parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        return ",".join(map(str, self.parts))

    def __repr__(self):
        return f"GenPartition({self.parts!r})"

    def __setattr__(self, name, value):
        raise AttributeError("GenPartition is immutable")


class GenComposition:
    """Finite label set with a positive weight in N ∪ {inf} per label.

    Labels are integers; sorting them fixes the coordinate order of any
    point tuple living over the composition.
    """

    __slots__ = ("labels", "_weights")

    def __init__(self, weights: dict):
        if not all(isinstance(k, int) and not isinstance(k, bool) for k in weights):
            raise ValueError("labels must be integers")
        w = {k: _check_weight(v) for k, v in weights.items()}
        object.__setattr__(self, "labels", tuple(sorted(w)))
        object.__setattr__(self, "_weights", w)

    @classmethod
    def from_weights(cls, seq) -> "GenComposition":
        """Composition on labels 1..r with the given weights, in order."""
        return cls({i + 1: w for i, w in enumerate(seq)})

    @classmethod
    def from_partition(cls, p: GenPartition) -> "GenComposition":
        return cls.from_weights(p.parts)

    def weight(self, label):
        return self._weights[label]

    def items(self):
        return [(k, self._weights[k]) for k in self.labels]

    @property
    def length(self) -> int:
        return len(self.labels)

    @property
    def is_infinite(self) -> bool:
        return INF in self._weights.values()

    @property
    def finite_weight(self) -> int:
        return sum(w for w in self._weights.values() if w != INF)

    def shape(self) -> GenPartition:
        return GenPartition(self._weights.values())

    def __eq__(self, other):
        return isinstance(other, GenComposition) and self._weights == other._weights

    def __hash__(self):
        return hash(tuple((k, self._weights[k]) for k in self.labels))

    def __repr__(self):
        inner = ", ".join(f"{k}: {w}" for k, w in self.items())
        return f"GenComposition({{{inner}}})"

    def __setattr__(self, name, value):
        raise AttributeError("GenComposition is immutable")


def leq(mu: GenPartition, lam: GenPartition) -> bool:
    """mu obtained from lam by decreasing or removing parts."""
    if mu.length > lam.length:
        return False
    return all(mu[i] <= lam[i] for i in range(mu.length))


def _minimal_cover_groups(target, parts, mask):
    """Index subsets of `mask` with sum >= target and no sufficient proper prefix.

    Target and parts are finite.  Every sufficient group contains one of
    these, so searching over them is complete for the combining order.
    """
    avail = [i for i in range(len(parts)) if (mask >> i) & 1]

    def rec(pos, acc_mask, acc_sum):
        for idx in range(pos, len(avail)):
            i = avail[idx]
            s = acc_sum + parts[i]
            m = acc_mask | (1 << i)
            if s >= target:
                yield m
            else:
                yield from rec(idx + 1, m, s)

    yield from rec(0, 0, 0)


def preceq(mu: GenPartition, lam: GenPartition) -> bool:
    """mu obtained from lam by combining and decreasing (or removing) parts.

    Tail reduction: with k infinite parts in lam, mu is below lam iff
    mu[k:] is below lam[k:], the finite part of lam.  Each infinite part
    of lam covers any one part of mu, and swapping a mu part held by an
    infinite group with a larger one held by a finite group keeps both
    groups sufficient; so the k largest parts of mu may take the infinite
    parts.  (mu has at most k infinite parts, so its tail is finite.)

    The tail is then screened exactly: an empty tail is below; a tail of
    larger sum than lam's finite part is not; a tail below lam's finite
    part part by part (``leq``) is.  Only the rest is decided by
    backtracking over disjoint groups of lam's finite parts, one group per
    tail part, each group summing to at least that part.
    """
    k = lam.num_infinite
    if mu.length > lam.length or mu.num_infinite > k:
        return False
    tail, fin = mu.parts[k:], lam.parts[k:]
    if not tail:
        return True
    if sum(tail) > sum(fin):
        return False
    # The length check above gives len(tail) <= len(fin), so zip reads all of tail.
    if all(m <= f for m, f in zip(tail, fin)):
        return True

    @lru_cache(maxsize=None)
    def solve(j, mask):
        if j == len(tail):
            return True
        for g in _minimal_cover_groups(tail[j], fin, mask):
            if solve(j + 1, mask & ~g):
                return True
        return False

    return solve(0, (1 << len(fin)) - 1)


def good_filling_exists(mu: GenPartition, lam: GenPartition) -> bool:
    """Is there a tableau of shape mu, entries i used at most lam_i times in
    total and confined to a single row each?

    Independent route to the combining order: decided by explicit filling
    search rather than by grouping.
    """
    if mu.length == 0:
        return True
    caps = list(lam.parts)
    inf_entries = [i for i, c in enumerate(caps) if c == INF]
    inf_rows = mu.num_infinite
    if inf_rows > len(inf_entries):
        return False
    # An infinite row needs a dedicated infinite-capacity entry.  Entries of
    # equal capacity are interchangeable, so anchoring the first ones is no
    # loss of generality.
    owned = set(inf_entries[:inf_rows])
    finite_rows = [p for p in mu.parts if p != INF]
    residual = {i: caps[i] for i in range(len(caps))}

    def fill_rows(r):
        if r == len(finite_rows):
            return True
        size = finite_rows[r]
        row_used = []

        def fill_cells(pos, min_entry):
            if pos == size:
                owned.update(row_used)
                ok = fill_rows(r + 1)
                owned.difference_update(row_used)
                return ok
            # non-decreasing entries within the row avoid permuted duplicates
            for e in range(min_entry, len(caps)):
                if e in owned:
                    continue
                cap = residual[e]
                if cap < 1:
                    continue
                if cap != INF:
                    residual[e] = cap - 1
                added = e not in row_used
                if added:
                    row_used.append(e)
                ok = fill_cells(pos + 1, e)
                if cap != INF:
                    residual[e] = cap
                if added:
                    row_used.pop()
                if ok:
                    return True
            return False

        return fill_cells(0, 0)

    return fill_rows(0)


def _box_parts(max_length: int, max_part: int, prefix=()):
    """Parts tuples of the non-empty finite partitions with at most
    max_length parts, each at most max_part, extending prefix.  Depth-first
    order is increasing tuple order: a prefix comes before its extensions."""
    if max_length < 1:
        return
    for p in range(1, max_part + 1):
        cur = prefix + (p,)
        yield cur
        yield from _box_parts(max_length - 1, p, cur)


def finite_partitions_in_box(max_length: int, max_part: int):
    """All non-empty finite partitions with at most max_length parts, each
    at most max_part, in increasing tuple order."""
    return [GenPartition(p) for p in _box_parts(max_length, max_part)]


def _lower_covers(parts):
    """Parts tuples one elementary step below a finite partition: one part
    lowered by 1 (a zero dropped), or two parts merged."""
    n = len(parts)
    for i in range(n):
        lowered = parts[i] - 1
        rest = parts[:i] + parts[i + 1:]
        yield tuple(sorted(rest + (lowered,), reverse=True)) if lowered else rest
        for j in range(i + 1, n):
            merged = rest[:j - 1] + rest[j:] + (parts[i] + parts[j],)
            yield tuple(sorted(merged, reverse=True))


def min_excluded(lam: GenPartition) -> list:
    """Minimal finite partitions, for the combining order, that are not below
    lam, in increasing tuple order.

    Cover rule: the excluded set is an up-set, since preceq is transitive,
    and every mu strictly below alpha is reached from alpha by elementary
    steps (merge two parts, or lower one part by 1, dropping a zero).  So
    alpha is minimal excluded iff alpha is not below lam and every lower
    cover of alpha (one step down) is below lam.  Covers are checked even
    where a merge leaves the candidate set, so the answers are minimal
    among all finite partitions.

    Tails only: with k infinite parts in lam, alpha is below lam iff the
    tail alpha[k:] is below the finite part of lam (the tail reduction in
    ``preceq``).  Lemma: every minimal excluded alpha has alpha_0 = ... =
    alpha_k.  Proof: alpha has more than k parts, as k parts sit on the
    infinite parts of lam.  If alpha_j > alpha_k for some j < k, lowering
    alpha_j by 1 leaves the sorted tail alpha[k:] unchanged, so that lower
    cover is still excluded and alpha is not minimal.  So of the box of
    partitions with at most length(lam)+1 parts, each at most
    finite_weight(lam)+1, only the partitions (tau_0)^k ++ tau are
    candidates, for tau in the box with at most length(lam)-k+1 parts,
    each at most finite_weight(lam)+1.  preceq decides each distinct tail
    once.
    """
    if not lam.is_infinite:
        raise ValueError("min_excluded requires a partition with an infinite part")
    k = lam.num_infinite
    lam_fin = GenPartition(lam.parts[k:])
    below = {}

    def is_below(parts):
        tail = parts[k:]
        hit = below.get(tail)
        if hit is None:
            hit = below[tail] = preceq(GenPartition(tail), lam_fin)
        return hit

    tails = _box_parts(lam_fin.length + 1, lam.finite_weight + 1)
    candidates = ((tau[0],) * k + tau for tau in tails)
    return [
        GenPartition(alpha)
        for alpha in sorted(candidates)
        if not is_below(alpha) and all(is_below(c) for c in _lower_covers(alpha))
    ]


def mu_s(mu: GenPartition, e: int) -> GenPartition:
    """Saturate: parts equal to e+1 become infinite.  The result is the
    largest partition with the same (e+1)-capped truncation as mu."""
    for p in mu.parts:
        if p != INF and p > e + 1:
            raise ValueError(f"part {p} exceeds e+1 = {e + 1}")
    return GenPartition(INF if p == e + 1 else p for p in mu.parts)
