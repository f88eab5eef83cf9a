"""Generalized partitions and compositions with parts in N ∪ {inf}.

A generalized partition is a non-increasing tuple of positive weights, each a
natural number or infinity.  A generalized composition is a finite label set
with a positive weight attached to every label.  The combining order
``preceq`` (combine, then decrease or remove parts) is provided together
with the filling criterion equivalent to it, minimal excluded antichains,
and the saturation operator used by the equation synthesis.  ``preceq`` and
``min_excluded`` decide a finite tail against the finite part of lam through
one search on plain tuples, ``_tail_below``; each call keeps its own memo of
failed states.  ``weight_maps`` is the one search for weight-respecting
maps, End(lam) and the slices' Hom(mu, lam_p) alike.

All values are immutable and every function here is pure.
"""

from collections import Counter
from itertools import combinations_with_replacement
from operator import le

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

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, GenPartition) and self.parts == other.parts

    def __lt__(self, other):
        # lets a set of partitions be sorted (the benchmark's orders workload)
        return self.parts < other.parts

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
        """``from_weights(p.parts)``, built directly: ``GenPartition``
        checked the parts, so they are not checked again."""
        c = object.__new__(cls)
        labels = tuple(range(1, len(p.parts) + 1))
        object.__setattr__(c, "labels", labels)
        object.__setattr__(c, "_weights", dict(zip(labels, p.parts)))
        return c

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


def _minimal_cover_groups(target, parts, mask):
    """Index subsets of `mask` with sum >= target and no sufficient proper prefix.

    The target is a positive integer; parts are positive integers or INF,
    and an INF part covers any target alone.  Every proper prefix of a group
    falls short of the target and each part adds at least 1, so a group has
    at most `target` members.  Every sufficient group contains one of
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


def _tail_below(tail, fin) -> bool:
    """Is the non-increasing tuple `tail` below the finite tuple `fin` in
    the combining order: disjoint groups of fin's parts, one group per tail
    part, each group summing to at least that part?

    The screens are exact: a tail longer than fin is not below (each part
    needs its own non-empty group); an empty tail is; a tail of larger sum
    than fin is not; a tail with each part at most fin's part in the same
    place is.  Only the rest is decided by backtracking over
    ``_minimal_cover_groups``, tail part by tail part.  A state is the next
    tail part and the mask of fin's unused parts.  A true state ends the
    search, so only the failed states are remembered, in a set that lives
    for this call.
    """
    if len(tail) > len(fin):
        return False
    if not tail:
        return True
    if sum(tail) > sum(fin):
        return False
    if all(map(le, tail, fin)):
        return True
    n = len(tail)
    failed = set()

    def solve(j, mask):
        if j == n:
            return True
        if (j, mask) in failed:
            return False
        for g in _minimal_cover_groups(tail[j], fin, mask):
            if solve(j + 1, mask & ~g):
                return True
        failed.add((j, mask))
        return False

    return solve(0, (1 << len(fin)) - 1)


def preceq(mu: GenPartition, lam: GenPartition) -> bool:
    """mu obtained from lam by combining and decreasing (or removing) parts.

    Tail reduction: with k infinite parts in lam, mu is below lam iff
    mu[k:] is below lam[k:], the finite part of lam.  Each infinite part
    of lam covers any one part of mu, and swapping a mu part held by an
    infinite group with a larger one held by a finite group keeps both
    groups sufficient; so the k largest parts of mu may take the infinite
    parts.  A mu longer than lam, or with more infinite parts, is not
    below it: each part of mu needs its own group, and an infinite part
    an infinite one.  So the tail is finite, and ``_tail_below`` decides
    it.
    """
    mu_parts, lam_parts = mu.parts, lam.parts
    k = lam_parts.count(INF)
    if len(mu_parts) > len(lam_parts) or mu_parts.count(INF) > k:
        return False
    return _tail_below(mu_parts[k:], lam_parts[k:])


def good_filling_exists(mu: GenPartition, lam: GenPartition) -> bool:
    """Is there a tableau of shape mu, entries i used at most lam_i times in
    total and confined to a single row each?

    Independent route to the combining order: decided by explicit filling
    search rather than by grouping.  The rows are filled one at a time, and
    each finite row is a multiset of the entries that no earlier row holds,
    written as a non-decreasing row; it is accepted when no entry appears
    more often than its capacity, and then holds its entries.
    """
    caps = lam.parts
    inf_entries = [i for i, c in enumerate(caps) if c == INF]
    if mu.num_infinite > len(inf_entries):
        return False
    finite_rows = [p for p in mu.parts if p != INF]

    def fill(r, held):
        if r == len(finite_rows):
            return True
        free = [e for e in range(len(caps)) if e not in held]
        for row in combinations_with_replacement(free, finite_rows[r]):
            counts = Counter(row)
            if all(n <= caps[e] for e, n in counts.items()) and fill(r + 1, held | set(counts)):
                return True
        return False

    # An infinite row needs a dedicated infinite-capacity entry.  Entries of
    # equal capacity are interchangeable, so anchoring the first ones is no
    # loss of generality.
    return fill(0, set(inf_entries[:mu.num_infinite]))


def _box_parts(max_length: int, max_part: int, max_sum=INF, prefix=()):
    """Parts tuples of the non-empty finite partitions with at most
    max_length parts, each at most max_part, of sum at most max_sum,
    extending prefix.  Depth-first order is increasing tuple order: a
    prefix comes before its extensions."""
    if max_length < 1:
        return
    for p in range(1, min(max_part, max_sum) + 1):
        cur = prefix + (p,)
        yield cur
        yield from _box_parts(max_length - 1, p, max_sum - p, cur)


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
    each at most finite_weight(lam)+1.

    Second lemma: the tail tau of a minimal excluded alpha has sum at most
    finite_weight(lam)+1.  Proof: lowering alpha's last part, which lies in
    tau, by 1 gives a lower cover whose tail has sum sum(tau)-1; that cover
    is below lam, so its tail sum is at most finite_weight(lam).  The tails
    walked are therefore those of sum at most finite_weight(lam)+1, which
    bounds each part too.  ``_tail_below``, the tail search of ``preceq``,
    decides each distinct tail once, on plain tuples.  No sort:
    ``_box_parts`` yields the tails in increasing order, and tau ->
    (tau_0)^k ++ tau is strictly increasing (tau_0 first, then tau).
    """
    if not lam.is_infinite:
        raise ValueError("min_excluded requires a partition with an infinite part")
    k = lam.num_infinite
    fin = lam.parts[k:]
    below = {}

    def is_below(parts):
        tail = parts[k:]
        hit = below.get(tail)
        if hit is None:
            hit = below[tail] = _tail_below(tail, fin)
        return hit

    w = sum(fin) + 1
    tails = _box_parts(len(fin) + 1, w, w)
    candidates = ((tau[0],) * k + tau for tau in tails)
    return [
        GenPartition(alpha)
        for alpha in candidates
        if not is_below(alpha) and all(is_below(c) for c in _lower_covers(alpha))
    ]


def mu_s(mu: GenPartition, e: int) -> GenPartition:
    """Saturate: parts equal to e+1 become infinite.  The result is the
    largest partition with the same (e+1)-capped truncation as mu."""
    for p in mu.parts:
        if p != INF and p > e + 1:
            raise ValueError(f"part {p} exceeds e+1 = {e + 1}")
    return GenPartition(INF if p == e + 1 else p for p in mu.parts)
