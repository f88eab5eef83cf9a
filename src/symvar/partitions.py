"""Generalized partitions and compositions with parts in N ∪ {inf}.

A generalized partition is a non-increasing tuple of positive weights, each a
natural number or infinity.  A generalized composition is a finite label set
with a positive weight attached to every label.  The combining order
``preceq`` (combine, then decrease or remove parts) is provided together
with the filling criterion equivalent to it (which ``selfcheck`` and the
benchmark's ``orders`` check test it against), minimal excluded
antichains, and the saturation operator used by the equation synthesis.
A partition fixes its count of infinite parts when it is built, and
``preceq`` reads it.  ``preceq`` decides a finite tail against the finite
part of lam through ``_tail_below`` on plain tuples: the length and sum
screens, a witness grouping, the no-spare-part exit, then a search over
the counts left of fin's values, one layer of states per tail part.
``min_excluded`` carries those layers down its walk of the tails, each
tail one ``_step`` from its parent's layer, so it calls no
``_tail_below``.  ``_cover_groups`` lists the groups of that search and of
``equations._supports`` alike, each from the state it is in, and
``weight_maps`` is the one search for weight-respecting maps, End(lam)
and the slices' Hom(mu, lam_p) alike.

All values are immutable: each value class of the package derives from
``_Frozen``, which refuses assigning and deleting attributes.  Every
function here is pure.
"""

from bisect import bisect_left
from collections import Counter
from itertools import combinations_with_replacement, repeat
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


class _Frozen:
    """The base of every value class in the package: a subclass sets its
    slots once, in construction, through ``object.__setattr__``; after that
    assigning or deleting an attribute raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class GenPartition(_Frozen):
    """Non-increasing tuple of weights in N ∪ {inf}; zeros are dropped.
    ``num_infinite``, the count of infinite parts, is fixed at
    construction."""

    __slots__ = ("parts", "num_infinite")

    def __init__(self, parts=()):
        cleaned = sorted(map(_check_weight, parts, repeat(True)), reverse=True)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "parts", tuple(cleaned))
        object.__setattr__(self, "num_infinite", cleaned.count(INF))

    @classmethod
    def _finite(cls, parts: tuple) -> "GenPartition":
        """The partition of `parts`, a non-increasing tuple of positive
        ints, built directly: nothing is sorted or checked again."""
        p = object.__new__(cls)
        object.__setattr__(p, "parts", parts)
        object.__setattr__(p, "num_infinite", 0)
        return p

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
    def finite_weight(self) -> int:
        """Sum of the finite parts."""
        return sum(p for p in self.parts if p != INF)

    @property
    def is_infinite(self) -> bool:
        return self.num_infinite > 0

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


class GenComposition(_Frozen):
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


def _cover_groups(need, state, slots, first=0):
    """The states left by the minimal groups that cover `need`.

    A slot is a (value, place, radix) triple: the digit at `place` of the
    mixed-radix `state` counts the copies of `value` left.  A group takes
    copies in slot order, from slot `first` on, and its last copy is the
    first to reach `need`; INF reaches any need alone.  Each copy adds at
    least 1, so a group has at most `need` copies; every sufficient group
    contains one of these, so searching over them is complete.
    """
    for s in range(first, len(slots)):
        value, place, radix = slots[s]
        if state // place % radix:
            if value >= need:
                yield state - place
            else:
                yield from _cover_groups(need - value, state - place, slots, s)


def _tail_below(tail, fin) -> bool:
    """Is the non-increasing tuple `tail` below the finite tuple `fin` in
    the combining order: disjoint groups of fin's parts, one group per tail
    part, each group summing to at least that part?

    Two exact screens come first: a tail longer than fin (each part needs
    its own non-empty group) or of larger sum is not below.  Then the
    witness: each tail part, largest first, takes the smallest unused part
    that covers it alone; if none does, its group starts with the largest
    unused part and then takes each time the smallest unused part that
    completes it, or the largest if none does.  A tail it places is below,
    as the groups are disjoint and each covers its part.

    Lemma: the witness places every tail that fits part by part (each part
    at most fin's part in the same place) and every one-part tail within
    the sum.  Proof: a tail that fits has a matching to parts at least as
    large; giving each tail part in turn, largest first, the smallest
    unused part that covers it, and the part it leaves to the later tail
    part that held this one, keeps a matching and ends at the witness's.
    A one-part tail takes parts until one completes it, which their sum
    allows.  With no spare part (as many tail parts as fin parts) the
    groups are singletons, and a matching gives the i largest tail parts i
    distinct parts, each at least the i-th largest tail part, which is the
    fit; so there a failed witness means the tail is not below.  Any other
    failed witness proves nothing, and the search decides.

    The search steps forward by layers over ``_cover_groups``.  fin has
    one slot per distinct value, so equal parts are counted, not told
    apart, and a state is the count left of each value.  The layer after a
    tail part is every state that a group covering it leaves from a state
    of the layer before; a layer is a set, so no state is expanded twice
    for one part.  The tail is below iff no layer is empty.
    """
    n = len(tail)
    if n > len(fin) or sum(tail) > sum(fin):
        return False
    if _witness_places(tail, fin):
        return True
    if n == len(fin):
        return False
    slots, full = _count_slots(fin)
    layer = {full}
    for need in tail:
        layer = _step(layer, need, slots)
        if not layer:
            return False
    return True


def _count_slots(fin):
    """The ``_cover_groups`` slots of the finite tuple fin, one per
    distinct value, and the full state, every count at its most."""
    slots, place = [], 1
    for value, count in Counter(fin).items():
        slots.append((value, place, count + 1))
        place *= count + 1
    return slots, place - 1


def _step(layer, need, slots):
    """The layer after a tail part `need`: every state that a group
    covering it leaves from a state of `layer`."""
    return {left for state in layer for left in _cover_groups(need, state, slots)}


def _witness_places(tail, fin) -> bool:
    """Does the witness grouping of ``_tail_below`` place every tail part?"""
    free = list(reversed(fin))  # the unused parts, increasing
    for need in tail:
        i = bisect_left(free, need)
        # while no unused part completes the group, it takes the largest
        while i == len(free):
            if not free:
                return False
            need -= free.pop()
            i = bisect_left(free, need)
        del free[i]
    return True


def preceq(mu: GenPartition, lam: GenPartition) -> bool:
    """mu obtained from lam by combining and decreasing (or removing) parts.

    Tail reduction: with k infinite parts in lam, mu is below lam iff
    mu[k:] is below lam[k:], the finite part of lam.  Each infinite part
    of lam covers any one part of mu, and swapping a mu part held by an
    infinite group with a larger one held by a finite group keeps both
    groups sufficient; so the k largest parts of mu may take the infinite
    parts.  A mu longer than lam, or with more infinite parts, is not
    below it: each part of mu needs its own group, and an infinite part
    an infinite one.  So the tail is finite and no longer than lam's finite
    part.  An empty tail, or one with each part at most the finite part in
    the same place, is below; ``_tail_below`` decides the rest.  Both
    counts of infinite parts are read from ``num_infinite``, fixed when
    each partition was built.
    """
    mu_parts, lam_parts = mu.parts, lam.parts
    k = lam.num_infinite
    if len(mu_parts) > len(lam_parts) or mu.num_infinite > k:
        return False
    tail, fin = mu_parts[k:], lam_parts[k:]
    return all(map(le, tail, fin)) or _tail_below(tail, fin)


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
    prefix comes before its extensions.  It lists the capped shapes, the
    fiber splits of ``corr.enumerate_good`` (with the sum cap) and the
    oracles' boxes; ``min_excluded`` walks the same order but descends
    only from the tails below lam."""
    if max_length < 1:
        return
    for p in range(1, min(max_part, max_sum) + 1):
        cur = prefix + (p,)
        yield cur
        yield from _box_parts(max_length - 1, p, max_sum - p, cur)


def _tail_covers(tau):
    """Tails to test for the minimality of (tau_0)^k ++ tau, k >= 1: each
    distinct value lowered by 1 at its last copy (a zero dropped), which
    keeps the tuple sorted, and each distinct pair of values below tau_0
    merged, the sum capped at tau_0.  ``min_excluded`` has the lemma."""
    n, top = len(tau), tau[0]
    # the last copy of each value, largest value first
    lasts = [i for i in range(n) if i + 1 == n or tau[i + 1] != tau[i]]
    for i in lasts:
        v = tau[i]
        # a 1 is the last part, so lowering it drops it
        yield tau[:i] + (v - 1,) + tau[i + 1:] if v > 1 else tau[:i]
    below_top = lasts[1:]
    for x, i in enumerate(below_top):
        a = tau[i]
        if tau[i - 1] == a:  # a pair of equal values: its last two copies
            yield tuple(sorted(tau[:i - 1] + tau[i + 1:] + (min(2 * a, top),), reverse=True))
        for j in below_top[x + 1:]:
            merged = tau[:i] + tau[i + 1:j] + tau[j + 1:] + (min(a + tau[j], top),)
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
    bounds each part too.

    Third lemma: with k >= 1, the tails of the lower covers of
    alpha = (tau_0)^k ++ tau are exactly tau with one part lowered by 1 (a
    zero dropped), tau with one part dropped, and tau with two parts below
    tau_0 merged, the sum capped at tau_0.  Proof: lowering a head part
    lowers a copy of tau_0, and lowering a tail part lowers it in tau.
    Merging a copy of tau_0 (each head part is one) with any other part
    makes a part above tau_0 that joins the head and leaves tau with one
    part dropped.  Merging two parts a, b below tau_0 puts a+b in tau, and
    if a+b >= tau_0 it joins the head and a copy of tau_0 takes its place
    in the tail.  A drop is below the lowering of the same part (lower it
    on to zero), and the partitions below lam form a down-set, so drops
    need no test; ``_tail_covers`` yields the other two kinds, each
    distinct tuple once.

    Fourth lemma (the prune): if a tail is not below fin, no extension of
    it is below fin or minimal.  Proof: dropping the added parts takes an
    extension down to the tail, so the extension is excluded; lowering its
    last part, a cover that ``_tail_covers`` yields, leaves a tail that
    still drops down to the same tail, so that cover is excluded too.  So
    the tails below fin are prefix-closed.

    The walk is ``_tail_below``'s search carried down the box.  A tail's
    layer is the set of count states that search holds after the tail's
    parts, and a child tau ++ (p) gets its layer by one ``_step`` from its
    parent's, so no tail's search starts over.  A child past fin's length
    or sum (the two screens) is excluded with no step, and so is one whose
    layer is empty; each excluded child is a candidate, and the walk
    descends only from a tail whose layer is non-empty, which is below.
    It reaches every below tail of the box, as their prefixes are below.
    A candidate is kept iff each of its ``_tail_covers`` was found below.
    Every cover has a smaller sum or fewer parts, so it lies in the box,
    and the covers are read only after the walk: a capped merge can sort
    after its own tail, as (2, 2) comes after (2, 1, 1).  The walk is depth
    first over increasing parts, so it lists the candidates in increasing
    tuple order, and tau -> (tau_0)^k ++ tau is strictly increasing (tau_0
    first, then tau): no sort.  Its recursion depth is the tail length.
    (tau_0)^k ++ tau is built only for the answers, and not checked again.
    """
    if not lam.is_infinite:
        raise ValueError("min_excluded requires a partition with an infinite part")
    k = lam.num_infinite
    fin = lam.parts[k:]
    slots, full = _count_slots(fin)
    below, candidates = {()}, []

    def walk(tail, layer, top, spare):
        # the children tail ++ (p), p <= top; spare is fin's sum less tail's
        past_length = len(tail) == len(fin)
        for p in range(1, min(top, spare + 1) + 1):
            child = tail + (p,)
            if past_length or p > spare:
                candidates.append(child)
                continue
            after = _step(layer, p, slots)
            if after:
                below.add(child)
                walk(child, after, p, spare - p)
            else:
                candidates.append(child)

    walk((), {full}, sum(fin) + 1, sum(fin))
    return [
        GenPartition._finite((tau[0],) * k + tau)
        for tau in candidates
        if all(map(below.__contains__, _tail_covers(tau)))
    ]


def mu_s(mu: GenPartition, e: int) -> GenPartition:
    """Saturate: parts equal to e+1 become infinite.  The result is the
    largest partition with the same (e+1)-capped truncation as mu."""
    for p in mu.parts:
        if p != INF and p > e + 1:
            raise ValueError(f"part {p} exceeds e+1 = {e + 1}")
    return GenPartition(INF if p == e + 1 else p for p in mu.parts)
