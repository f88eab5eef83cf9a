"""Reference routines that only the tests use.

None of these runs on a pipeline path.  The oracles expand, enumerate or
search in the most direct way, so they are only usable on small inputs;
``mu_minus`` is the truncation that ``partitions.mu_s`` inverts.
``theta_member_by_slice`` and ``contains_by_slice`` are the slice-based
decisions that the point-set rule of ``variety.theta_member`` and
``variety.contains`` replaced.  ``preceq_by_groups`` is the combining
order searched over all of lam's parts, without the tail reduction and
the screens of ``partitions.preceq``, and ``leq`` the order that decreases
or removes parts.  ``min_excluded_by_covers`` tests every
``lower_covers`` tuple of each whole candidate, the walk that the tail
covers of ``partitions.min_excluded`` replaced, and
``min_excluded_by_box_walk`` decides every tail of the box afresh with
``partitions._tail_below``, the walk that carrying each tail's layer
down from its parent's replaced.
``enumerate_end_by_product`` walks all n^n tables, the search that
``partitions.weight_maps`` replaced, and ``aut`` lists every
weight-preserving permutation.  ``monomials_of_degree`` and ``divides``
list the candidates of a ``vanishing_ideal`` degree the way the border of
the standard monomials replaced: every monomial of the degree that no
leading term divides.  ``h_tableau`` and ``eager_product`` build a
generator's factors as polynomials, the way generators were once held
before they were printed straight from their shape and slice factor.
``terms_by_dense_key`` orders a polynomial's terms on a dense exponent
vector over all its variables, the key the printer's sparse sort
replaced.  ``good_filling_by_cells`` fills a tableau cell by cell with
add-and-undo bookkeeping, the search that the row-multiset enumeration of
``partitions.good_filling_exists`` replaced, and ``perm_sign_by_cycles``
counts the even cycles that the inversion count of ``selfcheck.perm_sign``
replaced.  ``orbits_vanish_by_masks`` finds a point's row fits
(``supports_by_masks``) in a table of all 2^n class masks, the search
that the cover groups of ``equations._orbits_vanish`` replaced, and
``set_test_by_masks`` runs that function's set test on those supports.
``supports_by_fits`` lists each row size's cover groups once, from the
full mask, and keeps those within the classes still free: the table that
``equations._supports`` listing from the free classes replaced.
``orbits_vanish_by_factors``, ``member_by_factors`` and
``member_by_generators`` are equation membership as it was before the set
test: every factor of every generator is read; ``by_block`` folds
per-generator verdicts into one per block, and ``ideal_of`` makes any
generators an ideal of one block each.
``good_correspondences_by_fibers`` lists the candidate fibers of each
label by a multiset search, takes
their product and keeps the products within the source weights: the
route that the splits and ``partitions.weight_maps`` of
``corr.enumerate_good`` replaced.  ``factor_poly`` and ``factor_from_poly`` convert between a
``poly.SliceFactor`` and the ``Poly`` with ``Fraction`` coefficients that it
stands for (``PolyFactor`` holds any such ``Poly`` as a factor that
prints), and ``tail_zero_test_by_poly`` rebuilds a slice factor's integer
zero test from that ``Poly`` at every point, term by term, the way
membership did before it read the factor's integer row as a dot product
with its slice's monomial values.  ``evaluate`` reads a ``Poly``'s value
at an assignment of its variables.

Some helpers moved here from the package because only the tests call
them: ``T_FAMILY``, ``tvar`` and ``t`` build the slice variables t1, t2,
... that the tests write tails in, ``total_degree`` reads a ``Poly``'s
degree, and ``identity_map`` and ``identity_correspondence`` are the
identity ``CompMap`` and ``Correspondence`` of a composition.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from symvar.corr import CompMap, Correspondence
from symvar.equations import IdealGenerator, ShapeBlock, TypeIdeal, shape_rows
from symvar.partitions import INF, GenComposition, GenPartition
from symvar.partitions import _box_parts, _cover_groups, _tail_below, _tail_covers
from symvar.poly import SliceFactor, _format_terms, _mono_degree, scaled
from symvar.selfcheck import X_FAMILY, Poly, difference, xvar
from symvar.variety import FinitaryPoint, PointSetVariety, gamma_at, type_of


T_FAMILY = 1


def tvar(i):
    return (T_FAMILY, i)


def t(i) -> Poly:
    """The slice variable t_i as a ``Poly``."""
    return Poly({((tvar(i), 1),): 1})


def total_degree(p: Poly) -> int:
    return max((_mono_degree(m) for m in p.terms), default=0)


def identity_map(lam: GenComposition) -> CompMap:
    return CompMap(lam, lam, {i: i for i in lam.labels})


def identity_correspondence(lam: GenComposition) -> Correspondence:
    ident = identity_map(lam)
    return Correspondence(lam, ident, ident)


def leq(mu: GenPartition, lam: GenPartition) -> bool:
    """mu obtained from lam by decreasing or removing parts."""
    if mu.length > lam.length:
        return False
    return all(mu[i] <= lam[i] for i in range(mu.length))


def mu_minus(mu: GenPartition, e: int) -> GenPartition:
    """Cap every part larger than e+1 at e+1."""
    return GenPartition(min(p, e + 1) for p in mu.parts)


def good_filling_by_cells(mu: GenPartition, lam: GenPartition) -> bool:
    """Is there a tableau of shape mu, entries i used at most lam_i times in
    total and confined to a single row each?  Searched cell by cell, rows in
    order and entries non-decreasing within a row."""
    if mu.length == 0:
        return True
    caps = list(lam.parts)
    inf_entries = [i for i, c in enumerate(caps) if c == INF]
    inf_rows = mu.num_infinite
    if inf_rows > len(inf_entries):
        return False
    # an infinite row takes one of the first infinite-capacity entries
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


def perm_sign_by_cycles(sigma: dict) -> int:
    """Sign of a finite-support permutation: -1 per cycle of even length."""
    support = sorted(set(sigma) | set(sigma.values()))
    sign, seen = 1, set()
    for s in support:
        if s in seen:
            continue
        length, cur = 0, s
        while cur not in seen:
            seen.add(cur)
            cur = sigma.get(cur, cur)
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _minimal_cover_groups(target, parts, mask):
    """Index subsets of `mask` with ext-sum >= target and no sufficient proper prefix.

    Every sufficient group contains one of these, so searching over them is
    complete for the combining order.
    """
    if target == INF:
        for i in range(len(parts)):
            if (mask >> i) & 1 and parts[i] == INF:
                yield 1 << i
        return
    avail = [i for i in range(len(parts)) if (mask >> i) & 1]

    def rec(pos, acc_mask, acc_sum):
        for idx in range(pos, len(avail)):
            i = avail[idx]
            s = INF if parts[i] == INF else acc_sum + parts[i]
            m = acc_mask | (1 << i)
            if s >= target:
                yield m
            else:
                yield from rec(idx + 1, m, s)

    yield from rec(0, 0, 0)


def preceq_by_groups(mu: GenPartition, lam: GenPartition) -> bool:
    """mu obtained from lam by combining and decreasing (or removing) parts.

    Decided by backtracking over disjoint groups of lam's parts, one group
    per part of mu, each group ext-summing to at least the mu part.
    """
    if mu.length == 0:
        return True
    if mu.length > lam.length or mu.num_infinite > lam.num_infinite:
        return False
    mu_parts, lam_parts = mu.parts, lam.parts

    @lru_cache(maxsize=None)
    def solve(j, mask):
        if j == len(mu_parts):
            return True
        for g in _minimal_cover_groups(mu_parts[j], lam_parts, mask):
            if solve(j + 1, mask & ~g):
                return True
        return False

    return solve(0, (1 << lam.length) - 1)


def lower_covers(parts):
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


def min_excluded_by_covers(lam: GenPartition) -> list:
    """``partitions.min_excluded`` walking whole candidates: each
    (tau_0)^k ++ tau not below lam, all of whose ``lower_covers`` are."""
    k = lam.num_infinite
    fin = lam.parts[k:]
    w = sum(fin) + 1
    candidates = ((tau[0],) * k + tau for tau in _box_parts(len(fin) + 1, w, w))
    return [
        GenPartition(alpha)
        for alpha in candidates
        if not _tail_below(alpha[k:], fin)
        and all(_tail_below(c[k:], fin) for c in lower_covers(alpha))
    ]


def min_excluded_by_box_walk(lam: GenPartition) -> list:
    """``partitions.min_excluded`` walking the whole box of tails: each
    distinct tail is decided once, by ``_tail_below`` from the full state."""
    if not lam.is_infinite:
        raise ValueError("min_excluded requires a partition with an infinite part")
    k = lam.num_infinite
    fin = lam.parts[k:]
    below = {}

    def is_below(tail):
        hit = below.get(tail)
        if hit is None:
            hit = below[tail] = _tail_below(tail, fin)
        return hit

    w = sum(fin) + 1
    return [
        GenPartition((tau[0],) * k + tau)
        for tau in _box_parts(len(fin) + 1, w, w)
        if not is_below(tau) and all(map(is_below, _tail_covers(tau)))
    ]


def expand(factors) -> Poly:
    """The product of the factors, multiplied out."""
    out = Poly.constant(1)
    for f in factors:
        out = out * f
    return out


def h_tableau(rows) -> tuple:
    """Factors x_a - x_b, a < b, over pairs of labels in distinct rows,
    sorted by their variables.  A single row yields the empty product."""
    factors = []
    for r1 in range(len(rows)):
        for r2 in range(r1 + 1, len(rows)):
            for a in rows[r1]:
                for b in rows[r2]:
                    lo, hi = (a, b) if a < b else (b, a)
                    factors.append(difference(lo, hi))
    factors.sort(key=lambda f: sorted(f.variables()))
    return tuple(factors)


def factor_poly(f: SliceFactor) -> Poly:
    """The polynomial a slice factor stands for: each term c t^m of its row
    as Fraction(c, lead) t^m."""
    names = [tvar(j + 1) for j in f.used]
    return Poly({tuple((names[p], e) for p, e in m): Fraction(c, f.lead) for c, m in f.terms})


class PolyFactor(SliceFactor):
    """A slice factor given by its terms instead of an elimination row, so
    that any polynomial in t-variables can stand as one: `terms` are its
    (c, monomial) pairs over the common denominator `lead`.  It has no
    table to be tested on or to hold its template, so it formats its own."""

    __slots__ = ("given",)

    def __init__(self, lead, used, terms):
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "used", used)
        object.__setattr__(self, "given", terms)

    @property
    def terms(self):
        return self.given

    @property
    def template(self) -> str:
        return _format_terms(((m, Fraction(c, self.lead)) for c, m in self.terms),
                             lambda p: "{%d}" % p)


def factor_from_poly(p: Poly) -> SliceFactor:
    """The slice factor of a polynomial in t-variables: its coefficients
    over their common denominator; ``factor_poly`` gives p back."""
    variables = p.variables()
    if any(fam != T_FAMILY for fam, _ in variables):
        raise ValueError("slice factor uses a variable that is not a t-variable")
    used = tuple(sorted(i - 1 for _, i in variables))
    pos = {tvar(j + 1): k for k, j in enumerate(used)}
    lead = math.lcm(*(c.denominator for c in p.terms.values()))
    terms = tuple((int(c * lead), tuple((pos[v], e) for v, e in m)) for m, c in p.terms.items())
    return PolyFactor(lead, used, terms)


def eager_product(gen: IdealGenerator) -> tuple:
    """The factors of a generator: h_tableau of its rows, then one copy of
    the slice factor per choice of a cell in each row it mentions, relabeled
    with ``Poly.subs_vars``."""
    factors = h_tableau(gen.rows)
    if gen.factor is not None:
        tail = factor_poly(gen.factor)
        for combo in itertools.product(*(gen.rows[i] for i in gen.tail_rows)):
            factors += (tail.subs_vars(
                {tvar(i + 1): xvar(cell) for i, cell in zip(gen.tail_rows, combo)}),)
    return factors


def is_good(corr: Correspondence) -> bool:
    """Fibers bounded by the number of source parts; labels heavier than
    the source's finite weight have singleton fibers."""
    e = corr.source.finite_weight
    bound = corr.source.length
    for i in corr.target.labels:
        fib = corr.f1.fiber(i)
        if len(fib) > bound:
            return False
        if corr.target.weight(i) > e and len(fib) != 1:
            return False
    return True


def arrangements(x: FinitaryPoint, mu: GenComposition):
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
    weights = sorted(by_weight, reverse=True)
    label_blocks = [by_weight[w] for w in weights]
    value_blocks = [classes_by_weight[w] for w in weights]
    pos = {k: i for i, k in enumerate(mu.labels)}
    for perm_choice in itertools.product(*(itertools.permutations(vs) for vs in value_blocks)):
        coords = [None] * mu.length
        for labels, values in zip(label_blocks, perm_choice):
            for k, v in zip(labels, values):
                coords[pos[k]] = v
        yield tuple(coords)


def spelled(rng, v):
    """v itself, or when v = n is integral one of n, Fraction(n) and
    Fraction(2n, 2), at random."""
    if v.denominator != 1:
        return v
    n = v.numerator
    return rng.choice([n, Fraction(n), Fraction(2 * n, 2)])


def theta_member_by_slice(lam: GenComposition, Z: PointSetVariety, x: FinitaryPoint) -> bool:
    """Membership decided by arranging x's distinct values into a tuple of
    its type and testing the slice of the closure system there."""
    Z.require_distinct()
    mu = GenComposition.from_partition(type_of(x))
    slice_pts = set(gamma_at(lam, Z, mu).points)
    if not slice_pts:
        return False
    return any(z in slice_pts for z in arrangements(x, mu))


def contains_by_slice(mu: GenComposition, Z1: PointSetVariety, lam: GenComposition,
                      Z2: PointSetVariety) -> bool:
    """Containment decided by a finite check of Z1 against the mu-slice of
    the closure system of Z2."""
    Z1.require_distinct()
    Z2.require_distinct()
    if Z1.lam != mu or Z2.lam != lam:
        raise ValueError("point sets must live over the stated compositions")
    if not Z1.points:
        return True
    slice_pts = set(gamma_at(lam, Z2, mu).points)
    return all(p in slice_pts for p in Z1.points)


def evaluate(p: Poly, assignment):
    """The value of `p` with every variable it uses present in
    `assignment`."""
    total = 0
    for m, c in p.terms.items():
        val = c
        for v, e in m:
            val *= assignment[v] ** e
        total += val
    return total


def orbit_evaluations(p: Poly, point_classes) -> list:
    """All values of p under assignments of its x-support into the value
    classes of a point, no class used beyond its multiplicity.

    `point_classes` is a sequence of (value, multiplicity) pairs with
    pairwise distinct values; multiplicities live in N ∪ {inf}.  Returns the
    sorted list of distinct evaluation values.
    """
    support = sorted(i for fam, i in p.variables() if fam == X_FAMILY)
    if any(fam != X_FAMILY for fam, _ in p.variables()):
        raise ValueError("orbit evaluation requires x-variables only")
    classes = [(Fraction(v), m) for v, m in point_classes]
    values = set()
    k = len(support)

    def rec(idx, counts, assignment):
        if idx == k:
            values.add(evaluate(p, assignment))
            return
        v = xvar(support[idx])
        for ci, (val, mult) in enumerate(classes):
            if mult != INF and counts[ci] >= mult:
                continue
            counts[ci] += 1
            assignment[v] = val
            rec(idx + 1, counts, assignment)
            counts[ci] -= 1

    rec(0, [0] * len(classes), {})
    return sorted(values)


def generator_orbit_vanishes_brute(gen: IdealGenerator, x: FinitaryPoint) -> bool:
    """Expansion-based cross-check of the structured vanishing search; only
    usable when the expanded generator is small."""
    vals = orbit_evaluations(expand(eager_product(gen)), x.classes)
    return vals == [0] or vals == []


def product_shape(factors):
    """Recover the tableau shape of a pure product of coordinate differences.

    Returns the partition of row sizes when the factors form the complete
    multipartite difference pattern of some tableau (each factor x_a - x_b
    up to sign, every cross-row pair exactly once, no within-row pairs),
    else None.
    """
    edges = set()
    vertices = set()
    for f in factors:
        terms = f.terms
        if len(terms) != 2:
            return None
        items = sorted(terms.items())
        monos = [m for m, _ in items]
        coeffs = [c for _, c in items]
        vs = []
        for m in monos:
            if len(m) != 1 or m[0][1] != 1 or m[0][0][0] != 0:
                return None
            vs.append(m[0][0][1])
        if vs[0] == vs[1] or abs(coeffs[0]) != abs(coeffs[1]) or coeffs[0] + coeffs[1] != 0:
            return None
        e = (min(vs), max(vs))
        if e in edges:
            return None
        edges.add(e)
        vertices.update(vs)
    if not vertices:
        return None  # empty product: the shape is not recoverable
    # rows = connected components of the complement graph
    rows = []
    todo = set(vertices)
    while todo:
        seed = min(todo)
        comp = {seed}
        frontier = {seed}
        while frontier:
            v = frontier.pop()
            for w in todo - comp:
                if (min(v, w), max(v, w)) not in edges:
                    comp.add(w)
                    frontier.add(w)
        rows.append(sorted(comp))
        todo -= comp
    for r1, r2 in itertools.combinations(rows, 2):
        for a in r1:
            for b in r2:
                if (min(a, b), max(a, b)) not in edges:
                    return None
    for r in rows:
        for a, b in itertools.combinations(r, 2):
            if (min(a, b), max(a, b)) in edges:
                return None
    if len(edges) != sum(
        len(r1) * len(r2) for r1, r2 in itertools.combinations(rows, 2)
    ):
        return None
    return GenPartition(len(r) for r in rows)


def equivalent_mod_relabeling(p: Poly, q: Poly) -> bool:
    """Equality up to sign and a bijective relabeling of the x-variables.

    Intended for small polynomials; tries every support bijection.
    """
    pv = sorted(i for f, i in p.variables() if f == 0)
    qv = sorted(i for f, i in q.variables() if f == 0)
    if len(pv) != len(qv):
        return False
    for image in itertools.permutations(qv):
        sigma = dict(zip(pv, image))
        moved = p.subs_vars({xvar(a): xvar(b) for a, b in sigma.items()})
        if moved == q or moved == -q:
            return True
    return False


def enumerate_end_by_product(lam: GenComposition) -> list:
    """All weight-respecting self-maps of lam, in table order."""
    out = []
    labels = lam.labels
    for images in itertools.product(labels, repeat=len(labels)):
        table = dict(zip(labels, images))
        ok = all(
            sum(lam.weight(i) for i in labels if table[i] == j) <= lam.weight(j)
            for j in set(images)
        )
        if ok:
            out.append(CompMap(lam, lam, table))
    return out


def aut(lam: GenComposition) -> list:
    """All weight-preserving bijections of the label set, as dicts.

    The group is the product of symmetric groups on blocks of equal weight.
    """
    blocks = {}
    for k in lam.labels:
        blocks.setdefault(lam.weight(k), []).append(k)
    block_lists = [blocks[w] for w in sorted(blocks, reverse=True)]
    perms = []
    for images in itertools.product(*(itertools.permutations(b) for b in block_lists)):
        table = {}
        for block, image in zip(block_lists, images):
            table.update(dict(zip(block, image)))
        perms.append(table)
    perms.sort(key=lambda t: tuple(t[k] for k in lam.labels))
    return perms


def monomials_of_degree(nvars, degree):
    """Exponent tuples of the given total degree, ascending graded-lex."""
    if degree == 0:
        return [(0,) * nvars]
    if nvars == 0:
        return []
    out = []

    def rec(pos, remaining, acc):
        if pos == nvars - 1:
            out.append(tuple(acc + [remaining]))
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, acc + [e])

    rec(0, degree, [])
    return sorted(out)  # larger exponent on an earlier (bigger) variable = bigger


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def terms_by_dense_key(p: Poly) -> list:
    """The terms of p in decreasing graded-lex order: by degree, then by the
    negated exponents of every variable of p, in variable order."""
    allvars = sorted(p.variables())

    def key(item):
        exps = dict(item[0])
        return (-sum(exps.values()), tuple(-exps.get(v, 0) for v in allvars))

    return sorted(p.terms.items(), key=key)


def tail_zero_test_by_poly(tail, tail_rows, classes):
    """The tail's zero test at one point, on integers, read off the
    ``Poly``.

    Returns ``vanishes(combo)``: does the tail vanish when the t-variable of
    ``tail_rows[p]`` takes the value of class ``combo[p]``?  With q the
    common denominator of the class values and L that of the tail's
    coefficients, L * q^deg * tail(values) is the integer sum, over the
    terms c_m t^m, of (L * c_m) * prod(q * value)^m * q^(deg - |m|); it is
    zero exactly when the tail vanishes.
    """
    q = math.lcm(*(v.denominator for v, _ in classes))
    scaled = [v.numerator * (q // v.denominator) for v, _ in classes]
    lcm = math.lcm(*(c.denominator for c in tail.terms.values()))
    deg = total_degree(tail)
    pos = {tvar(r + 1): p for p, r in enumerate(tail_rows)}
    terms = [
        (c.numerator * (lcm // c.denominator) * q ** (deg - sum(e for _, e in m)),
         tuple((pos[v], e) for v, e in m))
        for m, c in tail.terms.items()
    ]

    def vanishes(combo):
        total = 0
        for coeff, mono in terms:
            for p, e in mono:
                coeff *= scaled[combo[p]] ** e
            total += coeff
        return total == 0

    return vanishes


def supports_by_masks(rows, classes):
    """Every support of `rows` at a point: one class mask per row, pairwise
    disjoint, each with at most the row's size classes whose multiplicities
    add up to at least that size."""
    n = len(classes)
    fits = {size: [m for m in range(1, 1 << n)
                   if bin(m).count("1") <= size
                   and sum(classes[c][1] for c in range(n) if m >> c & 1) >= size]
            for size in set(map(len, rows))}

    def rec(i, available):
        if i == len(rows):
            yield ()
            return
        for m in fits[len(rows[i])]:
            if m & available == m:
                for rest in rec(i + 1, available & ~m):
                    yield (m,) + rest

    return list(rec(0, (1 << n) - 1))


def supports_by_fits(mults: tuple, sizes: tuple) -> tuple:
    """``equations._supports`` as it was with a table of each row size's
    cover groups, all listed from the full mask, filtered to the classes
    still free."""
    n = len(mults)
    full = (1 << n) - 1
    slots = tuple((m, 1 << c, 2) for c, m in enumerate(mults))
    fits = {}  # row size -> [(mask, classes of the mask)]

    def supports(i, available):
        if i == len(sizes):
            yield ()
            return
        size = sizes[i]
        if size not in fits:
            fits[size] = [(full ^ left, tuple(c for c in range(n) if not left >> c & 1))
                          for left in _cover_groups(size, full, slots)]
        for m, group in fits[size]:
            if m & available == m:
                for rest in supports(i + 1, available & ~m):
                    yield (group,) + rest

    return tuple(supports(0, full))


def orbits_vanish_by_masks(generators, classes):
    """``equations._orbits_vanish`` with every support that can fill a row
    (`supports_by_masks`), for each generator in turn, each factor's zero
    test rebuilt from its ``Poly``."""
    n = len(classes)
    members = [[c for c in range(n) if m >> c & 1] for m in range(1 << n)]
    for rows, run in itertools.groupby(generators, key=lambda g: g.rows):
        found = supports_by_masks(rows, classes)
        projections = {}
        for g in run:
            if not found:
                yield True
                continue
            if g.factor is None:
                yield False
                continue
            if g.tail_rows not in projections:
                projections[g.tail_rows] = {tuple(a[r] for r in g.tail_rows) for a in found}
            vanishes = tail_zero_test_by_poly(factor_poly(g.factor), g.tail_rows, classes)
            yield all(
                any(vanishes(combo) for combo in itertools.product(*(members[m] for m in p)))
                for p in projections[g.tail_rows]
            )


def set_test_by_masks(block, classes) -> bool:
    """Does every support of the block's rows (`supports_by_masks`) have a
    choice of one class per row whose keys are a point of its slice?"""
    n = len(classes)
    return all(
        any(tuple(classes[c][0] for c in combo) in block.keys
            for combo in itertools.product(*([c for c in range(n) if m >> c & 1] for m in a)))
        for a in supports_by_masks(shape_rows(block.shape), classes))


def orbits_vanish_by_factors(generators, classes):
    """For each generator in turn, ``equations._orbits_vanish``'s verdict
    read off its factor alone: the cover-group supports, listed once per
    run of equal rows, and each factor's integer zero test on their
    projections, with no set test."""
    n = len(classes)
    q, xs_of_class = scaled([v for v, _ in classes])
    mults = [m for _, m in classes]
    fits = {}  # row size -> the cover groups, each with its classes
    vectors = {}

    def vanishes(f, combo):
        key = (f.table, f.local, combo)
        if key not in vectors:
            vectors[key] = f.table.values(f.local, [xs_of_class[c] for c in combo], q)
        return f.vanishes_at(vectors[key])

    def supports(rows, i=0, available=(1 << n) - 1):
        if i == len(rows):
            yield ()
            return
        size = len(rows[i])
        if size not in fits:
            fits[size] = [(m, tuple(c for c in range(n) if m >> c & 1))
                          for m in _minimal_cover_groups(size, mults, (1 << n) - 1)]
        for m, group in fits[size]:
            if m & available == m:
                for rest in supports(rows, i + 1, available & ~m):
                    yield (group,) + rest

    for rows, run in itertools.groupby(generators, key=lambda g: g.rows):
        found = list(supports(rows))
        projections = {}
        for g in run:
            f = g.factor
            if not found or f is None:
                yield not found
                continue
            if f.used not in projections:
                projections[f.used] = {tuple(a[r] for r in f.used) for a in found}
            yield all(any(vanishes(f, combo) for combo in itertools.product(*p))
                      for p in projections[f.used])


def member_by_factors(ideal, x: FinitaryPoint) -> bool:
    """``equations.member_by_equations`` with every factor of the ideal
    read: `member_by_generators` over its generators."""
    return member_by_generators(ideal.generators, x)


def member_by_generators(generators, x: FinitaryPoint) -> bool:
    """`member_by_factors` on an ideal's `generators` tuple, for a caller
    that queries one ideal at many points and reads the tuple once (each
    read of ``TypeIdeal.generators`` builds it anew)."""
    return all(orbits_vanish_by_factors(generators, list(x.classes)))


def by_block(ideal, verdicts) -> list:
    """Per-generator `verdicts` of an ideal's generators folded into one
    per block: do all of the block's generators vanish?"""
    verdicts = iter(verdicts)
    return [all([next(verdicts) for _ in block.factors]) for block in ideal.blocks]


def ideal_of(generators) -> TypeIdeal:
    """The ideal holding `generators` in order, one block each with no key
    set, so that membership runs no set test on them."""
    return TypeIdeal([ShapeBlock(g.kind, g.shape, factors=(g.factor,)) for g in generators])


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


def good_correspondences_by_fibers(mu: GenComposition, lam: GenComposition) -> list:
    """``corr.enumerate_good`` by a product of candidate fibers, one per
    label of mu, filtered on the weights summed at each label of lam."""
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
        out.append(Correspondence(rho, CompMap(rho, mu, t1), CompMap(rho, lam, t2)))
    out.sort(key=lambda c: c.canonical_key())
    return out
