"""Reference routines that only the tests use.

None of these runs on a pipeline path.  The oracles expand, enumerate or
search in the most direct way, so they are only usable on small inputs;
``mu_minus`` is the truncation that ``partitions.mu_s`` inverts.
``theta_member_by_slice`` and ``contains_by_slice`` are the slice-based
decisions that the point-set rule of ``variety.theta_member`` and
``variety.contains`` replaced.  ``preceq_by_groups`` is the combining
order searched over all of lam's parts, without the tail reduction and
the screens of ``partitions.preceq``.  ``enumerate_end_by_product`` walks
all n^n tables, ``aut`` lists every weight-preserving permutation and
``aut_orbits_by_bfs`` closes each point under them: the searches that
``partitions.weight_maps`` and the block-multiset key of
``variety.aut_orbits`` replaced.  ``monomials_of_degree`` and ``divides``
list the candidates of a ``vanishing_ideal`` degree the way the border of
the standard monomials replaced: every monomial of the degree that no
leading term divides.  ``h_tableau`` and ``eager_product`` build a
generator's factors as polynomials, the way generators were once held
before they were printed straight from their shape and slice factor.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from symvar.corr import CompMap, Correspondence
from symvar.equations import IdealGenerator
from symvar.partitions import INF, GenComposition, GenPartition, is_inf
from symvar.poly import T_FAMILY, X_FAMILY, Poly, difference, tvar, xvar
from symvar.variety import FinitaryPoint, PointSetVariety, gamma_at, type_of


def mu_minus(mu: GenPartition, e: int) -> GenPartition:
    """Cap every part larger than e+1 at e+1."""
    return GenPartition(min(p, e + 1) for p in mu.parts)


def _minimal_cover_groups(target, parts, mask):
    """Index subsets of `mask` with ext-sum >= target and no sufficient proper prefix.

    Every sufficient group contains one of these, so searching over them is
    complete for the combining order.
    """
    if is_inf(target):
        for i in range(len(parts)):
            if (mask >> i) & 1 and is_inf(parts[i]):
                yield 1 << i
        return
    avail = [i for i in range(len(parts)) if (mask >> i) & 1]

    def rec(pos, acc_mask, acc_sum):
        for idx in range(pos, len(avail)):
            i = avail[idx]
            s = INF if is_inf(parts[i]) else acc_sum + parts[i]
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


def eager_product(gen: IdealGenerator) -> tuple:
    """The factors of a generator: h_tableau of its rows, then one copy of
    the tail per choice of a cell in each row the tail mentions, relabeled
    with ``Poly.subs_vars``."""
    factors = h_tableau(gen.rows)
    if gen.tail is not None:
        used = sorted(i - 1 for fam, i in gen.tail.variables() if fam == T_FAMILY)
        for combo in itertools.product(*(gen.rows[i] for i in used)):
            factors += (gen.tail.subs_vars(
                {tvar(i + 1): xvar(cell) for i, cell in zip(used, combo)}),)
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
            values.add(p.evaluate(assignment))
            return
        v = xvar(support[idx])
        for ci, (val, mult) in enumerate(classes):
            if not is_inf(mult) and counts[ci] >= mult:
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


def aut_orbits_by_bfs(lam: GenComposition, Z: PointSetVariety) -> list:
    """Orbits of Z under the weight-preserving label permutations acting on
    coordinates, found by closing each point under every permutation."""
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
