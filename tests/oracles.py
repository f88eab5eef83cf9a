"""Reference routines that only the tests use.

None of these runs on a pipeline path.  The oracles expand, enumerate or
search in the most direct way, so they are only usable on small inputs;
``mu_minus`` is the truncation that ``partitions.mu_s`` inverts.
"""

import itertools
from fractions import Fraction

from symvar.equations import IdealGenerator
from symvar.partitions import GenPartition, is_inf
from symvar.poly import X_FAMILY, Poly, PolyProduct, xvar
from symvar.variety import FinitaryPoint


def mu_minus(mu: GenPartition, e: int) -> GenPartition:
    """Cap every part larger than e+1 at e+1."""
    return GenPartition(min(p, e + 1) for p in mu.parts)


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
    vals = orbit_evaluations(gen.product.expand(), x.classes)
    return vals == [0] or vals == []


def product_shape(pp: PolyProduct):
    """Recover the tableau shape of a pure product of coordinate differences.

    Returns the partition of row sizes when the factors form the complete
    multipartite difference pattern of some tableau (each factor x_a - x_b
    up to sign, every cross-row pair exactly once, no within-row pairs),
    else None.
    """
    edges = set()
    vertices = set()
    for f in pp.factors:
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
