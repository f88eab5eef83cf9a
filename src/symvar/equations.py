"""Tableau polynomials and exact generator sets for the defining ideals.

The type locus of a partition lam with an infinite part is cut out,
set-theoretically, by the orbit ideal of the tableau polynomials of the
minimal excluded finite partitions.

The classified set of a pair (lam, Z) is cut out by those generators plus
slice equations: for each capped shape mu (parts at most e+1, at most
ell(lam) rows, where e is the finite weight of lam), every generator f of
the vanishing ideal of the saturated slice contributes the tableau
polynomial of mu times f pulled back to the tableau coordinates, with each
t-variable distributed over all cells of its row.  Rows of size e+1 stand
for classes of unbounded multiplicity; distributing the slice factor over
the row cells is what makes the generator vanish on every member point even
when a row is filled from several value classes.

Shapes with a row of size between 2 and e that do not use the full length
of lam admit fillings that mix value classes in an inequivalent way; no
orbit generator of this product form can separate those fillings, so such
shapes are skipped.  Dropping them keeps every emitted generator vanishing
on the classified set; the equation route then decides membership exactly
whenever lam has finite weight at most 1 or at most two parts (which covers
every partition with all parts infinite), and may only over-accept outside
that range.

Generators are kept in factored form; their expansions are combinatorially
infeasible for even modest shapes, while evaluation, printing and
comparison never need them expanded.
"""

import itertools

from .partitions import (
    GenComposition,
    GenPartition,
    Tableau,
    ext_sum,
    finite_partitions_in_box,
    is_inf,
    min_excluded,
    mu_s,
    row_major_tableau,
)
from .poly import (
    Poly,
    PolyProduct,
    difference,
    orbit_evaluations,
    tvar,
    vanishing_ideal,
    xvar,
)
from .variety import FinitaryPoint, PointSetVariety, _gamma_points, end_closure


def h_tableau(T: Tableau) -> PolyProduct:
    """Product of (x_i - x_j), i < j, over pairs of labels in distinct rows.

    A single-row tableau yields the empty product 1.
    """
    factors = []
    rows = T.rows
    for r1 in range(len(rows)):
        for r2 in range(r1 + 1, len(rows)):
            for a in rows[r1]:
                for b in rows[r2]:
                    lo, hi = (a, b) if a < b else (b, a)
                    factors.append(difference(lo, hi))
    factors.sort(key=lambda f: sorted(f.variables()))
    return PolyProduct(factors)


class IdealGenerator:
    """One generator of an orbit ideal, in factored form.

    `rows` are the tableau rows behind the difference factors.  `tail` is
    the optional slice factor, a polynomial in t-variables: t_i stands for
    the coordinates of row i, and the emitted product carries one copy of
    the tail per choice of a cell in each row it mentions.  `origin`
    records provenance: ("excluded", alpha) for a minimal excluded
    partition, or ("slice", mu, g) for a capped shape mu and a
    vanishing-ideal element g.  `base`, when given, is h_tableau of the
    rows, so that generators sharing a tableau compute it once.
    """

    __slots__ = ("product", "rows", "tail", "origin")

    def __init__(self, rows, tail, origin, base=None):
        T = Tableau(rows)
        product = h_tableau(T) if base is None else base
        if tail is not None:
            rows_used = _tail_rows(T.rows, tail)
            for combo in itertools.product(*(T.rows[i] for i in rows_used)):
                sub = {tvar(i + 1): xvar(cell) for i, cell in zip(rows_used, combo)}
                product = product * tail.subs_vars(sub)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "rows", T.rows)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "origin", origin)

    def provenance(self) -> str:
        if self.origin[0] == "excluded":
            return f"excluded {self.origin[1]}"
        _, mu, g = self.origin
        return f"slice {mu} : {g}"

    def __eq__(self, other):
        return isinstance(other, IdealGenerator) and self.product == other.product

    def __hash__(self):
        return hash(self.product)

    def __repr__(self):
        return f"IdealGenerator({self.provenance()})"

    def __setattr__(self, name, value):
        raise AttributeError("IdealGenerator is immutable")


def _tail_rows(rows, tail):
    """Indices of the rows whose t-variable appears in the tail."""
    used = {i for fam, i in tail.variables() if fam == 1}
    out = [i for i in range(len(rows)) if i + 1 in used]
    if {i + 1 for i in out} != used:
        raise ValueError("tail uses a t-variable with no matching row")
    return out


class TypeIdeal:
    """Generator set, with provenance, for the orbit ideal attached to a
    partition (and optionally a point-set variety)."""

    __slots__ = ("lam", "generators")

    def __init__(self, lam: GenPartition, generators):
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "generators", tuple(generators))

    def render(self) -> str:
        lines = []
        for g in self.generators:
            lines.append(f"# provenance: {g.provenance()}")
            lines.append(str(g.product))
        return "\n".join(lines)

    def __repr__(self):
        return f"TypeIdeal(lam={self.lam}, generators={len(self.generators)})"

    def __setattr__(self, name, value):
        raise AttributeError("TypeIdeal is immutable")


_I_LAMBDA_CACHE = {}


def i_lambda(lam: GenPartition) -> TypeIdeal:
    """Generators cutting out, set-theoretically, the locus of points whose
    type is below lam: one tableau polynomial per minimal excluded
    partition, on the canonical row-major tableau."""
    if lam in _I_LAMBDA_CACHE:
        return _I_LAMBDA_CACHE[lam]
    gens = [
        IdealGenerator(row_major_tableau(alpha).rows, None, ("excluded", alpha))
        for alpha in min_excluded(lam)
    ]
    ideal = TypeIdeal(lam, gens)
    _I_LAMBDA_CACHE[lam] = ideal
    return ideal


def capped_shapes(lam: GenPartition) -> list:
    """Finite shapes indexing the slice equations: at most ell(lam) parts,
    each at most e+1."""
    return finite_partitions_in_box(lam.length, lam.finite_weight + 1)


def _mix_safe(mu: GenPartition, lam: GenPartition) -> bool:
    # a row of size 2..e in a shape shorter than lam admits mixed fillings
    # that this generator form cannot separate
    if mu.length == lam.length:
        return True
    cap = lam.finite_weight + 1
    return all(p == cap or p == 1 for p in mu.parts)


def i_lambda_z(lam: GenPartition, Z: PointSetVariety) -> TypeIdeal:
    """Generators cutting out the classified set of the pair (lam, Z).

    Emits the type-locus generators plus, for every admissible capped shape
    mu, the tableau polynomial of mu times each generator of the vanishing
    ideal of the saturated slice, distributed over the row cells.  An empty
    slice contributes the bare tableau polynomial.

    Every generator vanishes on the classified set; the presentation is
    exact (the equation route matches direct membership) when the finite
    weight of lam is at most 1 or lam has at most two parts.
    """
    if not lam.is_infinite:
        raise ValueError("i_lambda_z requires a partition with an infinite part")
    Z.require_distinct()
    lam_comp = GenComposition.from_partition(lam)
    if Z.lam != lam_comp:
        raise ValueError("Z must live over the composition of lam")
    e = lam.finite_weight
    gens = list(i_lambda(lam).generators)
    closed = end_closure(lam_comp, Z)
    for mu in capped_shapes(lam):
        if not _mix_safe(mu, lam):
            continue
        T = row_major_tableau(mu)
        saturated = mu_s(mu, e)
        slice_pts = _gamma_points(
            lam_comp, closed.points, GenComposition.from_partition(saturated)
        )
        base = h_tableau(T)
        if not slice_pts:
            gens.append(IdealGenerator(T.rows, None, ("slice", mu, Poly.constant(1)), base))
            continue
        for g in vanishing_ideal(slice_pts):
            gens.append(IdealGenerator(T.rows, g, ("slice", mu, g), base))
    return TypeIdeal(lam, gens)


def _feasible_support(size, support, classes):
    """Can a row with `size` cells be filled from exactly the classes in
    `support`, each used at least once within its multiplicity?"""
    if len(support) > size:
        return False
    return ext_sum(classes[c][1] for c in support) >= size


def _exists_nonzero_assignment(gen: IdealGenerator, classes) -> bool:
    """Is there an assignment of the generator's labels into the value
    classes, respecting multiplicities, with every factor nonzero?

    The difference factors vanish exactly when two labels in distinct rows
    share a class (distinct classes carry distinct values), so rows must
    use pairwise disjoint class sets; within a row, cells are
    interchangeable.  The distributed tail copies are all nonzero exactly
    when no choice of one class per mentioned row lands in the tail's zero
    locus.
    """
    rows = gen.rows
    tail = gen.tail
    tail_rows = _tail_rows(rows, tail) if tail is not None else []
    k = len(rows)
    n = len(classes)

    def rec(i, available, supports):
        if i == k:
            if tail is None:
                return True
            for combo in itertools.product(*(supports[r] for r in tail_rows)):
                env = {tvar(tail_rows[p] + 1): classes[c][0] for p, c in enumerate(combo)}
                if tail.evaluate(env) == 0:
                    return False
            return True
        size = len(rows[i])
        avail = [c for c in range(n) if available >> c & 1]
        for m in range(1, 1 << len(avail)):
            support = [avail[b] for b in range(len(avail)) if m >> b & 1]
            if not _feasible_support(size, support, classes):
                continue
            supports.append(support)
            if rec(i + 1, available & ~sum(1 << c for c in support), supports):
                supports.pop()
                return True
            supports.pop()
        return False

    return rec(0, (1 << n) - 1, [])


def generator_orbit_vanishes(gen: IdealGenerator, x: FinitaryPoint) -> bool:
    """Do all orbit evaluations of the generator at x equal zero?"""
    return not _exists_nonzero_assignment(gen, list(x.classes))


def member_by_equations(ideal: TypeIdeal, x: FinitaryPoint) -> bool:
    """Point membership by equations: every generator's orbit evaluations
    at x must all vanish."""
    return all(generator_orbit_vanishes(g, x) for g in ideal.generators)


def generator_orbit_vanishes_brute(gen: IdealGenerator, x: FinitaryPoint) -> bool:
    """Expansion-based cross-check of the structured vanishing search; only
    usable when the expanded generator is small."""
    vals = orbit_evaluations(gen.product.expand(), x.classes)
    return vals == [0] or vals == []


def reduce_generators(ideal: TypeIdeal, sample_points) -> TypeIdeal:
    """Heuristic pruning: drop a generator when, on every sample point where
    all other kept generators vanish, it vanishes too.  The result cuts out
    the same locus on the sampled battery only; this is flagged as a
    heuristic, not a proof of redundancy."""
    kept = list(ideal.generators)
    for g in list(reversed(kept)):
        others = [h for h in kept if h is not g]
        if not others:
            continue
        implied = all(
            generator_orbit_vanishes(g, x)
            for x in sample_points
            if all(generator_orbit_vanishes(h, x) for h in others)
        )
        if implied:
            kept = others
    return TypeIdeal(ideal.lam, kept)


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
