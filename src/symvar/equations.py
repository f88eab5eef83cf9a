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

A generator is held as its shape and its slice factor.  Its expansion is
combinatorially infeasible for even modest shapes; membership reads the
shape and the factor, and printing writes the factored form straight from
them.
"""

import functools
import itertools
import math
import re

from .partitions import (
    GenComposition,
    GenPartition,
    finite_partitions_in_box,
    min_excluded,
    mu_s,
)
from .poly import T_FAMILY, tvar, vanishing_ideal
from .variety import FinitaryPoint, PointSetVariety, _gamma_points


class IdealGenerator:
    """One generator of an orbit ideal: a finite shape and an optional
    slice factor.

    `kind` is "excluded" for a minimal excluded partition and "slice" for
    a capped shape.  `rows` fill the `shape` row-major with the cells
    1, 2, ...; the generator is the product of (x_a - x_b) over cells a < b
    in different rows.  `tail` is the optional slice factor, a polynomial
    in t-variables: t_i stands for the coordinates of row i, and the
    generator carries one copy of the tail per choice of a cell in each
    row of `tail_rows`, the rows the tail mentions.
    """

    __slots__ = ("kind", "shape", "rows", "tail", "tail_rows")

    def __init__(self, kind, shape: GenPartition, tail=None):
        rows, cell = [], 1
        for size in shape:
            rows.append(tuple(range(cell, cell + size)))
            cell += size
        tail_rows = ()
        if tail is not None:
            used = {i for fam, i in tail.variables() if fam == T_FAMILY}
            tail_rows = tuple(i for i in range(len(rows)) if i + 1 in used)
            if len(tail_rows) != len(used):
                raise ValueError("tail uses a t-variable with no matching row")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "tail_rows", tail_rows)

    def provenance(self) -> str:
        if self.kind == "excluded":
            return f"excluded {self.shape}"
        return f"slice {self.shape} : {self.tail or 1}"

    def __str__(self):
        """The factored form: the difference factors in order of their
        cell pairs, then the tail copies; "1" for the empty product."""
        rows = self.rows
        factors = [f"(x{a} - x{b})" for a, b in sorted(
            (a, b) for i, row in enumerate(rows) for later in rows[i + 1:]
            for a in row for b in later)]
        if self.tail is not None:
            # t_{i+1} becomes a cell of row i; cells rise with the row index,
            # so the renaming keeps the variable order and every copy keeps
            # the term order of str(tail)
            slot = {i + 1: p for p, i in enumerate(self.tail_rows)}
            copy = re.sub(r"t(\d+)", lambda m: "x{%d}" % slot[int(m.group(1))],
                          f"({self.tail})")
            factors += [copy.format(*cells) for cells in
                        itertools.product(*(rows[i] for i in self.tail_rows))]
        return "*".join(factors) or "1"

    def __repr__(self):
        return f"IdealGenerator({self.provenance()})"

    def __setattr__(self, name, value):
        raise AttributeError("IdealGenerator is immutable")


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
            lines.append(str(g))
        return "\n".join(lines)

    def __repr__(self):
        return f"TypeIdeal(lam={self.lam}, generators={len(self.generators)})"

    def __setattr__(self, name, value):
        raise AttributeError("TypeIdeal is immutable")


def i_lambda(lam: GenPartition) -> TypeIdeal:
    """Generators cutting out, set-theoretically, the locus of points whose
    type is below lam: one tableau polynomial per minimal excluded
    partition."""
    return TypeIdeal(lam, [IdealGenerator("excluded", alpha) for alpha in min_excluded(lam)])


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
    ideals = {}  # slices of different shapes often hold the same points
    for mu in capped_shapes(lam):
        if not _mix_safe(mu, lam):
            continue
        saturated = mu_s(mu, e)
        slice_pts = frozenset(_gamma_points(
            lam_comp, Z.points, GenComposition.from_partition(saturated)
        ))
        if not slice_pts:
            gens.append(IdealGenerator("slice", mu))
            continue
        if slice_pts not in ideals:
            ideals[slice_pts] = vanishing_ideal(slice_pts)
        for g in ideals[slice_pts]:
            gens.append(IdealGenerator("slice", mu, g))
    return TypeIdeal(lam, gens)


def _tail_zero_test(tail, tail_rows, classes):
    """The tail's zero test at one point, on integers.

    Returns ``vanishes(combo)``: does the tail vanish when the t-variable of
    ``tail_rows[p]`` takes the value of class ``combo[p]``?  With q the
    common denominator of the class values and L that of the tail's
    coefficients, L * q^deg * tail(values) is the integer sum, over the
    terms c_m t^m, of (L * c_m) * prod(q * value)^m * q^(deg - |m|); it is
    zero exactly when the tail vanishes.  Answers are kept, so each class
    choice is tested once.
    """
    q = math.lcm(*(v.denominator for v, _ in classes))
    scaled = [v.numerator * (q // v.denominator) for v, _ in classes]
    lcm = math.lcm(*(c.denominator for c in tail.terms.values()))
    deg = tail.total_degree()
    pos = {tvar(r + 1): p for p, r in enumerate(tail_rows)}
    terms = [
        (c.numerator * (lcm // c.denominator) * q ** (deg - sum(e for _, e in m)),
         tuple((pos[v], e) for v, e in m))
        for m, c in tail.terms.items()
    ]

    @functools.lru_cache(maxsize=None)
    def vanishes(combo):
        total = 0
        for coeff, mono in terms:
            for p, e in mono:
                coeff *= scaled[combo[p]] ** e
            total += coeff
        return total == 0

    return vanishes


def _orbits_vanish(generators, classes):
    """For each generator in turn: do all its orbit evaluations vanish at
    the point with these value classes, that is, is there no assignment of
    the generator's labels into the classes, respecting multiplicities,
    with every factor nonzero?

    The difference factors vanish exactly when two labels in distinct rows
    share a class (distinct classes carry distinct values), so rows must
    use pairwise disjoint class sets; within a row, cells are
    interchangeable, and a row of `size` cells can be filled from exactly
    the classes of a support when it has at most `size` classes whose
    multiplicities add up to at least `size`.  The distributed tail copies
    are all nonzero exactly when no choice of one class per mentioned row
    lands in the tail's zero locus (`_tail_zero_test`).

    The supports depend on the rows alone, so each run of consecutive
    generators with equal rows (one capped shape) enumerates them once, and
    each tail is tested on their distinct projections onto its rows.  The
    class tables are built once per point.
    """
    n = len(classes)
    # supports are bitmasks of classes
    members = [[c for c in range(n) if m >> c & 1] for m in range(1 << n)]
    fits = {}

    def supports(rows, i=0, available=(1 << n) - 1):
        if i == len(rows):
            yield ()
            return
        size = len(rows[i])
        if size not in fits:
            fits[size] = [m for m in range(1, 1 << n)
                          if len(members[m]) <= size
                          and sum(classes[c][1] for c in members[m]) >= size]
        for m in fits[size]:
            if m & available == m:
                for rest in supports(rows, i + 1, available & ~m):
                    yield (m,) + rest

    for rows, run in itertools.groupby(generators, key=lambda g: g.rows):
        found = None  # every support assignment, listed when a tail needs it
        projections = {}
        for g in run:
            if g.tail is None:
                yield next(supports(rows), None) is None
                continue
            if found is None:
                found = list(supports(rows))
            if not found:
                yield True
                continue
            if g.tail_rows not in projections:
                projections[g.tail_rows] = {tuple(a[r] for r in g.tail_rows) for a in found}
            vanishes = _tail_zero_test(g.tail, g.tail_rows, classes)
            yield all(
                any(vanishes(combo) for combo in itertools.product(*(members[m] for m in p)))
                for p in projections[g.tail_rows]
            )


def member_by_equations(ideal: TypeIdeal, x: FinitaryPoint) -> bool:
    """Point membership by equations: every generator's orbit evaluations
    at x must all vanish."""
    return all(_orbits_vanish(ideal.generators, list(x.classes)))


def reduce_generators(ideal: TypeIdeal, sample_points) -> TypeIdeal:
    """Heuristic pruning: drop a generator when, on every sample point where
    all other kept generators vanish, it vanishes too.  The result cuts out
    the same locus on the sampled battery only; this is flagged as a
    heuristic, not a proof of redundancy."""
    gens = ideal.generators
    # vanish[i][j]: do the orbit evaluations of generator j vanish at sample point i?
    vanish = [list(_orbits_vanish(gens, list(x.classes))) for x in sample_points]
    kept = list(range(len(gens)))
    for j in reversed(kept):
        others = [h for h in kept if h != j]
        if not others:
            continue
        if all(row[j] for row in vanish if all(row[h] for h in others)):
            kept = others
    return TypeIdeal(ideal.lam, [gens[j] for j in kept])
