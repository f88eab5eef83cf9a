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

A generator is held as its shape and its slice factor, the integer row
that `poly.vanishing_ideal` leaves; generators of shapes with the same
slice share one factor.  Its expansion is combinatorially infeasible for
even modest shapes; membership reads the shape and tests the factor on
integers, as a dot product with its slice's monomial values, and printing
writes the factored form straight from the shape and the text the factor
formats from its row.
"""

import itertools
from fractions import Fraction

from .partitions import (
    INF,
    GenComposition,
    GenPartition,
    _minimal_cover_groups,
    finite_partitions_in_box,
    min_excluded,
    mu_s,
)
from .poly import scaled, vanishing_ideal
from .variety import FinitaryPoint, PointSetVariety, _gamma_points


class IdealGenerator:
    """One generator of an orbit ideal: a finite shape and an optional
    slice factor.

    `kind` is "excluded" for a minimal excluded partition and "slice" for
    a capped shape.  `rows` fill the `shape` row-major with the cells
    1, 2, ...; the generator is the product of (x_a - x_b) over cells a < b
    in different rows.  `factor` is the optional slice factor, a
    `poly.SliceFactor`: t_i stands for the coordinates of row i, and the
    generator carries one copy of the factor per choice of a cell in each
    row of `tail_rows`, the rows the factor mentions.
    """

    __slots__ = ("kind", "shape", "rows", "factor", "tail_rows")

    def __init__(self, kind, shape: GenPartition, factor=None):
        if shape.num_infinite:
            raise ValueError("generator shape has an infinite part")
        rows, cell = [], 1
        for size in shape:
            rows.append(tuple(range(cell, cell + size)))
            cell += size
        tail_rows = () if factor is None else factor.used
        if tail_rows and tail_rows[-1] >= len(rows):
            raise ValueError("tail uses a t-variable with no matching row")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "tail_rows", tail_rows)

    def provenance(self) -> str:
        if self.kind == "excluded":
            return f"excluded {self.shape}"
        return f"slice {self.shape} : {self.factor or 1}"

    def __str__(self):
        """The factored form: the difference factors in order of their
        cell pairs, then the factor copies; "1" for the empty product."""
        rows = self.rows
        factors = [f"(x{a} - x{b})" for a, b in sorted(
            (a, b) for i, row in enumerate(rows) for later in rows[i + 1:]
            for a in row for b in later)]
        if self.factor is not None:
            # field p of the template names the cell of row tail_rows[p]
            copy = "(" + self.factor.template + ")"
            factors += [copy.format(*cells) for cells in
                        itertools.product(*(["x%d" % a for a in rows[i]] for i in self.tail_rows))]
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
    if Z.lam != GenComposition.from_partition(lam):
        raise ValueError("Z must live over the composition of lam")
    e = lam.finite_weight
    gens = list(i_lambda(lam).generators)
    ideals = {}  # slices of different shapes often hold the same points
    for mu in capped_shapes(lam):
        if not _mix_safe(mu, lam):
            continue
        saturated = mu_s(mu, e)
        slice_pts = frozenset(_gamma_points(Z.tables, GenComposition.from_partition(saturated)))
        if not slice_pts:
            gens.append(IdealGenerator("slice", mu))
            continue
        if slice_pts not in ideals:
            ideals[slice_pts] = vanishing_ideal(slice_pts)
        for g in ideals[slice_pts]:
            gens.append(IdealGenerator("slice", mu, g))
    return TypeIdeal(lam, gens)


def _orbits_vanish(generators, classes):
    """For each generator in turn: do all its orbit evaluations vanish at
    the point with these value classes, that is, is there no assignment of
    the generator's labels into the classes, respecting multiplicities,
    with every factor nonzero?

    The difference factors vanish exactly when two labels in distinct rows
    share a class (distinct classes carry distinct values), so rows must
    use pairwise disjoint class sets; within a row, cells are
    interchangeable, and a row of `size` cells can be filled from exactly
    the classes of a set S when |S| <= size and their multiplicities add
    up to at least `size`.  The distributed tail copies are all nonzero
    exactly when no choice of one class per mentioned row lands in the
    factor's zero locus.

    Only the minimal sets are searched: the groups of
    `partitions._minimal_cover_groups`, sufficient sets with no sufficient
    proper prefix in class order.  This is exact.  Shrink each row's S in
    a valid support to its shortest sufficient prefix P: the P stay
    pairwise disjoint and sufficient, |P| <= size (each class adds at least
    1 and every proper prefix is short of `size`), and they are exactly
    cover groups.  The tail copies over P are among those over S, so if
    some support has every tail copy nonzero, some support of cover groups
    has too; and every cover group is itself a valid S.

    The supports depend on the rows alone, so each run of consecutive
    generators with equal rows (one capped shape) enumerates them once, and
    each factor is tested on their distinct projections onto its rows.  The
    cover groups of each row size are listed once per point, each with its
    classes.  A factor is tested on integers: the class values are scaled
    by their common denominator q, and for each choice of classes for a
    factor's variables the values of its slice's `poly.MonomialTable` are
    computed once per point, shared by the factors of that slice, so that
    each test is one dot product (`poly.SliceFactor.vanishes_at`).
    """
    n = len(classes)
    q, xs_of_class = scaled([v for v, _ in classes])
    mults = [m for _, m in classes]
    fits = {}  # row size -> [(mask, classes of the mask)]
    vectors = {}  # (table, variables, their classes) -> the table's values

    def vanishes(f, combo):
        key = (f.table, f.used, combo)
        vals = vectors.get(key)
        if vals is None:
            # the row's nonzero coefficients sit on entries in the factor's
            # own variables, so the other variables may take any value
            xs = [0] * f.table.nvars
            for j, c in zip(f.used, combo):
                xs[j] = xs_of_class[c]
            vals = vectors[key] = f.table.values(xs, q)
        return f.vanishes_at(vals)

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
        found = None  # every support assignment, listed when a tail needs it
        projections = {}
        for g in run:
            f = g.factor
            if f is None:
                yield next(supports(rows), None) is None
                continue
            if found is None:
                found = list(supports(rows))
            if not found:
                yield True
                continue
            if f.used not in projections:
                projections[f.used] = {tuple(a[r] for r in f.used) for a in found}
            yield all(any(vanishes(f, combo) for combo in itertools.product(*p))
                      for p in projections[f.used])


def member_by_equations(ideal: TypeIdeal, x: FinitaryPoint) -> bool:
    """Point membership by equations: every generator's orbit evaluations
    at x must all vanish."""
    return all(_orbits_vanish(ideal.generators, list(x.classes)))


VALUE_POOL = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)]


def random_point(rng, max_width=5):
    """A point of 1 to `max_width` distinct classes from `VALUE_POOL`: the
    first one or more of infinite multiplicity, the rest of 1 to 4.
    ``equations --reduce`` prunes against a battery of these."""
    width = rng.randint(1, max_width)
    values = rng.sample(VALUE_POOL, width)
    n_inf = rng.randint(1, width)
    classes = []
    for i, v in enumerate(values):
        classes.append((v, INF if i < n_inf else rng.randint(1, 4)))
    return FinitaryPoint(classes)


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
