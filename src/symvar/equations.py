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
that range, which ``in_exact_domain`` tests.

A generator is held as its shape and its slice factor, the integer row
that `poly.vanishing_ideal` leaves; an ideal is only its blocks, one per
shape.  A block's factors are read from `poly._slice_factors`, which
builds them on first read into the call's `shared` dict, the one holder
of a built basis, for the shapes with the same slice or component.  Its
expansion is combinatorially infeasible for even modest shapes.  A block
holds no cells: membership and pruning read the shape's row sizes and
test the factor on integers, as a dot product with its slice's monomial
values.  Printing alone numbers the cells (`IdealGenerator`, built from
the blocks on each read of `TypeIdeal.generators`), and each eliminated
generator is formatted once.

Membership first tries each block's slice points (the set test): if
every assignment of the point's classes to the shape's rows has a choice
of one class per row whose values are a point of the slice, each factor
of the slice vanishes there, and so at that choice's projection onto its
own rows, and the block passes without a factor being read.  Only where
the set test fails are the factors built and tested, so the verdict is
exactly that of testing every factor, over-acceptances included.  A
`true` from the equation route may therefore evaluate no slice factor.
It still runs through the capped shapes, `_mix_safe`, the cover-group
supports and the slices, none of which `variety.theta_member` uses; the
factors themselves stay pinned by the vanishing-ideal tests.

Two bounded memos hold the work that reads no value.  `_skeleton`, keyed
by lam (64 entries), holds lam's composition, the excluded blocks and the
admissible capped shapes with their saturations; `_supports`, keyed by a
point's class multiplicities and a shape's row sizes (1024 entries),
holds the support assignments of those rows.  Both are pure
functions of partitions, so a memoized entry is exactly what a fresh call
would build; the slices, their factors and every test at a point read
values and are built per call.  A one-shot CLI process builds each entry
once, as it did without the memos.
"""

import functools
import itertools
from fractions import Fraction

from .partitions import (
    INF,
    GenComposition,
    GenPartition,
    _Frozen,
    _box_parts,
    _cover_groups,
    min_excluded,
    mu_s,
)
from .poly import _slice_factors, scaled
from .variety import FinitaryPoint, PointSetVariety, _gamma_points


def shape_rows(shape: GenPartition) -> tuple:
    """The cells 1, 2, ... filling a finite `shape` row-major, one tuple per
    row."""
    starts = itertools.accumulate(shape.parts, initial=1)
    return tuple(tuple(range(a, a + size)) for a, size in zip(starts, shape.parts))


class IdealGenerator(_Frozen):
    """One generator of an orbit ideal, as printed: a finite shape and an
    optional slice factor.

    `kind` is "excluded" for a minimal excluded partition and "slice" for
    a capped shape.  `rows`, numbered from the shape on each read, fill it
    row-major with the cells 1, 2, ... (`shape_rows`); the generator is the
    product of (x_a - x_b) over cells a < b in different rows.  `factor`
    is the optional slice factor, a `poly.SliceFactor`: t_i stands for the
    coordinates of row i, and the generator carries one copy of the factor
    per choice of a cell in each row of `tail_rows`, the rows the factor
    mentions.
    """

    __slots__ = ("kind", "shape", "factor", "tail_rows")

    def __init__(self, kind, shape: GenPartition, factor=None):
        if shape.num_infinite:
            raise ValueError("generator shape has an infinite part")
        tail_rows = () if factor is None else factor.used
        if tail_rows and tail_rows[-1] >= shape.length:
            raise ValueError("tail uses a t-variable with no matching row")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "tail_rows", tail_rows)

    @property
    def rows(self) -> tuple:
        return shape_rows(self.shape)

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


class ShapeBlock(_Frozen):
    """The generators of one finite shape, in output order: they share its
    `kind` and `shape` (no cells), and generator i is the tableau
    polynomial of `shape` times ``factors[i]``.  A capped shape of
    `i_lambda_z` also holds `keys`, the key tuples (``variety._key``
    values) of its saturated slice; unless its factors were given, its
    `factors`, the slice's reduced basis, are read on each access from
    `poly._slice_factors`, which builds them on the first read and holds
    them in the call's `shared` dict for every block with the same key
    set; the block keeps no copy.  An empty slice or an excluded shape has
    the one factor None, the bare tableau polynomial.
    """

    __slots__ = ("kind", "shape", "keys", "_factors", "_shared")

    def __init__(self, kind, shape: GenPartition, keys=None, factors=None, shared=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_shared", shared)

    @property
    def factors(self) -> tuple:
        if self._factors is not None:
            return self._factors
        return _slice_factors(self.keys, self._shared) if self.keys else (None,)


class TypeIdeal(_Frozen):
    """Generator set, with provenance, for the orbit ideal attached to a
    partition (and optionally a point-set variety): only its `blocks`, one
    `ShapeBlock` per shape in output order.  `generators`, the printed
    form, is built from the blocks on each read, which reads every block's
    factors; nothing caches it.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def generators(self) -> tuple:
        return tuple(IdealGenerator(b.kind, b.shape, f) for b in self.blocks for f in b.factors)

    def render(self) -> str:
        lines = []
        for g in self.generators:
            lines.append(f"# provenance: {g.provenance()}")
            lines.append(str(g))
        return "\n".join(lines)

    def __repr__(self):
        return f"TypeIdeal(blocks={len(self.blocks)})"


def i_lambda(lam: GenPartition) -> TypeIdeal:
    """Generators cutting out, set-theoretically, the locus of points whose
    type is below lam: one tableau polynomial per minimal excluded
    partition."""
    return TypeIdeal([ShapeBlock("excluded", alpha, factors=(None,))
                      for alpha in min_excluded(lam)])


def capped_shapes(lam: GenPartition) -> list:
    """Finite shapes indexing the slice equations: at most ell(lam) parts,
    each at most e+1, in increasing tuple order, which the printed blocks follow."""
    return [GenPartition(p) for p in _box_parts(lam.length, lam.finite_weight + 1)]


def _mix_safe(mu: GenPartition, lam: GenPartition) -> bool:
    # a row of size 2..e in a shape shorter than lam admits mixed fillings
    # that this generator form cannot separate
    if mu.length == lam.length:
        return True
    cap = lam.finite_weight + 1
    return all(p == cap or p == 1 for p in mu.parts)


def in_exact_domain(lam: GenPartition) -> bool:
    """Does the equation route decide membership for lam exactly (finite
    weight at most 1, or at most two parts)?  Outside, it may over-accept."""
    return lam.finite_weight <= 1 or lam.length <= 2


@functools.lru_cache(maxsize=64)
def _skeleton(lam: GenPartition) -> tuple:
    """The part of ``i_lambda_z(lam, Z)`` that lam alone fixes: lam's
    composition, the excluded blocks of ``i_lambda(lam)``, and for each
    capped shape mu that passes `_mix_safe`, in output order, the pair
    (mu, the composition of its saturation) that its slice is read over.
    Every part is immutable and no value of Z enters it, so the blocks are
    shared by every ideal of lam."""
    e = lam.finite_weight
    shapes = tuple((mu, GenComposition.from_partition(mu_s(mu, e)))
                   for mu in capped_shapes(lam) if _mix_safe(mu, lam))
    return GenComposition.from_partition(lam), i_lambda(lam).blocks, shapes


def i_lambda_z(lam: GenPartition, Z: PointSetVariety) -> TypeIdeal:
    """Generators cutting out the classified set of the pair (lam, Z).

    Emits the type-locus generators plus, for every admissible capped shape
    mu, the tableau polynomial of mu times each generator of the vanishing
    ideal of the saturated slice, distributed over the row cells.  An empty
    slice contributes the bare tableau polynomial.  Each shape is one
    `ShapeBlock`: this finds the slices, and a slice's factors are built
    when they are first read.  The shapes and the excluded blocks come
    from `_skeleton`.

    Every generator vanishes on the classified set; the presentation is
    exact (the equation route matches direct membership) when the finite
    weight of lam is at most 1 or lam has at most two parts.
    """
    if not lam.is_infinite:
        raise ValueError("i_lambda_z requires a partition with an infinite part")
    Z.require_distinct()
    comp, excluded, shapes = _skeleton(lam)
    if Z.lam != comp:
        raise ValueError("Z must live over the composition of lam")
    shared = {}  # slices of different shapes often share points or components
    return TypeIdeal(excluded + tuple(
        ShapeBlock("slice", mu, frozenset(_gamma_points(Z.tables, saturated)), shared=shared)
        for mu, saturated in shapes))


@functools.lru_cache(maxsize=1024)
def _supports(mults: tuple, sizes: tuple) -> tuple:
    """Every assignment of pairwise disjoint cover groups to rows of these
    `sizes`, one group per row, for a point whose classes have these
    multiplicities: the supports of `_orbits_vanish`.  A group is the
    tuple of its class indices.  Each row takes the groups of
    ``_cover_groups`` with one slot of one copy per class, listed from the
    state it is in, the mask of the classes still free: a group is the
    classes of ``available ^ left``, and the next row starts from
    ``left``.  No value enters."""
    n = len(mults)
    slots = tuple((m, 1 << c, 2) for c, m in enumerate(mults))

    def supports(i, available):
        if i == len(sizes):
            yield ()
            return
        for left in _cover_groups(sizes[i], available, slots):
            taken = available ^ left
            group = tuple(c for c in range(n) if taken >> c & 1)
            for rest in supports(i + 1, left):
                yield (group,) + rest

    return tuple(supports(0, (1 << n) - 1))


def _orbits_vanish(blocks, classes):
    """For each block in turn: do all the orbit evaluations of each of its
    generators vanish at the point with these value classes, that is, is
    there no assignment of the generator's labels into the classes,
    respecting multiplicities, with every factor nonzero?

    The difference factors vanish exactly when two labels in distinct rows
    share a class (distinct classes carry distinct values), so rows must
    use pairwise disjoint class sets; within a row, cells are
    interchangeable, and a row of `size` cells can be filled from exactly
    the classes of a set S when |S| <= size and their multiplicities add
    up to at least `size`.  The distributed tail copies are all nonzero
    exactly when no choice of one class per mentioned row lands in the
    factor's zero locus.

    Only the minimal sets are searched: the groups of
    `partitions._cover_groups`, which `preceq`'s tail search shares,
    sufficient sets with no sufficient proper prefix in class order.  This
    is exact.  Shrink each row's S in a valid support to its shortest
    sufficient prefix P: the P stay pairwise disjoint and sufficient,
    |P| <= size (each class adds at least 1 and every proper prefix is
    short of `size`), and they are exactly cover groups.  The tail copies
    over P are among those over S, so if some support has every tail copy
    nonzero, some support of cover groups has too; and every cover group
    is itself a valid S.

    The supports depend on the multiplicities and the row sizes alone, so
    they come from the memo `_supports`.  A block with no support vanishes,
    and so does a block whose set test (see the module docstring) holds at
    every support; any other block tests each of its factors on the
    supports' distinct projections onto the factor's rows.

    A factor is tested on integers: the class values are scaled by their
    common denominator q, and the values of a `poly.MonomialTable` are
    computed once per point and choice of classes for its positions
    (``local``), for every factor written over it in any slice, so that
    each test is one dot product (`poly.SliceFactor.vanishes_at`).  The key
    is positions, not ``used``: at two coordinate maps of one table, one
    ``used`` names different positions.

    The two per-point memos, ``vectors`` and ``projections``, serve
    `reduce_generators`, the one caller that reads them more than once: it
    walks every block at each battery point, and its blocks share tables
    and row sizes.  With ``--reduce`` at seed 1729, ``inf,2,1,1`` over
    ``(0,1,2,3),(5,-7,11,13)`` hits 8,182 of 10,039 vector reads and 4,963
    of 8,997 projection reads, and ``inf,inf,inf,1`` over one rational
    point 976 of 1,906 vector reads.  Membership stops at the first block
    that fails, so it never hits them: the census's queries read vectors
    38,360 times and projections 23,411 times, with no hit.
    """
    keys = [v for v, _ in classes]
    q, xs_of_class = scaled(keys)
    mults = tuple(m for _, m in classes)
    vectors = {}  # (table, positions, their classes) -> the table's values
    projections = {}  # (row sizes, variables) -> the supports' distinct projections

    def vanishes(f, combo):
        key = (f.table, f.local, combo)
        vals = vectors.get(key)
        if vals is None:
            # the row's nonzero coefficients sit on entries in the factor's
            # own variables, so the other variables may take any value
            vals = vectors[key] = f.table.values(f.local, [xs_of_class[c] for c in combo], q)
        return f.vanishes_at(vals)

    def projected(sizes, used, found):
        if (sizes, used) not in projections:
            projections[sizes, used] = {tuple(a[r] for r in used) for a in found}
        return projections[sizes, used]

    def every_has(groups, hit):
        # does each tuple of class groups have a choice of one class per
        # group that `hit` accepts?  Left at the first tuple that has none.
        for g in groups:
            for combo in itertools.product(*g):
                if hit(combo):
                    break
            else:
                return False
        return True

    for block in blocks:
        sizes, slice_keys = block.shape.parts, block.keys
        found = _supports(mults, sizes)
        if not found or slice_keys is not None and every_has(
                found, lambda combo: tuple(map(keys.__getitem__, combo)) in slice_keys):
            yield True
        else:
            # the bare tableau polynomial (f None) is nonzero on a support
            yield all(f is not None and every_has(projected(sizes, f.used, found),
                                                  functools.partial(vanishes, f))
                      for f in block.factors)


def member_by_equations(ideal: TypeIdeal, x: FinitaryPoint) -> bool:
    """Point membership by equations: every generator's orbit evaluations
    at x must all vanish.  The blocks are walked in order, up to the first
    that fails, and a block read by the set test of `_orbits_vanish`
    builds no factor."""
    return all(_orbits_vanish(ideal.blocks, list(x.classes)))


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
    the same locus on the sampled battery only, and may drop a needed
    excluded generator: a heuristic, not a proof of redundancy.  Each block
    keeps its key set and the factors of its kept generators: every one of
    them vanishes where the set test holds."""
    singles = [ShapeBlock(b.kind, b.shape, factors=(f,)) for b in ideal.blocks for f in b.factors]
    # vanish[i][j]: do the orbit evaluations of generator j vanish at sample point i?
    vanish = [list(_orbits_vanish(singles, list(x.classes))) for x in sample_points]
    kept = list(range(len(singles)))
    for j in reversed(kept):
        others = [h for h in kept if h != j]
        if others and all(row[j] for row in vanish if all(row[h] for h in others)):
            kept = others
    kept, blocks, j = set(kept), [], 0
    for b in ideal.blocks:
        factors = tuple(f for i, f in enumerate(b.factors, j) if i in kept)
        j += len(b.factors)
        if factors:
            blocks.append(ShapeBlock(b.kind, b.shape, b.keys, factors))
    return TypeIdeal(blocks)
