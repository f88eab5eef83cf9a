"""Vanishing ideals of finite point sets over Q, by exact elimination.

`vanishing_ideal` runs Buchberger-Moeller elimination degree by degree, over
the integers after the points are scaled to integer coordinates, on rows of
constant width; there is no floating point anywhere.  A generator is the
integer row elimination leaves, a `SliceFactor`: its coefficients over one
common lead, which is exactly the generator of elimination over Q, written
over a `MonomialTable` that all the generators of one elimination share.
Monomials in the slice coordinates t1, t2, ... are ordered
graded-lexicographically with t1 > t2 > ....  A factor placed into more
variables, as a product slice places its components' factors, keeps its
row and its table and renames only the variables it mentions.  A factor
is tested as a dot product with its table's monomial values and printed
from its row by `_format_terms`, once per table and lead.

A point set's basis is built here alone (`_slice_factors`).  A set that
is a product over its coordinates, S = S_A x S_B with A and B disjoint
sets of coordinates, is not eliminated whole: its reduced graded-lex
basis is the union of those of S_A and S_B, each in its own variables.
I(S_A) + I(S_B) lies in I(S) and has a quotient of dimension
|S_A| * |S_B| = |S|, so it is I(S).  The two bases' leads lie in disjoint
variables and are coprime, so every S-pair across them reduces to zero
(Buchberger's first criterion) and the union is a Groebner basis.  Each
tail is standard for its own basis and mentions only its own variables,
so no lead of the other divides it, and the union is reduced; the
reduced basis is unique, so it is exactly what elimination of S returns.
Graded lex restricted to A's variables is graded lex on them, so S_A's
basis is `vanishing_ideal` of the projection.  `vanishing_ideal` emits
its generators by ascending (degree, exponent tuple) of their leads, so
merging the components' bases by that key gives the same generators in
the same order, and every printed byte is unchanged.  `_components` peels
off each coordinate i with |pi_i(S)| * |pi_rest(S)| = |S|, with O(r) set
builds; when r <= 3 one side of any split is a single coordinate, so this
finds every split.
"""

import math
import operator
from fractions import Fraction
from itertools import compress

from .partitions import _Frozen


def _mono_degree(m):
    return sum(e for _, e in m)


def _format_terms(items, name):
    """The terms (monomial, nonzero coefficient) in decreasing graded-lex
    order, each variable written as ``name(variable)``; "0" for no terms.

    Terms sort on (-degree, ((var, -exp), ...)): a monomial lists its
    variables in increasing order, so at equal degree the first factor where
    two differ either names a variable the other lacks or gives one a larger
    exponent, and that monomial is the larger in graded lex; neither is a
    proper prefix of the other."""
    pieces = []
    for m, c in sorted(items, key=lambda item: (
            -_mono_degree(item[0]), tuple((v, -e) for v, e in item[0]))):
        mono = "*".join(name(v) + (f"^{e}" if e > 1 else "") for v, e in m)
        sign, a = (" - ", -c) if c < 0 else (" + ", c)
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        pieces += [sign, body]
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


class MonomialTable(_Frozen):
    """The monomials in t1, t2, ... that the factors of one
    `vanishing_ideal` call are written over: the standard monomials in
    elimination order, then the generators' leads, as exponent tuples in
    `monomials`.  Entry 0 is the monomial 1, and each later entry i is an
    earlier one times one variable: ``steps[i - 1]`` is (parent index,
    j) for entry i = entry parent * t_{j+1}.  There is one table per
    elimination, shared by every product slice that holds its component,
    and `templates` holds its factors' printed templates by lead index.
    """

    __slots__ = ("monomials", "steps", "templates")

    def __init__(self, monomials, steps):
        object.__setattr__(self, "monomials", monomials)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "templates", {})

    def values(self, at, xs, q):
        """The value of every entry at the point t_{at[k]+1} = xs[k] / q,
        every other variable 0, for integers xs and q >= 1, times q^D, D
        the largest degree of an entry: the integer prod(x)^m * q^(D - |m|)
        for entry m.  One multiplication per entry, and one more when
        q > 1."""
        x = [0] * len(self.monomials[0])
        for j, v in zip(at, xs):
            x[j] = v
        vals = [1]
        for parent, j in self.steps:
            vals.append(vals[parent] * x[j])
        if q > 1:
            degrees = [sum(m) for m in self.monomials]
            top = max(degrees)
            vals = [v * q ** (top - d) for v, d in zip(vals, degrees)]
        return vals


def scaled(values):
    """(q, [q * v for v in values]) for q the common denominator of the
    rationals `values`, with every q * v an int."""
    q = math.lcm(*(v.denominator for v in values))
    return q, [v.numerator * (q // v.denominator) for v in values]


class SliceFactor(_Frozen):
    """A polynomial in t-variables held as the integer row elimination
    left: the sum of ``coeffs[i]`` times entry i of `table`, a
    `MonomialTable`, over the first ``len(coeffs)`` entries, plus `lead`
    times entry `index`, all divided by `lead`, a nonzero int of either
    sign.  `used` lists, ascending, the indices j of the variables t_{j+1}
    it mentions, and `local` the positions of those variables in the
    table's exponent tuples, in the same order.

    This is the form in which `vanishing_ideal` leaves a generator, with
    `local` equal to `used`: the generators of one call share its table.
    A product slice places a component's factor into its own variables by
    renaming `used` alone, so the factors of every slice that holds the
    component stay written over the component's table.  The zero test
    reads a factor as a dot product with the table's values
    (`vanishes_at`); its printed template, with the rational coefficients
    c / `lead`, is held by the table for every copy of the factor.
    """

    __slots__ = ("coeffs", "lead", "index", "table", "used", "local")

    def __init__(self, coeffs, lead, index, table, used, local):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "used", used)
        object.__setattr__(self, "local", local)

    def total_degree(self):
        return sum(self.table.monomials[self.index])

    @property
    def terms(self):
        """The (c, monomial) pairs of the nonzero coefficients, a monomial
        being a tuple of (p, exponent) pairs naming the variable
        t_{used[p]+1}."""
        monomials = self.table.monomials
        items = [(c, monomials[i]) for i, c in enumerate(self.coeffs) if c]
        items.append((self.lead, monomials[self.index]))
        return [(c, tuple((p, m[j]) for p, j in enumerate(self.local) if m[j])) for c, m in items]

    @property
    def template(self) -> str:
        """The printed factor with the field ``{p}`` in place of the variable
        t_{used[p]+1}; its terms are sorted once.  `used` ascends, so the
        positions p sort as the variables they name."""
        held = self.table.templates
        if self.index not in held:
            held[self.index] = _format_terms(
                ((m, Fraction(c, self.lead)) for c, m in self.terms), lambda p: "{%d}" % p)
        return held[self.index]

    def __str__(self):
        return self.template.format(*(f"t{j + 1}" for j in self.used))

    def vanishes_at(self, vals) -> bool:
        """Is the factor zero at a point, given the values there of its
        table's entries (`MonomialTable.values`)?  Those are the entries'
        values times one positive integer, so the integer dot product with
        the row is zero exactly when the factor is."""
        return sum(map(operator.mul, self.coeffs, vals)) + self.lead * vals[self.index] == 0


def _border(standard, first, r):
    """The next degree's candidates: ascending (m, (k, i)) pairs, one for
    each exponent tuple m one degree above ``standard[first:]``, the
    standard monomials of the last degree in ascending order, with every
    m / t_i standard.  m arises as s * t_i from a standard s once for each
    i with a positive exponent.  Lowering an earlier exponent gives a
    smaller tuple, so the first such s met is m / t_i for i the first
    variable of m, and ``standard[k]`` is that parent."""
    hits, step = {}, {}
    for k in range(first, len(standard)):
        s = standard[k]
        for i in range(r):
            m = s[:i] + (s[i] + 1,) + s[i + 1:]
            hits[m] = hits.get(m, 0) + 1
            step.setdefault(m, (k, i))
    return sorted((m, step[m]) for m, n in hits.items() if n == r - m.count(0))


def vanishing_ideal(points) -> list:
    """Reduced graded-lex generating set of the ideal of polynomials in
    t1..tr vanishing on a finite set of rational points, as `SliceFactor`s.

    Buchberger-Moeller elimination degree by degree: a candidate monomial is
    standard if its evaluation vector is independent of those of the earlier
    standard monomials, and otherwise gives the generator "monomial minus
    that combination".  The candidates of degree d are the border of the
    standard monomials of degree d-1: the monomials m with every m / t_i
    standard.  Standard monomials form an order ideal, so these are exactly
    the monomials of degree d that no earlier leading term divides; they are
    taken in ascending graded-lex order, each with its parent m / t_i, i
    the first variable of m (`_border`).  The loop ends at the first degree
    with no candidate; the quotient dimension then equals the number of
    points.

    The arithmetic is over the integers: the points are scaled by the lcm D
    of their denominators, so a degree-k row is D^k times the evaluation
    vector, a factor its combination records.  vec(m) is built as its
    parent's vector times coordinate column i.  Each reduction step
    cross-multiplies, deletes the pivot column it zeroes and appends the
    basis row's coefficient, so every row keeps npts + 1 entries, and a basis
    row is stored in the layout a later candidate has when it meets it.  A
    row is divided by its gcd once, after its last step.  A generator's
    factor keeps the row's coefficients over the standard monomials and its
    own entry, the lead; read as rationals, that is the output of
    elimination over Q.  Every factor of the call is written over one
    `MonomialTable`, whose steps are the candidates' parents, and the
    variables it mentions are read off its lead and the standard monomials
    its row holds a coefficient of.
    """
    # int and Fraction coordinates both carry numerator and denominator
    pts = sorted({tuple(p) for p in points})
    if not pts:
        raise ValueError("vanishing_ideal requires a non-empty point set")
    r = len(pts[0])
    if any(len(p) != r for p in pts):
        raise ValueError("all points must have the same length")
    npts = len(pts)
    scale, flat = scaled([c for p in pts for c in p])
    cols = [flat[i::r] for i in range(r)]

    # a row met by k basis rows holds the npts - k evaluation entries off
    # their pivots, in point order, then those rows' monomials' coefficients;
    # its own coefficient `own` rides beside it until the row is done
    rows = []  # (pivot index, row)
    # per standard monomial, in elimination order: its exponent tuple,
    # scaled evaluation vector and step (parent index, variable), None for 1
    standard, vecs, steps = [], [], []
    leads, lead_steps, found = [], [], []  # found: (coefficients, lead, used)
    candidates = [((0,) * r, None)]
    degree = 0
    while candidates:
        first = len(standard)
        for m, step in candidates:
            if step:
                parent, i = step
                vec = [a * b for a, b in zip(vecs[parent], cols[i])]
            else:
                vec = [1] * npts
            row = vec[:]
            own = scale ** degree
            for piv, prow in rows:
                # prow is one entry longer than row: its last is its own
                # coefficient, which becomes row's coefficient of its monomial
                a = row[piv]
                if a:
                    b = prow[piv]
                    g = math.gcd(a, b)
                    a, b = a // g, b // g
                    row = [b * x - a * y for x, y in zip(row, prow)]
                    own *= b
                del row[piv]
                row.append(-a * prow[-1])
            row.append(own)
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            k = len(standard)
            piv = next((j for j in range(npts - k) if row[j]), None)
            if piv is not None:
                rows.append((piv, row))
                standard.append(m)
                vecs.append(vec)
                steps.append(step)
            else:
                # the constant is standard, so m has degree >= 1; the
                # variables used are those of m and of its tail's monomials
                coeffs = row[npts - k:-1]
                used = tuple(compress(range(r), map(any, zip(m, *compress(standard, coeffs)))))
                found.append((coeffs, row[-1], used))
                leads.append(m)
                lead_steps.append(step)
        candidates = _border(standard, first, r)
        degree += 1
    assert len(standard) == npts, "quotient dimension must equal the point count"
    table = MonomialTable(standard + leads, steps[1:] + lead_steps)
    return [SliceFactor(coeffs, lead, npts + n, table, used, used)
            for n, (coeffs, lead, used) in enumerate(found)]


def _components(keys) -> list:
    """The split of a set S of key tuples as a product over its
    coordinates: a (coordinates, key set) pair for each coordinate i that
    splits off, |pi_i(S)| * |pi_rest(S)| = |S|, then one for the rest.
    Peeling one coordinate leaves the others' test unchanged, so each is
    tested once, on what is left; one pair means no split."""
    coords = tuple(range(len(next(iter(keys)))))
    rest, parts, i = keys, [], 0
    while len(coords) > 1 and i < len(coords):
        column = set(map(operator.itemgetter(i), rest))
        if len(rest) % len(column) == 0:
            others = frozenset(p[:i] + p[i + 1:] for p in rest)
            if len(column) * len(others) == len(rest):
                parts.append(((coords[i],), frozenset((v,) for v in column)))
                coords, rest = coords[:i] + coords[i + 1:], others
                continue
        i += 1
    parts.append((coords, rest))
    return parts


def _slice_factors(keys, shared) -> tuple:
    """The reduced basis of the points `keys`, held in `shared` by key set.

    A set that splits (`_components`) takes its components' bases, each
    eliminated once per `shared`, places each factor by renaming ``used``
    through the component's coordinates, keeping its row, `table` and
    ``local``, and merges them by ascending (degree, exponent tuple in its
    own variables) of their leads, the order in which `vanishing_ideal`
    emits them; only an indecomposable set is eliminated."""
    held = shared.get(keys)
    if held is None:
        parts = _components(keys)
        if len(parts) == 1:
            held = tuple(vanishing_ideal(keys))
        else:
            nvars, placed = len(next(iter(keys))), []
            for coords, part in parts:
                placed += [SliceFactor(f.coeffs, f.lead, f.index, f.table,
                                       tuple(coords[j] for j in f.used), f.local)
                           for f in _slice_factors(part, shared)]

            def lead(f):
                # (degree, exponent tuple in the slice's variables) of f's lead
                e, m = [0] * nvars, f.table.monomials[f.index]
                for j, k in zip(f.used, f.local):
                    e[j] = m[k]
                return f.total_degree(), e

            held = tuple(sorted(placed, key=lead))
        shared[keys] = held
    return held
