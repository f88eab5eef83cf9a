"""Exact sparse multivariate polynomials over Q.

Two variable families are supported: x1, x2, ... (the ambient coordinates,
acted on by finite permutations) and t1, t2, ... (slice coordinates used by
vanishing ideals).  Coefficients are exact rationals, ints or Fractions;
there is no floating point anywhere.  Monomials are ordered
graded-lexicographically with x1 > x2 > ... > t1 > t2 > ...

The module also provides discriminants, the coset skew-symmetrization
identity, constructive discriminant extraction with replayable witnesses,
and vanishing ideals of finite point sets.  Those are computed by
Buchberger-Moeller elimination degree by degree, run over the integers after
the points are scaled to integer coordinates, on rows of constant width.  A
generator is the integer row elimination leaves, a `SliceFactor`: its
coefficients over one common lead, which is exactly the generator of
elimination over Q, written over a `MonomialTable` that all the generators
of one elimination share.  A table can be moved into more variables
(`MonomialTable.embedded`), so that the factors of a product's components
keep their rows in the product's variables.  A factor is tested as a dot
product with its table's monomial values and printed from its row; no
`Poly` is built for it.
"""

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import compress

from .partitions import _Frozen

X_FAMILY = 0
T_FAMILY = 1


def _default_name(v):
    return f"{'x' if v[0] == X_FAMILY else 't'}{v[1]}"


def xvar(i):
    return (X_FAMILY, i)


def tvar(i):
    return (T_FAMILY, i)


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


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


class Poly(_Frozen):
    """Immutable sparse polynomial: mapping from monomials to nonzero rationals.

    A monomial is a sorted tuple of ((family, index), exponent) pairs.  A
    coefficient is an int or a Fraction, which compare, hash and print alike
    when equal; any other number is stored as the Fraction it equals exactly.
    Arithmetic on ints keeps ints.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if type(c) not in (int, Fraction):
                    c = Fraction(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def x(cls, i):
        return cls({((xvar(i), 1),): 1})

    @classmethod
    def t(cls, i):
        return cls({((tvar(i), 1),): 1})

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), 0)

    def total_degree(self):
        return max((_mono_degree(m) for m in self.terms), default=0)

    def degree_in(self, v):
        best = 0
        for m in self.terms:
            for var, e in m:
                if var == v:
                    best = max(best, e)
        return best

    def coefficient_of(self, v, k):
        """Coefficient polynomial of v**k."""
        out = {}
        for m, c in self.terms.items():
            e = dict(m).get(v, 0)
            if e == k:
                rest = tuple(p for p in m if p[0] != v)
                out[rest] = out.get(rest, 0) + c
        return Poly(out)

    def variables(self):
        return {v for m in self.terms for v, _ in m}

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly({m: other * v for m, v in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, assignment):
        """Evaluate with every used variable present in `assignment`."""
        total = 0
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= assignment[v] ** e
            total += val
        return total

    def subs_vars(self, mapping) -> "Poly":
        """Relabel variables; mapping from variable to variable."""
        out = {}
        for m, c in self.terms.items():
            exps = {}
            for v, e in m:
                w = mapping.get(v, v)
                exps[w] = exps.get(w, 0) + e
            m2 = tuple(sorted(exps.items()))
            out[m2] = out.get(m2, 0) + c
        return Poly(out)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return _format_terms(self.terms.items(), _default_name)

    def __repr__(self):
        return f"Poly({self})"


def difference(a: int, b: int) -> Poly:
    """x_a - x_b."""
    return Poly.x(a) - Poly.x(b)


def discriminant_on(indices) -> Poly:
    """Product of (x_j - x_i) over pairs i before j in the index sequence."""
    indices = list(indices)
    out = Poly.constant(1)
    for p in range(len(indices)):
        for q in range(p + 1, len(indices)):
            out = out * difference(indices[q], indices[p])
    return out


def discriminant(n: int) -> Poly:
    """The n-th discriminant: product of (x_j - x_i) for 1 <= i < j <= n."""
    if n < 1:
        raise ValueError("discriminant requires n >= 1")
    return discriminant_on(range(1, n + 1))


def apply_perm(sigma: dict, p: Poly) -> Poly:
    """Relabel the x-variables of p by a finite-support permutation."""
    support = set(sigma) | set(sigma.values())
    if sorted(sigma.get(i, i) for i in support) != sorted(support):
        raise ValueError("sigma is not a permutation")
    return p.subs_vars({xvar(i): xvar(sigma.get(i, i)) for i in support})


def perm_sign(sigma: dict) -> int:
    """Sign of a finite-support permutation: the parity of the inverted
    pairs among its images, read in increasing order of the support."""
    support = sorted(set(sigma) | set(sigma.values()))
    images = [sigma.get(s, s) for s in support]
    inversions = sum(a > b for i, a in enumerate(images) for b in images[i + 1:])
    return -1 if inversions % 2 else 1


def skew_sum(n: int, k: int) -> Poly:
    """Signed coset sum of x_n^k * discriminant(n-1) over representatives of
    the cosets of the stabilizer of n.  Equals discriminant(n) when k = n-1
    and 0 when k < n-1; computed by the explicit sum, not by the identity."""
    if n < 2 or not 0 <= k <= n - 1:
        raise ValueError("skew_sum requires n >= 2 and 0 <= k <= n-1")
    base = Poly.x(n) ** k * discriminant(n - 1)
    total = base  # identity representative
    for i in range(1, n):
        total = total - apply_perm({i: n, n: i}, base)
    return total


class ExtractionWitness(_Frozen):
    """Replayable certificate that the orbit ideal of a polynomial contains
    c times a discriminant.

    Each step is (multiplier, op) with op a tuple of (coefficient, finite
    permutation) pairs; replaying a step sends p to the sum of
    coeff * sigma(multiplier * p).  After all steps the result must equal
    c * discriminant(n) exactly.
    """

    __slots__ = ("steps", "c", "n")

    def __init__(self, steps, c, n):
        object.__setattr__(self, "steps", tuple((m, tuple(op)) for m, op in steps))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n", int(n))

    def __repr__(self):
        return f"ExtractionWitness(steps={len(self.steps)}, c={self.c}, n={self.n})"


def replay_witness(f: Poly, witness: ExtractionWitness) -> Poly:
    p = f
    for mult, op in witness.steps:
        q = mult * p
        acc = Poly.zero()
        for coeff, sigma in op:
            acc = acc + apply_perm(dict(sigma), q) * coeff
        p = acc
    return p


def verify_witness(f: Poly, witness: ExtractionWitness) -> bool:
    """Replay the witness on f and compare exactly with c * discriminant(n)."""
    return replay_witness(f, witness) == discriminant(witness.n) * witness.c


def _fresh_indices(used, count):
    out, i = [], 1
    while len(out) < count:
        if i not in used:
            out.append(i)
            used.add(i)
        i += 1
    return out


def extract_discriminant(f: Poly) -> ExtractionWitness:
    """Build a witness that the orbit ideal of f contains c * discriminant(n).

    Follows the inductive construction: write f in its highest-used variable,
    skew-symmetrize against fresh indices to isolate the leading coefficient
    times a discriminant block, recurse on the leading coefficient, then
    multiply by the separating product joining the two index blocks.
    """
    if f.is_zero:
        raise ValueError("cannot extract a discriminant from the zero polynomial")
    if any(fam != X_FAMILY for fam, _ in f.variables()):
        raise ValueError("extraction requires a polynomial in the x-variables only")
    used = {i for _, i in f.variables()}

    def go(p):
        # returns (c, index sequence S, steps); replaying steps on p gives
        # c * product of (x_b - x_a) over a before b in S
        if p.is_constant:
            return p.constant_value(), (), []
        r = max(i for _, i in p.variables())
        d = p.degree_in(xvar(r))
        g_top = p.coefficient_of(xvar(r), d)
        fresh = _fresh_indices(used, d)
        op = [(1, ())]
        op += [(-1, ((i, r), (r, i))) for i in fresh]
        skew_step = (discriminant_on(fresh), tuple(op))
        c, seq, sub_steps = go(g_top)
        block = tuple(fresh) + (r,)
        cross = Poly.constant(1)
        for a in seq:
            for b in block:
                cross = cross * difference(b, a)
        steps = [skew_step] + sub_steps
        if not cross.is_constant:
            steps.append((cross, ((1, ()),)))
        return c, seq + block, steps

    c, seq, steps = go(f)
    if not seq:
        return ExtractionWitness(steps, c, 1)
    n = len(seq)
    union = sorted(set(seq) | set(range(1, n + 1)))
    table = {s: i + 1 for i, s in enumerate(seq)}
    leftovers_src = [u for u in union if u not in table]
    leftovers_dst = [u for u in union if u not in set(table.values())]
    table.update(dict(zip(leftovers_src, leftovers_dst)))
    final_perm = tuple(sorted((a, b) for a, b in table.items() if a != b))
    steps.append((Poly.constant(1), ((1, final_perm),)))
    return ExtractionWitness(steps, c, n)


class MonomialTable(_Frozen):
    """The monomials in t1..t`nvars` that the factors of one
    `vanishing_ideal` call are written over: the standard monomials in
    elimination order, then the generators' leads, as exponent tuples in
    `monomials`.  Entry 0 is the monomial 1, and each later entry i is an
    earlier one times one variable: ``steps[i - 1]`` is (parent index,
    j) for entry i = entry parent * t_{j+1}.  There is one table per
    elimination, and one per placement of it in more variables
    (`embedded`).
    """

    __slots__ = ("monomials", "steps", "nvars")

    def __init__(self, monomials, steps, nvars):
        object.__setattr__(self, "monomials", monomials)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "nvars", nvars)

    def values(self, xs, q):
        """The value of every entry at the point t_{j+1} = xs[j] / q, for
        integers xs and q >= 1, times q^D, D the largest degree of an entry:
        the integer prod(xs)^m * q^(D - |m|) for entry m.  One multiplication
        per entry, and one more when q > 1."""
        vals = [1]
        for parent, j in self.steps:
            vals.append(vals[parent] * xs[j])
        if q > 1:
            degrees = [sum(m) for m in self.monomials]
            top = max(degrees)
            vals = [v * q ** (top - d) for v, d in zip(vals, degrees)]
        return vals

    def embedded(self, coords, nvars):
        """The same entries in t1..t`nvars`, with t_{j+1} renamed
        t_{coords[j]+1}: each exponent tuple spread to those positions, each
        step's variable renamed.  `coords` ascend, so the variables keep
        their order and a factor's ``used`` its meaning."""
        monomials = []
        for m in self.monomials:
            e = [0] * nvars
            for c, k in zip(coords, m):
                e[c] = k
            monomials.append(tuple(e))
        return MonomialTable(monomials, [(parent, coords[j]) for parent, j in self.steps], nvars)


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
    it mentions.

    This is the form in which `vanishing_ideal` leaves a generator: one
    table per component, that is, the generators of one call share its
    table, and a factor moved into more variables keeps its row over that
    table's `MonomialTable.embedded` copy.  The zero test reads it as a dot
    product with the table's values (`vanishes_at`), and its printed text,
    with the rational coefficients c / `lead`, is built on first read and
    kept.
    """

    __slots__ = ("coeffs", "lead", "index", "table", "used", "_template")

    def __init__(self, coeffs, lead, index, table, used):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "used", used)
        object.__setattr__(self, "_template", None)

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
        return [(c, tuple((p, m[j]) for p, j in enumerate(self.used) if m[j])) for c, m in items]

    @property
    def template(self) -> str:
        """The printed factor with the field ``{p}`` in place of the variable
        t_{used[p]+1}; its terms are sorted once.  `used` ascends, so the
        positions p sort as the variables they name."""
        if self._template is None:
            object.__setattr__(self, "_template", _format_terms(
                ((m, Fraction(c, self.lead)) for c, m in self.terms), lambda p: "{%d}" % p))
        return self._template

    def __str__(self):
        return self.template.format(*(f"t{j + 1}" for j in self.used))

    def vanishes_at(self, vals) -> bool:
        """Is the factor zero at a point, given the values there of its
        table's entries (`MonomialTable.values`)?  Those are the entries'
        values times one positive integer, so the integer dot product with
        the row is zero exactly when the factor is."""
        return sum(map(operator.mul, self.coeffs, vals)) + self.lead * vals[self.index] == 0


def _border(standard, r):
    """Ascending exponent tuples m, one degree above the standard monomials
    `standard` of one degree, with every m / t_i standard: m arises as
    s * t_i from a standard s once for each i with a positive exponent."""
    hits = {}
    for s in standard:
        for i in range(r):
            m = s[:i] + (s[i] + 1,) + s[i + 1:]
            hits[m] = hits.get(m, 0) + 1
    return sorted(m for m, k in hits.items() if k == r - m.count(0))


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
    taken in ascending graded-lex order.  The loop ends at the first degree
    with no candidate; the quotient dimension then equals the number of
    points.

    The arithmetic is over the integers: the points are scaled by the lcm D
    of their denominators, so a degree-k row is D^k times the evaluation
    vector, a factor its combination records.  vec(m) is built as
    vec(m / t_i) times coordinate column i.  Each reduction step
    cross-multiplies, deletes the pivot column it zeroes and appends the
    basis row's coefficient, so every row keeps npts + 1 entries, and a basis
    row is stored in the layout a later candidate has when it meets it.  A
    row is divided by its gcd once, after its last step.  A generator's
    factor keeps the row's coefficients over the standard monomials and its
    own entry, the lead; read as rationals, that is the output of
    elimination over Q.  Every factor of the call is written over one
    `MonomialTable`, and the variables it mentions are read off bitmasks
    of each standard monomial's variables, built alongside.
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
    # per standard monomial: its index, scaled evaluation vector, variable
    # bitmask and, but for the monomial 1, (parent index, variable)
    position, vecs, masks, steps = {}, [], [], []
    standard = []
    leads, lead_steps, found = [], [], []  # found: (coefficients, lead, bitmask)
    candidates = [(0,) * r]
    degree = 0
    while candidates:
        new_standard = []
        for m in candidates:
            if degree:
                # m is a border candidate, so m / t_i is standard
                i = next(i for i, e in enumerate(m) if e)
                parent = position[m[:i] + (m[i] - 1,) + m[i + 1:]]
                vec = [a * b for a, b in zip(vecs[parent], cols[i])]
                mask = masks[parent] | 1 << i
            else:
                vec = [1] * npts
                mask = 0
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
                position[m] = k
                vecs.append(vec)
                masks.append(mask)
                if degree:
                    steps.append((parent, i))
                standard.append(m)
                new_standard.append(m)
            else:
                # the constant is standard, so m has degree >= 1
                coeffs = row[npts - k:-1]
                found.append((coeffs, row[-1], reduce(operator.or_, compress(masks, coeffs), mask)))
                leads.append(m)
                lead_steps.append((parent, i))
        candidates = _border(new_standard, r)
        degree += 1
    assert len(standard) == npts, "quotient dimension must equal the point count"
    table = MonomialTable(standard + leads, steps + lead_steps, r)
    return [SliceFactor(coeffs, lead, npts + n, table, tuple(j for j in range(r) if mask >> j & 1))
            for n, (coeffs, lead, mask) in enumerate(found)]
