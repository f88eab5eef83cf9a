"""Exact sparse multivariate polynomials over Q.

Two variable families are supported: x1, x2, ... (the ambient coordinates,
acted on by finite permutations) and t1, t2, ... (slice coordinates used by
vanishing ideals).  Coefficients are exact rationals; there is no floating
point anywhere.  Monomials are ordered graded-lexicographically with
x1 > x2 > ... > t1 > t2 > ...

The module also provides discriminants, the coset skew-symmetrization
identity, constructive discriminant extraction with replayable witnesses,
orbit evaluation at points with finitely many values, and vanishing ideals
of finite point sets.  Those are computed by Buchberger-Moeller elimination
degree by degree, run over the integers after the points are scaled to
integer coordinates; only the output coefficients are rationals, and the
generators are exactly those of elimination over Q.
"""

import math
import re
from fractions import Fraction

from .partitions import is_inf

X_FAMILY = 0
T_FAMILY = 1

_FAMILY_NAMES = {X_FAMILY: "x", T_FAMILY: "t"}


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


class Poly:
    """Immutable sparse polynomial: mapping from monomials to nonzero rationals.

    A monomial is a sorted tuple of ((family, index), exponent) pairs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(): Fraction(c)})

    @classmethod
    def variable(cls, v):
        return cls({((v, 1),): Fraction(1)})

    @classmethod
    def x(cls, i):
        return cls.variable(xvar(i))

    @classmethod
    def t(cls, i):
        return cls.variable(tvar(i))

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

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
                out[rest] = out.get(rest, Fraction(0)) + c
        return Poly(out)

    def variables(self):
        return {v for m in self.terms for v, _ in m}

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
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
            c = Fraction(other)
            return Poly({m: c * v for m, v in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, assignment) -> Fraction:
        """Evaluate with every used variable present in `assignment`."""
        total = Fraction(0)
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
            out[m2] = out.get(m2, Fraction(0)) + c
        return Poly(out)

    def key(self):
        return frozenset(self.terms.items())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def sorted_terms(self):
        """Terms in decreasing graded-lexicographic order."""
        allvars = sorted(self.variables())

        def k(item):
            m, _ = item
            exps = dict(m)
            return (-_mono_degree(m), tuple(-exps.get(v, 0) for v in allvars))

        return sorted(self.terms.items(), key=k)

    def leading_monomial(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return self.sorted_terms()[0][0]

    def __str__(self):
        if self.is_zero:
            return "0"
        pieces = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"{_FAMILY_NAMES[f]}{i}" + (f"^{e}" if e > 1 else "")
                for (f, i), e in m
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({self})"

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")


_TOKEN = re.compile(r"\s*(?:(\d+)|([xt])(\d+)|(\*\*|[()+\-*/^]))")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad polynomial syntax near {text[pos:pos + 12]!r}")
            break
        if m.group(1):
            out.append(("num", int(m.group(1))))
        elif m.group(2):
            fam = X_FAMILY if m.group(2) == "x" else T_FAMILY
            out.append(("var", (fam, int(m.group(3)))))
        else:
            op = m.group(4)
            out.append(("op", "^" if op == "**" else op))
        pos = m.end()
    return out


def parse_poly(text: str) -> Poly:
    """Parse the polynomial grammar: +/- joined terms, `*` products,
    `^` powers, variables x<i> and t<i>, rationals p/q, parentheses."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of polynomial text")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr():
        sign = 1
        kind, val = peek()
        if kind == "op" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
        node = parse_term() * sign
        while True:
            kind, val = peek()
            if kind == "op" and val in "+-":
                take()
                nxt = parse_term()
                node = node + nxt if val == "+" else node - nxt
            else:
                return node

    def parse_term():
        node = parse_factor()
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                take()
                node = node * parse_factor()
            else:
                return node

    def parse_factor():
        base = parse_base()
        kind, val = peek()
        if kind == "op" and val == "^":
            take()
            kind, val = take()
            if kind != "num":
                raise ValueError("exponent must be a natural number")
            return base ** val
        return base

    def parse_base():
        kind, val = take()
        if kind == "num":
            k2, v2 = peek()
            if k2 == "op" and v2 == "/":
                take()
                k3, v3 = take()
                if k3 != "num":
                    raise ValueError("bad rational literal")
                return Poly.constant(Fraction(val, v3))
            return Poly.constant(val)
        if kind == "var":
            return Poly.variable(val)
        if kind == "op" and val == "(":
            node = parse_expr()
            k2, v2 = take()
            if (k2, v2) != ("op", ")"):
                raise ValueError("unbalanced parentheses")
            return node
        raise ValueError(f"unexpected token {val!r}")

    if not tokens:
        raise ValueError("empty polynomial text")
    node = parse_expr()
    if pos != len(tokens):
        raise ValueError("trailing polynomial text")
    return node


class PolyProduct:
    """A polynomial kept in factored form; the product is never expanded
    unless asked.  Used for ideal generators whose expansions are
    combinatorially infeasible."""

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        object.__setattr__(self, "factors", tuple(factors))

    def expand(self) -> Poly:
        out = Poly.constant(1)
        for f in self.factors:
            out = out * f
        return out

    def evaluate(self, assignment) -> Fraction:
        total = Fraction(1)
        for f in self.factors:
            total *= f.evaluate(assignment)
            if total == 0:
                return total
        return total

    def variables(self):
        return {v for f in self.factors for v in f.variables()}

    def __mul__(self, other):
        if isinstance(other, PolyProduct):
            return PolyProduct(self.factors + other.factors)
        return PolyProduct(self.factors + (other,))

    def __eq__(self, other):
        return isinstance(other, PolyProduct) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(f"({f})" for f in self.factors)

    def __repr__(self):
        return f"PolyProduct({self})"

    def __setattr__(self, name, value):
        raise AttributeError("PolyProduct is immutable")


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


class ExtractionWitness:
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
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "n", int(n))

    def __repr__(self):
        return f"ExtractionWitness(steps={len(self.steps)}, c={self.c}, n={self.n})"

    def __setattr__(self, name, value):
        raise AttributeError("ExtractionWitness is immutable")


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
        op = [(Fraction(1), ())]
        op += [(Fraction(-1), ((i, r), (r, i))) for i in fresh]
        skew_step = (discriminant_on(fresh), tuple(op))
        c, seq, sub_steps = go(g_top)
        block = tuple(fresh) + (r,)
        cross = Poly.constant(1)
        for a in seq:
            for b in block:
                cross = cross * difference(b, a)
        steps = [skew_step] + sub_steps
        if not cross.is_constant:
            steps.append((cross, ((Fraction(1), ()),)))
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
    steps.append((Poly.constant(1), ((Fraction(1), final_perm),)))
    return ExtractionWitness(steps, c, n)


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


def _monomials_of_degree(nvars, degree):
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


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def vanishing_ideal(points, nvars=None) -> list:
    """Reduced graded-lex generating set of the ideal of polynomials in
    t1..tr vanishing on a finite set of rational points.

    Buchberger-Moeller elimination degree by degree: a monomial that is no
    multiple of a found leading term is standard if its evaluation vector is
    independent of those of the earlier standard monomials, and otherwise
    gives the generator "monomial minus that combination".  The loop ends at
    the first degree with no such monomial; the quotient dimension then
    equals the number of points.

    The arithmetic is over the integers: the points are scaled by the lcm D
    of their denominators, so a degree-k row is D^k times the evaluation
    vector, a factor its combination records.  vec(m) is built as
    vec(m / t_i) times coordinate column i.  Rows are reduced by
    cross-multiplication and divided by their gcd, and only the emitted
    coefficients become rationals.  The output is that of elimination over Q.
    """
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    if not pts:
        raise ValueError("vanishing_ideal requires a non-empty point set")
    r = len(pts[0])
    if any(len(p) != r for p in pts):
        raise ValueError("all points must have the same length")
    if nvars is not None and nvars != r:
        raise ValueError("nvars disagrees with point length")
    npts = len(pts)
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    cols = [[p[i].numerator * (scale // p[i].denominator) for p in pts] for i in range(r)]

    # a row is its evaluation vector (npts entries) followed by its
    # combination: one coefficient per standard monomial, then its own
    rows = []  # (pivot index, row)
    raw = {}  # scaled evaluation vector of each standard monomial
    standard = []
    gens = []
    leads = []
    degree = 0
    while True:
        candidates = [
            m
            for m in _monomials_of_degree(r, degree)
            if not any(_divides(l, m) for l in leads)
        ]
        if not candidates and degree > 0:
            break
        for m in candidates:
            if degree:
                # m / t_i is standard: otherwise m would be a multiple of a lead
                i = next(i for i, e in enumerate(m) if e)
                vec = [a * b for a, b in zip(raw[m[:i] + (m[i] - 1,) + m[i + 1:]], cols[i])]
            else:
                vec = [1] * npts
            row = vec + [0] * len(standard) + [scale ** degree]
            for piv, prow in rows:
                a = row[piv]
                if a:
                    b = prow[piv]
                    g = math.gcd(a, b)
                    a, b = a // g, b // g
                    n = len(prow)
                    row = [b * x - a * y for x, y in zip(row, prow)] + [b * x for x in row[n:]]
                    g = math.gcd(*row)
                    if g > 1:
                        row = [x // g for x in row]
            piv = next((j for j in range(npts) if row[j]), None)
            if piv is not None:
                rows.append((piv, row))
                raw[m] = vec
                standard.append(m)
            else:
                lead = row[-1]
                gens.append(Poly({
                    tuple(((T_FAMILY, j + 1), e) for j, e in enumerate(mm) if e): Fraction(c, lead)
                    for mm, c in zip(standard + [m], row[npts:])
                    if c
                }))
                leads.append(m)
        degree += 1
    assert len(standard) == npts, "quotient dimension must equal the point count"
    return gens
