"""Sparse multivariate polynomials over exact rationals.

A polynomial is stored the way a `linalg.QMatrix` row is: integer
numerators `ints`, a dict from dense exponent tuples to nonzero ints, over
one positive denominator `den`, the least one (`linalg.cleared_rows`), so
two polynomials are equal iff their (nvars, den, ints) are; it is zero iff
`ints` is empty.  The arithmetic multiplies integers and combines the
denominators.  Fractions appear only where a value leaves as one: the
`terms` view and `eval`.  An exponent is a JSON integer >= 0 (a bool,
float or negative number is refused), and the variable count is fixed per
polynomial; operations require it to agree.
"""

from fractions import Fraction
from functools import cache
from math import lcm, prod
from operator import add, mul

from .linalg import cleared_rows, is_json_int, is_rational_literal, primitive_ints, rat, rat_str


def _exponent(expo, nvars):
    """The exponent vector as a tuple of nvars ints >= 0, or ValueError."""
    if not isinstance(expo, (tuple, list)) or not all(is_json_int(e) and e >= 0 for e in expo):
        raise ValueError("an exponent vector must hold integers >= 0, got %r" % (expo,))
    if len(expo) != nvars:
        raise ValueError("exponent vector has wrong length")
    return tuple(map(int, expo))


class SparsePoly:
    __slots__ = ("nvars", "den", "ints")

    def __init__(self, nvars, terms=None):
        """The polynomial with coefficients terms[expo]: ints, Fractions or
        'num/den' strings, as in `cleared_rows`; zero ones are dropped."""
        self.nvars = int(nvars)
        terms = terms or {}
        expos = [_exponent(e, self.nvars) for e in terms]
        self.den, (ints,) = cleared_rows((terms.values(),))
        self.ints = {e: v for e, v in zip(expos, ints) if v}

    @classmethod
    def _trusted(cls, nvars, ints, den=1):
        """ints / den for ints that the arithmetic built (nvars-tuples to
        nonzero ints) and den > 0, unchecked; brought to the least den by
        `cleared_rows` when den != 1."""
        if den != 1:
            den, (values,) = cleared_rows((ints.values(),), den)
            ints = dict(zip(ints, values))
        poly = object.__new__(cls)
        poly.nvars, poly.den, poly.ints = nvars, den, ints
        return poly

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i, coeff=1):
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): coeff})

    @classmethod
    def linear_form(cls, coeffs):
        n = len(coeffs)
        den, (ints,) = cleared_rows((coeffs,))
        return cls._trusted(n, {(0,) * i + (1,) + (0,) * (n - i - 1): v
                                for i, v in enumerate(ints) if v}, den)

    @property
    def terms(self):
        """The coefficients as Fractions, keyed by exponent tuple."""
        return {e: Fraction(v, self.den) for e, v in self.ints.items()}

    def is_zero(self):
        return not self.ints

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ: %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.nvars, other)
        self._check(other)
        den = lcm(self.den, other.den)
        up_self, up_other = den // self.den, den // other.den
        ints = {e: v * up_self for e, v in self.ints.items()} if up_self != 1 else dict(self.ints)
        for expo, v in other.ints.items():
            s = ints.get(expo, 0) + v * up_other
            if s:
                ints[expo] = s
            else:
                ints.pop(expo, None)
        return SparsePoly._trusted(self.nvars, ints, den)

    def __neg__(self):
        return SparsePoly._trusted(self.nvars, {e: -v for e, v in self.ints.items()}, self.den)

    def __sub__(self, other):
        return self + -(other if isinstance(other, SparsePoly)
                        else SparsePoly.constant(self.nvars, other))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scale(other)
        self._check(other)
        ints = {}
        for e1, c1 in self.ints.items():
            for e2, c2 in other.ints.items():
                expo = tuple(map(add, e1, e2))
                s = ints.get(expo, 0) + c1 * c2
                if s:
                    ints[expo] = s
                else:
                    ints.pop(expo, None)
        return SparsePoly._trusted(self.nvars, ints, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c):
        den, ((c,),) = cleared_rows(((c,),))
        if not c:
            return SparsePoly.zero(self.nvars)
        return SparsePoly._trusted(self.nvars, {e: c * v for e, v in self.ints.items()},
                                   self.den * den)

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.nvars == other.nvars
                and self.den == other.den and self.ints == other.ints)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.ints.items())))

    def eval(self, point):
        """Exact evaluation at a vector of rationals, as a Fraction."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        point = [x if type(x) is int else rat(x) for x in point]
        total = sum(v * prod(x ** e for x, e in zip(point, expo) if e)
                    for expo, v in self.ints.items())
        return Fraction(total, self.den)

    def primitive(self):
        """Integer-cleared, content-free copy with a deterministic sign: the
        coefficients in decreasing exponent order through `primitive_ints`,
        so the coefficient of the lexicographically largest exponent is
        positive."""
        expos = sorted(self.ints, reverse=True)
        ints = primitive_ints([self.ints[e] for e in expos])
        return SparsePoly._trusted(self.nvars, dict(zip(expos, ints)))

    def __str__(self):
        if not self.ints:
            return "0"
        parts = []
        for expo in sorted(self.ints, reverse=True):
            coeff = self.ints[expo]
            mono = "*".join(
                ("x%d" % i if e == 1 else "x%d^%d" % (i, e))
                for i, e in enumerate(expo) if e
            )
            if not mono:
                parts.append(rat_str(coeff, self.den))
            elif coeff == self.den:
                parts.append(mono)
            elif coeff == -self.den:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (rat_str(coeff, self.den), mono))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self):
        """JSON-friendly list of (exponent vector, coefficient string) pairs."""
        return [[list(e), rat_str(v, self.den)] for e, v in sorted(self.ints.items(), reverse=True)]

    @classmethod
    def from_json(cls, nvars, data):
        """Inverse of to_json; every coefficient must be a rational literal
        (`linalg.is_rational_literal`) with a nonzero denominator, as in a
        CLI payload, and every exponent vector a distinct one of JSON
        integers >= 0."""
        terms = {}
        for item in data:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError("expected an [exponent vector, coefficient] pair, got %r" % (item,))
            expo, c = _exponent(item[0], nvars), item[1]
            if not is_rational_literal(c):
                raise ValueError("expected an integer or a \"num/den\" coefficient, got %r" % (c,))
            if expo in terms:
                raise ValueError("two terms name the exponent vector %r" % (list(expo),))
            terms[expo] = c
        try:
            return cls(nvars, terms)
        except ZeroDivisionError:
            raise ValueError("zero denominator in a coefficient") from None


def proportional(f: SparsePoly, g: SparsePoly) -> bool:
    """True iff f = c*g for a single nonzero rational c (or both are zero):
    iff their primitive forms agree."""
    if f.nvars != g.nvars:
        raise ValueError("variable counts differ")
    return f.primitive() == g.primitive()


#: The memoized domain of `monomials_of_degree`: nvars <= MEMO_VARS and
#: d <= MEMO_DEGREE, which holds the interpolation oracle's degrees up to 4
#: in P^n for n < 12.  The memo holds nothing else, so its worst case is
#: the whole domain: 65 tuples holding 6,188 exponent tuples, 0.8 MiB
#: (tracemalloc, CPython 3.11).  Other tuples are built on every call and
#: never held.
MEMO_VARS = 12
MEMO_DEGREE = 4


def _monomials(nvars, d):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    if nvars == 0:
        return ((),) if d == 0 else ()
    rec((), d, nvars)
    return tuple(out)


_memo_monomials = cache(_monomials)


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in a fixed deterministic
    order, as a tuple; memoized for nvars <= MEMO_VARS and d <= MEMO_DEGREE."""
    if nvars <= MEMO_VARS and d <= MEMO_DEGREE:
        return _memo_monomials(nvars, d)
    return _monomials(nvars, d)


def monomial_products(vectors, d):
    """The entrywise products prod_k vectors[k] ** e_k, one per exponent
    tuple e of `monomials_of_degree(len(vectors), d)`, in that order.

    Built from per-variable power tables: vectors[k] ** j for 1 <= j <= d,
    each one entrywise product from the one before; then the product for e
    starts at the table entry of its first nonzero exponent and takes one
    entrywise product for each further one.  A line's r-th power (two
    vectors, d = r) takes about 3r products, where building every degree
    up to r took (r + 1)(r + 2) / 2.
    """
    if not d:
        return [(1,) * len(vectors[0])]
    tables = []
    for vec in vectors:
        table = [None, tuple(vec)]
        for _ in range(d - 1):
            table.append(tuple(map(mul, table[-1], vec)))
        tables.append(table)
    out = []
    for e in monomials_of_degree(len(vectors), d):
        row = None
        for table, j in zip(tables, e):
            if j:
                row = table[j] if row is None else tuple(map(mul, row, table[j]))
        out.append(row)
    return out
