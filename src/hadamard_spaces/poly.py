"""Sparse multivariate polynomials over exact rationals.

Terms are stored as a dict from dense exponent tuples to nonzero Fraction
coefficients; a polynomial is zero iff its term map is empty.  The variable
count is fixed per polynomial and operations require it to agree.
"""

from fractions import Fraction
from math import gcd, lcm

from .linalg import rat, rat_str


class SparsePoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars:
                raise ValueError("exponent vector has wrong length")
            coeff = rat(coeff)
            if coeff:
                clean[expo] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: rat(c)})

    @classmethod
    def variable(cls, nvars, i, coeff=1):
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): rat(coeff)})

    @classmethod
    def linear_form(cls, coeffs):
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = rat(c)
            if c:
                expo = [0] * n
                expo[i] = 1
                terms[tuple(expo)] = c
        return cls(n, terms)

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; the zero polynomial has degree -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ: %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            s = terms.get(expo, Fraction(0)) + coeff
            if s:
                terms[expo] = s
            else:
                terms.pop(expo, None)
        return SparsePoly(self.nvars, terms)

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else SparsePoly.constant(self.nvars, -rat(other)))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(expo, Fraction(0)) + c1 * c2
                if s:
                    terms[expo] = s
                else:
                    terms.pop(expo, None)
        return SparsePoly(self.nvars, terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = rat(c)
        if not c:
            return SparsePoly.zero(self.nvars)
        return SparsePoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = SparsePoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def eval(self, point):
        """Exact evaluation at a vector of rationals."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        point = [rat(x) for x in point]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, expo):
                if e:
                    v *= x ** e
            total += v
        return total

    def primitive(self):
        """Integer-cleared, content-free copy with a deterministic sign.

        Coefficients become coprime integers and the coefficient of the
        lexicographically largest exponent is positive.
        """
        if not self.terms:
            return self
        mult = lcm(*(c.denominator for c in self.terms.values()))
        ints = {e: int(c * mult) for e, c in self.terms.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        lead = max(ints)
        if ints[lead] < 0:
            g = -g
        return SparsePoly(self.nvars, {e: Fraction(v, g) for e, v in ints.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            mono = "*".join(
                ("x%d" % i if e == 1 else "x%d^%d" % (i, e))
                for i, e in enumerate(expo) if e
            )
            if not mono:
                parts.append(rat_str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (rat_str(coeff), mono))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self):
        """JSON-friendly list of (exponent vector, coefficient string) pairs."""
        return [[list(e), rat_str(c)] for e, c in sorted(self.terms.items(), reverse=True)]

    @classmethod
    def from_json(cls, nvars, data):
        return cls(nvars, {tuple(e): Fraction(c) for e, c in data})


def proportional(f: SparsePoly, g: SparsePoly) -> bool:
    """True iff f = c*g for a single nonzero rational c (or both are zero)."""
    if f.nvars != g.nvars:
        raise ValueError("variable counts differ")
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if set(f.terms) != set(g.terms):
        return False
    expo = next(iter(f.terms))
    c = f.terms[expo] / g.terms[expo]
    return all(coeff == c * g.terms[e] for e, coeff in f.terms.items())


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in a fixed deterministic order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    if nvars == 0:
        return [()] if d == 0 else []
    rec((), d, nvars)
    return out
