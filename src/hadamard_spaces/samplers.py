"""Seeded samplers producing (point, tangent space) pairs on a variety.

Every sampled variety is a Hadamard product X_1 * ... * X_k whose factors
are linear spaces L or their reciprocals L^-1 (the coordinatewise inverses
of the points of L off the coordinate hyperplanes): X * Y is the image of
X x Y under a monomial map.  A sampler is that tuple of factors
(space, reciprocal?).  The Segre variety of rank-one matrices is the
product of two linear factors, u v^T = (u 1^T) * (1 v^T): the matrices
constant along rows times the matrices constant along columns.  A product
of samplers concatenates their factors, and a power repeats them, up to
SAMPLER_FACTOR_LIMIT factors.

One draw serves every sampler.  It draws the factors in order and
multiplies; an undefined product (disjoint supports) restarts it from the
first factor.  A linear factor draws with `projective.sample_point`.  A
reciprocal factor draws a point a of L with no zero coordinate and emits
1/a as the integer point prod_{j != i} a_j (1/a times prod a).

The tangent space at the product point folds `products.terracini_span`
over the factors: T_{p*q}(X * Y) = p * T_q(Y) + q * T_p(X).  A linear
factor's tangent is its space.  A reciprocal factor's tangent at q = 1/a
is q^2 * L.  Proof: the curve t -> 1/(a + t g), g in L, has derivative
-g/a^2 at t = 0, so the tangent is spanned by 1/a and the g/a^2; and
1/a = a/a^2 with a in L, so the span is {g/a^2 : g in L} = (1/a)^2 * L.
It has the dimension of L because a has no zero coordinate.

The tangent is built from the drawn values without drawing again, so
`sample_point` gives the point `sample` would have given and leaves the
random state where `sample` would have left it.
"""

from functools import lru_cache
from math import prod

from .linalg import BudgetExhausted
from .products import terracini_span
from .projective import SAMPLE_BUDGET, LinSpace, PPoint, point_times_space, sample_point


class VarietySampler:
    """The Hadamard product of a tuple of (LinSpace, reciprocal?) factors,
    all in one ambient space, emitting (PPoint, LinSpace) pairs."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)

    @property
    def ambient_dim(self):
        return self.factors[0][0].ambient_dim

    def _draw(self, rng, tangent):
        """(point, tangent space), or (point, None) when `tangent` is false."""
        for _ in range(SAMPLE_BUDGET):
            point = span = None
            for space, reciprocal in self.factors:
                if reciprocal:
                    base = sample_point(space, rng, avoid_delta=space.ambient_dim - 1)
                    total = prod(base.ints)
                    q = PPoint([total // x for x in base.ints])
                    tq = point_times_space(q.hadamard(q), space) if tangent else None
                else:
                    q, tq = sample_point(space, rng), space
                if point is None:
                    point, span = q, tq
                    continue
                product = point.hadamard(q)
                if product is None:
                    break
                if tangent:
                    span = terracini_span(point, span, q, tq)
                point = product
            else:
                return point, span
        raise BudgetExhausted("all sampled products were undefined")

    def sample(self, rng):
        """One (point, tangent) pair; the tangent always contains the point."""
        return self._draw(rng, True)

    def sample_point(self, rng):
        """The point `sample` would give, without building the tangent."""
        return self._draw(rng, False)[0]

    def __repr__(self):
        names = ("%s dim %d" % ("reciprocal" if reciprocal else "linear", space.dim)
                 for space, reciprocal in self.factors)
        return "VarietySampler(%s, ambient=P^%d)" % (" * ".join(names), self.ambient_dim)


def linear_space_sampler(space):
    """Sampler of a linear space; the tangent space is the space itself."""
    return VarietySampler([(space, False)])


def reciprocal_sampler(space):
    """Sampler of the reciprocal of a linear space (see the module docstring)."""
    return VarietySampler([(space, True)])


#: Largest ambient dimension (a+1)(b+1) - 1 of `segre_sampler`; past it,
#: it raises BudgetExhausted before building its factors, whose column
#: factor alone is a (b+1) x (a+1)(b+1) matrix to reduce.  The slowest
#: shape is a = 1: whole `dim-estimate` processes of a Segre variety with
#: itself, on a 2-vCPU Xeon VM, took 1.45 s at a = 1, b = 99 (P^199), 0.6 s
#: at a = 2, b = 66 (P^200), and 6.2 s at a = 1, b = 149 (P^299); building
#: a = 2, b = 1000 (P^3002) alone took 56.6 s.
SEGRE_AMBIENT_LIMIT = 200


@lru_cache(maxsize=None)
def _segre_factors(a, b):
    """The (a+1) x (b+1) matrices constant along rows (u 1^T) and those
    constant along columns (1 v^T), flattened row-major."""
    cols = b + 1
    rows = [[int(k // cols == i) for k in range((a + 1) * cols)] for i in range(a + 1)]
    columns = [[int(k % cols == j) for k in range((a + 1) * cols)] for j in range(cols)]
    return (LinSpace(rows), False), (LinSpace(columns), False)


def segre_sampler(a, b):
    """Sampler of the Segre variety of rank-one (a+1) x (b+1) matrices.

    Coordinates are the matrix entries flattened row-major into
    P^((a+1)(b+1)-1); u v^T is drawn as (u 1^T) * (1 v^T).  An ambient
    dimension past SEGRE_AMBIENT_LIMIT raises BudgetExhausted before the
    factors are built.
    """
    n = (a + 1) * (b + 1) - 1
    if n > SEGRE_AMBIENT_LIMIT:
        raise BudgetExhausted("the Segre variety of %d x %d matrices lies in P^%d, past the "
                              "limit of P^%d" % (a + 1, b + 1, n, SEGRE_AMBIENT_LIMIT))
    return VarietySampler(_segre_factors(a, b))


#: Most factors of a sampler that `hadamard_product_sampler` or
#: `hadamard_power_sampler` builds; past it, they raise BudgetExhausted
#: before building it, so the CLI refuses a sampler as it reads it.  Whole
#: processes on a 2-vCPU Xeon VM, powers of 1-digit spaces: `interp` of a
#: reciprocal line in P^3 (dmax 3, refused by the grid) took 1.7 s at 64
#: factors and 2.6 s at 72, of a line in P^2 (degree 3) 1.6 s at 64 and
#: 2.8 s at 72; `dim-estimate` of a line or a plane in P^2 to P^9 took at
#: most 0.12 s at 64.
SAMPLER_FACTOR_LIMIT = 64


def _check_factor_count(count):
    if count > SAMPLER_FACTOR_LIMIT:
        raise BudgetExhausted("the sampler has %d factors, past the limit of %d"
                              % (count, SAMPLER_FACTOR_LIMIT))


def hadamard_product_sampler(first, second):
    """Sampler of the Hadamard product of two sampled varieties; past
    SAMPLER_FACTOR_LIMIT factors, BudgetExhausted before it is built."""
    if first.ambient_dim != second.ambient_dim:
        raise ValueError("ambient dimensions differ")
    _check_factor_count(len(first.factors) + len(second.factors))
    return VarietySampler(first.factors + second.factors)


def hadamard_power_sampler(base, r):
    """r-fold Hadamard product of a sampler with itself (independent draws);
    past SAMPLER_FACTOR_LIMIT factors, BudgetExhausted before it is built."""
    if r < 1:
        raise ValueError("power must be >= 1")
    _check_factor_count(len(base.factors) * r)
    return VarietySampler(base.factors * r)
