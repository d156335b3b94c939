"""Seeded samplers producing (point, tangent space) pairs on a variety.

Every sampler is deterministic given the caller-supplied random state and
guarantees that the emitted point lies on the intended variety and in its
tangent space.  Samplers compose: the Hadamard product of samplers emits
the product point together with the span <p * T_q, q * T_p>, which is the
tangent space of the product at a general product point.

Each sampler has one draw function `draw(rng, tangent)`.  With tangent
false it builds the point alone and returns (point, None); the random
values it takes are the same either way, because the tangent is built
from the drawn values without drawing again.  So `sample_point` gives the
point `sample` would have given and leaves the random state where
`sample` would have left it.
"""

from fractions import Fraction
from math import prod

from .linalg import BudgetExhausted, QMatrix
from .projective import LinSpace, PPoint, sample_point

#: Redraw budget for samplers that must reject degenerate draws.
SAMPLER_BUDGET = 200


class VarietySampler:
    """A deterministic procedure emitting (PPoint, LinSpace) pairs.

    `draw(rng, tangent)` returns (point, tangent space), or (point, None)
    when `tangent` is false.
    """

    __slots__ = ("ambient_dim", "_draw", "label")

    def __init__(self, ambient_dim, draw, label="sampler"):
        self.ambient_dim = ambient_dim
        self._draw = draw
        self.label = label

    def sample(self, rng):
        """One (point, tangent) pair; the tangent always contains the point."""
        return self._draw(rng, True)

    def sample_point(self, rng):
        """The point `sample` would give, without building the tangent."""
        return self._draw(rng, False)[0]

    def __repr__(self):
        return "VarietySampler(%s, ambient=P^%d)" % (self.label, self.ambient_dim)


def linear_space_sampler(space):
    """Sampler of a linear space; the tangent space is the space itself."""

    def draw(rng, tangent):
        return sample_point(space, rng), space

    return VarietySampler(space.ambient_dim, draw, "linear dim %d" % space.dim)


def reciprocal_sampler(space):
    """Sampler of the reciprocal of a linear space.

    Emits the coordinatewise inverse of an all-nonzero sample a of the
    space, as the integer point prod_{j != i} a_j (1/a times prod a);
    rejection of samples meeting a coordinate hyperplane is built in.  The
    tangent at 1/a is spanned by 1/a itself and the generator rows divided
    entrywise by a^2 (the derivative of t -> 1/(a + t g)).
    """
    n = space.ambient_dim

    def draw(rng, tangent):
        base = sample_point(space, rng, avoid_delta=n - 1, budget=SAMPLER_BUDGET)
        total = prod(base.coords)
        point = PPoint([total // x for x in base.coords])
        if not tangent:
            return point, None
        rows = [tuple(Fraction(1) / x for x in base.coords)]
        for g in space.generators.rows:
            rows.append(tuple(gx / (x * x) for gx, x in zip(g, base.coords)))
        return point, LinSpace.span_of(QMatrix(rows))

    return VarietySampler(n, draw, "reciprocal of dim %d" % space.dim)


def segre_sampler(a, b, coeff_bound=1000):
    """Sampler of the Segre variety of rank-one (a+1) x (b+1) matrices.

    Coordinates are the matrix entries flattened row-major into
    P^((a+1)(b+1)-1).  The tangent space at u v^T is spanned by the
    matrices e_i v^T and u e_j^T.
    """
    n = (a + 1) * (b + 1) - 1

    def draw(rng, tangent):
        for _ in range(SAMPLER_BUDGET):
            u = [rng.randint(-coeff_bound, coeff_bound) for _ in range(a + 1)]
            v = [rng.randint(-coeff_bound, coeff_bound) for _ in range(b + 1)]
            if all(u) and all(v):
                break
        else:
            raise BudgetExhausted("could not draw nonzero factors for the Segre sampler")
        point = PPoint([ui * vj for ui in u for vj in v])
        if not tangent:
            return point, None
        rows = []
        for i in range(a + 1):
            rows.append([Fraction(vj if k == i else 0) for k in range(a + 1) for vj in v])
        for j in range(b + 1):
            rows.append([Fraction(ui if l == j else 0) for ui in u for l in range(b + 1)])
        return point, LinSpace.span_of(QMatrix(rows))

    return VarietySampler(n, draw, "Segre P^%d x P^%d" % (a, b))


def hadamard_product_sampler(first, second):
    """Sampler of the Hadamard product of two sampled varieties.

    Draws from both factors, discards pairs whose product is undefined, and
    redraws; the tangent is the span of p * T_q and q * T_p.
    """
    if first.ambient_dim != second.ambient_dim:
        raise ValueError("ambient dimensions differ")

    def draw(rng, tangent):
        from .products import terracini_span
        for _ in range(SAMPLER_BUDGET):
            if tangent:
                p, tp = first.sample(rng)
                q, tq = second.sample(rng)
            else:
                p, q = first.sample_point(rng), second.sample_point(rng)
            point = p.hadamard(q)
            if point is None:
                continue
            return point, terracini_span(p, tp, q, tq) if tangent else None
        raise BudgetExhausted("all sampled products were undefined")

    return VarietySampler(first.ambient_dim, draw,
                          "(%s) * (%s)" % (first.label, second.label))


def hadamard_power_sampler(base, r):
    """r-fold Hadamard product of a sampler with itself (independent draws)."""
    if r < 1:
        raise ValueError("power must be >= 1")
    sampler = base
    for _ in range(r - 1):
        sampler = hadamard_product_sampler(sampler, base)
    return sampler
