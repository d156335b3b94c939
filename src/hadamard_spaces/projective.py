"""Projective points, linear spaces, Pluecker coordinates, and the
coordinatewise (Hadamard) product of points and point-by-space products.

Points and spaces are exact rational objects stored in integers: a point
is integer coordinates over one positive denominator, as a `QMatrix` is
integer rows over one.  Each has one canonical form, which equality,
hashing and membership all read.  A point is defined up to a global
nonzero scale; its form is the coprime integer key of `PPoint.canonical`.
A linear space keeps the generator matrix it was built from (full row rank
enforced); its form is the integer pivot frame of `LinSpace.frame`, which
is its RREF's integer rows and denominator.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from .linalg import (PreconditionError, BudgetExhausted, QMatrix, cleared_rows, rat_str,
                     integer_maximal_minors, primitive_ints)

#: Coefficient range for random rational combinations; large enough that
#: genericity failures are negligible across a whole test run, small enough
#: to keep bit growth in downstream exact arithmetic bounded.
SAMPLE_COEFF_BOUND = 10 ** 6

#: Redraw budget of `sample_point` avoiding a Delta_i, and of the samplers
#: rejecting undefined products.
SAMPLE_BUDGET = 200


class PPoint:
    """A point of projective n-space with exact rational coordinates: the
    integer coordinates `ints` over the least positive denominator `den`.
    """

    __slots__ = ("den", "ints", "_key")

    def __init__(self, coords, den=1):
        """The point coords / den (as in `linalg.cleared_rows`)."""
        self.den, (self.ints,) = cleared_rows((coords,), den)
        if not any(self.ints):
            raise ValueError("projective point cannot have all coordinates zero")
        self._key = None

    @property
    def coords(self):
        """The coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.ints)

    @property
    def ambient_dim(self):
        return len(self.ints) - 1

    def __eq__(self, other):
        return isinstance(other, PPoint) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def canonical(self):
        """Scale-invariant integer tuple: coprime, first nonzero positive.

        Computed on first use and kept: the coordinates never change.
        """
        if self._key is None:
            self._key = primitive_ints(self.ints)
        return self._key

    def __repr__(self):
        return "[" + " : ".join(self.to_json()) + "]"

    def nonzero_count(self):
        return sum(1 for x in self.ints if x)

    def delta_index(self):
        """Smallest i such that the point lies in Delta_i.

        Delta_i is the locus of points with at most i+1 nonzero coordinates,
        so this is simply (number of nonzero coordinates) - 1.
        """
        return self.nonzero_count() - 1

    def hadamard(self, other):
        """Coordinatewise product, or None when every product vanishes.

        The undefined outcome is a legitimate result, not an error: it occurs
        exactly when the two supports are disjoint.
        """
        if not isinstance(other, PPoint):
            raise TypeError("expected a PPoint")
        if len(self.ints) != len(other.ints):
            raise ValueError("ambient dimensions differ")
        prod = tuple(map(mul, self.ints, other.ints))
        if not any(prod):
            return None
        return PPoint(prod, self.den * other.den)

    def __mul__(self, other):
        return self.hadamard(other)

    def to_json(self):
        return [rat_str(x, self.den) for x in self.ints]


def all_ones_point(n):
    """The identity for the Hadamard product (the 0-th power of anything)."""
    return PPoint([1] * (n + 1))


class LinSpace:
    """A projective linear space presented by a full-row-rank generator matrix.

    Membership and equality read one integer pivot frame (P, D, D*R), kept
    from the reduction that checks the rank: R is the RREF basis of the
    space (the generators' RREF, which has no zero row), P its pivot
    columns and D its least denominator, so D*R is an integer matrix with D
    at (i, P_i) and 0 at the other pivots.

    - Coordinates.  R has the identity at P, so a vector y of the space is
      y_P R, its coefficients in the basis R being its entries at P.  So y
      lies in the space iff D*y = y_P (D*R), an identity of integer vectors
      once y is cleared of denominators (scaling a vector keeps
      membership), and y -> y_P is injective on the space.
    - Subspaces.  The rows of D*R span the space, so it lies in another
      iff each of them does.
    - Equality.  The RREF of a row space is unique, so two spaces are equal
      iff their frames are, and the frame is also the hash.
    """

    __slots__ = ("generators", "_frame")

    def __init__(self, generators):
        mat = generators if isinstance(generators, QMatrix) else QMatrix(generators)
        if mat.nrows == 0:
            raise ValueError("a linear space needs at least one generator row")
        reduced, rank, pivots = mat.rref()
        if rank != mat.nrows:
            raise ValueError("generator matrix does not have full row rank")
        self.generators = mat
        self._frame = (pivots, reduced.den, reduced.ints)

    @classmethod
    def span_of(cls, rows):
        """Row space of arbitrary rows; None if they all vanish."""
        mat = rows if isinstance(rows, QMatrix) else QMatrix(rows)
        reduced, rank, pivots = mat.rref()
        if not rank:
            return None
        basis = QMatrix(reduced.ints[:rank], reduced.den)
        basis._rref = (basis, rank, pivots)  # a basis in RREF is its own reduction
        return cls(basis)

    @property
    def dim(self):
        return self.generators.nrows - 1

    @property
    def ambient_dim(self):
        return self.generators.ncols - 1

    def frame(self):
        """(P, D, D*R) as in the class docstring."""
        return self._frame

    def _holds(self, y):
        """Whether the integer vector y satisfies D*y = y_P (D*R); a point
        is in the space iff its integer coordinates are."""
        pivots, den, basis = self.frame()
        head = [y[p] for p in pivots]
        return all(den * v == sum(map(mul, head, col)) for v, col in zip(y, zip(*basis)))

    def contains(self, point):
        if len(point.ints) != self.generators.ncols:
            raise ValueError("ambient dimensions differ")
        return self._holds(point.ints)

    def contains_space(self, other):
        if other.generators.ncols != self.generators.ncols:
            raise ValueError("ambient dimensions differ")
        return all(map(self._holds, other.frame()[2]))

    def __eq__(self, other):
        return isinstance(other, LinSpace) and self.frame() == other.frame()

    def __hash__(self):
        return hash(self.frame())

    def __repr__(self):
        return "LinSpace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)

    def equation_matrix(self):
        """Rows of linear-form coefficients cutting out this space."""
        return self.generators.nullspace()

    def to_json(self):
        return self.generators.to_json()


def intersect_spaces(spaces):
    """Intersection of linear spaces as a LinSpace, or None when empty.

    Computed as the kernel of the stacked dual equations: exact and
    dimension-revealing in a single rank computation.
    """
    if not spaces:
        raise ValueError("need at least one space")
    rows = []
    for sp in spaces:
        rows.extend(sp.equation_matrix().ints)
    if not rows:
        return spaces[0]
    kernel = QMatrix(rows).nullspace()
    if not kernel.nrows:
        return None
    return LinSpace(kernel)


def point_times_space(p, space):
    """Hadamard product of a point with a linear space.

    Scales column j of the generator matrix by p_j.  The result is the row
    space of the scaled matrix: a linear space of dimension at most dim(L),
    with equality when p avoids Delta_{n-1}; it is None (empty) when every
    scaled generator vanishes.  When no rank drop occurs the scaled matrix is
    returned as-is, so its maximal minors are exactly the minors of L scaled
    by the products of the corresponding coordinates of p.

    Carried frame.  When p has no zero coordinate, the scaled space's frame
    is the factor's, scaled, with no elimination: for G the generators, R
    their RREF with pivots P and E G = R (E invertible),

        RREF(G diag(p)) = diag(p_P)^-1 R diag(p),

    with the same pivots.  The right side is diag(p_P)^-1 E times G diag(p),
    an invertible matrix times the scaled generators, so it has their row
    space.  Row i is R's row i times p_j / p_(P_i) at column j: zero before
    P_i and at the other pivots, as R's is, and 1 at P_i.  So it is in
    reduced row echelon form, and the RREF of a matrix is unique.  A row
    of D*R times p_j L / p_(P_i), for L the lcm of the pivot entries of p,
    is an integer row over D L.  The frame is kept as the scaled matrix's
    reduction, so `LinSpace` and `nullspace` read it without a Bareiss pass.
    A p with a zero coordinate can drop the rank and takes the reduction.
    """
    if len(p.ints) != space.generators.ncols:
        raise ValueError("ambient dimensions differ")
    scaled = space.generators.scale_columns(p.ints, p.den)
    if all(p.ints):
        pivots, den, basis = space.frame()
        heads = [p.ints[c] for c in pivots]
        mult = lcm(*heads)
        rows = [[x * y * (mult // h) for x, y in zip(row, p.ints)] for row, h in zip(basis, heads)]
        reduced = QMatrix(rows, den * mult)
        reduced._rref = scaled._rref = (reduced, len(pivots), pivots)
        return LinSpace(scaled)
    if scaled.rref()[1] == scaled.nrows:
        return LinSpace(scaled)
    return LinSpace.span_of(scaled)


class PlueckerVector:
    """Maximal minors of a generator matrix G, keyed by sorted index tuples.

    With G of k rows and D the lcm of its denominators, `minors` holds the
    integer minors of D*G and `scale` is D^k: each minor is k-linear in the
    rows, so a minor of D*G is D^k times that of G, and `entries` (minor /
    scale, as Fractions, built on each read) are the minors of G.  Bracket
    formulas multiply the integer minors and divide once by a power of
    `scale`.
    """

    __slots__ = ("ambient_dim", "dim", "minors", "scale")

    def __init__(self, ambient_dim, dim, minors, scale):
        self.ambient_dim = int(ambient_dim)
        self.dim = int(dim)
        self.minors = minors
        self.scale = scale
        if not any(self.minors.values()):
            raise ValueError("Pluecker vector cannot be identically zero")

    @property
    def entries(self):
        """The minors of G as Fractions, keyed like `minors`."""
        return {k: Fraction(m, self.scale) for k, m in self.minors.items()}

    def bracket(self, indices):
        """Entry at a (possibly unsorted) index tuple, with antisymmetry sign."""
        indices = tuple(indices)
        if len(set(indices)) != len(indices):
            return Fraction(0)
        return Fraction(permutation_sign(indices) * self.minors[tuple(sorted(indices))], self.scale)

    def nonvanishing(self):
        return all(self.minors.values())

    def __eq__(self, other):
        """Projective equality: the same indices (all k-subsets of the same
        coordinates, so the same dimensions) and proportional minors."""
        if not isinstance(other, PlueckerVector) or self.minors.keys() != other.minors.keys():
            return False
        keys = sorted(self.minors)
        return (primitive_ints([self.minors[k] for k in keys])
                == primitive_ints([other.minors[k] for k in keys]))

    def __repr__(self):
        body = ", ".join("[%s]=%s" % ("".join(map(str, k)), rat_str(m, self.scale))
                         for k, m in sorted(self.minors.items()))
        return "Pluecker(%s)" % body

    def to_json(self):
        return {",".join(map(str, k)): rat_str(m, self.scale) for k, m in sorted(self.minors.items())}


def permutation_sign(seq):
    """Sign of the permutation that sorts a sequence of distinct items: the
    parity of its inversion count."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def pluecker(space):
    """Pluecker coordinates of a linear space: the maximal minors of its
    generators' integer rows D*G (`integer_maximal_minors`) over the scale
    D^k, which are the minors of G since a k-minor is k-linear in the rows."""
    gens = space.generators
    return PlueckerVector(space.ambient_dim, space.dim, integer_maximal_minors(gens.ints),
                          gens.den ** gens.nrows)


def line_through(p, q):
    """The line spanned by two distinct points, keeping them as generators."""
    if p == q:
        raise PreconditionError("the two points coincide projectively")
    rows = [[x * q.den for x in p.ints], [x * p.den for x in q.ints]]
    return LinSpace(QMatrix(rows, p.den * q.den))


def sample_point(space, rng, avoid_delta=None):
    """Random point of a linear space with int coordinates, deterministic
    per rng state.

    Draws integer coefficients uniformly from [-SAMPLE_COEFF_BOUND, bound]
    for the generator rows and combines the generators' integer rows
    (the generator rows times their denominator, so the same projective
    point).  With avoid_delta = i, retries until the point avoids Delta_i
    (i.e. has at least i+2 nonzero coordinates); exhausting SAMPLE_BUDGET
    signals that the space is (very likely) contained in Delta_i.
    """
    gens = space.generators.ints
    for _ in range(SAMPLE_BUDGET):
        coeffs = [rng.randint(-SAMPLE_COEFF_BOUND, SAMPLE_COEFF_BOUND) for _ in range(len(gens))]
        coords = [sum(map(mul, coeffs, col)) for col in zip(*gens)]
        if not any(coords):
            continue
        point = PPoint(coords)
        if avoid_delta is None or point.delta_index() > avoid_delta:
            return point
    raise BudgetExhausted(
        "no sample avoiding Delta_%s in %d draws; the space appears to be contained in it"
        % (avoid_delta, SAMPLE_BUDGET))
