"""Exact linear algebra over the rationals and the integers.

Everything here is immutable and pure: a matrix is integer rows over one
positive denominator, the least one, cleared once when it is built
(`cleared_rows`); operations return new values, and there is no float
anywhere.  "Equals zero" is therefore decidable, which the rest of the
package relies on.  Fractions appear only where a value leaves as one: the
`rows` view and `det`.

Bareiss (`integer_rank`, `QMatrix.rref`, `det`, `nullspace`, and the
tests' kernel oracle `bareiss_kernel_basis`) runs on integer rows, which
have the row space and the kernel of the matrix.  A forward pass with
exact division (`_bareiss_echelon`) gives an integer echelon form of
minors of the input, the sign of its row swaps and the pivot columns, as
many as the rank; a back-substitution (`_back_substitute`) solves one
kernel vector per free column.  It serves the many small rational matrices
of spans and tangent spaces.  All the maximal minors of a matrix at once,
the Pluecker coordinates and the star configurations' normals and general
position, come from Laplace expansion, or from `integer_det` per minor
where that is cheaper (`integer_maximal_minors`).

p-adic (`integer_kernel_basis`, the kernel of the interpolation oracle's
evaluation matrix, wide or tall).  A, or only its leading nc x nc block
when A has more rows than columns (the factored rows S), is factored mod a
prime p = 2^27 - e, first KERNEL_PRIME, on packed rows (`_factor_mod_p`).
For each free column f, the entries at the k pivots before f solve B y =
-a in the pivot rows R_<k, lifted p-adically (Dixon 1982) and rationally
reconstructed (Wang, Guy & Davenport 1982) in `_dixon_kernel`: the cost
follows the size of the kernel entries.  Each vector is checked exactly
against every row of A (a pivot row may be certified by a congruence), and
the check is a certificate.  ker_Q(A) lies in ker_Q(S) and rank mod p <=
rank over Q (a minor zero over Q is zero mod p), so dim ker_p(S) >= dim
ker_Q(A); the lifted vectors are independent (each is nonzero at its own
free column only), so dim ker_p(S) of them that pass are a basis of
ker_Q(A).  Each is zero past its free column f, so f is no pivot over Q
either: the free sets agree, and each vector is the unique primitive one
positive at its free column and zero at the others, the one Bareiss
returns.

The lifting stops by proof.  det B is nonzero mod p, so B y = -a has one
rational solution; a reconstructed vector that passes the pivot rows is
it, and one that fails one has not converged.  By Cramer's rule and the
Hadamard bound, y_i = N / D in lowest terms with |N|, D <= H, the product
of the row norms of [B | a], found once p^s > 2 H^2 (2 D' H^2 for a later
vector of a block, which lifts D' y: `_dixon_kernel`).  H only proves
that the loop ends (837 steps where the squared plane of 10-digit entries
needs 73).  A solution that fails another row proves the factorization
wrong: with the column rank profile of A over Q, the kernel vector of f
would solve B y = -a.  So a tall block has a larger kernel than A, and
the whole matrix moves on, or p is unlucky, and the whole matrix moves
on to the next prime (`_kernel_primes`).  An unlucky p divides M =
det A[I, J], J the column rank profile of A over Q and M != 0 (else J
stays independent mod p in every prefix), so at most log2(H_A) / 26
primes fail, H_A the Hadamard bound of A.  All the work draws on one
`lift_budget` cell, each step charged before it runs (`spend`): the first
pass's reduction mod p with building the matrix (by its builder,
`products.interpolate_forms`), and here each later pass, each lifting
step, each Euclid run and each row an exact check reads.

The rank, the RREF, the kernel basis and the determinant are unique, so
the results depend on neither the path nor the prime: only the time does.
"""

import re
import struct
import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, compress, count, zip_longest
from math import comb, gcd, isqrt, lcm
from operator import itemgetter, mul


class PreconditionError(ValueError):
    """A mathematical hypothesis of an operation is violated."""


class BudgetExhausted(RuntimeError):
    """A retry/sampling budget ran out before the operation could finish."""


def rat(x) -> Fraction:
    """Coerce ints, strings like '-3/7', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact computations: %r" % (x,))
    return Fraction(x)


#: A rational string of a payload: optional minus, ASCII digits, and an
#: optional "/" with an ASCII-digit denominator.
RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def is_json_int(value):
    """JSON integers only: bool is an int subclass in Python, not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_rational_literal(value):
    """A JSON integer or a RATIONAL_STRING, the only rationals a payload may
    hold: `Fraction(str)` alone would also read "1.5", "1e3", " 3 ", "1_000"
    and non-ASCII digits."""
    return is_json_int(value) or isinstance(value, str) and bool(RATIONAL_STRING.fullmatch(value))


TOO_LONG_TO_PRINT = "a number is too long to print: it exceeds Python's int-to-str digit limit"


def rat_str(q, den=1) -> str:
    """Canonical 'num/den' string of the rational q / den, for q an int or a
    Fraction and den a positive int; the '/1' is omitted for integers.

    A numerator or denominator past Python's int-to-str digit limit raises
    BudgetExhausted instead of the ValueError of `str`.
    """
    if type(q) is not int:
        q, den = q.numerator, q.denominator * den
    if den != 1:
        g = gcd(q, den)
        q, den = q // g, den // g
    try:
        return str(q) if den == 1 else "%d/%d" % (q, den)
    except ValueError:
        raise BudgetExhausted(TOO_LONG_TO_PRINT) from None


def check_printable(tenths):
    """Raise rat_str's BudgetExhausted for a number x known to have
    10 log10(x) >= tenths, when that puts it past Python's int-to-str digit
    limit (0 means no limit): x >= 10^limit has more than limit digits."""
    limit = sys.get_int_max_str_digits()
    if limit and tenths >= 10 * limit:
        raise BudgetExhausted(TOO_LONG_TO_PRINT)


def cleared_rows(rows, den=1):
    """(D, integer rows) with the values of rows / den and D > 0 least:
    rows of ints, Fractions or 'num/den' strings, den a nonzero int.

    Rationals cleared by the lcm of their denominators have the least D: a
    prime power exactly dividing the lcm exactly divides some entry's
    denominator, and that entry's numerator is prime to it.  So only a den
    other than 1 costs a gcd over the entries.
    """
    rows = tuple(map(tuple, rows))
    given = den
    if not all(type(x) is int for row in rows for x in row):
        rows = tuple(tuple(x if type(x) is int else rat(x) for x in row) for row in rows)
        mult = lcm(*(x.denominator for row in rows for x in row))
        rows = tuple(tuple(x.numerator * (mult // x.denominator) for x in row) for row in rows)
        den *= mult
    if given != 1:
        g = gcd(den, *(x for row in rows for x in row))
        g = -g if den < 0 else g
        if g != 1:
            den //= g
            rows = tuple(tuple(x // g for x in row) for row in rows)
    return den, rows


def primitive_ints(ints):
    """An integer vector over its gcd, first nonzero entry positive.

    Returns a tuple of ints; the zero vector maps to itself.
    """
    g = gcd(*ints)
    if not g:
        return tuple(ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


class QMatrix:
    """Immutable rational matrix: integer rows `ints` over one positive
    denominator `den`, the least one (`cleared_rows`), so two matrices are
    equal iff their pairs are.

    The reduced row echelon form is computed on first use and cached in
    `_rref`; rank, row space and kernel are read off it.
    """

    __slots__ = ("den", "ints", "_rref")

    def __init__(self, rows, den=1):
        """The matrix rows / den (rows and den as in `cleared_rows`)."""
        self.den, self.ints = cleared_rows(rows, den)
        if any(len(row) != len(self.ints[0]) for row in self.ints):
            raise ValueError("ragged rows")
        self._rref = None

    @property
    def rows(self):
        """The entries as Fractions."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.ints)

    @property
    def nrows(self):
        return len(self.ints)

    @property
    def ncols(self):
        return len(self.ints[0]) if self.ints else 0

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, self.ints))

    def __repr__(self):
        return "QMatrix[%s]" % "; ".join(" ".join(row) for row in self.to_json())

    def to_json(self):
        return [[rat_str(x, self.den) for x in row] for row in self.ints]

    def scale_columns(self, scalars, den=1):
        """Column j times scalars[j] / den (as in `cleared_rows`)."""
        if len(scalars) != self.ncols:
            raise ValueError("column count mismatch")
        sden, (ints,) = cleared_rows((scalars,), den)
        return QMatrix(tuple(tuple(map(mul, row, ints)) for row in self.ints), self.den * sden)

    def submatrix_columns(self, cols):
        return QMatrix(tuple(tuple(row[c] for c in cols) for row in self.ints), self.den)

    def rref(self):
        """Reduced row echelon form, rank and pivot columns, computed once.

        Row i of the reduced form R has a 1 at pivot p_i, zeros at the other
        pivots, and -v_f[p_i] at free column f, where v_f is the kernel
        vector of free column f with a 1 at f; rows past the rank are zero.
        `_back_substitute` solves d v_f[p_i] for every f, so R is the
        integer rows with d at p_i and minus those solutions at the free
        columns, over d (reduced to the least positive denominator by the
        constructor).
        """
        if self._rref is not None:
            return self._rref
        nc = self.ncols
        echelon, pivots, _ = _bareiss_echelon(self.ints)
        d, free, solutions = _back_substitute(echelon, pivots, nc)
        rows = [[0] * nc for _ in range(self.nrows)]
        for row, p, x in zip(rows, pivots, solutions):
            row[p] = d
            for f, v in zip(free, x):
                row[f] = -v
        reduced = QMatrix(rows, d)
        reduced._rref = self._rref = (reduced, len(pivots), tuple(pivots))
        return self._rref

    def nullspace(self):
        """Basis of the right kernel as the rows of a matrix, one per free
        column, over the RREF's denominator D.

        The row of free column f has a 1 at f, zeros at the other free
        columns and -R[i][f] at pivot p_i: in integers, D at f and
        -(D R)[i][f] at p_i.
        """
        reduced, rank, pivots = self.rref()
        basis = []
        for f in range(self.ncols):
            if f not in pivots:
                vec = [0] * self.ncols
                vec[f] = reduced.den
                for c, row in zip(pivots, reduced.ints):
                    vec[c] = -row[f]
                basis.append(vec)
        return QMatrix(basis, reduced.den)

    def det(self):
        """Determinant: `integer_det` of the integer rows over den^n."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return Fraction(integer_det(self.ints), self.den ** self.nrows)


def integer_rank(rows):
    """Rank of an integer matrix: the pivot count of one Bareiss pass."""
    return len(_bareiss_echelon(rows)[1])


def integer_det(rows):
    """Determinant of a square integer matrix: the last Bareiss pivot, signed."""
    echelon, pivots, sign = _bareiss_echelon(rows)
    if len(pivots) < len(rows):
        return 0
    return sign * echelon[-1][-1] if echelon else 1


def integer_maximal_minors(rows):
    """All maximal minors of a k x N integer matrix, k <= N, keyed by
    sorted column k-subsets in lex order.

    Laplace expansion row by row: the minor of the first j + 1 rows on a
    column (j+1)-subset S is sum_t (-1)^(j+t) a[j][S_t] times the minor of
    the first j rows on S without S_t.  It makes sum_{j=2..k} j binom(N, j)
    products for the binom(N, k) maximal minors, and the route is chosen
    from (k, N) before any work: Laplace when that is at most k^2 products
    per maximal minor, else one `integer_det` per minor, a Bareiss pass of
    about k^3 / 3 updates of two products and an exact division each.
    Laplace takes every matrix of at most 3 rows and every one with
    2k <= N (there binom(N, j) <= binom(N, k) for j <= k); past N / 2 its
    partial minors can outnumber the maximal ones exponentially (2^N - 1
    against 1 for a square matrix), and for k >= 4 the square and nearly
    square shapes go to Bareiss.  On random 7-bit entries (2-vCPU Xeon VM),
    of the shapes up to k = 7, N = 11: Laplace ran 1.2-12 times faster than
    per-minor Bareiss on every shape the rule gives it, and 1.2-6 times
    slower on those it does not, but for (k, N) = (5, 6), 1.15 times faster,
    and (7, 9), even.
    """
    k, nc = len(rows), len(rows[0])
    if sum(j * comb(nc, j) for j in range(2, k + 1)) > k * k * comb(nc, k):
        return {cols: integer_det([[row[c] for c in cols] for row in rows])
                for cols in combinations(range(nc), k)}
    return _laplace_minors(rows)


def _laplace_minors(rows):
    """The maximal minors of `integer_maximal_minors` by Laplace expansion
    row by row, whatever the shape."""
    nc = len(rows[0])
    minors = {(c,): x for c, x in enumerate(rows[0])}
    for j in range(1, len(rows)):
        row, below = rows[j], minors
        minors = {}
        for cols in combinations(range(nc), j + 1):
            total, sign = 0, -1 if j % 2 else 1
            for t, c in enumerate(cols):
                if row[c]:
                    total += sign * row[c] * below[cols[:t] + cols[t + 1:]]
                sign = -sign
            minors[cols] = total
    return minors


def _bareiss_echelon(rows):
    """Fraction-free row echelon form of an integer matrix (Bareiss 1968).

    Returns (echelon rows, pivot columns, sign of the row swaps).  The pivot
    of each column is its first nonzero entry at or below the current row.
    After k pivots every entry below them is a (k+1)-minor of the row-swapped
    input, so the division by the previous pivot is exact and entries stay
    at minor size; in particular the last pivot of a nonsingular square
    matrix is its determinant times the sign.
    """
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    sign = 1
    prev = 1
    pr = 0
    for c in range(nc):
        pivot = next((r for r in range(pr, nr) if rows[r][c]), None)
        if pivot is None:
            continue
        if pivot != pr:
            rows[pr], rows[pivot] = rows[pivot], rows[pr]
            sign = -sign
        top = rows[pr]
        pv = top[c]
        for r in range(pr + 1, nr):
            f = rows[r][c]
            row = rows[r]
            for j in range(c, nc):
                row[j] = (pv * row[j] - f * top[j]) // prev
        prev = pv
        pivots.append(c)
        pr += 1
        if pr == nr:
            break
    return rows[:pr], pivots, sign


def _back_substitute(echelon, pivots, nc):
    """Free-column back-substitution on a Bareiss echelon form.

    Returns (d, free columns, solutions), d the last pivot.  The integer
    vector x_f with x_f[f] = d, zero at the other free columns and echelon
    @ x_f = 0 is d times the kernel vector of free column f; solutions[i]
    lists x_f[p_i] for every f, row i solved from the later ones: rank^2
    products per free column (x_f is zero at the pivots after f).  By
    Cramer's rule x_f is integral (d is the pivot minor), so every
    division below is exact.
    """
    pivot_set = set(pivots)
    free = [c for c in range(nc) if c not in pivot_set]
    d = echelon[-1][pivots[-1]] if pivots else 1
    solutions = [None] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        row = echelon[i]
        acc = [d * row[f] for f in free]
        for j in range(i + 1, len(pivots)):
            h = row[pivots[j]]
            if h:
                acc = [a + h * x for a, x in zip(acc, solutions[j])]
        h = row[pivots[i]]
        solutions[i] = [-a // h for a in acc]
    return d, free, solutions


def bareiss_kernel_basis(rows):
    """Kernel basis of an integer matrix from one Bareiss echelon form: for
    each free column, the primitive integer vector positive there and zero
    at the other free columns (the back-substituted solution over its gcd)."""
    if not rows:
        return []
    echelon, pivots, _ = _bareiss_echelon(rows)
    d, free, solutions = _back_substitute(echelon, pivots, len(rows[0]))
    basis = []
    for j, f in enumerate(free):
        x = [solved[j] for solved in solutions]
        g = gcd(d, *x) if d > 0 else -gcd(d, *x)
        vec = [0] * len(rows[0])
        vec[f] = d // g
        for p, v in zip(pivots, x):
            vec[p] = v // g
        basis.append(tuple(vec))
    return basis


#: The first prime of the p-adic kernel: 2^27 - 39, the largest prime below
#: 2^27.  A residue is one CPython digit (30 bits), a slot of `_factor_mod_p`
#: is one 64-bit word up to 511 columns, and 2^27 = 39 mod p lets it reduce
#: packed rows by a shift, a mask and a small multiply.
KERNEL_PRIME = (1 << 27) - 39

#: Units that the work sharing a `lift_budget` cell may spend: an interp
#: request's builds, kernels and exact checks, over all the degrees of a
#: `dmax` search.  Units, then 10^-10 seconds per unit, in process on a
#: 2-vCPU Xeon VM, budget lifted, each scaled to the rate of a reference
#: kernel run next to it as the VM's speed drifted (interp at dmax 3 or
#: degree d; digits in brackets; * refused):
#:   squared plane in P^5 [30] 2.2e9, 1.2; [100] 1.2e10, 1.3; [150] 2.0e10, 1.1
#:   reciprocal plane in P^3 [1000] 9.5e9, 0.91; line in P^6 [300], d 2, 1.1e10, 1.1
#:   d 2*: reciprocal line in P^3 [3000] 3.1e10, 1.3; squared [1000] 3.0e10, 1.0
#:   d 3: squared line in P^7 [80] 7.4e9, 1.4; [150] 2.0e10, 1.6; line times line
#:   in P^7 [40] 1.1e10, 1.3; squared line in P^8 [150]* 2.6e10, 1.5
#:   squared plane in P^5 [3] times 200 kernel primes (a pass each) 7.4e10, 0.93
#:   d 2, builds of a reciprocal plane times a line: in P^13 [23] 2.9e9, 0.98;
#:   in P^21 [15] (2,838 x 253) 1.9e10, 1.3; checks of the same in P^21 with
#:   4 distinct columns (243 forms, each checked on 2,778 rows): [1]* 8.6e10,
#:   1.1; [23]* 1.4e11, 1.2 (its build alone, 3.4e10, is refused unbuilt)
#: So the budget is 2.0-3.5 s of work, within criterion 1's 5 s.
LIFT_BUDGET = 22 * 10 ** 9

#: Units of a lifting step beyond its product's k^2 b, (per entry of the k x
#: k block, per pivot): the interpreter's cost, fitted to steps of 5-31
#: pivots row by row (0.13, 1.3 us) and 32-200 packed (0.02, 2.2 us).
ROW_STEP = (1300, 13000)
PACKED_STEP = (200, 22000)

#: Fewest pivots of a factored block whose lifting steps run as packed
#: column sweeps (`_packed_sweeps`).  Below it the sweeps' set-up costs more
#: than they save: packed, the 19-21 pivot blocks of a reciprocal plane in
#: P^3 at degree 3 took 27% longer, and they run row by row.
PACKED_PIVOTS = 32


def _pack(values, words):
    """Ints in [0, 2^64) as one int of `words`-word slots, first lowest.

    `array("Q")` holds words in the host's byte order, so a big-endian host
    swaps them to little-endian first (and `_unpack` swaps them back).  Only
    such a host runs the swap: test runs on x86 cannot reach it.
    """
    slots = array("Q", bytes(8 * words * len(values)))
    slots[::words] = array("Q", values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(packed, words, count):
    """The low words of the first `count` slots of a `_pack`ed int (the
    inverse of `_pack` for slots below 2^64)."""
    slots = array("Q", packed.to_bytes(8 * words * count, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots[::words]


def _fold_rounds(p, bound):
    """The rounds of `_folder` that take every slot below `bound` below 2p:
    a round takes a slot below V below e floor((V - 1) / 2^s) + 2^s."""
    s = p.bit_length()
    e = (1 << s) - p
    rounds = 0
    while bound > 2 * p:
        bound = e * ((bound - 1) >> s) + (1 << s)
        rounds += 1
    return rounds


def _folder(p, words, count, bound):
    """fold(v) for an int of `count` slots of `words` words, each below
    `bound`, and p = 2^s - e: each slot hi 2^s + lo becomes the congruent
    e hi + lo, for `_fold_rounds` rounds, which leave it below 2p: the
    special-form reduction of Crandall & Pomerance, Prime Numbers, 9.2.3,
    slot by slot (the bounds are in `_factor_mod_p`)."""
    s = p.bit_length()
    e = (1 << s) - p
    lo = int.from_bytes(((1 << s) - 1).to_bytes(8 * words, "little") * count, "little")
    hi = int.from_bytes(((1 << 64 * words - s) - 1).to_bytes(8 * words, "little") * count, "little")
    rounds = range(_fold_rounds(p, bound))

    def fold(v):
        for _ in rounds:
            v = ((v >> s) & hi) * e + (v & lo)
        return v

    return fold


def _factor_mod_p(rows, nc, p):
    """Pivot columns P, pivot rows R and the LU factors of A[R, P] mod p:
    lower[i] holds L[i][j] for j < i (the multipliers f) and the inverse of
    the pivot L[i][i], upper[i] holds U[i][j] for j > i (U unit upper
    triangular), as residues.  The pivot is the first row nonzero mod p.

    p = 2^s - e is a prime of `_kernel_primes` (s = 27, 3e <= 2^s).  Each
    row is one int of W-bit slots (`_pack`), slot 0 at the current column,
    dropped at each column (row >> W).  A row update is one multiply-add,
    row + (p - f) * top = row - f * top mod p, with no reduction; only the
    pivot row is reduced, packed: its columns after the pivot become top =
    fold(fold(row >> W) * inv), where fold (`_folder`) repeats rounds that
    replace each slot hi 2^s + lo by the congruent e hi + lo.

    No slot ever carries.  A row gets at most u = min(nrows - 1, ncols)
    updates (each pivot is another row and column), each adding (p - f) t
    < 2p^2 < 2^(2s+1) for a top slot t < 2p, so a slot stays below V =
    2^(2s+1+b), b = bit_length(u), which W holds (one word for u <= 511).
    In a round, e hi + lo < e 2^(W-s) + 2^s <= 2^W keeps slots apart, and
    a slot below V ends below V' = e h + 2^s, h = floor((V - 1) / 2^s);
    `_fold_rounds` counts rounds until V <= 2p.  They end: while V > 2p,
    h >= 1; h = 1 gives V' = e + 2^s <= 2p (3e <= 2^s), and h >= 2 gives
    V' < h 2^s < V (2^s < h (2^s - e)).  A round divides V by about 2^s /
    e, over 2^21 for KERNEL_PRIME: two rounds for b <= 15, three for b <=
    37.  A folded row is below 2p, times inv below 2p^2 < V, and folded
    again below 2p (V' grows with V, so the same rounds hold); upper reads
    each top slot's low word (2p < 2^64), less p where needed.
    """
    bound = 1 << 2 * p.bit_length() + 1 + min(len(rows) - 1, nc).bit_length()
    words = (bound.bit_length() - 1 + 63) // 64
    width, mask = 64 * words, (1 << 64 * words) - 1
    fold = _folder(p, words, nc, bound)
    work = [_pack([x % p for x in row], words) for row in rows]
    order = list(range(len(work)))
    mults = [[] for _ in work]
    pivots, lower, upper = [], [], []
    r = 0
    for c in range(nc):
        k = next((i for i in range(r, len(work)) if (work[i] & mask) % p), None)
        if k is None:
            work[r:] = [row >> width for row in work[r:]]
            continue
        for a in (work, order, mults):
            a[r], a[k] = a[k], a[r]
        inv = pow((work[r] & mask) % p, -1, p)
        top = fold(fold(work[r] >> width) * inv)
        lower.append(mults[r] + [inv])
        upper.append([u - p if u >= p else u for u in _unpack(top, words, nc - c - 1)])
        for i in range(r + 1, len(work)):
            f = (work[i] & mask) % p
            mults[i].append(f)
            work[i] = (work[i] >> width) + (p - f) * top
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    upper = [[u[j - c - 1] for j in pivots[i + 1:]] for i, (c, u) in enumerate(zip(pivots, upper))]
    return pivots, order[:r], lower, upper


def _rational_reconstruct(u, m):
    """The fraction a/b = u mod m with |a|, b <= sqrt(m/2), as (a, b > 0),
    or None.

    Extended Euclid on (m, u) stopped at the first remainder within the
    bound; such a fraction is unique when it exists.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(f, pivots, y, m, nc, scale=1, charge=None):
    """(vec, runs): the primitive kernel vector of free column f whose
    pivot entries, times `scale`, are the fractions a/b reconstructed from
    y mod m (None while one is not), and the number of Euclid runs taken,
    each charged L^2 / 2 units for m of L bits before it runs (`charge`).
    The entries are kept over den, the lcm of the b's so far (f holds den
    scale).  An entry u with u den = w mod m, |w| <= N = sqrt(m/2), needs
    no Euclid when den / gcd(w, den) <= N: w / den in lowest terms is then
    the unique fraction within the bound that is u mod m (den is prime to
    m, as every b is).  The others run `_rational_reconstruct` and grow
    den; most vectors have one denominator, so one Euclid run.
    """
    bound = isqrt(m // 2)
    den, nums, runs = 1, [], 0
    for u in y:
        w = u * den % m
        if w > bound:
            w -= m
        if -bound <= w and (den <= bound or den // gcd(w, den) <= bound):
            nums.append(w)
            continue
        if charge:
            charge(m.bit_length() ** 2 // 2)
        q = _rational_reconstruct(u, m)
        runs += 1
        if q is None:
            return None, runs
        a, b = q
        grow = b // gcd(den, b)
        if grow != 1:
            nums = [v * grow for v in nums]
            den *= grow
        nums.append(a * (den // b))
    vec = [0] * nc
    vec[f] = den * scale
    for c, v in zip(pivots, nums):
        vec[c] = v
    return _primitive(vec), runs


def _integral(f, pivots, y, m, nc, scale):
    """The primitive kernel vector of free column f whose pivot entries,
    times `scale`, are the symmetric residues of y mod m; None while one is
    not below m / 2^32 (an unconverged one passes with probability 2^-31)."""
    cap, half = m >> 32, m >> 1
    vec = [0] * nc
    vec[f] = scale
    for c, u in zip(pivots, y):
        w = u - m if u > half else u
        if not -cap < w < cap:
            return None
        vec[c] = w
    return _primitive(vec)


def _primitive(vec):
    g = gcd(*vec)
    return tuple(v // g for v in vec)


def _annihilates(rows, vec):
    """Whether rows @ vec == 0 for an integer vector, on its support."""
    values = [v for v in vec if v]
    return all(sum(map(mul, compress(row, vec), values)) == 0 for row in rows)


class _PaidRows:
    """Rows for `_annihilates` that are paid for before it reads them,
    `each` units a row taken by `pay`: the first row when they are made,
    so a check that cannot pay for a row is not started, then chunks of 2,
    4, 8, ... rows as it reads on.  So a check is charged for the rows it
    reads, and one that stops at a failing row (a wrong factorization's
    vector, at the first row past the block as a rule) for at most twice
    as many."""

    def __init__(self, rows, pay, each):
        pay(min(len(rows), 1) * each)
        self.rows, self.pay, self.each = rows, pay, each

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        yield from self.rows[:1]
        done = 1
        while done < len(self.rows):
            chunk = self.rows[done:2 * done + 1]
            self.pay(len(chunk) * self.each)
            yield from chunk
            done += len(chunk)


def _row_check_charge(nc, support, bits, vec):
    """Units of `_annihilates` on a row of `nc` entries below 2^bits and a
    vector of at most `support` nonzero entries of b bits at most: 400 +
    bits / 50 per entry read (the entries of an interp matrix's row, built
    column by column, lie far apart in memory), and 2000 + max(bits, b)
    sqrt(min(bits, b)) / 2 per product, Karatsuba's cost with its exponent
    rounded to 1.5."""
    b = max(map(abs, vec)).bit_length()
    return nc * (400 + bits // 50) + support * (2000 + max(bits, b) * isqrt(min(bits, b)) // 2)


def _residual(b, products, p):
    """Dixon's next right side (b_i - B x_i) / p, exact, from B x_i."""
    return [(bi - v) // p for bi, v in zip(b, products)]


def _row_sweeps(rows, pivots, prows, lower, upper, p):
    """(solve, times) for the block B = A[R, P] of a factorization mod p,
    row by row.  solve(b) is x = B_k^-1 b mod p for the leading k x k block
    B_k, k = len(b): a forward substitution with L, then a back
    substitution with U.  times(x) is B_k x, exact."""
    square = [[rows[i][c] for c in pivots] for i in prows]

    def solve(b):
        x = []
        for l, bi in zip(lower, b):
            x.append((bi % p - sum(map(mul, l, x))) * l[-1] % p)
        for i in range(len(x) - 1, -1, -1):
            x[i] = (x[i] - sum(map(mul, upper[i], x[i + 1:]))) % p
        return x

    def times(x):
        return [sum(map(mul, row, x)) for row in square[:len(x)]]

    return solve, times


def _packed_sweeps(rows, pivots, prows, lower, upper, p):
    """(solve, times) as in `_row_sweeps`, each a sweep over packed
    columns, for a block of K <= 511 pivots; None when an entry of B is
    outside the signed 64-bit range.

    Each column of L below the diagonal and of U above it is one int of
    one-word slots, and each column of B one int of two-word slots, cut
    once per kernel from C-level transposes (`struct`).  solve(b) keeps one
    int acc of one-word slots, from b mod p, slot i at row i: at column j,
    slot 0 is row j, z_j = slot 0 times the inverse pivot, acc >>= 64, and
    acc += (p - z_j) L_col_j subtracts z_j times the column from every
    later row.  The back sweep does the same with U from the bottom (acc
    holds z reversed, and U's columns are stored reversed).  A slot gets at
    most K updates below p^2, so it stays below p + K p^2 < 2^64 for K <=
    511.  times(x) is sum x_j B_col_j over two-word slots, each entry
    written as a signed word and XORed with bit 63 of its slot, which adds
    2^63: slot t is (B x)_t + 2^63 sum x, below K 2^64 p < 2^128, and one
    `to_bytes` reads every slot back, the bias subtracted.
    """
    count = len(pivots)
    bias = int.from_bytes((1 << 63).to_bytes(16, "little") * count, "little")
    signed = struct.Struct("<" + "q8x" * count)
    columns = list(zip(*itemgetter(*prows)(rows)))
    try:
        bcols = [int.from_bytes(signed.pack(*columns[c]), "little") ^ bias for c in pivots]
    except struct.error:
        return None
    words = struct.Struct("<%dQ" % count)
    # Column j of L, then of the row-reversed U, holds zeros and the
    # diagonal in its first j + 1 words (zip_longest pads the short rows).
    lcols = [int.from_bytes(words.pack(*col)[8 * j + 8:], "little")
             for j, col in enumerate(zip_longest(*lower, fillvalue=0))]
    ucols = [int.from_bytes(words.pack(*col)[8 * j + 8:], "little")
             for j, col in enumerate(zip_longest(*[u[::-1] for u in reversed(upper)], fillvalue=0))]
    ucols = [0] + ucols[::-1]
    inverses = [l[-1] for l in lower]
    pairs = struct.Struct("<%dQ" % (2 * count))
    mask = (1 << 64) - 1

    def pack(values):
        return int.from_bytes(struct.pack("<%dQ" % len(values), *values), "little")

    def solve(b):
        acc = pack([v % p for v in b])
        z = []
        for inv, col in zip(inverses[:len(b)], lcols):
            zj = (acc & mask) * inv % p
            z.append(zj)
            acc = (acc >> 64) + (p - zj) * col
        acc = pack(z[::-1])
        for j in range(len(z) - 1, -1, -1):
            z[j] = xj = (acc & mask) % p
            acc = (acc >> 64) + (p - xj) * ucols[j]
        return z

    def times(x):
        slots = pairs.unpack(sum(map(mul, x, bcols)).to_bytes(16 * count, "little"))
        offset = sum(x) << 63
        return [lo + (hi << 64) - offset for lo, hi in zip(slots[:2 * len(x):2], slots[1::2])]

    return solve, times


def _uncertified(rows, block_rows, norms, vec, m):
    """The block rows of A that still need the exact check for a vector
    lifted to m: all but those r with ||A_r||_1 ||vec||_inf < m, which the
    congruence of `_dixon_kernel` proves zero."""
    top = max(map(abs, vec))
    return [rows[i] for i, norm in zip(block_rows, norms) if norm * top >= m]


def _kernel_primes():
    """KERNEL_PRIME, then every prime 2^27 - e below it with 3e <= 2^27
    (`_factor_mod_p`'s fold), descending: about 2.4 million, by
    Miller-Rabin to bases 2, 3, 5 and 7, which decides every n below
    3,215,031,751 (Pomerance, Selfridge & Wagstaff 1980)."""
    yield KERNEL_PRIME
    top = 1 << 27
    for n in range(KERNEL_PRIME - 2, top - top // 3, -2):
        s = (n - 1 & 1 - n).bit_length() - 1  # n - 1 = d 2^s, d odd
        d = n - 1 >> s
        if all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
               for a in (2, 3, 5, 7)):
            yield n


def _dixon_kernel(rows, height, nc, p, budget, charge, most=None):
    """The kernel basis lifted from one factorization mod p of the first
    `height` rows, checked on all rows, or None when a check proves the
    factorization wrong; its work, `charge` first, comes from `budget`,
    each step's before it runs (`spend`).  False, with nothing lifted, when
    `most` is given and the factorization has more than `most` free
    columns.  A factorization with no free column gives [] before any
    sweep is built.

    For free column f with k pivots before it, y solves B y = -a, a =
    A[R_<k, f], B = A[R_<k, P_<k].  Dixon's expansion y = sum x_i p^i takes
    a solve x_i = B^-1 b_i mod p per step and the exact residual b_(i+1) =
    (b_i - B x_i) / p, packed (`_packed_sweeps`) for PACKED_PIVOTS to 511
    pivots whose B fits 64-bit words, else row by row (`_row_sweeps`), at
    k^2 b units (b the bits of the largest row norm ||A_r||_1 of the pivot
    rows) plus ROW_STEP or PACKED_STEP.  Reconstruction is tried at each of
    the first 8 steps, then a third past the last try (11, 15, 20, ...), so
    a vector lifts at most about a third too long, and its tries (L^2 / 2
    units per Euclid run for m of L bits) cost about 4 times the last.
    Each row of an exact check is charged `_row_check_charge` before it is
    read (`_PaidRows`), the pivot rows' b bits standing for every row's.

    A later vector of a block lifts D y (b_0 = -D a), D the lcm of the
    block's denominators so far.  Where D y is integral, its symmetric
    residues mod m are it once m > 2 |D y|, about half the steps that
    reconstruction needs, with no Euclid (`_integral`); where it is not,
    reconstruction takes over from the block's last try, and D grows.

    The pivot rows are certified by congruence: B y = b_0 - m b_s = -D a
    (mod m = p^s), and the vector v found is den y (mod m) at P_<k and den
    D at f, so (A v)_r = den ((B y)_r + D a_r) = 0 (mod m) for r in R_<k,
    also after dividing v by the gcd of its entries (a divisor of den D,
    prime to p).  Where ||A_r||_1 ||v||_inf < m, (A v)_r = 0 exactly and
    `_annihilates` skips the row.
    """
    pay = partial(spend, budget, "the p-adic kernel of a %d x %d matrix" % (len(rows), nc))
    pay(charge)
    pivots, prows, lower, upper = factors = _factor_mod_p(rows[:height], nc, p)
    free = sorted(set(range(nc)).difference(pivots))
    if most is not None and len(free) > most:
        return False
    if not free:
        return []
    sweeps = PACKED_PIVOTS <= len(pivots) <= 511 and _packed_sweeps(rows, *factors, p)
    solve, times = sweeps or _row_sweeps(rows, *factors, p)
    per_entry, per_pivot = PACKED_STEP if sweeps else ROW_STEP
    norms = [sum(map(abs, rows[i])) for i in prows]
    bits = max(norms, default=0).bit_length()
    vectors, converged = [], {}
    for f in free:
        k = bisect_left(pivots, f)
        block = prows[:k]
        start, scale = converged.get(k, (1, 1))
        b = [-scale * rows[i][f] for i in block]
        y, m, attempt = [0] * k, 1, start
        for step in count(1):
            pay(k * (k * (bits + per_entry) + per_pivot))
            if step > 1:
                b = _residual(b, times(x), p)
            x = solve(b)
            y = [u + m * v for u, v in zip(y, x)]
            m *= p
            vec = _integral(f, pivots, y, m, nc, scale) if scale > 1 else None
            if vec is None and step >= attempt:
                attempt = step + 1 if step < 8 else -(-4 * step // 3)
                vec, _ = _lift(f, pivots, y, m, nc, scale, pay)
                start = step
            if vec is not None:
                each = _row_check_charge(nc, k + 1, bits, vec)
                if _annihilates(_PaidRows(_uncertified(rows, block, norms, vec, m), pay, each), vec):
                    converged[k] = start, lcm(scale, vec[f])
                    break
        block = set(block)
        others = [row for i, row in enumerate(rows) if i not in block]
        if not _annihilates(_PaidRows(others, pay, each), vec):
            return None
        vectors.append(vec)
    return vectors


def lift_budget():
    """[LIFT_BUDGET]: the units left to the work that shares it."""
    return [LIFT_BUDGET]


def spend(budget, work, units):
    """Take `units` from a `lift_budget` cell before the step they price,
    and raise BudgetExhausted, naming `work`, when that overdraws it."""
    budget[0] -= units
    if budget[0] < 0:
        raise BudgetExhausted("%s is past the lift budget of %d" % (work, LIFT_BUDGET))


def integer_kernel_basis(rows, budget=None, most=None):
    """Kernel basis of an integer matrix, the one `bareiss_kernel_basis`
    gives, by the p-adic path of the module docstring: the square block of
    a tall matrix, then the whole matrix on each prime of `_kernel_primes`,
    until a factorization is not proved wrong.  The work is taken from
    `budget`, a `lift_budget` cell that calls may share (a new one when
    None).  A matrix that many kernel primes divide makes a pass per prime,
    so each pass after the first is charged for reducing its entries mod
    p, 3 (b + 64) units each for the largest entry's b bits; the first
    pass's reduction is the builder's to charge, with building the matrix
    (`products.interpolate_forms`), to the same cell.

    With `most`, None when the first factorization has more than `most`
    free columns: nothing is lifted and nothing is spent.  Otherwise
    dim ker_Q(A) <= `most`, as that count bounds it (module docstring), and
    the kernel goes on exactly as without `most`."""
    if not rows:
        return []
    nc = len(rows[0])
    budget = lift_budget() if budget is None else budget
    heights = [nc, len(rows)] if len(rows) > nc else [len(rows)]
    row_charge = 0
    for p in _kernel_primes():
        for height in heights:
            vectors = _dixon_kernel(rows, height, nc, p, budget, height * row_charge, most)
            if vectors is False:
                return None
            if vectors is not None:
                return vectors
            most = None
            if not row_charge:
                row_charge = 3 * nc * (max(map(abs, chain.from_iterable(rows))).bit_length() + 64)
        heights = [len(rows)]
    raise BudgetExhausted("every kernel prime divides a pivot minor of the matrix")


def smith_normal_form(rows):
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(nrows, ncols) nonnegative integers d_1 | d_2 | ... with
    trailing zeros for rank deficiency.  The product of the nonzero d_i is
    the index of the row lattice inside its saturation.

    No run-time path calls it: it is the tests' oracle for
    `tropical.lattice_index`, kept here while `perfbench/tracer.py` still
    lists it as the `linalg.snf` layer.
    """
    a = [[int(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    m = min(nr, nc)
    diag = []
    t = 0
    while t < m:
        piv = next(((i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]), None)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # Euclidean clearing of column t; swapping keeps shrinking the pivot.
            for i in range(t + 1, nr):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
            for j in range(t + 1, nc):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
            if all(a[i][t] == 0 for i in range(t + 1, nr)):
                break
        # Divisibility chain: fold in an offending row and redo this step.
        bad = next((i for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % a[t][t]), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        diag.append(abs(a[t][t]))
        t += 1
    while len(diag) < m:
        diag.append(0)
    return diag
