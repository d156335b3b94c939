"""Exact linear algebra over the rationals and the integers.

Everything here is immutable and pure: matrices are tuples of tuples of
`fractions.Fraction`, operations return new values, and there is no float
anywhere.  "Equals zero" is therefore decidable, which the rest of the
package relies on.

Two exact paths: Bareiss elimination computes RREFs, determinants and
kernels, and a multi-modular solve computes the integer kernels of the
interpolation oracle.

Bareiss (`QMatrix.rref`, `det`, `nullspace`, and the fallback of
`integer_kernel_basis`).  Rows are first cleared to integers, which keeps
the row space and the kernel.  A forward Bareiss pass with exact division
(`_bareiss_echelon`) gives an integer echelon form whose entries are minors
of the input, the sign of its row swaps, and the pivot columns (each the
first nonzero entry at or below the current row).  A free-column
back-substitution (`_back_substitute`) then solves for one kernel vector
per free column.  This path serves the many small rational matrices of
spans, Pluecker coordinates and tangent spaces.

Multi-modular (`integer_kernel_basis`, the interpolation oracle's kernel).
The integer matrix is reduced to RREF modulo each prime of KERNEL_PRIMES in
turn; primes that agree on the pivot columns are combined by the Chinese
remainder theorem, the kernel entries are rationally reconstructed (Wang,
Guy & Davenport 1982), and the lifted vectors are checked exactly, A x = 0
in integers, before anything is returned.  Its cost follows the size of
the kernel entries, not of the minors Bareiss carries.  The check is a
certificate:

- rank mod p <= rank over Q (every minor that vanishes over Q vanishes
  mod p), so dim ker_p >= dim ker_Q;
- the lifted vectors are independent, because each has a 1 at its own
  free column and zeros at the other free columns;
- so dim ker_p exactly verified vectors prove dim ker_Q = dim ker_p, and
  they are a basis of ker_Q;
- the vector of free column f is zero past column f, so column f is a
  combination of earlier columns and is not a pivot over Q.  The free sets
  mod p and over Q therefore coincide, and the basis is the unique one
  with a 1 at its free column and zeros at the others: the one the
  Bareiss path returns.

A prime whose pivots differ from the rational ones (an unlucky prime) can
never pass the check.  When every listed prime fails, `integer_kernel_basis`
falls back to the Bareiss path, so what it returns is always exact.

The RREF, the kernel basis normalised to the free columns and the
determinant are unique, so the results do not depend on the path.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm


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


def rat_str(q: Fraction) -> str:
    """Canonical 'num/den' string; the '/1' is omitted for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def clear_denominators(vec):
    """Scale a rational vector to coprime integers, first nonzero positive.

    Returns a tuple of ints; the zero vector maps to itself.
    """
    vec = [Fraction(x) for x in vec]
    mult = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * mult) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
        for v in ints:
            if v:
                if v < 0:
                    ints = [-w for w in ints]
                break
    return tuple(ints)


class QMatrix:
    """Immutable matrix over Fraction entries.

    The reduced row echelon form is computed on first use and cached in
    `_rref`; rank, row space and kernel are read off it.
    """

    __slots__ = ("rows", "_rref")

    def __init__(self, rows):
        self.rows = tuple(tuple(rat(x) for x in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            for row in self.rows:
                if len(row) != width:
                    raise ValueError("ragged rows")
        self._rref = None

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.rows)
        return "QMatrix[%s]" % body

    def stack(self, other):
        if other.nrows and self.nrows and other.ncols != self.ncols:
            raise ValueError("column count mismatch")
        return QMatrix(self.rows + other.rows)

    def scale_columns(self, scalars):
        if len(scalars) != self.ncols:
            raise ValueError("column count mismatch")
        scalars = [rat(s) for s in scalars]
        return QMatrix(tuple(tuple(x * s for x, s in zip(row, scalars)) for row in self.rows))

    def submatrix_columns(self, cols):
        return QMatrix(tuple(tuple(row[c] for c in cols) for row in self.rows))

    def rref(self):
        """Reduced row echelon form, rank and pivot columns, computed once.

        Row i of the reduced form has a 1 at pivot p_i, zeros at the other
        pivots, and -v_f[p_i] at free column f, where v_f is the kernel
        vector of free column f.  Rows past the rank are zero.
        """
        if self._rref is not None:
            return self._rref
        nc = self.ncols
        echelon, pivots, _ = _bareiss_echelon(_integer_rows(self.rows)[0])
        d, free, solutions = _back_substitute(echelon, pivots, nc)
        rows = []
        for p in pivots:
            row = [Fraction(0)] * nc
            row[p] = Fraction(1)
            for f, x in zip(free, solutions):
                row[f] = Fraction(-x[p], d)
            rows.append(row)
        rows.extend([Fraction(0)] * nc for _ in range(self.nrows - len(pivots)))
        reduced = QMatrix(rows)
        reduced._rref = self._rref = (reduced, len(pivots), tuple(pivots))
        return self._rref

    def rank(self):
        return self.rref()[1]

    def row_space_matrix(self):
        """RREF with zero rows dropped: a canonical basis of the row space.

        The basis is its own RREF, so it comes with its reduction cached.
        """
        reduced, rank, pivots = self.rref()
        basis = QMatrix(reduced.rows[:rank])
        basis._rref = (basis, rank, pivots)
        return basis

    def nullspace(self):
        """Basis of the right kernel, one vector per free column.

        The basis vector for free column f has a 1 in position f and zeros
        in every other free position.
        """
        reduced, rank, pivots = self.rref()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for f in free:
            vec = [Fraction(0)] * nc
            vec[f] = Fraction(1)
            for r, c in enumerate(pivots):
                vec[c] = -reduced.rows[r][f]
            basis.append(tuple(vec))
        return basis

    def det(self):
        """Determinant: the last Bareiss pivot, signed, over the row scale."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        ints, scale = _integer_rows(self.rows)
        echelon, pivots, sign = _bareiss_echelon(ints)
        if len(pivots) < self.nrows:
            return Fraction(0)
        return Fraction(sign * echelon[-1][-1], scale) if echelon else Fraction(1)


def _integer_rows(rows):
    """Each rational row times the lcm of its denominators, and the product
    of those multipliers.

    Scaling rows by nonzero integers keeps the row space and the kernel and
    multiplies the determinant by the returned scale.
    """
    scale = 1
    ints = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        ints.append([x.numerator * (mult // x.denominator) for x in row])
    return ints, scale


def _bareiss_echelon(rows):
    """Fraction-free row echelon form of an integer matrix (Bareiss 1968).

    Returns (echelon rows, pivot columns, sign of the row swaps).  The pivot
    of each column is its first nonzero entry at or below the current row.
    After k pivots every entry below them is a (k+1)-minor of the row-swapped
    input, so the division by the previous pivot is exact and entries stay
    at minor size; in particular the last pivot of a nonsingular square
    matrix is its determinant times the sign.
    """
    rows = [list(map(int, r)) for r in rows]
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

    Returns (d, free columns, solutions): the solution for free column f is
    an integer vector x with x[f] = d, zero at the other free columns and
    echelon @ x = 0, where d is the last pivot.  The kernel vector of f is
    x / d.  By Cramer's rule d times that vector is integral (d is the
    pivot minor of the rows the echelon form came from), so every division
    below is exact.
    """
    free = [c for c in range(nc) if c not in pivots]
    d = echelon[-1][pivots[-1]] if pivots else 1
    solutions = []
    for f in free:
        x = [0] * nc
        x[f] = d
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            row = echelon[r]
            x[c] = -sum(row[j] * x[j] for j in range(c + 1, nc) if x[j]) // row[c]
        solutions.append(x)
    return d, free, solutions


#: Distinct 62-bit primes (the sixteen largest below 2^62) for the
#: multi-modular kernel, tried in this order.  Their product bounds the
#: kernel entries that can be reconstructed: numerators and denominators up
#: to about 495 bits; larger kernels go to the Bareiss fallback.
KERNEL_PRIMES = (
    4611686018427387847, 4611686018427387817, 4611686018427387787,
    4611686018427387761, 4611686018427387751, 4611686018427387737,
    4611686018427387733, 4611686018427387709, 4611686018427387701,
    4611686018427387631, 4611686018427387617, 4611686018427387587,
    4611686018427387461, 4611686018427387421, 4611686018427387409,
    4611686018427387329,
)


def _kernel_mod_p(rows, nc, p):
    """Pivot columns and RREF kernel vectors of an integer matrix mod p.

    Returns (pivots, residues): residues[k] holds, for the k-th free column
    f, the entries at the pivot columns of the kernel vector with a 1 at f
    and zeros at the other free columns.  Entries at pivots past f are 0.
    Forward elimination reduces each pivot row mod p with a leading 1 and
    leaves the rows below it unreduced (each step adds less than p^2 to an
    entry, which is cheaper than a reduction); entries left of a pivot
    below it are never read again, so they are not cleared.
    Back-substitution then solves each free column.
    """
    work = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(nc):
        k = next((i for i in range(r, len(work)) if work[i][c] % p), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        inv = pow(work[r][c], -1, p)
        top = work[r][c + 1:] = [x * inv % p for x in work[r][c + 1:]]
        for row in work[r + 1:]:
            f = row[c] % p
            if f:
                row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], top)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    residues = []
    for f in range(nc):
        if f in pivots:
            continue
        x = [0] * (f + 1)
        x[f] = 1
        for i in range(r - 1, -1, -1):
            c = pivots[i]
            if c < f:
                row = work[i]
                x[c] = -sum(row[j] * x[j] for j in range(c + 1, f + 1) if x[j]) % p
        residues.append([x[c] if c < f else 0 for c in pivots])
    return pivots, residues


def _rational_reconstruct(u, m):
    """The fraction a/b = u mod m with |a|, b <= sqrt(m/2), or None.

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
    return Fraction(r1, t1)


def _lift(pivots, residues, m, nc):
    """Kernel vectors with rationals reconstructed from residues mod m, or
    None when an entry has no reconstruction yet."""
    free = [c for c in range(nc) if c not in pivots]
    vectors = []
    for f, res in zip(free, residues):
        vec = [Fraction(0)] * nc
        vec[f] = Fraction(1)
        for c, u in zip(pivots, res):
            q = _rational_reconstruct(u, m)
            if q is None:
                return None
            vec[c] = q
        vectors.append(tuple(vec))
    return vectors


def _annihilates(rows, vec):
    """Whether rows @ vec == 0, checked in integers on the cleared vector."""
    den = lcm(*(x.denominator for x in vec))
    ints = [(j, x.numerator * (den // x.denominator)) for j, x in enumerate(vec) if x]
    return all(sum(row[j] * v for j, v in ints) == 0 for row in rows)


def integer_kernel_basis(rows):
    """Kernel basis of an integer matrix, one vector per free column.

    Same contract as QMatrix.nullspace: the vector of free column f has a 1
    at f and zeros at the other free columns; entries are Fractions.

    For each prime of KERNEL_PRIMES the matrix is reduced mod p.  Primes
    with the same pivot columns are combined by CRT; a prime whose pivots
    rank below another prime's (fewer pivots, or the same number starting
    later) is unlucky, and the earlier set is kept or restarted from.  The
    entries are rationally reconstructed and every vector is checked
    exactly against every row; a failed reconstruction or check moves on
    to the next prime.  When the primes run out, the Bareiss path computes
    the basis.

    Certificate (in full in the module docstring): rank mod p <= rank over
    Q, so the dim ker_p vectors that pass the check, independent through
    their free columns, are a basis of ker_Q; each is zero past its free
    column f, so f is free over Q too, and the basis is the unique one
    Bareiss returns.
    """
    if not rows:
        return []
    nc = len(rows[0])
    best = None
    for p in KERNEL_PRIMES:
        pivots, residues = _kernel_mod_p(rows, nc, p)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, m = key, p
        elif key > best:
            continue
        else:
            t = pow(m, -1, p)
            residues = [[a + m * ((b - a) * t % p) for a, b in zip(old, new)]
                        for old, new in zip(kept, residues)]
            m *= p
        kept = residues
        vectors = _lift(pivots, kept, m, nc)
        if vectors is not None and all(_annihilates(rows, v) for v in vectors):
            return vectors
    echelon, pivots, _ = _bareiss_echelon(rows)
    d, _, solutions = _back_substitute(echelon, pivots, nc)
    return [tuple(Fraction(v, d) for v in x) for x in solutions]


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
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
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
        offending = False
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t]:
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    offending = True
                    break
            if offending:
                break
        if offending:
            continue
        diag.append(abs(a[t][t]))
        t += 1
    while len(diag) < m:
        diag.append(0)
    return diag
