import random
from fractions import Fraction

import pytest

from hadamard_spaces import linalg
from hadamard_spaces.linalg import (KERNEL_PRIMES, QMatrix, clear_denominators,
                                    integer_kernel_basis, rat, rat_str,
                                    smith_normal_form)


def _transpose(m):
    return QMatrix(tuple(zip(*m.rows)))


def _identity(n):
    return QMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def _random_rows(rng, max_rows, max_cols, entry):
    """A random matrix that often has zero, duplicate and proportional rows.

    The row count may be 0; the shape is as often wide as tall.
    """
    nr = rng.randint(0, max_rows)
    nc = rng.randint(1, max_cols)
    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if rows and rng.random() < 0.5:
        rows.append([0] * nc)
        rows.append(list(rng.choice(rows)))
        rows.append([-3 * x for x in rng.choice(rows)])
        rng.shuffle(rows)
    return rows


def _random_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _mat_vec(m, vec):
    return [sum((x * v for x, v in zip(row, vec)), Fraction(0)) for row in m.rows]


def test_rref_identity():
    m = _identity(3)
    reduced, rank, _ = m.rref()
    assert reduced == m
    assert rank == 3


def test_rref_proportional_rows():
    m = QMatrix([[1, 2, 3], [2, 4, 6]])
    assert m.rank() == 1


def test_rref_vandermonde_rank():
    # Vandermonde determinant (2-1)(3-1)(3-2) = 2 is nonzero.
    m = QMatrix([[1, 1, 1], [1, 2, 3], [1, 4, 9]])
    assert m.rank() == 3
    assert m.det() == 2


def test_rref_row_space_preserved():
    m = QMatrix([[1, 2, 3], [4, 5, 6]])
    reduced, rank, _ = m.rref()
    stacked = m.stack(QMatrix(reduced.rows[:rank]))
    assert stacked.rank() == rank
    rng = random.Random(7)
    for _ in range(60):
        m = QMatrix(_random_rows(rng, 6, 6, lambda: _random_fraction(rng)))
        assert m._rref is None
        reduced, rank, pivots = result = m.rref()
        assert m._rref is result and m.rref() is result
        assert reduced.nrows == m.nrows and rank == len(pivots)
        assert list(pivots) == sorted(set(pivots))
        # Reduced echelon form: each row leads with a 1 at its pivot, every
        # pivot column is a unit vector, and rows past the rank are zero.
        for i, row in enumerate(reduced.rows):
            if i >= rank:
                assert not any(row)
                continue
            assert all(x == 0 for x in row[:pivots[i]]) and row[pivots[i]] == 1
            assert all(row[p] == (1 if k == i else 0) for k, p in enumerate(pivots))
        # Every input row is the combination of reduced rows read off its
        # pivot entries, so the row space is unchanged.
        for row in m.rows:
            combo = [sum((row[p] * reduced.rows[i][j] for i, p in enumerate(pivots)), Fraction(0))
                     for j in range(m.ncols)]
            assert combo == list(row)


def test_nullspace_identity_empty():
    assert _identity(4).nullspace() == []


def test_nullspace_single_row():
    basis = QMatrix([[1, -1]]).nullspace()
    assert basis == [(Fraction(1), Fraction(1))]


def test_nullspace_two_rows():
    basis = QMatrix([[1, 0, -1], [0, 1, -1]]).nullspace()
    assert basis == [(Fraction(1), Fraction(1), Fraction(1))]


def test_rank_equals_transpose_rank_randomized():
    rng = random.Random(1)
    for _ in range(25):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = QMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
                     for _ in range(nr)])
        assert m.rank() == _transpose(m).rank()


def test_nullspace_vectors_annihilated_and_counted():
    rng = random.Random(2)
    for trial in range(60):
        if trial % 2:
            m = QMatrix(_random_rows(rng, 5, 6, lambda: rng.randint(-5, 5)))
        else:
            m = QMatrix(_random_rows(rng, 7, 7, lambda: _random_fraction(rng)))
        basis = m.nullspace()
        assert m.rank() + len(basis) == m.ncols
        for vec in basis:
            assert all(x == 0 for x in _mat_vec(m, vec))


def test_integer_kernel_matches_nullspace():
    rng = random.Random(3)
    for _ in range(60):
        rows = _random_rows(rng, 7, 7, lambda: rng.randint(-9, 9))
        assert integer_kernel_basis(rows) == QMatrix(rows).nullspace()


def _bareiss_kernel(rows):
    """Reference: the kernel read off the Bareiss echelon form."""
    if not rows:
        return []
    echelon, pivots, _ = linalg._bareiss_echelon(rows)
    d, _, solutions = linalg._back_substitute(echelon, pivots, len(rows[0]))
    return [tuple(Fraction(v, d) for v in x) for x in solutions]


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(linalg, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, name, counting)
    return calls


def _random_integer_matrix(rng, kind, bits):
    entry = lambda: rng.randint(-2 ** bits, 2 ** bits)
    if kind == "low_rank":
        # A product through k < min(shape) columns: rank at most k.
        nr, nc = rng.randint(2, 8), rng.randint(2, 8)
        k = rng.randint(1, min(nr, nc) - 1)
        left = [[entry() for _ in range(k)] for _ in range(nr)]
        right = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(k)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    if kind == "tall":
        nc = rng.randint(1, 6)
        return [[entry() for _ in range(nc)] for _ in range(nc + rng.randint(0, 3))]
    if kind == "wide":
        nr = rng.randint(1, 4)
        nc = nr + rng.randint(1, 4)
        return [[entry() for _ in range(nc)] for _ in range(nr)]
    return _random_rows(rng, 7, 7, entry)


def test_modular_kernel_matches_bareiss(monkeypatch):
    mod_calls = _count_calls(monkeypatch, "_kernel_mod_p")
    bareiss_calls = _count_calls(monkeypatch, "_bareiss_echelon")
    rng = random.Random(11)
    primes_used = []
    kinds = ("low_rank", "tall", "wide", "mixed")
    for trial in range(320):
        kind = kinds[trial % 4]
        bits = (3, 40, 120, 300)[trial // 4 % 4]
        rows = _random_integer_matrix(rng, kind, bits)
        expected = _bareiss_kernel(rows)
        del mod_calls[:], bareiss_calls[:]
        assert integer_kernel_basis(rows) == expected, rows
        if rows and not bareiss_calls:
            primes_used.append(len(mod_calls))
        if kind == "tall":
            # Random tall matrices have full column rank: an empty kernel.
            assert expected == []
    # Most kernels are certified from the primes, some only after several.
    assert len(primes_used) > 250
    assert sum(1 for k in primes_used if k >= 3) >= 10


def test_modular_kernel_unlucky_first_prime(monkeypatch):
    # Mod the first prime these matrices lose a pivot: its kernel vectors
    # are wrong over Q and must be caught by the exact check.
    p0 = KERNEL_PRIMES[0]
    bareiss_calls = _count_calls(monkeypatch, "_bareiss_echelon")
    assert integer_kernel_basis([[p0, 1]]) == [(Fraction(-1, p0), Fraction(1))]
    assert integer_kernel_basis([[p0, 1], [0, 1]]) == []
    rows = [[p0, 1, 0], [3 * p0, 3, 0], [0, p0, 1]]
    assert integer_kernel_basis(rows) == [(Fraction(1, p0 * p0), Fraction(-1, p0), Fraction(1))]
    assert rows == [[p0, 1, 0], [3 * p0, 3, 0], [0, p0, 1]]
    assert bareiss_calls == []


def test_modular_kernel_falls_back_to_bareiss(monkeypatch):
    # Every entry is 0 mod every listed prime, so each prime claims a full
    # kernel that the exact check refuses; only Bareiss can answer.
    big = 1
    for p in KERNEL_PRIMES:
        big *= p
    bareiss_calls = _count_calls(monkeypatch, "_bareiss_echelon")
    mod_calls = _count_calls(monkeypatch, "_kernel_mod_p")
    assert integer_kernel_basis([[big, 2 * big], [3 * big, 4 * big]]) == []
    assert len(mod_calls) == len(KERNEL_PRIMES) and len(bareiss_calls) == 1
    del mod_calls[:], bareiss_calls[:]
    rows = [[big, 2 * big, 5 * big], [big, 3 * big, 7 * big]]
    assert integer_kernel_basis(rows) == [(Fraction(-1), Fraction(-2), Fraction(1))]
    assert len(mod_calls) == len(KERNEL_PRIMES) and len(bareiss_calls) == 1


def _is_prime(n):
    """Deterministic Miller-Rabin: these bases decide every n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_kernel_primes_are_distinct_62_bit_primes():
    assert len(set(KERNEL_PRIMES)) == len(KERNEL_PRIMES) >= 2
    for p in KERNEL_PRIMES:
        assert p < 2 ** 63 and p.bit_length() == 62
        assert _is_prime(p)
    assert not _is_prime(KERNEL_PRIMES[0] * KERNEL_PRIMES[1])
    assert not _is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5, 7


def test_smith_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]


def test_smith_diag():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_smith_standard_basis_subset():
    assert smith_normal_form([[1, 0, 0, 0], [0, 0, 1, 0]]) == [1, 1]


def test_smith_divisibility_and_sign():
    rng = random.Random(4)
    for _ in range(30):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        diag = smith_normal_form(rows)
        assert len(diag) == min(nr, nc)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
            # zeros trail
        nz = [d for d in diag if d]
        assert diag[:len(nz)] == nz
        assert len(nz) == QMatrix(rows).rank()


def test_smith_unimodular_all_ones():
    rng = random.Random(5)
    for _ in range(10):
        # Random product of elementary integer matrices is unimodular.
        n = rng.randint(2, 4)
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(12):
            i, j = rng.sample(range(n), 2)
            f = rng.randint(-3, 3)
            for c in range(n):
                m[i][c] += f * m[j][c]
        assert smith_normal_form(m) == [1] * n


def test_det_bareiss_vs_definition():
    rng = random.Random(6)
    for trial in range(60):
        n, kind = trial % 6, trial // 6 % 3
        rows = [[_random_fraction(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and kind == 1:
            # Singular: a row repeated up to a negative scale.
            i, j = rng.sample(range(n), 2)
            rows[i] = [Fraction(-2, 3) * x for x in rows[j]]
        if n > 1 and kind == 2:
            # A zero leading entry forces a row swap.
            rows[0][0] = Fraction(0)
        m = QMatrix(rows)
        # cofactor expansion reference
        def cof(rows):
            if not rows:
                return Fraction(1)
            if len(rows) == 1:
                return rows[0][0]
            total = Fraction(0)
            for j in range(len(rows)):
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * cof(minor)
            return total
        assert m.det() == cof([list(r) for r in m.rows])


def test_rat_str_and_clear_denominators():
    assert rat_str(rat("5")) == "5"
    assert rat_str(rat("-3/7")) == "-3/7"
    assert clear_denominators([rat("1/2"), rat("-1/3")]) == (3, -2)
    assert clear_denominators([rat("-1/2"), rat("-1/3")]) == (3, 2)
    assert clear_denominators([0, 0]) == (0, 0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        QMatrix([[0.5]])
