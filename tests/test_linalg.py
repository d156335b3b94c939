import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, count, islice
from math import comb, gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from hadamard_spaces import linalg, products
from hadamard_spaces.linalg import (KERNEL_PRIME, BudgetExhausted, QMatrix, bareiss_kernel_basis,
                                    cleared_rows, integer_kernel_basis, integer_rank,
                                    rat, rat_str, smith_normal_form)
from hadamard_spaces.poly import monomial_products
from hadamard_spaces.projective import LinSpace
from hadamard_spaces.samplers import hadamard_power_sampler, linear_space_sampler


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
    assert integer_rank(m.ints) == 1


def test_rref_vandermonde_rank():
    # Vandermonde determinant (2-1)(3-1)(3-2) = 2 is nonzero.
    m = QMatrix([[1, 1, 1], [1, 2, 3], [1, 4, 9]])
    assert integer_rank(m.ints) == 3
    assert m.det() == 2


def test_rref_row_space_preserved():
    m = QMatrix([[1, 2, 3], [4, 5, 6]])
    reduced, rank, _ = m.rref()
    stacked = QMatrix(m.rows + reduced.rows[:rank])
    assert integer_rank(stacked.ints) == rank
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
    assert _identity(4).nullspace() == QMatrix([])


def test_nullspace_single_row():
    basis = QMatrix([[1, -1]]).nullspace()
    assert basis.rows == ((Fraction(1), Fraction(1)),)


def test_nullspace_two_rows():
    basis = QMatrix([[1, 0, -1], [0, 1, -1]]).nullspace()
    assert basis.rows == ((Fraction(1), Fraction(1), Fraction(1)),)


def test_rank_equals_transpose_rank_randomized():
    rng = random.Random(1)
    for _ in range(25):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = QMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
                     for _ in range(nr)])
        assert integer_rank(m.ints) == integer_rank(_transpose(m).ints)


def test_nullspace_vectors_annihilated_and_counted():
    rng = random.Random(2)
    for trial in range(60):
        if trial % 2:
            m = QMatrix(_random_rows(rng, 5, 6, lambda: rng.randint(-5, 5)))
        else:
            m = QMatrix(_random_rows(rng, 7, 7, lambda: _random_fraction(rng)))
        basis = m.nullspace().rows
        assert integer_rank(m.ints) + len(basis) == m.ncols
        for vec in basis:
            assert all(x == 0 for x in _mat_vec(m, vec))


def _primitive_at_free(vectors):
    """Rational kernel vectors with a 1 at their free column, each cleared
    by the lcm of its denominators: the primitive integer vector positive
    at its free column."""
    return [cleared_rows((vec,))[1][0] for vec in vectors]


def test_integer_kernel_matches_nullspace():
    rng = random.Random(3)
    for _ in range(60):
        rows = _random_rows(rng, 7, 7, lambda: rng.randint(-9, 9))
        assert integer_kernel_basis(rows) == _primitive_at_free(QMatrix(rows).nullspace().rows)


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
    lift_calls = _count_calls(monkeypatch, "_lift")
    bareiss_calls = _count_calls(monkeypatch, "_bareiss_echelon")
    rng = random.Random(11)
    steps_used = []
    kinds = ("low_rank", "tall", "wide", "mixed")
    for trial in range(320):
        kind = kinds[trial % 4]
        bits = (3, 40, 120, 300)[trial // 4 % 4]
        rows = _random_integer_matrix(rng, kind, bits)
        expected = bareiss_kernel_basis(rows)
        del lift_calls[:], bareiss_calls[:]
        assert integer_kernel_basis(rows) == expected, rows
        if rows and not bareiss_calls:
            # Reconstruction attempts of the slowest kernel vector (args[0]
            # is its free column); 0 for an empty kernel.
            steps_used.append(max(Counter(args[0] for args in lift_calls).values(), default=0))
        if kind == "tall":
            # Random tall matrices have full column rank: an empty kernel.
            assert expected == []
    # Most kernels are certified p-adically, some only after several steps.
    assert len(steps_used) > 250
    assert sum(1 for k in steps_used if k >= 3) >= 10


def _ladder(monkeypatch, rows):
    """The kernel, and the calls it made in order: ("block", height, p) or
    ("whole", height, p) per factorization mod a prime p, "bareiss" per
    Bareiss pass."""
    calls = []
    factor, echelon = linalg._factor_mod_p, linalg._bareiss_echelon

    def counting_factor(block, nc, p):
        calls.append(("whole" if len(block) == len(rows) else "block", len(block), p))
        return factor(block, nc, p)

    def counting_echelon(echelon_rows):
        calls.append("bareiss")
        return echelon(echelon_rows)

    monkeypatch.setattr(linalg, "_factor_mod_p", counting_factor)
    monkeypatch.setattr(linalg, "_bareiss_echelon", counting_echelon)
    return integer_kernel_basis(rows), calls


def _primes(count):
    return list(islice(linalg._kernel_primes(), count))


def test_modular_kernel_unlucky_first_prime(monkeypatch):
    # Mod KERNEL_PRIME these matrices lose a pivot: the kernel vectors it
    # lifts are wrong over Q and are caught by the exact check, and the
    # next prime answers.
    p0, p1 = _primes(2)
    assert _ladder(monkeypatch, [[p0, 1]]) == ([(-1, p0)], [("whole", 1, p0), ("whole", 1, p1)])
    assert _ladder(monkeypatch, [[p0, 1], [0, 1]]) == ([], [("whole", 2, p0), ("whole", 2, p1)])
    rows = [[p0, 1, 0], [3 * p0, 3, 0], [0, p0, 1]]
    assert _ladder(monkeypatch, rows) == ([(1, -p0, p0 * p0)], [("whole", 3, p0), ("whole", 3, p1)])
    assert rows == [[p0, 1, 0], [3 * p0, 3, 0], [0, p0, 1]]
    # Mod p0 the rows coincide, and the lifted vector (-1, 1) solves the
    # pivot row exactly: only the check against the other row refuses it.
    assert _ladder(monkeypatch, [[1, 1], [1, 1 + p0]]) == ([], [("whole", 2, p0), ("whole", 2, p1)])
    for rows in ([[p0, 1]], [[p0, 1], [0, 1]], [[p0, 1, 0], [3 * p0, 3, 0], [0, p0, 1]],
                 [[1, 1], [1, 1 + p0]]):
        assert integer_kernel_basis(rows) == bareiss_kernel_basis(rows)


def test_kernel_ladder_runs_block_then_whole_then_next_prime(monkeypatch):
    # The leading 2 x 2 block is singular over Q, and mod KERNEL_PRIME all
    # three rows are proportional; only the next prime sees the full rank,
    # and the block is not factored again.
    p0, p1 = _primes(2)
    rows = [[1, 1], [2, 2], [1, 1 + p0]]
    assert _ladder(monkeypatch, rows) == ([], [("block", 2, p0), ("whole", 3, p0), ("whole", 3, p1)])
    assert bareiss_kernel_basis(rows) == []
    # A tall matrix whose block has the kernel of the whole: the block answers.
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [2, 1, 0]]
    assert _ladder(monkeypatch, rows) == ([(1, -2, 1)], [("block", 3, p0)])
    assert bareiss_kernel_basis(rows) == [(1, -2, 1)]


def test_modular_kernel_moves_on_to_the_next_prime(monkeypatch):
    # Every entry is 0 mod KERNEL_PRIME, so it claims a full kernel whose
    # first vector the exact check refuses; the next prime answers.
    p0, p1 = _primes(2)
    big = 3 * p0
    rows = [[big, 2 * big], [3 * big, 4 * big]]
    assert _ladder(monkeypatch, rows) == ([], [("whole", 2, p0), ("whole", 2, p1)])
    assert bareiss_kernel_basis(rows) == []
    rows = [[big, 2 * big, 5 * big], [big, 3 * big, 7 * big]]
    assert _ladder(monkeypatch, rows) == ([(-1, -2, 1)], [("whole", 2, p0), ("whole", 2, p1)])
    assert bareiss_kernel_basis(rows) == [(-1, -2, 1)]


def test_kernel_answered_on_the_third_prime(monkeypatch):
    # Every entry is a multiple of p0 p1: the first two primes each claim a
    # full kernel that the exact check refuses, and the third answers.
    p0, p1, p2 = _primes(3)
    rng = random.Random(31)
    rows = [[p0 * p1 * rng.randint(-99, 99) for _ in range(5)] for _ in range(3)]
    basis, calls = _ladder(monkeypatch, rows)
    assert calls == [("whole", 3, p0), ("whole", 3, p1), ("whole", 3, p2)]
    assert len(basis) == 2 and basis == bareiss_kernel_basis(rows)


def test_every_pass_after_the_first_is_charged_for_its_factorization():
    # A row of multiples of p0: the first pass, on p0, is free and proved
    # wrong; the pass on p1 is charged 3 (b + 64) units per entry before it
    # factors, b the largest entry's bit length.  One unit short of that
    # charge the call is refused; a budget cell shared by two calls pays
    # for both.
    p0 = KERNEL_PRIME
    rows = [[3 * p0, 5 * p0]]
    charge = 2 * 3 * ((5 * p0).bit_length() + 64)
    with pytest.raises(BudgetExhausted, match="past the lift budget"):
        integer_kernel_basis(rows, [charge - 1])
    budget = [10 ** 9]
    assert integer_kernel_basis(rows, budget) == [(-5, 3)] == bareiss_kernel_basis(rows)
    spent = 10 ** 9 - budget[0]
    assert spent > charge
    assert integer_kernel_basis(rows, budget) == [(-5, 3)]
    assert budget[0] == 10 ** 9 - 2 * spent


def test_a_lifting_step_charges_its_product_and_its_overhead():
    # [[2, 3]]: one pivot, and the vector (-3, 2) of free column 1 passes
    # at step 1.  That step charges k (k (b + e) + q) for k = 1, the 3-bit
    # row norm 5 and the row sweeps' overhead (e, q) = ROW_STEP, and its
    # one Euclid run L^2 / 2 for the 27-bit modulus p.
    budget = [10 ** 6]
    assert integer_kernel_basis([[2, 3]], budget) == [(-3, 2)]
    per_entry, per_pivot = linalg.ROW_STEP
    assert 10 ** 6 - budget[0] == (3 + per_entry + per_pivot) + 27 ** 2 // 2


def test_later_vectors_of_a_block_are_read_as_integers(monkeypatch):
    # A 3 x 12 matrix of 200-bit entries: every free column has the same
    # three pivots before it, and each kernel vector's denominator divides
    # det B.  The first vector is reconstructed at step 48 (p^48 > 2^1290:
    # numerators and denominators of about 595 bits); the second, whose
    # denominator is not the first's, too.  The other seven are lifted
    # times the lcm of the two and read as integers at step 24, with no
    # reconstruction.
    results = []
    integral = linalg._integral
    monkeypatch.setattr(linalg, "_integral",
                        lambda *args: results.append((args, integral(*args))) or results[-1][1])
    lift_calls = _count_calls(monkeypatch, "_lift")
    rng = random.Random(31)
    rows = [[rng.getrandbits(200) - 2 ** 199 for _ in range(12)] for _ in range(3)]
    basis = integer_kernel_basis(rows)
    assert len(basis) == 9 and basis == bareiss_kernel_basis(rows)
    p = KERNEL_PRIME
    assert {args[0] for args in lift_calls} == {3, 4}
    assert [args[3] for args in lift_calls if args[0] == 4] == [p ** 48]
    read = [(args[0], args[3]) for args, vec in results if vec is not None]
    assert read == [(f, p ** 24) for f in range(5, 12)]


def test_kernel_of_1800_bit_entries_lifts_on_one_prime(monkeypatch):
    # 300-bit entries: the kernel entries are 6 x 6 minors of about 1800
    # bits, which the lifting reaches on its first prime, with no Bareiss
    # pass.
    rng = random.Random(6)
    rows = [[rng.randint(-2 ** 300, 2 ** 300) for _ in range(8)] for _ in range(6)]
    basis, calls = _ladder(monkeypatch, rows)
    assert calls == [("whole", 6, KERNEL_PRIME)]
    assert basis == bareiss_kernel_basis(rows)
    assert max(abs(x).bit_length() for vec in basis for x in vec) > 1700


def test_tall_kernel_falls_back_from_a_singular_block(monkeypatch):
    # The leading 2 x 2 block is singular: its kernel vector (-2, 1)
    # reconstructs exactly but fails the third row, so the whole matrix is
    # factored with the same prime, where it has full rank.
    bareiss_calls = _count_calls(monkeypatch, "_bareiss_echelon")
    factor_calls = _count_calls(monkeypatch, "_factor_mod_p")
    assert integer_kernel_basis([[1, 2], [2, 4], [1, 3]]) == []
    assert [(len(args[0]), args[2]) for args in factor_calls] == [(2, KERNEL_PRIME),
                                                                  (3, KERNEL_PRIME)]
    assert bareiss_calls == []


def test_refused_block_vector_is_lifted_once(monkeypatch):
    # The block's vector (-2, 1) reconstructs at the first step and passes
    # its pivot row, so it is the block's exact solution: failing the third
    # row proves the block wrong at once, and the whole matrix has full
    # rank, with no vector to lift.
    lift_calls = _count_calls(monkeypatch, "_lift")
    rows = [[1, 2], [2, 4], [1, 3]]
    assert integer_kernel_basis(rows) == [] == bareiss_kernel_basis(rows)
    assert len(lift_calls) == 1


def test_block_vector_past_the_lifting_reach_moves_on_to_the_whole(monkeypatch):
    # The leading 2 x 2 block is singular, and its kernel vector (-b, a) has
    # 593-bit entries.  The vector lifts until it reconstructs exactly, at
    # the first attempt with p^s > 2^1186, step 48 of the schedule; it then
    # passes its pivot row and fails the third, so the whole matrix, of
    # full rank, answers.  No residual is computed after the last attempt,
    # and no Bareiss pass is made.
    rng = random.Random(24)
    a, b = rng.getrandbits(600) | 1 << 599, rng.getrandbits(600) | 1 << 599
    a, b = a // gcd(a, b), b // gcd(a, b)
    assert min(a.bit_length(), b.bit_length()) > 590
    lift_calls = _count_calls(monkeypatch, "_lift")
    residual_calls = _count_calls(monkeypatch, "_residual")
    rows = [[a, b], [2 * a, 2 * b], [1, 0]]
    p0 = KERNEL_PRIME
    assert _ladder(monkeypatch, rows) == ([], [("block", 2, p0), ("whole", 3, p0)])
    assert bareiss_kernel_basis(rows) == []
    steps = [1, 2, 3, 4, 5, 6, 7, 8, 11, 15, 20, 27, 36, 48]
    assert [args[3] for args in lift_calls] == [p0 ** s for s in steps]
    assert p0 ** 36 < 2 * max(a, b) ** 2 < p0 ** 48
    assert linalg._lift(*lift_calls[-1]) == ((-b, a), 1)
    assert len(residual_calls) == steps[-1] - 1


def test_interp_sized_tall_kernel_factors_its_square_block(monkeypatch):
    # 70 samples of the square of a plane in P^5 against its 56 cubic
    # monomials: one kernel vector, the cubic.
    rng = random.Random(17)
    plane = LinSpace([[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)])
    sampler = hadamard_power_sampler(linear_space_sampler(plane), 2)
    points = [sampler.sample_point(rng).canonical() for _ in range(70)]
    rows = [list(r) for r in zip(*monomial_products(list(zip(*points)), 3))]
    whole = linalg._dixon_kernel(rows, len(rows), 56, KERNEL_PRIME, linalg.lift_budget(), 0)
    bareiss_calls = _count_calls(monkeypatch, "_bareiss_echelon")
    factor_calls = _count_calls(monkeypatch, "_factor_mod_p")
    basis = integer_kernel_basis(rows)
    assert [len(args[0]) for args in factor_calls] == [56] and bareiss_calls == []
    assert len(basis) == 1 and basis == whole


def _factor_mod_p_lists(rows, nc, p):
    """Reference: the elimination mod p on lists of residues, with the
    factors logged in place (at pivot column P[j], row i keeps L[i][j] for
    j <= i and U[i][j] for j > i); lower ends in the inverse pivot."""
    work = [[x % p for x in row] for row in rows]
    order = list(range(len(work)))
    pivots = []
    r = 0
    for c in range(nc):
        k = next((i for i in range(r, len(work)) if work[i][c] % p), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        order[r], order[k] = order[k], order[r]
        inv = pow(work[r][c], -1, p)
        top = work[r][c + 1:] = [x * inv % p for x in work[r][c + 1:]]
        for row in work[r + 1:]:
            f = row[c] = row[c] % p
            if f:
                row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], top)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    lower = [[row[c] % p for c in pivots[:i]] + [pow(row[pivots[i]], -1, p)]
             for i, row in enumerate(work[:r])]
    upper = [[row[c] for c in pivots[i + 1:]] for i, row in enumerate(work[:r])]
    return pivots, order[:r], lower, upper


def _largest_updates_matrix(nr, nc, p):
    """A mod p = L U with every multiplier 1 and every entry of the unit U
    equal to -1: each row update adds (p - 1)^2, the most it can, to a slot,
    and slot (i, j) gets min(i, j) of them."""
    lower = [[1 if j <= i else 0 for j in range(nc)] for i in range(nr)]
    upper = [[1 if j == i else p - 1 if j > i else 0 for j in range(nc)] for i in range(nc)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*upper)] for row in lower]


def test_packed_factor_matches_list_factor():
    p = KERNEL_PRIME
    rng = random.Random(14)
    matrices = []
    for trial in range(120):
        kind = ("low_rank", "tall", "wide", "mixed")[trial % 4]
        matrices.append(_random_integer_matrix(rng, kind, (3, 40, 70, 300)[trial // 4 % 4]))
    # Entries at and past p, multiples of p, and negative ones.
    matrices += [[[rng.choice([-1, 1]) * (rng.randint(0, 3) * p + rng.randint(-2, 2)) for _ in range(nc)]
                  for _ in range(nr)] for nr, nc in [(6, 5), (5, 9), (12, 12)]]
    matrices += [[[3, 0, 1], [5, 0, 2], [7, 0, 4]],  # a zero column
                 [[0, 0, 0, 0], [p, 2 * p, 0, -p], [1, 2, 3, 4]],
                 [[rng.randint(-10 ** 40, 10 ** 40) for _ in range(50)] for _ in range(60)],
                 _largest_updates_matrix(70, 56, p), _largest_updates_matrix(30, 60, p)]
    low_rank = [[rng.randint(-99, 99) for _ in range(5)] for _ in range(64)]
    right = [[rng.randint(-9, 9) for _ in range(52)] for _ in range(5)]
    matrices.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in low_rank])
    # More than 511 rows: two-word slots.
    matrices.append([[rng.randint(-p, p) for _ in range(40)] for _ in range(600)])
    for rows in filter(None, matrices):
        nc = len(rows[0])
        assert linalg._factor_mod_p(rows, nc, p) == _factor_mod_p_lists(rows, nc, p), rows


def _recorded_folders(monkeypatch):
    """(words, rounds) of every `_folder` that `_factor_mod_p` makes."""
    made, folder = [], linalg._folder

    def recording_folder(p, words, count, bound):
        made.append((words, linalg._fold_rounds(p, bound)))
        return folder(p, words, count, bound)

    monkeypatch.setattr(linalg, "_folder", recording_folder)
    return made


def test_packed_factor_past_2_to_the_15_rows_matches_list_factor(monkeypatch):
    # 2^15 rows and more, as in the whole-matrix retry of a tall parameter
    # grid.  The rows are a shuffle of residues, multiples of p, and rows
    # whose every update adds the largest product (p - 1)^2.  A slot gets
    # at most nc = 4 updates, so it fits one word folded in two rounds,
    # where a bound by the row count would take two words and three.
    p = KERNEL_PRIME
    rng = random.Random(15)
    nr, nc = 2 ** 15 + 7, 4
    rows = _largest_updates_matrix(nr // 2, nc, p)
    rows += [[rng.choice([rng.randrange(p), p * rng.randint(-2, 2), -rng.randrange(2 ** 80)])
              for _ in range(nc)] for _ in range(nr - len(rows))]
    rng.shuffle(rows)
    assert linalg._fold_rounds(p, 2 ** (2 * p.bit_length() + 1 + nr.bit_length())) == 3
    made = _recorded_folders(monkeypatch)
    assert linalg._factor_mod_p(rows, nc, p) == _factor_mod_p_lists(rows, nc, p)
    assert made == [(1, 2)]


def test_slots_are_sized_by_the_updates_a_slot_gets(monkeypatch):
    # A 600 x 40 whole matrix: each slot gets at most 40 updates, so one
    # word holds it, where 600 updates would take two; slot (i, j) of the
    # largest-updates rows gets min(i, j) of the largest ones.
    p = KERNEL_PRIME
    rng = random.Random(16)
    rows = _largest_updates_matrix(300, 40, p)
    rows += [[rng.choice([rng.randrange(p), -rng.randrange(2 ** 80)]) for _ in range(40)]
             for _ in range(300)]
    made = _recorded_folders(monkeypatch)
    assert linalg._factor_mod_p(rows, 40, p) == _factor_mod_p_lists(rows, 40, p)
    assert made == [(1, 2)]


@pytest.mark.parametrize("rows, words, rounds", [(511, 1, 2), (2 ** 15, 2, 3), (2 ** 46 - 1, 2, 4)],
                         ids=["one_word_slots", "three_rounds", "two_word_slots"])
def test_fold_keeps_residues_below_2p_and_pack_round_trips(rows, words, rounds):
    # Slots below 2^(2s + 1 + bit_length(rows)), the bound of
    # _factor_mod_p's proof for `rows` rows, fold to congruent slots below
    # 2p in the rounds _fold_rounds counts for that bound.
    p = KERNEL_PRIME
    s = p.bit_length()
    rng = random.Random(rows)
    bound = 2 ** (2 * s + 1 + rows.bit_length())
    assert (2 * s + 1 + rows.bit_length() + 63) // 64 == words
    assert linalg._fold_rounds(p, bound) == rounds
    width = 64 * words
    assert bound <= 2 ** width
    slots = [0, p, 2 * p - 1, bound - 1] + [rng.randrange(bound) for _ in range(200)]
    folded = linalg._folder(p, words, len(slots), bound)(sum(v << width * j for j, v in enumerate(slots)))
    out = [(folded >> width * j) % 2 ** width for j in range(len(slots))]
    assert folded >> width * len(slots) == 0
    assert all(w < 2 * p and w % p == v % p for v, w in zip(slots, out))
    values = [0, 2 ** 64 - 1] + [rng.randrange(2 ** 64) for _ in range(50)]
    packed = linalg._pack(values, words)
    assert packed == sum(v << width * j for j, v in enumerate(values))
    assert list(linalg._unpack(packed, words, len(values))) == values


def _lift_per_entry(f, pivots, y, m, nc):
    """Reference: the kernel vector of free column f, each entry
    reconstructed on its own and the vector cleared by the lcm of the
    denominators."""
    pairs = []
    for u in y:
        q = linalg._rational_reconstruct(u, m)
        if q is None:
            return None
        pairs.append(q)
    den = lcm(*(b for _, b in pairs))
    vec = [0] * nc
    vec[f] = den
    for c, (a, b) in zip(pivots, pairs):
        vec[c] = a * (den // b)
    return tuple(vec)


def _residues(fractions, m):
    return [a * pow(b, -1, m) % m for a, b in fractions]


def test_lift_over_a_common_denominator_matches_the_per_entry_lift():
    p = KERNEL_PRIME
    rng = random.Random(25)
    cases = []
    for trial in range(600):
        m = p ** rng.randint(1, 8)
        bound = isqrt(m // 2)
        k = rng.randint(0, 6)
        kind = trial % 4
        if kind == 0:  # random residues: mostly no reconstruction
            y = [rng.randrange(m) for _ in range(k)]
        else:
            size = bound if kind == 1 else isqrt(bound) * 2
            shared = rng.randint(1, size)
            fractions = []
            for _ in range(k):
                # kind 1: one shared denominator; kind 2: denominators near
                # sqrt(bound), whose lcm passes the bound; kind 3: a mix.
                b = shared if kind == 1 else rng.randint(1, size)
                if kind == 3 and rng.random() < 0.3:
                    b = rng.randint(1, bound)
                a = rng.randint(-size, size)
                if rng.random() < 0.1:
                    a = rng.randint(-m, m)  # past the bound
                fractions.append((a, b if b % p else b + 1))
            y = _residues(fractions, m)
        cases.append((m, y))
    # A den past the bound: 1/b1 and 1/b2 with b1 b2 > N, then a/b1 (its
    # u den is a b2, within the bound, over den / b2 = b1) and 1/(b1 b2)
    # (its u den is 1, but over den itself, past the bound).
    m = p ** 4
    bound = isqrt(m // 2)
    b1, b2 = isqrt(bound) * 3 + 1, isqrt(bound) * 3 + 2
    assert b1 * b2 > bound and 5 * b2 <= bound
    for tail in ([(5, b1)], [(1, b1 * b2)], [(5, b1), (1, b1 * b2), (-7, b2)]):
        cases.append((m, _residues([(1, b1), (1, b2)] + tail, m)))
    reconstructed = past_bound = 0
    for m, y in cases:
        nc = len(y) + 2
        pivots = sorted(random.Random(len(y)).sample(range(nc - 1), len(y)))
        f = nc - 1
        vec, _ = linalg._lift(f, pivots, y, m, nc)
        assert vec == _lift_per_entry(f, pivots, y, m, nc), (m, y)
        if vec is not None:
            reconstructed += 1
            past_bound += vec[f] > isqrt(m // 2)
    assert reconstructed > 300 and past_bound >= 20


def test_residuals_are_computed_only_until_a_vector_passes(monkeypatch):
    # A vector that passes at step s, its last attempt, computed s - 1
    # residuals: none after the step whose vector passed.  Within the first
    # 8 steps every step attempts a reconstruction, from 1 on or, for a
    # later vector of the same block, from the block's last attempt; a
    # later vector with a known denominator also tries its integer
    # vector at every step, and may pass with no reconstruction.
    lift_calls = _count_calls(monkeypatch, "_lift")
    integral_calls = _count_calls(monkeypatch, "_integral")
    residual_calls = _count_calls(monkeypatch, "_residual")
    bareiss_calls = _count_calls(monkeypatch, "_bareiss_echelon")
    rng = random.Random(8)
    seen = Counter()
    for trial in range(80):
        bits = (3, 10, 20)[trial % 3]
        nr = rng.randint(1, 4)
        nc = nr + rng.randint(1, 3)
        rows = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(nc)] for _ in range(nr)]
        del lift_calls[:], integral_calls[:], residual_calls[:], bareiss_calls[:]
        basis = integer_kernel_basis(rows)
        assert not bareiss_calls and basis == bareiss_kernel_basis(rows)
        steps = Counter(args[0] for args in lift_calls)
        assert max(steps.values()) <= 8
        passed = {}
        for args in lift_calls + integral_calls:
            passed[args[0]] = max(passed.get(args[0], 1), args[3])
        passed = [next(s for s in count(1) if KERNEL_PRIME ** s == m) for m in passed.values()]
        assert len(passed) == len(basis)
        assert len(residual_calls) == sum(s - 1 for s in passed)
        seen.update(steps.values())
    assert seen[1] and sum(n for s, n in seen.items() if s >= 3) >= 10
    # The squared plane's cubic passes at step 5 of the 70 x 56 grid block.
    rng = random.Random(17)
    plane = LinSpace([[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)])
    sampler = hadamard_power_sampler(linear_space_sampler(plane), 2)
    points = [sampler.sample_point(rng).canonical() for _ in range(70)]
    rows = [list(r) for r in zip(*monomial_products(list(zip(*points)), 3))]
    del lift_calls[:], residual_calls[:]
    assert len(integer_kernel_basis(rows)) == 1
    assert (len(lift_calls), len(residual_calls)) == (5, 4)


def _squared_plane_grid_rows():
    """The evaluation matrix of the squared plane of the 70 x 56 test at its
    parameter grid: 55 x 56, entries below 2^31, so it lifts packed."""
    rng = random.Random(17)
    plane = LinSpace([[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)])
    sampler = hadamard_power_sampler(linear_space_sampler(plane), 2)
    points = products.interpolation_grid(sampler, 3)
    return [list(r) for r in zip(*monomial_products(list(zip(*points)), 3))]


def test_packed_sweeps_match_the_row_sweeps(monkeypatch):
    # On the squared plane's grid block and on a block of random entries
    # in [-2^63, 2^63), the packed solve and product agree with the row by
    # row ones for every leading block size tried, on right sides of any
    # size and on digits at p - 1, the slots' largest updates.
    p = KERNEL_PRIME
    rng = random.Random(28)
    edge = [[rng.choice([-2 ** 63, 2 ** 63 - 1, rng.randint(-2 ** 63, 2 ** 63 - 1)])
             for _ in range(41)] for _ in range(40)]
    for rows in (_squared_plane_grid_rows(), edge):
        nc = len(rows[0])
        factors = linalg._factor_mod_p(rows[:nc], nc, p)
        assert len(factors[0]) >= linalg.PACKED_PIVOTS
        packed = linalg._packed_sweeps(rows, *factors, p)
        plain = linalg._row_sweeps(rows, *factors, p)
        for k in (len(factors[0]), len(factors[0]) - 7, 1, 0):
            for b in ([rng.randint(-2 ** 200, 2 ** 200) for _ in range(k)], [p - 1] * k):
                assert packed[0](b) == plain[0](b)
            for x in ([rng.randrange(p) for _ in range(k)], [p - 1] * k):
                assert packed[1](x) == plain[1](x)
    # The grid's cubic passes at step 5 on the packed sweeps, with 4
    # residuals, as the row-by-row lifting of the 70 x 56 sample does.
    lift_calls = _count_calls(monkeypatch, "_lift")
    residual_calls = _count_calls(monkeypatch, "_residual")
    packed_calls = _count_calls(monkeypatch, "_packed_sweeps")
    rows = _squared_plane_grid_rows()
    assert integer_kernel_basis(rows) == bareiss_kernel_basis(rows)
    assert len(packed_calls) == 1
    assert (len(lift_calls), len(residual_calls)) == (5, 4)


def test_full_column_rank_kernel_builds_no_sweeps(monkeypatch):
    # A kernel with no free column, packed-size (40 pivots) or row-by-row
    # (6), returns [] from its factorization: no sweep is built.
    packed_calls = _count_calls(monkeypatch, "_packed_sweeps")
    row_calls = _count_calls(monkeypatch, "_row_sweeps")
    rng = random.Random(40)
    for nc in (40, 6):
        rows = [[rng.randint(-99, 99) for _ in range(nc)] for _ in range(nc + 3)]
        assert integer_kernel_basis(rows) == [] == bareiss_kernel_basis(rows)
    assert packed_calls == row_calls == []


def test_kernel_with_many_free_columns_at_most_one_lifts_nothing(monkeypatch):
    # With most = 1, a first factorization with two free columns gives
    # None: no lift, no step, nothing spent.  With one, the kernel is the
    # one given without most.
    lift_calls = _count_calls(monkeypatch, "_lift")
    budget = linalg.lift_budget()
    rows = [[1, 2, 3, 4], [2, 3, 5, 7]]
    assert integer_kernel_basis(rows, budget, 1) is None
    assert lift_calls == [] and budget == linalg.lift_budget()
    rows.append([1, -1, 4, 2])
    assert integer_kernel_basis(rows, budget, 1) == bareiss_kernel_basis(rows)
    assert len(lift_calls) == 1


def _matrices(nr, nc, entries):
    return st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr)


def _product(left, right):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@st.composite
def _big_integer_matrices(draw):
    """Integer matrices, a third of each kind.  Free and product ones have
    1-8 rows and columns and entries up to 2^300; a product goes through
    k < min(shape) columns (k = 1 for a single row or column), so it is
    rank-deficient with a structured kernel.  Tall ones have dependent
    leading rows: an nc x nc product of rank k < nc, then 1-3 rows that
    are free (the whole kernel is smaller than the block's) or products
    through the same k columns (the kernels agree), entries up to 2^3,
    2^40 or 2^300."""
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = st.integers(-2 ** 300, 2 ** 300)
    kind = draw(st.sampled_from(["free", "product", "tall"]))
    if kind == "free":
        return draw(_matrices(nr, nc, entries))
    if kind == "product":
        k = draw(st.integers(1, max(1, min(nr, nc) - 1)))
        return _product(draw(_matrices(nr, k, entries)), draw(_matrices(k, nc, st.integers(-9, 9))))
    nc = draw(st.integers(2, 7))
    k = draw(st.integers(1, nc - 1))
    bits = draw(st.sampled_from([3, 40, 300]))
    entries = st.integers(-2 ** bits, 2 ** bits)
    right = draw(_matrices(k, nc, st.integers(-9, 9)))
    more = draw(st.integers(1, 3))
    if draw(st.booleans()):
        extra = draw(_matrices(more, nc, entries))
    else:
        extra = _product(draw(_matrices(more, k, entries)), right)
    return _product(draw(_matrices(nc, k, entries)), right) + extra


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_big_integer_matrices())
def test_integer_kernel_basis_matches_bareiss_fuzzed(rows):
    assert integer_kernel_basis(rows) == bareiss_kernel_basis(rows)


@st.composite
def _big_entry_matrices(draw):
    """Integer matrices with 1-6 rows and columns built from entries of 500
    to 2,000 bits, a third of each kind: free ones; products through k <
    min(shape) columns of entries in -9..9, rank-deficient with a
    structured kernel; and tall ones whose leading square block is such a
    product, with 1-3 more rows that are free or in its row space.  Their
    kernel entries reach about 5,500 bits."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bits = draw(st.integers(500, 2000))
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def entries(rows, cols):
        return [[rng.choice([-1, 1]) * (rng.getrandbits(bits) | 1 << bits - 1) for _ in range(cols)]
                for _ in range(rows)]

    def small(rows, cols):
        return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]

    kind = draw(st.sampled_from(["free", "product", "tall"]))
    if kind == "free":
        return entries(nr, nc)
    if kind == "product":
        k = rng.randint(1, max(1, min(nr, nc) - 1))
        return _product(entries(nr, k), small(k, nc))
    nc = max(nc, 2)
    k = rng.randint(1, nc - 1)
    right = small(k, nc)
    more = rng.randint(1, 3)
    extra = entries(more, nc) if rng.random() < 0.5 else _product(entries(more, k), right)
    return _product(entries(nc, k), right) + extra


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_big_entry_matrices())
def test_kernels_of_big_entries_lift_with_no_bareiss_pass(rows):
    with pytest.MonkeyPatch.context() as mp:
        passes = []
        echelon = linalg._bareiss_echelon
        mp.setattr(linalg, "_bareiss_echelon", lambda rows: passes.append(1) or echelon(rows))
        basis = integer_kernel_basis(rows)
    assert passes == []
    assert basis == bareiss_kernel_basis(rows)


def _small_kernel_rows(rng, rank, free, nrows, bits):
    """nrows x (rank + free) integer rows X Y of rank `rank`: Y is the
    identity at `rank` random pivot columns with entries in {-1, 0, 1} at
    the free columns after each pivot, and X has entries up to 2^bits, so
    the kernel is Y's, entries -1..1, whatever the entries of the rows."""
    nc = rank + free
    pivots = sorted(rng.sample(range(nc), rank))
    y = [[0] * nc for _ in range(rank)]
    for i, c in enumerate(pivots):
        y[i][c] = 1
        for f in range(c + 1, nc):
            if f not in pivots:
                y[i][f] = rng.randint(-1, 1)
    x = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(rank)] for _ in range(nrows)]
    return _product(x, y), y


@st.composite
def _packed_kernels(draw):
    """(shape, rows) of a kernel whose factored block has 32-40 pivots.

    Shapes: "wide" (full row rank), "square" (nc rows of lower rank),
    "low_rank" (nc - 1 rows of rank at most nc - 2), "tall" (1-3 rows past
    nc, all in the row space), "refuted" (a tall matrix whose last row is
    outside the row space, so the block's vectors fail it and the whole
    matrix is factored), "edge" (a first row of +-(2^63 - 1) entries, in
    the row space) and "past_int64" (a first row with an entry 2^63, which
    the packed sweeps cannot hold).
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rank = draw(st.integers(32, 40))
    free = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["wide", "square", "low_rank", "tall", "refuted", "edge",
                                  "past_int64"]))
    bits = draw(st.sampled_from([3, 40, 55]))
    if shape == "low_rank":
        free = max(free, 2)
    nc = rank + free
    nrows = {"wide": rank, "square": nc, "low_rank": nc - 1}.get(shape, nc + rng.randint(1, 3))
    rows, y = _small_kernel_rows(rng, rank, free, nrows, bits)
    if shape == "refuted":
        rows[-1] = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(nc)]
    if shape in ("edge", "past_int64"):
        scale = 2 ** 63 - 1 if shape == "edge" else 2 ** 63
        rows[0] = [scale * v for v in y[0]]
    return shape, rows


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_packed_kernels())
def test_packed_kernel_matches_bareiss(case):
    shape, rows = case
    packed = []
    with pytest.MonkeyPatch.context() as mp:
        sweeps = linalg._packed_sweeps

        def recording(*args):
            result = sweeps(*args)
            packed.append(result is not None)
            return result

        mp.setattr(linalg, "_packed_sweeps", recording)
        assert integer_kernel_basis(rows) == bareiss_kernel_basis(rows)
    # The first factorization has at least 32 pivots, so it tries the
    # packed sweeps; only an entry past the signed 64-bit range refuses them.
    assert packed[0] == (shape != "past_int64")
    if shape == "edge":
        assert max(map(abs, rows[0])) == 2 ** 63 - 1


def test_lifted_block_rows_are_certified_by_congruence(monkeypatch):
    # The kernel vectors have entries -1..1 and reconstruct at the first
    # step, m = p.  With entries up to 2^3, every block row has
    # ||A_r||_1 ||v||_inf < p, so only the rows past the block (and none of
    # a wide block) are checked exactly; with entries up to 2^40 the bound
    # fails and every row is.
    handed = []
    annihilates = linalg._annihilates

    def counting(rows, vec):
        handed.append(len(rows))
        return annihilates(rows, vec)

    monkeypatch.setattr(linalg, "_annihilates", counting)
    lift_calls = _count_calls(monkeypatch, "_lift")
    rng = random.Random(28)
    for bits, nrows, exact in ((3, 36, 0), (3, 40, 2), (40, 36, 36), (40, 40, 40)):
        rows, y = _small_kernel_rows(rng, 36, 2, nrows, bits)
        del handed[:], lift_calls[:]
        basis = integer_kernel_basis(rows)
        assert basis == bareiss_kernel_basis(y) == bareiss_kernel_basis(rows)
        assert [args[3] for args in lift_calls] == [KERNEL_PRIME] * 2
        # Each of the two vectors, zero past its free column f, is checked
        # on its pivot rows R_<k (k pivots before f), none of them or all k,
        # then on the other nrows - k rows.
        pivots = [row.index(1) for row in y]
        k = [sum(c < max(i for i, v in enumerate(vec) if v) for c in pivots) for vec in basis]
        pinned = [0 if bits == 3 else kk for kk in k]
        assert handed == [pinned[0], nrows - k[0], pinned[1], nrows - k[1]], (handed, k)
    # The bound is strict: |(A v)_r| <= ||A_r||_1 ||v||_inf = m would not
    # make a multiple of m zero.  Rows 0-2 are block rows with norm times
    # ||v||_inf = 3 at 99 = m, 102 and 96: only row 2 is pinned.
    rows = [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert linalg._uncertified(rows, [0, 1, 2], [33, 34, 32], (-3, 2), 99) == [rows[0], rows[1]]


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


def test_kernel_prime_is_the_largest_prime_below_its_power_of_two():
    s = KERNEL_PRIME.bit_length()
    e = 2 ** s - KERNEL_PRIME
    assert _is_prime(KERNEL_PRIME)
    assert not any(_is_prime(x) for x in range(KERNEL_PRIME + 1, 2 ** s))
    assert pow(2, s, KERNEL_PRIME) == e  # the fold of _factor_mod_p
    # The fold's bounds need 3e <= 2^s; a slot of 511 rows fits one word.
    assert 3 * e <= 2 ** s and 2 * s + 1 + (511).bit_length() <= 64
    assert not _is_prime(KERNEL_PRIME * 576460752303423389)
    assert not _is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5, 7


def test_kernel_primes_are_every_prime_down_to_the_fold_bound(monkeypatch):
    # The sequence starts at KERNEL_PRIME and skips no prime.
    primes = _primes(300)
    assert primes[0] == KERNEL_PRIME
    assert primes == [n for n in range(KERNEL_PRIME, primes[-1] - 1, -1) if _is_prime(n)]
    # It ends at the fold's bound: every p = 2^27 - e it yields has
    # 3e <= 2^27, and the first prime past the bound is not yielded.
    top = 2 ** 27
    low = top - top // 3
    assert 3 * (top - low) <= top < 3 * (top - low + 1)
    start = next(n for n in range(low + 600, top) if _is_prime(n))
    monkeypatch.setattr(linalg, "KERNEL_PRIME", start)
    tail = list(linalg._kernel_primes())
    assert tail == [n for n in range(start, low - 1, -1) if _is_prime(n)]
    assert len(tail) > 20 and all(3 * (top - p) <= top for p in tail)
    below = next(n for n in range(low - 1, 0, -1) if _is_prime(n))
    assert 3 * (top - below) > top
    # Strong pseudoprimes to the bases 2 and 3 in the range are skipped.
    for composite in (101649241, 102690677, 106485121, 117987841):
        assert not _is_prime(composite)
        start = next(n for n in range(composite + 1, top) if _is_prime(n))
        monkeypatch.setattr(linalg, "KERNEL_PRIME", start)
        assert _primes(3) == [n for n in range(start, composite - 200, -1) if _is_prime(n)][:3]


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
        assert len(nz) == integer_rank(QMatrix(rows).ints)


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


def test_rat_str_and_cleared_rows():
    assert rat_str(rat("5")) == "5"
    assert rat_str(rat("-3/7")) == "-3/7"
    assert rat_str(5) == "5" and rat_str(-6, 4) == "-3/2" and rat_str(6, 3) == "2"
    assert rat_str(Fraction(-3, 7), 2) == "-3/14" and rat_str(0, 5) == "0"
    assert cleared_rows([[rat("1/2"), rat("-1/3")]]) == (6, ((3, -2),))
    assert cleared_rows([["-1/2", 3], [0, "1/4"]]) == (4, ((-2, 12), (0, 1)))
    assert cleared_rows([[6, -4], [0, 2]], 4) == (2, ((3, -2), (0, 1)))
    assert cleared_rows([[Fraction(2, 3), 4]], 6) == (9, ((1, 6),))
    assert cleared_rows([[0, 0]], 5) == (1, ((0, 0),))
    assert cleared_rows([]) == (1, ())


def test_floats_rejected():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        QMatrix([[0.5]])


def _gauss_jordan(rows):
    """Reference: the reduced rows (zero rows last) and the pivot columns of
    plain Gauss-Jordan elimination in Fractions."""
    work = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(work)) if work[i][c]), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                work[i] = [x - row[c] * y for x, y in zip(row, work[r])]
        pivots.append(c)
    return [tuple(row) for row in work], tuple(pivots)


def _fraction_rref(rows):
    """The Fraction route: the Gauss-Jordan reduced rows and pivots, with
    the rows cleared by the lcm of their denominators and the product of
    those multipliers."""
    ints, scale = [], 1
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        ints.append([x.numerator * (mult // x.denominator) for x in row])
    reduced, pivots = _gauss_jordan(rows)
    return reduced, pivots, ints, scale


def _fraction_nullspace(reduced, pivots, nc):
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        vec = [Fraction(0)] * nc
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def _assert_integer_pair(m):
    """Stored entries are ints over a positive den that no prime shares with all of them."""
    assert type(m.den) is int and m.den > 0
    assert all(type(x) is int for row in m.ints for x in row)
    assert gcd(m.den, *(x for row in m.ints for x in row)) == 1


@pytest.mark.parametrize("kind", ["int", "fraction", "zero-column"])
def test_integer_matrices_match_the_fraction_route(kind):
    """rref, nullspace, det and scale_columns give the rationals of the
    Fraction route, and equal matrices have equal pairs and hashes."""
    rng = random.Random("fraction-route:" + kind)
    entry = (lambda: rng.randint(-6, 6)) if kind == "int" else (lambda: _random_fraction(rng))
    cases = [[[], []]] if kind == "zero-column" else []
    for trial in range(120):
        rows = _random_rows(rng, 6, 6, entry)
        if kind == "zero-column" and rows:
            zero = rng.sample(range(len(rows[0])), rng.randint(1, len(rows[0])))
            rows = [[0 if j in zero else x for j, x in enumerate(row)] for row in rows]
        cases.append(rows)
        n = rng.randint(0, 5)
        cases.append([[entry() for _ in range(n)] for _ in range(n)])
    for rows in cases:
        frows = [tuple(map(Fraction, row)) for row in rows]
        m = QMatrix(rows)
        _assert_integer_pair(m)
        assert m.rows == tuple(frows) and m == QMatrix(frows) and hash(m) == hash(QMatrix(frows))
        expected, pivots, ints, scale = _fraction_rref(frows)
        reduced, rank, got_pivots = m.rref()
        _assert_integer_pair(reduced)
        assert reduced.rows == tuple(expected) and got_pivots == pivots and rank == len(pivots)
        assert reduced == QMatrix(expected) and hash(reduced) == hash(QMatrix(expected))
        kernel = m.nullspace()
        _assert_integer_pair(kernel)
        expected_kernel = _fraction_nullspace(expected, pivots, m.ncols)
        assert list(kernel.rows) == expected_kernel and kernel == QMatrix(expected_kernel)
        if m.nrows == m.ncols:
            assert m.det() == Fraction(linalg.integer_det(ints), scale)
        if m.ncols:
            scalars = [entry() for _ in range(m.ncols)]
            scaled = m.scale_columns(scalars)
            products = [tuple(x * Fraction(s) for x, s in zip(row, scalars)) for row in frows]
            _assert_integer_pair(scaled)
            assert scaled.rows == tuple(products) and scaled == QMatrix(products)
            assert hash(scaled) == hash(QMatrix(products))


def _oracle_matrices(rng):
    """Integer matrices of every shape the rank and kernel see: tall, wide,
    rank-deficient, with zero rows or no rows, and with entries that are
    multiples of KERNEL_PRIME (their rank mod p drops)."""
    matrices = [[], [[0, 0, 0]], [[0], [0]]]
    for trial in range(160):
        kind = ("low_rank", "tall", "wide", "mixed")[trial % 4]
        matrices.append(_random_integer_matrix(rng, kind, (3, 40, 120)[trial // 4 % 3]))
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        matrices.append([[KERNEL_PRIME * rng.randint(-3, 3) + rng.choice([0, 0, 1])
                          for _ in range(nc)] for _ in range(nr)])
    return matrices


def test_integer_rank_matches_fraction_elimination():
    rng = random.Random("integer-rank")
    for rows in _oracle_matrices(rng):
        assert integer_rank(rows) == len(_gauss_jordan(rows)[1]), rows
    # Rank drops mod KERNEL_PRIME but not over Q.
    assert integer_rank([[KERNEL_PRIME, 1], [0, KERNEL_PRIME]]) == 2
    assert integer_rank([[1, 1], [1, 1 + KERNEL_PRIME]]) == 2


def _fraction_kernel(rows, nc):
    """Reference: the Gauss-Jordan kernel, a 1 at each free column and
    -R[i][f] at pivot i, as primitive integer vectors."""
    reduced, pivots = _gauss_jordan(rows)
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        vec = [Fraction(0)] * nc
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return _primitive_at_free(basis)


def test_bareiss_kernel_basis_matches_fraction_elimination():
    rng = random.Random("bareiss-kernel")
    for rows in filter(None, _oracle_matrices(rng)):
        basis = bareiss_kernel_basis(rows)
        assert basis == _fraction_kernel(rows, len(rows[0])), rows
        assert all(gcd(*vec) == 1 and type(vec) is tuple for vec in basis)
        assert integer_kernel_basis(rows) == basis


def test_wide_rref_matches_fraction_elimination():
    # Rank 3 of 3 or 4 rows, 600 columns: the back-substitution solves only
    # the entries at the pivots.
    rng = random.Random("wide-rref")
    top = [[rng.randint(-9, 9) for _ in range(600)] for _ in range(3)]
    for rows in (top, top + [[a - 2 * b for a, b in zip(top[0], top[2])]]):
        rows = [[0, 0] + row[2:] for row in rows]
        reduced, rank, pivots = QMatrix(rows).rref()
        expected, expected_pivots = _gauss_jordan(rows)
        assert reduced.rows == tuple(expected) and pivots == expected_pivots and rank == 3
        echelon, got_pivots, _ = linalg._bareiss_echelon(rows)
        _, free, solutions = linalg._back_substitute(echelon, got_pivots, 600)
        # One entry per pivot and free column, zero where the pivot is later.
        assert len(free) == 597 and [len(x) for x in solutions] == [597] * 3
        assert all(x[j] == 0 for x, p in zip(solutions, pivots)
                   for j, f in enumerate(free) if f < p)


def _minors_by_det(rows):
    k, nc = len(rows), len(rows[0])
    return {cols: linalg.integer_det([[row[c] for c in cols] for row in rows])
            for cols in combinations(range(nc), k)}


@st.composite
def _wide_matrices(draw):
    """k x N integer matrices, 1 <= k <= N <= 8, square ones a third of
    the time, with entries up to 2^3 or 2^80 and rank-deficient ones (a row
    repeated or zeroed) among them."""
    k = draw(st.integers(1, 7))
    nc = k if draw(st.integers(0, 2)) == 0 else draw(st.integers(k, 8))
    bits = draw(st.sampled_from([3, 80]))
    rows = draw(_matrices(k, nc, st.integers(-2 ** bits, 2 ** bits)))
    if k > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0]) if draw(st.booleans()) else [0] * nc
    return rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_wide_matrices())
def test_maximal_minors_match_integer_det_on_both_routes(rows):
    expected = _minors_by_det(rows)
    for got in (linalg.integer_maximal_minors(rows), linalg._laplace_minors(rows)):
        assert got == expected and list(got) == list(expected)


@pytest.mark.parametrize("k, nc, laplace", [
    (1, 1, True), (2, 2, True), (2, 5, True), (3, 3, True), (3, 5, True), (4, 5, True),
    (4, 8, True), (6, 8, True), (4, 4, False), (5, 5, False), (5, 6, False), (7, 9, False)])
def test_maximal_minors_route_follows_the_shape(k, nc, laplace, monkeypatch):
    calls = []
    det = linalg.integer_det
    monkeypatch.setattr(linalg, "integer_det", lambda rows: calls.append(1) or det(rows))
    rng = random.Random("route %d %d" % (k, nc))
    rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(k)]
    assert linalg.integer_maximal_minors(rows) == _minors_by_det(rows)
    assert len(calls) == (0 if laplace else comb(nc, k)) + comb(nc, k)
