import dataclasses
import io
import json
import random
import sys
import warnings
from fractions import Fraction
from functools import reduce
from itertools import combinations
from itertools import product as iproduct
from math import comb, factorial, prod
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st
from test_acceptance import criterion_05_grid, criterion_06_grid

from hadamard_spaces import cli, tropical
from hadamard_spaces.linalg import (BudgetExhausted, PreconditionError, rat_str,
                                    smith_normal_form)
from hadamard_spaces.tropical import (NonGenericVector, SignedConeFan,
                                      _quotient_rep, cone_pair_meets,
                                      degree_linear_products,
                                      degree_with_reciprocals,
                                      draw_generic_vector, fan_degree_pipeline,
                                      genericity_bound, lattice_index,
                                      mask_indices, minkowski_sum, negate_fan,
                                      stable_mult_origin,
                                      standard_tls)


# ---------------------------------------------------------------------------
# reference oracles: exact linear feasibility by Fourier-Motzkin elimination,
# the Minkowski sum as a sum over every ordered factorization, and the fan
# pipeline on cones of two frozensets, as it stood before cones were bitmasks


def _fm_feasible(equalities, inequalities, nvars):
    """Decide feasibility of  eq: a.x = b,  ineq: a.x <= b (or < b) over Q.

    equalities: list of (coeff tuple, rhs); inequalities: list of
    (coeff tuple, rhs, strict).  Equalities are eliminated by substitution,
    the rest by Fourier-Motzkin; exact rational arithmetic throughout.
    """
    eqs = [([Fraction(c) for c in a], Fraction(b)) for a, b in equalities]
    ineqs = [([Fraction(c) for c in a], Fraction(b), s) for a, b, s in inequalities]
    alive = list(range(nvars))

    while eqs:
        coeffs, rhs = eqs.pop()
        pivot = next((v for v in alive if coeffs[v]), None)
        if pivot is None:
            if rhs != 0:
                return False
            continue
        pv = coeffs[pivot]
        sol = ([-c / pv for c in coeffs], rhs / pv)  # x_pivot = sol0.x + sol1
        sol[0][pivot] = Fraction(0)

        def substitute(a, b):
            f = a[pivot]
            if not f:
                return a, b
            new = [c + f * s for c, s in zip(a, sol[0])]
            new[pivot] = Fraction(0)
            return new, b - f * sol[1]

        eqs = [substitute(a, b) for a, b in eqs]
        ineqs = [(*substitute(a, b), s) for a, b, s in ineqs]
        alive.remove(pivot)

    for var in list(alive):
        uppers, lowers, rest = [], [], []
        for a, b, s in ineqs:
            if a[var] > 0:
                uppers.append(([c / a[var] for c in a], b / a[var], s))
            elif a[var] < 0:
                lowers.append(([c / -a[var] for c in a], b / -a[var], s))
            else:
                rest.append((a, b, s))
        new = rest
        for ua, ub, us in uppers:
            for la, lb, ls in lowers:
                # -la.x' + x >= -lb  and  ua.x' + x <= ub  combine to:
                a = [u + l for u, l in zip(ua, la)]
                a[var] = Fraction(0)
                new.append((a, ub + lb, us or ls))
        seen = set()
        ineqs = []
        for a, b, s in new:
            key = (tuple(a), b, s)
            if key not in seen:
                seen.add(key)
                ineqs.append((a, b, s))
        alive.remove(var)
        for a, b, s in ineqs:
            if not any(a):
                if b < 0 or (s and b == 0):
                    return False
        ineqs = [(a, b, s) for a, b, s in ineqs if any(a)]

    # Constraints can become constant already during equality substitution;
    # by now every variable has been eliminated one way or the other.
    for a, b, s in ineqs:
        if not any(a) and (b < 0 or (s and b == 0)):
            return False
    return True


def _bits(mask):
    """A mask's set bits in increasing order, one shift per bit position."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _signed_indices(cone):
    """A cone (plus, minus)'s generators sign * e_index as (index, sign) pairs."""
    plus, minus = cone
    return [(i, 1) for i in _bits(plus)] + [(j, -1) for j in _bits(minus)]


def _cone_shift_system(cone1, cone2, v, n, strict):
    """Linear system for sigma1 meet (sigma2 + v), modulo the all-ones line.

    Variables: one nonnegative coefficient per generator of each cone, plus
    one free variable for the quotient by R*1.
    """
    gens1 = _signed_indices(cone1)
    gens2 = _signed_indices(cone2)
    k = len(gens1) + len(gens2) + 1
    equalities = []
    for c in range(n + 1):
        row = [Fraction(0)] * k
        for t, (idx, sign) in enumerate(gens1):
            if idx == c:
                row[t] = Fraction(sign)
        for t, (idx, sign) in enumerate(gens2):
            if idx == c:
                row[len(gens1) + t] = Fraction(-sign)
        row[-1] = Fraction(-1)
        equalities.append((row, Fraction(v[c])))
    inequalities = []
    for t in range(len(gens1) + len(gens2)):
        row = [Fraction(0)] * k
        row[t] = Fraction(-1)
        inequalities.append((row, Fraction(0), strict))
    return equalities, inequalities, k


def _fm_meets(cone1, cone2, v, n, strict):
    return _fm_feasible(*_cone_shift_system(cone1, cone2, v, n, strict))


def _minkowski_oracle(fans):
    """{(plus, minus): mult} summed over every ordered factorization."""
    total_dim = sum(f.dim for f in fans)
    mults = {}
    for combo in iproduct(*(f.cones.items() for f in fans)):
        plus = reduce(or_, (p for (p, _), _ in combo), 0)
        minus = reduce(or_, (m for (_, m), _ in combo), 0)
        if plus.bit_count() + minus.bit_count() != total_dim or (plus & minus):
            continue
        mults[(plus, minus)] = mults.get((plus, minus), 0) + prod(c for _, c in combo)
    return mults


def _as_sets(cone):
    return tuple(frozenset(_bits(mask)) for mask in cone)


def _set_cone_order(cone):
    """Sort key of a frozenset cone (plus, minus): sorted plus, then minus."""
    plus, minus = cone
    return sorted(plus), sorted(minus)


def _set_fan(fan):
    """A fan's cones as frozenset pairs in frozenset order, with multiplicities."""
    cones = {_as_sets(cone): mult for cone, mult in fan.cones.items()}
    return dict(sorted(cones.items(), key=lambda item: _set_cone_order(item[0])))


def _set_minkowski_fold(fans):
    """The Minkowski fold on frozenset cones, in frozenset order."""
    cones = {(frozenset(), frozenset()): 1}
    for fan in fans:
        factors = [(cplus | cminus, cplus, cminus, cmult)
                   for (cplus, cminus), cmult in _set_fan(fan).items()]
        folded = {}
        for (plus, minus), mult in cones.items():
            used = plus | minus
            for support, cplus, cminus, cmult in factors:
                if support.isdisjoint(used):
                    key = (plus | cplus, minus | cminus)
                    folded[key] = folded.get(key, 0) + mult * cmult
        cones = folded
    return dict(sorted(cones.items(), key=lambda item: _set_cone_order(item[0])))


def _set_stable_mult(fan_f, fan_g, v):
    """Stable intersection by the frozenset partner lookup: (total, record),
    the record's cones as frozenset pairs."""
    n = fan_f.ambient_dim
    cones_f, cones_g = _set_fan(fan_f), _set_fan(fan_g)
    order = sorted(range(n + 1), key=v.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    total, record = 0, []
    for cone1, mult1 in cones_f.items():
        plus1, minus1 = cone1
        low = max((rank[i] for i in minus1), default=-1)
        high = min((rank[i] for i in plus1), default=n + 1)
        rest = [i for i in order if i not in plus1 and i not in minus1]
        keys = [(frozenset(rest[:k]), frozenset(rest[k + 1:]))
                for k, c0 in enumerate(rest) if low < rank[c0] < high]
        for cone2 in sorted((key for key in keys if key in cones_g), key=_set_cone_order):
            plus2, minus2 = cone2
            (c0,) = set(range(n + 1)) - plus1 - minus1 - plus2 - minus2
            if (all(v[i] >= v[c0] for i in plus1 | minus2)
                    and all(v[i] <= v[c0] for i in minus1 | plus2)):
                total += mult1 * cones_g[cone2]
                record.append((cone1, cone2, 1))
    return total * fan_f.global_weight * fan_g.global_weight, record


def _all_pairs_oracle(fan_f, fan_g, v):
    """Stable intersection by testing every cone pair: (total, record)."""
    n = fan_f.ambient_dim
    total, record = 0, []
    for cone1, mult1 in fan_f.cones.items():
        for cone2, mult2 in fan_g.cones.items():
            if reduce(or_, cone1) & reduce(or_, cone2) or not cone_pair_meets(cone1, cone2, v, n):
                continue
            total += mult1 * mult2
            record.append((cone1, cone2, 1))
    return total * fan_f.global_weight * fan_g.global_weight, record


def _first_primes_by_float_sqrt(start, count):
    """Reference prime search, bounded by a float square root."""
    out = []
    x = start
    while len(out) < count:
        if all(x % p for p in range(2, int(x ** 0.5) + 1)):
            out.append(x)
        x += 1
    return out


def _mask(coords):
    return sum(1 << i for i in coords)


def _random_signs(rng, support):
    plus = _mask(i for i in support if rng.random() < 0.5)
    return plus, _mask(support) ^ plus


def _cone(plus, minus=()):
    return _mask(plus), _mask(minus)


def test_mask_indices_matches_bit_scan():
    rng = random.Random(75)
    masks = [0, 1, 2 ** 12 - 1, 2 ** 12, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 999 - 1]
    masks += [rng.getrandbits(rng.choice((9, 12, 13, 63, 64, 65, 200, 999))) for _ in range(300)]
    for mask in masks * 2:  # the second read of a memoized mask hits the memo
        assert mask_indices(mask) == tuple(_bits(mask))


def _random_cone(rng, m, n):
    return _random_signs(rng, rng.sample(range(n + 1), m))


def test_cone_order_matches_frozenset_order():
    rng = random.Random(76)
    for n in (1, 2, 3, 5, 8, 62, 63, 64, 65, 130):
        for _ in range(20):
            m = rng.randint(0, min(n, 6)) if rng.random() < 0.5 else rng.randint(0, n)
            cones = {_random_cone(rng, m, n): rng.randint(1, 3) for _ in range(rng.randint(1, 40))}
            fan = SignedConeFan(n, m, cones)
            assert fan.cones == cones
            as_sets = [_as_sets(cone) for cone in fan.cones]
            assert as_sets == sorted(as_sets, key=_set_cone_order)
        # Cones of mixed dimensions, as the hits of one stable-intersection cone can be.
        cones = [_random_cone(rng, rng.randint(0, n), n) for _ in range(60)]
        got = [_as_sets(cone) for cone in sorted(cones, key=tropical._cone_order)]
        assert got == sorted(map(_as_sets, cones), key=_set_cone_order)


def _wide_fans(rng, n):
    """One to three random fans in P^n of total dimension at most 4 and n."""
    fans, room = [], min(4, n)
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(0, min(room, 2))
        cones = {_random_cone(rng, m, n): rng.randint(1, 3) for _ in range(rng.randint(1, 12))}
        fan = SignedConeFan(n, m, cones, Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        fans.append(negate_fan(fan) if rng.random() < 0.3 else fan)
        room -= m
    return fans


def test_minkowski_sum_matches_frozenset_fold():
    rng = random.Random(77)
    for n in [rng.randint(2, 8) for _ in range(40)] + [63, 64, 65, 100] * 10:
        fans = _wide_fans(rng, n) if n > 8 or rng.random() < 0.5 else [
            _random_fan(rng, rng.randint(0, n // 2), n) for _ in range(rng.randint(1, 2))]
        fan = minkowski_sum(fans, delta=rng.randint(1, 3))
        want = _set_minkowski_fold(fans)
        assert [(_as_sets(cone), mult) for cone, mult in fan.cones.items()] == list(want.items())
        if n <= 8:
            assert fan.cones == _minkowski_oracle(fans)


def _partner_fan(rng, m, n, v):
    """A fan of dimension n - m whose cones are often stable-intersection
    partners under v: each leaves out m + 1 coordinates, among them c0, and
    mostly puts the rest with v below v_c0 in plus and above it in minus."""
    cones = {}
    for _ in range(rng.randint(1, 4 * (n + 1))):
        left_out = rng.sample(range(n + 1), m + 1)
        support = [i for i in range(n + 1) if i not in left_out]
        if rng.random() < 0.8:
            plus = _mask(i for i in support if v[i] < v[left_out[0]])
            cones[(plus, _mask(support) ^ plus)] = rng.randint(1, 3)
        else:
            cones[_random_signs(rng, support)] = rng.randint(1, 3)
    return SignedConeFan(n, n - m, cones, Fraction(rng.randint(1, 3), rng.randint(1, 3)))


def test_stable_mult_matches_frozenset_lookup():
    rng = random.Random(78)
    hits = several = wide_hits = 0
    for n in [rng.randint(1, 8) for _ in range(60)] + [63, 64, 65, 100] * 8:
        m = rng.randint(0, min(n, 3))
        v = draw_generic_vector(n, rng)
        # The standard fans of a wide P^n have too many cones for a test.
        if n > 8 or rng.random() < 0.5:
            fan_f = _random_signed_fan(rng, m, n)
        else:
            fan_f = _random_fan(rng, m, n)
        fan_g = _partner_fan(rng, m, n, v)
        total, record = stable_mult_origin(fan_f, fan_g, v)
        want_total, want_record = _set_stable_mult(fan_f, fan_g, v)
        assert total == want_total
        assert [(_as_sets(c1), _as_sets(c2), idx) for c1, c2, idx in record] == want_record
        hits += len(record)
        wide_hits += len(record) * (n >= 64)
        firsts = [cone1 for cone1, _, _ in record]
        several += any(firsts.count(c) > 1 for c in firsts)
    assert hits > 500 and wide_hits > 100 and several > 20


def test_traced_layers_count_pipelines_and_pairs(monkeypatch, capsys):
    # A tracer rebinds these module globals by name: every partner hit must be
    # certified through cone_pair_meets, and each pipeline sums its fans once.
    calls = {"meets": 0, "minkowski": 0}

    def counting_meets(*args):
        calls["meets"] += 1
        return meets(*args)

    def counting_minkowski(*args, **kwargs):
        calls["minkowski"] += 1
        return minkowski(*args, **kwargs)

    meets, minkowski = tropical.cone_pair_meets, tropical.minkowski_sum
    monkeypatch.setattr(tropical, "cone_pair_meets", counting_meets)
    monkeypatch.setattr(tropical, "minkowski_sum", counting_minkowski)
    payloads = [{"plain": [[1, 1], [1, 1]], "n": 3}, {"plain": [[2, 2]], "n": 5},
                {"plain": [[1, 2]], "reciprocal": [[1, 2]], "n": 12},
                {"plain": [[1, 1]], "reciprocal": [[2, 1]], "n": 6},
                {"plain": [[0, 1]], "n": 70}]
    pairs = 0
    for seed, payload in enumerate(payloads):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert cli.main(["degree", "--transcript", "--seed", str(seed)]) == 0
        pairs += len(json.loads(capsys.readouterr().out)["transcript"]["contributing_pairs"])
    assert calls == {"meets": pairs, "minkowski": len(payloads)}
    assert pairs > len(payloads)


def test_standard_tls_cone_counts():
    assert len(standard_tls(0, 4).cones) == 1
    assert standard_tls(0, 4).dim == 0
    assert len(standard_tls(1, 3).cones) == 4
    fan = standard_tls(2, 3)
    assert len(fan.cones) == 6
    assert all(mult == 1 for mult in fan.cones.values())
    with pytest.raises(PreconditionError):
        standard_tls(4, 3)
    # Every m-subset of coordinates, inside and past the memoized domain.
    for n in (1, 2, 5, 6, tropical.MEMO_COORDS, tropical.MEMO_COORDS + 1):
        for m in range(n + 1) if n < 7 else (1, n - 1):
            want = {(_mask(s), 0): 1 for s in combinations(range(n + 1), m)}
            assert standard_tls(m, n).cones == want
            assert standard_tls(m, n, True).cones == {(0, plus): 1 for plus, _ in want}


@pytest.mark.parametrize("negated", [False, True])
def test_standard_fans_are_built_in_cone_order(negated):
    # The builder's fan has the cones, and the order, of the sorting
    # constructor's, given the cones in reverse: every m at n <= 13 (both
    # sides of MEMO_COORDS and of m = (n + 1) / 2), and in P^998 and P^999
    # the fans of at most n + 1 cones, which `degree --transcript` builds
    # there (m = n - 1 would have binom(n + 1, 2)).
    cases = [(m, n) for n in range(14) for m in range(n + 1)]
    cases += [(m, n) for n in (998, 999) for m in (0, 1, n)]
    for m, n in cases:
        fan = tropical._standard_fan(m, n, negated)
        oracle = SignedConeFan(n, m, dict(reversed(fan.cones.items())))
        assert list(fan.cones.items()) == list(oracle.cones.items())
        assert fan == oracle and len(fan.cones) == comb(n + 1, m)


def test_fans_are_immutable_and_standard_fans_shared():
    fan = standard_tls(2, 4)
    for field, value in [("ambient_dim", 5), ("dim", 1), ("cones", {}), ("global_weight", 2)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fan, field, value)
    with pytest.raises(TypeError):
        fan.cones[_cone([0, 1])] = 2
    with pytest.raises(TypeError):
        del fan.cones[_cone([0, 1])]
    assert fan.cones[_cone([0, 1])] == 1 and len(fan.cones) == comb(5, 2)
    # Built once: the same value on every call, plain and negated alike,
    # and equal to a fan built afresh past the memoized domain.
    assert standard_tls(2, 4) is fan
    assert standard_tls(2, 4, negated=True) is standard_tls(2, 4, True)
    assert standard_tls(2, 4, negated=True) == negate_fan(fan)
    n = tropical.MEMO_COORDS
    assert standard_tls(1, n) is not standard_tls(1, n)
    assert standard_tls(1, n) == standard_tls(1, n)
    # A caller's dict is copied, not shared.
    cones = {_cone([0]): 1, _cone([1]): 1}
    mine = SignedConeFan(2, 1, cones)
    cones[_cone([2])] = 1
    assert len(mine.cones) == 2


def test_negate_fan():
    fan = standard_tls(1, 3)
    neg = negate_fan(fan)
    assert all(not plus and minus.bit_count() == 1 for plus, minus in neg.cones)
    assert negate_fan(neg) == fan
    zero = standard_tls(0, 3)
    assert negate_fan(zero) == zero


def test_fan_constructor_validation():
    for cones, message in (({_cone([1], [1]): 1}, "plus and minus sets overlap"),
                           ({_cone([1]): 1, _cone([2]): 0}, "multiplicity must be positive"),
                           ({_cone([1]): 1, _cone([1, 2]): 1}, "cone of dim 2 in a fan of dim 1"),
                           ({_cone([], [4]): 1}, r"index outside ambient range 0\.\.3")):
        with pytest.raises(ValueError, match=message):
            SignedConeFan(3, 1, cones)
    cones = {_cone([2], [0]): 1, _cone([0], [1]): 2, _cone([], [1, 3]): 1, _cone([0, 3]): 3}
    fan = SignedConeFan(3, 2, cones)
    assert fan.cones == cones
    assert list(fan.cones) == [_cone([], [1, 3]), _cone([0], [1]), _cone([0, 3]), _cone([2], [0])]


def _assert_is_the_checked_fan(fan):
    """A fan built without `_check_cones` is the constructor's fan of the
    same cones and weight: given the cones in reverse, the constructor
    validates them and sorts them back into the builder's order."""
    want = SignedConeFan(fan.ambient_dim, fan.dim, dict(reversed(fan.cones.items())),
                         fan.global_weight)
    assert fan == want and list(fan.cones.items()) == list(want.cones.items())
    assert type(fan.global_weight) is Fraction
    with pytest.raises(TypeError):  # read-only, as the constructor's
        fan.cones[next(iter(fan.cones))] = 2


def test_standard_fans_skip_no_check_they_would_fail():
    # Every standard fan of the memoized domain, plain and negated, and in
    # P^63, P^64 and P^100 those of at most binom(n + 1, 2) cones.
    cases = [(m, n) for n in range(tropical.MEMO_COORDS) for m in range(n + 1)]
    cases += [(m, n) for n in (63, 64, 100) for m in (0, 1, 2, n - 1, n)]
    for m, n in cases:
        for negated in (False, True):
            _assert_is_the_checked_fan(standard_tls(m, n, negated))
            _assert_is_the_checked_fan(tropical._standard_fan(m, n, negated))


def test_pipeline_fans_skip_no_check_they_would_fail(monkeypatch):
    # Each restriction to the representative cone and each summed fan of
    # the criterion 5/6 instances, caught as the pipeline builds it.
    for n in range(9):  # the standard fans the grids use, built beforehand
        for m in range(n + 1):
            standard_tls(m, n), standard_tls(m, n, negated=True)
    built_fan = tropical._built_fan
    built = []
    monkeypatch.setattr(tropical, "_built_fan", lambda *args: built.append(built_fan(*args))
                        or built[-1])
    rng = random.Random(82)
    grid = criterion_05_grid() + criterion_06_grid()
    restrictions = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for plain, recip, n in grid:
            built.clear()
            summed = fan_degree_pipeline(plain, recip, n, rng)["fan"]
            factors = [mk for mk, _ in [*plain, *recip] if mk]
            assert len(built) == len(factors) + 1 and built[-1] is summed
            for fan in built:
                _assert_is_the_checked_fan(fan)
            restrictions += len(factors)
    assert len(grid) == 342 and restrictions > 342


def test_lattice_index_basics():
    n = 4
    a = _cone([0, 1])
    b = _cone([2], [3])
    assert lattice_index([a], n) == 1
    assert lattice_index([a, b], n) == 1
    overlapping = _cone([1, 2])
    with pytest.raises(PreconditionError):
        lattice_index([a, overlapping], n)


def test_lattice_index_is_one_by_smith_form():
    rng = random.Random(69)
    for n in range(1, 9):
        for _ in range(25):
            support = rng.sample(range(n + 1), rng.randint(1, n))
            parts = [[] for _ in range(rng.randint(1, 3))]
            for i in support:
                rng.choice(parts).append(i)
            cones = [_random_signs(rng, part) for part in parts]
            rows = [_quotient_rep(i, sign, n) for c in cones for i, sign in _signed_indices(c)]
            assert smith_normal_form(rows) == [1] * len(rows)
            assert lattice_index(cones, n) == 1
        # All n+1 images are linearly dependent: e_0 + ... + e_n = 0.
        with pytest.raises(PreconditionError):
            lattice_index([_random_signs(rng, range(n + 1))], n)


def test_minkowski_two_lines():
    fan = minkowski_sum([standard_tls(1, 3), standard_tls(1, 3)])
    assert fan.dim == 2
    assert len(fan.cones) == comb(4, 2)
    assert all(mult == 2 for mult in fan.cones.values())
    assert fan.global_weight == 1


def test_minkowski_power_with_delta():
    r = 3
    fans = [standard_tls(1, 4) for _ in range(r)]
    fan = minkowski_sum(fans, delta=factorial(r))
    assert all(mult == factorial(r) for mult in fan.cones.values())
    assert fan.global_weight == Fraction(1, factorial(r))
    # effective multiplicity r!/r! = 1
    assert all(mult * fan.global_weight == 1 for mult in fan.cones.values())


def test_minkowski_plane_squares():
    fan = minkowski_sum([standard_tls(2, 5), standard_tls(2, 5)], delta=2)
    assert all(mult == comb(4, 2) for mult in fan.cones.values())
    assert all(mult * fan.global_weight == 3 for mult in fan.cones.values())


def test_minkowski_mixed_signs_skips_clashes():
    fan = minkowski_sum([standard_tls(1, 2), negate_fan(standard_tls(1, 2))])
    # cones pos(e_i) + neg(e_j) with i != j only
    assert len(fan.cones) == 6
    assert all(plus != minus and plus.bit_count() == minus.bit_count() == 1
               for plus, minus in fan.cones)


def test_minkowski_dimension_overflow():
    with pytest.raises(PreconditionError):
        minkowski_sum([standard_tls(2, 3), standard_tls(2, 3)])


def _random_fan(rng, m, n):
    """A standard or negated standard fan, or a random sub-fan of one with
    random multiplicities (sums of those need not be balanced)."""
    fan = standard_tls(m, n)
    if rng.random() < 0.5:
        fan = negate_fan(fan)
    if rng.random() < 0.5:
        kept = rng.sample(list(fan.cones), rng.randint(1, len(fan.cones)))
        fan = SignedConeFan(n, m, {c: rng.randint(1, 3) for c in kept},
                            Fraction(rng.randint(1, 3), rng.randint(1, 3)))
    return fan


def test_minkowski_sum_matches_factorization_oracle():
    rng = random.Random(68)
    for _ in range(80):
        n = rng.randint(2, 6)
        room = n
        fans = []
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(0, min(room, 2))
            fans.append(_random_fan(rng, m, n))
            room -= m
        delta = rng.randint(1, 4)
        fan = minkowski_sum(fans, delta)
        assert fan.dim == n - room
        assert fan.cones == _minkowski_oracle(fans)
        assert fan.global_weight == prod(f.global_weight for f in fans) / delta


def test_balancing_of_produced_fans():
    assert standard_tls(2, 4).is_balanced()
    assert negate_fan(standard_tls(2, 4)).is_balanced()
    assert minkowski_sum([standard_tls(1, 4), standard_tls(1, 4)]).is_balanced()
    assert minkowski_sum([standard_tls(1, 4), negate_fan(standard_tls(1, 4))]).is_balanced()


def test_balancing_detects_bad_weights():
    fan = SignedConeFan(2, 1, {_cone([i]): 2 if i == 0 else 1 for i in range(3)})
    assert not fan.is_balanced()
    # Rays e_0 and -e_0 make a line, balanced only when the signs are read.
    assert SignedConeFan(2, 1, {_cone([0]): 1, _cone([], [0]): 1}).is_balanced()


def test_fm_feasibility_basics():
    f = Fraction
    assert _fm_feasible([], [([f(1)], f(1), False)], 1)
    assert not _fm_feasible([], [([f(1)], f(1), False), ([f(-1)], f(-2), False)], 1)
    assert not _fm_feasible([([f(1)], f(3))], [([f(1)], f(1), False)], 1)
    assert _fm_feasible([([f(1)], f(3))], [([f(1)], f(5), False)], 1)
    assert not _fm_feasible([], [([f(1)], f(0), True), ([f(-1)], f(0), False)], 1)
    assert _fm_feasible([], [([f(1), f(1)], f(2), False), ([f(-1), f(0)], f(0), False)], 2)


def test_cone_pair_meets_shifted():
    n = 2
    v = (Fraction(5), Fraction(2), Fraction(0))
    up = _cone([0])
    down = _cone([2])
    # v - v_2 has positive 0-coordinate: pos(e0) meets pos(e2)+v via x = w0*e0.
    assert cone_pair_meets(up, down, v, n)
    # but pos(e1) cannot reach: would need the 0- and 2-coordinates equal
    mid = _cone([1])
    assert not cone_pair_meets(mid, down, v, n)


def test_cone_pair_meets_matches_fm_oracle():
    rng = random.Random(67)
    hits = ties = 0
    for trial in range(800):
        n = rng.randint(2, 7)
        c0 = rng.randrange(n + 1)
        rest = [i for i in range(n + 1) if i != c0]
        rng.shuffle(rest)
        k = rng.randint(0, n)
        cone1, cone2 = _random_signs(rng, rest[:k]), _random_signs(rng, rest[k:])
        if trial % 2:
            v = draw_generic_vector(n, rng)
        else:
            v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n + 1))
        meets = cone_pair_meets(cone1, cone2, v, n)
        # A strictly increasing relabeling, here the dense rank, keeps every comparison.
        assert cone_pair_meets(cone1, cone2, [sorted(set(v)).index(x) for x in v], n) == meets
        tied = any(v[i] == v[c0] for i in rest)
        assert meets == _fm_meets(cone1, cone2, v, n, strict=False)
        assert _fm_meets(cone1, cone2, v, n, strict=True) == (meets and not tied)
        hits += meets
        ties += meets and tied
    assert hits > 50 and ties > 10


def test_cone_pair_meets_requires_complementary_cones():
    v = draw_generic_vector(3, random.Random(70))
    cone = _cone([0])
    for other in (_cone([0, 1], [2]),  # overlapping
                  _cone([1]),  # covers 2 of 4
                  _cone([1], [2, 3])):  # covers all 4
        with pytest.raises(PreconditionError):
            cone_pair_meets(cone, other, v, 3)


def test_cone_pair_meets_both_ways():
    # sigma1 meets sigma2 + v iff sigma2 meets sigma1 - v, on random signed
    # cones that leave out one coordinate, ties in v allowed: what lets
    # stable_mult_origin walk either fan.
    rng = random.Random(84)
    meets = 0
    for trial in range(3000):
        n = rng.randint(1, 9)
        coords = rng.sample(range(n + 1), n + 1)
        k = rng.randint(0, n)
        cone1, cone2 = _random_signs(rng, coords[1:k + 1]), _random_signs(rng, coords[k + 1:])
        if trial % 2:
            v = draw_generic_vector(n, rng)
        else:
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n + 1)]
        met = cone_pair_meets(cone1, cone2, v, n)
        assert met == cone_pair_meets(cone2, cone1, [-x for x in v], n)
        meets += met
    assert 300 < meets < 2700


def test_stable_mult_standard_complements():
    rng = random.Random(61)
    for m, n in [(1, 2), (1, 3), (2, 4), (2, 5), (0, 3)]:
        value, _ = stable_mult_origin(standard_tls(m, n), standard_tls(n - m, n),
                                      draw_generic_vector(n, rng))
        assert value == 1


def test_stable_mult_respects_weights():
    rng = random.Random(62)
    fan = minkowski_sum([standard_tls(1, 4), standard_tls(1, 4)])  # weight-2 cones
    assert stable_mult_origin(fan, standard_tls(2, 4), draw_generic_vector(4, rng))[0] == 2


def test_stable_mult_validation():
    rng = random.Random(63)
    with pytest.raises(PreconditionError):
        stable_mult_origin(standard_tls(1, 3), standard_tls(1, 3),
                           draw_generic_vector(3, rng))
    bad_v = (Fraction(1), Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(NonGenericVector):
        stable_mult_origin(standard_tls(1, 3), standard_tls(2, 3), bad_v)
    with pytest.raises(NonGenericVector):  # equal values of different types
        stable_mult_origin(standard_tls(1, 3), standard_tls(2, 3), (1, Fraction(2, 3), Fraction(2), 2))


def _mixed_fan(rng, m, n):
    """A fan of dimension m: standard, negated, or a Minkowski sum of
    standard and negated factors (mixed signs, shared supports)."""
    kind = rng.randrange(3)
    if kind == 0 or m < 2:
        fan = standard_tls(m, n)
        return negate_fan(fan) if kind == 1 else fan
    split = rng.randint(1, m - 1)
    return minkowski_sum([standard_tls(split, n), negate_fan(standard_tls(m - split, n))],
                         delta=rng.randint(1, 2))


def _random_signed_fan(rng, m, n):
    """Random signed cones of dimension m with random multiplicities: the
    plus sets differ in size, so one sigma1 can meet several of them."""
    cones = {}
    for _ in range(rng.randint(1, 3 * (n + 1))):
        cones[_random_signs(rng, rng.sample(range(n + 1), m))] = rng.randint(1, 3)
    return SignedConeFan(n, m, cones, Fraction(rng.randint(1, 3), rng.randint(1, 3)))


def _displacements(rng, n):
    yield draw_generic_vector(n, rng)
    yield tuple(Fraction(x) for x in rng.sample(range(-20, 21), n + 1))
    yield tuple(Fraction(rng.randint(1, 50), d) for d in rng.sample(range(1, 99), n + 1))


def test_stable_mult_lookup_matches_all_pairs_oracle():
    rng = random.Random(71)
    hits = several = 0
    for _ in range(150):
        n = rng.randint(1, 7)
        m = rng.randint(0, n)
        for fan_f, fan_g in [(_mixed_fan(rng, m, n), _mixed_fan(rng, n - m, n)),
                             (_random_fan(rng, m, n), _random_fan(rng, n - m, n)),
                             (_random_signed_fan(rng, m, n), _random_signed_fan(rng, n - m, n))]:
            for v in _displacements(rng, n):
                if len(set(v)) <= n:
                    continue  # a tie of the Fraction draw: not generic
                total, record = stable_mult_origin(fan_f, fan_g, v)
                assert (total, record) == _all_pairs_oracle(fan_f, fan_g, v)
                hits += len(record)
                firsts = [cone1 for cone1, _, _ in record]
                several += any(firsts.count(c) > 1 for c in firsts)
    assert hits > 500 and several > 20


def test_stable_mult_walks_the_smaller_fan_both_ways(monkeypatch):
    # The walk takes fan_g when it has fewer cones and fan_f otherwise, ties
    # included; either way the total and the record, in fan_f and then
    # fan_g order, are the all-pairs oracle's, and the mirrored question,
    # fan_g against fan_f at -v, pairs the same cones.
    walks = tropical._partner_walks
    walked = []
    monkeypatch.setattr(tropical, "_partner_walks",
                        lambda cones, *args: walked.append(cones) or walks(cones, *args))
    rng = random.Random(83)
    took = {"fan_f": 0, "fan_g": 0, "tie": 0}
    heavy = weighted = minus = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        m = rng.randint(0, n)
        v = draw_generic_vector(n, rng)
        fan_f, fan_g = _random_signed_fan(rng, m, n), _partner_fan(rng, m, n, v)
        if rng.random() < 0.5:
            fan_f, fan_g = negate_fan(fan_g), negate_fan(fan_f)
            v = tuple(-x for x in v)
        if rng.random() < 0.3:  # as many cones on both sides
            size = min(len(fan_f.cones), len(fan_g.cones))
            fan_f, fan_g = (SignedConeFan(n, fan.dim, dict(list(fan.cones.items())[:size]),
                                          fan.global_weight) for fan in (fan_f, fan_g))
        walked.clear()
        total, record = stable_mult_origin(fan_f, fan_g, v)
        assert (total, record) == _all_pairs_oracle(fan_f, fan_g, v)
        fewer_g = len(fan_g.cones) < len(fan_f.cones)
        assert len(walked) == 1 and walked[0] is (fan_g.cones if fewer_g else fan_f.cones)
        mirror_total, mirror = stable_mult_origin(fan_g, fan_f, [-x for x in v])
        assert mirror_total == total
        assert sorted((c1, c2) for c2, c1, _ in mirror) == sorted((c1, c2) for c1, c2, _ in record)
        if record:
            took["fan_g" if fewer_g else "fan_f"] += 1
            took["tie"] += len(fan_f.cones) == len(fan_g.cones)
            heavy += any(fan_f.cones[c1] * fan_g.cones[c2] > 1 for c1, c2, _ in record)
            weighted += fan_f.global_weight * fan_g.global_weight != 1
            minus += any(c1[1] or c2[1] for c1, c2, _ in record)
    assert min(took.values()) > 50 and min(heavy, weighted, minus) > 150


def test_stable_mult_lookup_keys_on_signs():
    # Two cones of fan_g share the support {0, 1}; only the signs tell them apart.
    fan_g = SignedConeFan(3, 2, {_cone([0], [1]): 1, _cone([1], [0]): 1})
    fan_f = standard_tls(1, 3)
    for v, partner in [((0, 3, 2, 1), _cone([0], [1])), ((3, 0, 2, 1), _cone([1], [0]))]:
        v = tuple(Fraction(x) for x in v)
        total, record = stable_mult_origin(fan_f, fan_g, v)
        assert total == 1 and record == [(_cone([2]), partner, 1)]
        assert (1, record) == _all_pairs_oracle(fan_f, fan_g, v)
    # Both sign patterns of each support in one Minkowski sum, against three complements.
    mixed = minkowski_sum([standard_tls(1, 4), negate_fan(standard_tls(1, 4))])
    rng = random.Random(72)
    for fan_f in (standard_tls(2, 4), negate_fan(standard_tls(2, 4)), mixed):
        for _ in range(10):
            v = draw_generic_vector(4, rng)
            total, record = stable_mult_origin(fan_f, mixed, v)
            assert (total, record) == _all_pairs_oracle(fan_f, mixed, v)


def test_draw_generic_vector_matches_float_sqrt_prime_search():
    for seed in range(5):
        new, old = random.Random(seed), random.Random(seed)
        for n in range(10):
            primes = _first_primes_by_float_sqrt(1009, 2 * (n + 1))
            old.shuffle(primes)
            want = tuple(Fraction(primes[2 * i], primes[2 * i + 1]) for i in range(n + 1))
            assert draw_generic_vector(n, new) == want
            assert new.getstate() == old.getstate()
    first = tropical._first_primes_from(1009, 20)
    assert first == tuple(_first_primes_by_float_sqrt(1009, 20))
    assert tropical._first_primes_from(1009, 20) is first


def test_prime_sieve_matches_trial_division():
    # Small counts from several starts, and counts that double the sieve's
    # bound a few times.
    for start in (2, 3, 10, 97, 1009):
        for count in range(30):
            assert tropical._first_primes_from(start, count) == tuple(
                _first_primes_by_float_sqrt(start, count))
    for start, count in [(2, 500), (1009, 600)]:
        assert tropical._first_primes_from(start, count) == tuple(
            _first_primes_by_float_sqrt(start, count))


def test_fan_pipeline_budget(monkeypatch):
    rng = random.Random(73)
    # Refused at once: the binomials of these would take seconds to form.
    for plain, n in [([(1, 1), (1, 1)], 2000), ([(500000, 1)], 10 ** 6), ([(1, 10 ** 6)], 10 ** 6)]:
        with pytest.raises(BudgetExhausted):
            fan_degree_pipeline(plain, [], n, rng)
    # Cone coordinates, each case bound by one count of _fan_work: the
    # restricted fold of 8 lines and 2 planes in P^12 tries 76,650 pairs
    # (13 summed cones); a line cubed times a reciprocal line squared in
    # P^13 sums binom(14, 3) binom(11, 2) = 20,020 cones; a line in P^16 has
    # a complement of binom(17, 15) = 136 cones.
    cases = [([(1, 8), (2, 2)], [], 12, 13 * 76650),
             ([(1, 3)], [(1, 2)], 13, 14 * 20020),
             ([(1, 1)], [], 16, 17 * 136)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert fan_degree_pipeline([(1, 1), (1, 1)], [], 40, rng)["degree"] == 2
        for plain, reciprocal, n, work in cases:
            dims = tropical._factor_dims(plain, reciprocal, n)[2:]
            assert tropical._fan_work(plain, reciprocal, n, *dims) == work
            monkeypatch.setattr(tropical, "FAN_BUDGET", work)
            expected = degree_with_reciprocals(plain, reciprocal, n)[1]
            assert fan_degree_pipeline(plain, reciprocal, n, rng)["degree"] == expected
            monkeypatch.setattr(tropical, "FAN_BUDGET", work - 1)
            with pytest.raises(BudgetExhausted):
                fan_degree_pipeline(plain, reciprocal, n, rng)
    # A point in P^n: one Minkowski cone, but n + 1 complement cones of n coordinates each.
    monkeypatch.setattr(tropical, "FAN_BUDGET", 10 ** 6)
    assert fan_degree_pipeline([(0, 1)], [], 998, rng)["degree"] == 1
    with pytest.raises(BudgetExhausted):
        fan_degree_pipeline([(0, 1)], [], 1000, rng)


def _dim_mult_lists(total):
    """Every list of (dimension >= 1, multiplicity) pairs with increasing
    dimensions and sum of dimension times multiplicity at most `total`."""
    lists = [[]]
    for d in range(1, total + 1):
        lists += [rest + [(d, r)] for rest in lists for r in range(1, total + 1)
                  if sum(a * b for a, b in rest) + d * r <= total]
    return lists


def test_fan_budget_refuses_nothing_the_full_fold_count_accepted():
    # A fold of all factor fans tries prod binom(n+1, m_k)^r_k ordered
    # factorizations.  Every count of _fan_work is at most that product or
    # the complement's, so a payload that n + 1 times their maximum admits
    # still answers; checked here on every factor list in P^n, n <= 13.
    def full_fold_work(plain, reciprocal, n, m, mt):
        return (n + 1) * max(prod(comb(n + 1, mk) ** r for mk, r in plain + reciprocal),
                             comb(n + 1, n - m - mt))

    moved = 0
    for n in range(1, 14):
        for plain in _dim_mult_lists(n):
            for reciprocal in _dim_mult_lists(n - sum(a * b for a, b in plain)):
                m = sum(a * b for a, b in plain)
                mt = sum(a * b for a, b in reciprocal)
                work = tropical._fan_work(plain, reciprocal, n, m, mt)
                assert work <= full_fold_work(plain, reciprocal, n, m, mt)
                moved += work <= tropical.FAN_BUDGET < full_fold_work(plain, reciprocal, n, m, mt)
    assert moved > 100


def test_fan_pipeline_builds_each_factor_fan_once(monkeypatch):
    built = []

    def counting_tls(m, n, negated=False):
        built.append((m, negated))
        return standard_tls(m, n, negated)

    monkeypatch.setattr(tropical, "standard_tls", counting_tls)
    rng = random.Random(74)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # A line cubed, a reciprocal line and two point factors in P^5: one
        # fan per positive-dimensional factor, then the m = 3 and mt = 1
        # fans whose masks the sum's cones are built from, then the plane
        # complement.
        result = fan_degree_pipeline([(1, 3), (0, 4)], [(1, 1), (0, 2)], 5, rng)
        assert built == [(1, False), (1, True), (3, False), (1, True), (1, False)]
        assert result["degree"] == 2
        built.clear()
        # Only points: the origin's fan stands in for the sum, and its cone
        # is the only mask of both m = mt = 0 fans.
        assert fan_degree_pipeline([(0, 10 ** 5)], [(0, 3)], 2, rng)["degree"] == 1
        assert built == [(0, False), (0, False), (0, True), (2, False)]


def _folded_sum(plain, recip, n):
    """The fan pipeline's sum by `minkowski_sum` of every factor fan r_k
    times, as the pipeline formed it before it counted on one cone."""
    fans = [standard_tls(mk, n) for mk, r in plain if mk for _ in range(r)]
    fans += [standard_tls(mk, n, negated=True) for mk, s in recip if mk for _ in range(s)]
    delta = prod(factorial(r) for mk, r in [*plain, *recip] if mk)
    return minkowski_sum(fans or [standard_tls(0, n)], delta)


def _assert_pipeline_sum_is_the_fold(plain, recip, n, rng):
    got = fan_degree_pipeline(plain, recip, n, rng)["fan"]
    want = _folded_sum(plain, recip, n)
    assert list(got.cones.items()) == list(want.cones.items())
    assert (got.ambient_dim, got.dim, got.global_weight) == (
        want.ambient_dim, want.dim, want.global_weight)


def test_fan_pipeline_sum_is_the_fold_on_the_degree_grids():
    rng = random.Random(81)
    grid = criterion_05_grid() + criterion_06_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for plain, recip, n in grid:
            _assert_pipeline_sum_is_the_fold(list(plain), list(recip), n, rng)
    assert len(grid) > 300


@st.composite
def _pipeline_inputs(draw):
    """(plain, reciprocal, n): up to two factors on each side, point
    factors among them, of total dimension at most n <= 7, and at most
    10^5 fold factorizations of the factor fans' cones."""
    n = draw(st.integers(0, 7))
    room, combos, sides = n, 1, ([], [])
    for factors in sides:
        for _ in range(draw(st.integers(0, 2))):
            mk = draw(st.sampled_from([k for k in range(min(room, 3) + 1)
                                       if combos * comb(n + 1, k) <= 10 ** 5]))
            r = 1
            while r < 3 and mk * (r + 1) <= room and combos * comb(n + 1, mk) ** (r + 1) <= 10 ** 5:
                r += 1
            r = draw(st.integers(1, r))
            factors.append((mk, r))
            room -= mk * r
            combos *= comb(n + 1, mk) ** r
    return (*sides, n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_pipeline_inputs())
def test_fan_pipeline_sum_is_the_fold_fuzzed(inputs):
    plain, recip, n = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _assert_pipeline_sum_is_the_fold(plain, recip, n, random.Random(n))


def test_draw_generic_vector_distinct():
    rng = random.Random(64)
    for n in (2, 5, 8):
        v = draw_generic_vector(n, rng)
        assert len(set(v)) == n + 1


def test_degree_linear_products_values():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert degree_linear_products([(1, 1), (1, 1)], 3) == (2, 2)
        assert degree_linear_products([(2, 2)], 5) == (4, 3)
        assert degree_linear_products([(1, 1), (1, 1), (1, 1)], 8) == (3, 6)
        for r in (1, 2, 3, 5):
            assert degree_linear_products([(1, r)], 8) == (r, 1)


def test_degree_warning_below_bound():
    assert genericity_bound([(2, 2)]) == 5
    with pytest.warns(UserWarning):
        degree_linear_products([(2, 2)], 4)


def test_degree_with_reciprocals_values():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (2, 3, 4, 6):
            assert degree_with_reciprocals([], [(1, 1)], n) == (1, n)
        assert degree_with_reciprocals([], [(2, 1)], 3) == (2, 3)
        assert degree_with_reciprocals([(1, 1)], [(1, 1)], 3) == (2, 2)
        # The r-th Hadamard power of a point is a point: no 1/r! for it.
        assert degree_with_reciprocals([(0, 3)], [], 2) == (0, 1)
        assert degree_with_reciprocals([(0, 2), (1, 1)], [], 3) == (1, 1)
        assert degree_with_reciprocals([], [(0, 2)], 2) == (0, 1)
        assert degree_with_reciprocals([(0, 3), (2, 2)], [], 5) == (4, 3)
    with pytest.raises(PreconditionError):
        degree_with_reciprocals([(2, 1)], [(2, 1)], 3)


def test_degree_digit_bound_is_a_lower_bound():
    """10 log10(degree) >= _degree_tenths, in integers: degree^10 >=
    10^tenths, over plain and reciprocal factors of every small shape."""
    rng = random.Random(67)
    positive = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(400):
            plain = [(rng.randint(0, 12), rng.randint(1, 7)) for _ in range(rng.randint(0, 3))]
            recip = [(rng.randint(0, 12), rng.randint(1, 7)) for _ in range(rng.randint(0, 2))]
            m, mt = sum(a * b for a, b in plain), sum(a * b for a, b in recip)
            n = m + mt + rng.choice([0, 1, rng.randint(0, 60)])
            _, degree = degree_with_reciprocals(plain, recip, n)
            tenths = tropical._degree_tenths(plain, recip, n, m, mt)
            assert degree.denominator == 1 and 10 ** tenths <= degree.numerator ** 10
            positive += tenths > 0
    assert positive > 200


def test_degree_past_the_digit_bound_forms_no_binomial(monkeypatch):
    """At Python's int-to-str limit L: a factor [[k + 1, 2]] has a bound of
    3k tenths of a digit, so k = ceil(10 L / 3) is refused before any
    binomial of the degree is formed; at k - 1 they are formed (and
    rat_str refuses the 8,600-digit answer)."""
    k = -(-10 * sys.get_int_max_str_digits() // 3)
    calls = []
    monkeypatch.setattr(tropical, "comb", lambda a, b: calls.append((a, b)) or comb(a, b))
    for mk, formed in ((k + 1, False), (k, True)):
        calls.clear()
        assert tropical._degree_tenths([(mk, 2)], [], 2 * mk, 2 * mk, 0) == 3 * (mk - 1)
        with pytest.raises(BudgetExhausted, match="too long to print"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # n is below the genericity bound
            dim, degree = degree_with_reciprocals([(mk, 2)], [], 2 * mk)
            rat_str(degree)
        assert bool(calls) == formed


def test_degree_is_formed_without_factorials():
    """_partitions is M! / prod((m_k!)^r_k r_k!); a million lines in
    P^1000000 have degree 1, which took 29 s through 1,000,000!."""
    rng = random.Random(68)
    for _ in range(200):
        factors = [(rng.randint(0, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 4))]
        total = sum(mk * r for mk, r in factors)
        want = factorial(total) // prod(factorial(mk) ** r * (factorial(r) if mk else 1)
                                         for mk, r in factors)
        assert tropical._partitions(factors) == want
    assert degree_with_reciprocals([(1, 10 ** 6)], [], 10 ** 6) == (10 ** 6, 1)


def test_degree_formulas_share_one_precondition():
    for entries, n in [([(1, 1), (1, 1)], 3), ([(2, 2)], 4), ([(0, 3), (1, 2)], 2)]:
        with warnings.catch_warnings(record=True) as plain_only:
            warnings.simplefilter("always")
            got = degree_linear_products(entries, n)
        with warnings.catch_warnings(record=True) as general:
            warnings.simplefilter("always")
            want = degree_with_reciprocals(entries, [], n)
        assert got == want
        assert [str(w.message) for w in plain_only] == [str(w.message) for w in general]
    with pytest.raises(PreconditionError):
        degree_linear_products([(3, 1)], 2)
    for bad in ([(-1, 1)], [(1, 0)]):
        with pytest.raises(ValueError):
            degree_linear_products(bad, 4)
        with pytest.raises(ValueError):
            degree_with_reciprocals([], bad, 4)


def test_fan_pipeline_matches_closed_form_small_grid():
    rng = random.Random(65)
    cases = [
        ([(1, 2)], [], 4),
        ([(1, 1), (2, 1)], [], 5),
        ([(3, 1)], [], 6),
        ([(1, 1)], [(1, 1)], 4),
        ([], [(1, 2)], 5),
        ([(2, 1)], [(1, 1)], 6),
        ([(0, 3)], [], 2),
        ([(0, 2), (1, 1)], [], 3),
        ([], [(0, 2)], 2),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for plain, recip, n in cases:
            result = fan_degree_pipeline(plain, recip, n, rng)
            if recip:
                dim, degree = degree_with_reciprocals(plain, recip, n)
            else:
                dim, degree = degree_linear_products(plain, n)
            assert result["dim"] == dim
            assert result["degree"] == degree


def test_lattice_indices_always_one_regression():
    rng = random.Random(66)
    fan = minkowski_sum([standard_tls(1, 5), negate_fan(standard_tls(2, 5))])
    _, pairs = stable_mult_origin(fan, standard_tls(2, 5), draw_generic_vector(5, rng))
    assert pairs
    assert all(idx == 1 for _, _, idx in pairs)
