"""Seeded workloads of the benchmark: their ops, and the exact check of each op.

A workload is a pool of cycles; a cycle is a fixed mix of ops, so every
cycle of a workload carries the same share of each op kind.  The pool is a
pure function of (workload, seed).  An op is one user-level question: a
`hadamard-spaces` subcommand called in-process through
`hadamard_spaces.cli.main` with a generated JSON payload, or, for
identifiability, which has no subcommand, the library function itself.

Every checker is exact and independent of the timed call: forms are
evaluated by the benchmark's own rational arithmetic at freshly drawn points
of the variety, and numbers are compared with what the mathematics fixes.
"""

import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

#: Cycles per tropical pool.  A run measures whole pools, so an op kind
#: present once per cycle has at least this many samples, enough for the tail
#: percentile (ten samples beyond it) to fall inside the slowest kind.
POOL_CYCLES = 11

#: Cycles per interp pool: 16 big-kernel ops, so the tail percentile (ten
#: samples beyond it) falls among them, while a pool stays under a minute on
#: a slowed 2-vCPU VM.
INTERP_CYCLES = 8


class Op:
    """One generated operation and what its checker needs to know."""

    __slots__ = ("kind", "argv", "payload", "text", "expect")

    def __init__(self, kind, argv, payload, expect):
        self.kind = kind
        self.argv = argv
        self.payload = payload
        self.text = json.dumps(payload, sort_keys=True)
        self.expect = expect


# ---------------------------------------------------------------------------
# exact helpers, independent of the package under test


def det(rows):
    """Exact determinant of a square matrix, by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    value = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            value = -value
        value *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return value


def _minors_nonzero(rows):
    k = len(rows)
    return all(det([[row[c] for c in cols] for row in rows])
               for cols in combinations(range(len(rows[0])), k))


def generic_space(rng, dim, n, bound=9):
    """Integer generators of a dim-space in P^n with no vanishing Pluecker minor."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n + 1)] for _ in range(dim + 1)]
        if _minors_nonzero(rows):
            return rows


def degenerate_line(rng, n, bound=9):
    """A line in P^n with exactly one vanishing bracket: columns 0 and 1 proportional."""
    while True:
        rows = generic_space(rng, 1, n, bound)
        scale = rng.choice([-3, -2, 2, 3])
        for row in rows:
            row[1] = scale * row[0]
        if all(det([[row[i], row[j]] for row in rows])
               for i, j in combinations(range(n + 1), 2) if (i, j) != (0, 1)):
            return rows


def combo(rng, rows, bound=10 ** 4):
    """A random integer combination of the rows, redrawn until no coordinate is 0."""
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in rows]
        point = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]
        if all(point):
            return [Fraction(x) for x in point]


def form_value(form, point):
    """Value of a JSON form [[exponents, "num/den"], ...] at a rational point."""
    total = Fraction(0)
    for expo, coeff in form:
        value = Fraction(coeff)
        for x, e in zip(point, expo):
            if e:
                value *= x ** e
        total += value
    return total


def _vanishes(form, points):
    return bool(form) and any(Fraction(c) for _, c in form) and all(
        form_value(form, p) == 0 for p in points)


def run_cli(cli, op):
    """Call cli.main in-process on the op's payload; returns (exit code, stdout)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.text), out, io.StringIO()
    try:
        code = cli.main(op.argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def run_identifiability(lib, op):
    """Library identifiability check; the output is the repr of its result."""
    p = op.payload
    space = lib.projective.LinSpace(p["space"])
    result = lib.products.identifiability_check(space, p["r"], p["trials"], random.Random(p["seed"]))
    return 0, repr(result)


def execute(lib, op):
    """Run one op; returns (exit code, output text)."""
    if op.argv is None:
        return run_identifiability(lib, op)
    return run_cli(lib.cli, op)


def _cli_op(kind, command, payload, rng, expect, *flags):
    argv = [command, *flags, "--seed", str(rng.randrange(2 ** 32))]
    return Op(kind, argv, payload, expect)


# ---------------------------------------------------------------------------
# interp: the interpolation oracle on hypersurfaces


def _linear(rows):
    return {"type": "linear", "generators": rows}


def _reciprocal(rows):
    return {"type": "reciprocal", "generators": rows}


def product_spans(line_a, line_b):
    """Whether the Hadamard product of two lines in P^3 spans P^3: the four
    products of their generators are independent.  Then it is a smooth quadric
    surface; otherwise it lies in a plane, even when both lines are generic."""
    return bool(det([[x * y for x, y in zip(p, q)] for p in line_a for q in line_b]))


def spanning_line_pair(rng):
    while True:
        pair = generic_space(rng, 1, 3), generic_space(rng, 1, 3)
        if product_spans(*pair):
            return pair


def interp_cycle(rng):
    """Two squared-plane cubics, two reciprocal-plane cubics, two quadrics.

    The squared planes in P^5 (56 cubic monomials, about 140-bit kernel
    entries) are a third of the ops, more than the tail percentile's share
    by half, so `op_tail_ms` lands inside the big-kernel ops rather than on
    the fastest of them; the reciprocal planes put the median on the
    sampler-bound mid-size op.
    """
    plane_a = generic_space(rng, 2, 5)
    plane_b = generic_space(rng, 2, 5)
    recip_a = generic_space(rng, 2, 3)
    recip_b = generic_space(rng, 2, 3)
    l1, l2 = spanning_line_pair(rng)
    l3, l4 = generic_space(rng, 1, 3), generic_space(rng, 1, 3)
    ops = [
        ("interp.squared_plane", {"type": "power", "base": _linear(plane_a), "r": 2},
         {"degree": 3, "sampler": ("power", plane_a)}),
        ("interp.reciprocal_plane", _reciprocal(recip_a), {"degree": 3, "sampler": ("reciprocal", recip_a)}),
        ("interp.two_lines", {"type": "product", "factors": [_linear(l1), _linear(l2)]},
         {"degree": 2, "sampler": ("product", l1, l2)}),
        ("interp.squared_plane", {"type": "power", "base": _linear(plane_b), "r": 2},
         {"degree": 3, "sampler": ("power", plane_b)}),
        ("interp.reciprocal_plane", _reciprocal(recip_b), {"degree": 3, "sampler": ("reciprocal", recip_b)}),
        ("interp.line_reciprocal_line", {"type": "product", "factors": [_linear(l3), _reciprocal(l4)]},
         {"degree": 2, "sampler": ("line_reciprocal", l3, l4)}),
    ]
    return [_cli_op(kind, "interp", {"sampler": sampler, "dmax": 3}, rng, expect)
            for kind, sampler, expect in ops]


def interp_pool(rng):
    return [interp_cycle(rng) for _ in range(INTERP_CYCLES)]


def fresh_points(sampler, rng, count=3):
    """Points of the sampled variety drawn by the benchmark itself."""
    kind = sampler[0]
    points = []
    for _ in range(count):
        if kind == "power":
            p = combo(rng, sampler[1])
            points.append([x * x for x in p])
        elif kind == "reciprocal":
            points.append([1 / x for x in combo(rng, sampler[1])])
        elif kind == "product":
            p, q = combo(rng, sampler[1]), combo(rng, sampler[2])
            points.append([x * y for x, y in zip(p, q)])
        else:
            p, q = combo(rng, sampler[1]), combo(rng, sampler[2])
            points.append([x / y for x, y in zip(p, q)])
    return points


def check_interp(lib, op, code, out, rng):
    if code != 0:
        return False
    doc = json.loads(out)
    sampler = op.expect["sampler"]
    form = doc.get("form")
    if doc.get("degree") != op.expect["degree"] or not _vanishes(form, fresh_points(sampler, rng)):
        return False
    space = lib.projective.LinSpace
    pl = lib.projective.pluecker
    if sampler[0] == "power":
        target = lib.brackets.cubic_plane_square(pl(space(sampler[1])))
    elif sampler[0] == "product":
        target = lib.brackets.quadric_two_lines(pl(space(sampler[1])), pl(space(sampler[2])))
    else:
        return True
    got = lib.poly.SparsePoly.from_json(len(sampler[1][0]), form)
    return lib.poly.proportional(got, target)


# ---------------------------------------------------------------------------
# tropical: `degree --transcript` on the acceptance grids


def dim_mult_multisets(max_total):
    """Multisets of (dimension, multiplicity) pairs with sum of m*r <= max_total."""
    pairs = [(m, r) for m in range(1, max_total + 1) for r in range(1, max_total + 1)
             if m * r <= max_total]
    found = set()

    def rec(start, remaining, acc):
        if acc:
            found.add(tuple(acc))
        for i in range(start, len(pairs)):
            m, r = pairs[i]
            if m * r <= remaining:
                rec(i, remaining - m * r, acc + [pairs[i]])

    rec(0, max_total, [])
    return sorted(found)


def degree_grid():
    """(plain, reciprocal, n) instances of acceptance criteria 5 and 6."""
    grid = []
    for plain in dim_mult_multisets(5):
        total = sum(m * r for m, r in plain)
        grid.extend((plain, (), n) for n in range(total, 9))
    for plain in [()] + dim_mult_multisets(3):
        for recip in dim_mult_multisets(4):
            total = sum(m * r for m, r in plain + recip)
            if total <= 4:
                grid.extend((plain, recip, n) for n in range(total, 7))
    return grid


def _fans(instance):
    plain, recip, _ = instance
    return sum(r for _, r in plain + recip)


def _dim(instance):
    plain, recip, _ = instance
    return sum(m * r for m, r in plain + recip)


#: Instances per tropical cycle drawn from the whole grid, and the factor-fan
#: count of the n = 8 instance every cycle adds on top of them.
TROPICAL_GRID_DRAWS = 9
HEAVY_FANS = 4


def _cost_order(instance):
    """Grid order by the input properties that set the cost: ambient dimension
    n (cone counts and Fourier-Motzkin size grow with it), then the number of
    factor fans (the Minkowski enumeration is the product of their cones)."""
    plain, recip, n = instance
    return (n, _fans(instance), _dim(instance), bool(recip), instance)


def spread_sample(members, draws):
    """`draws` members spread evenly over the list, in list order.

    Systematic sampling draws each stratum of the list in proportion to its
    size; over members sorted by cost it also keeps the sample's cost mix
    close to the list's.
    """
    step = len(members) / draws
    return [members[int((i + 0.5) * step)] for i in range(draws)]


def deal(picks, hands):
    """Deal cost-ordered picks to `hands` lists in snake order (0..h-1, h-1..0,
    ...), so every hand gets one pick of each run of `hands` neighbours and
    the hands' cost sums stay close."""
    dealt = [[] for _ in range(hands)]
    for i, pick in enumerate(picks):
        block, j = divmod(i, hands)
        dealt[j if block % 2 == 0 else hands - 1 - j].append(pick)
    return dealt


def _degree_op(kind, instance, rng):
    plain, recip, n = instance
    payload = {"plain": [list(x) for x in plain], "n": n}
    if recip:
        payload["reciprocal"] = [list(x) for x in recip]
    return _cli_op(kind, "degree", payload, rng, {"dim": _dim(instance)}, "--transcript")


def tropical_pool(rng):
    """Cycles of grid instances: one systematic sample of the whole grid, so
    every stratum is drawn in proportion to its size, dealt to the cycles so
    that each cycle has the grid's cost mix; plus one n = 8 instance with at
    least HEAVY_FANS factor fans per cycle, the case where Minkowski
    enumeration and Fourier-Motzkin are both at their largest.

    The sample is the same for every seed; the seed orders the cycles and the
    ops in each, pairs cycles with heavy instances and draws the program's
    --seed.  Instance costs span three orders of magnitude: with the sample
    redrawn per seed, the draw alone moved a pool's throughput, median and
    tail op time by 3%, 6% and 12% (quartile distance over median, 40 seeds,
    from per-instance times), a large share of their 25% bounds.
    """
    grid = sorted(degree_grid(), key=_cost_order)
    heavy = [inst for inst in grid if not inst[1] and inst[2] == 8 and _fans(inst) >= HEAVY_FANS]
    hands = deal(spread_sample(grid, TROPICAL_GRID_DRAWS * POOL_CYCLES), POOL_CYCLES)
    heavy_picks = spread_sample(heavy, POOL_CYCLES)
    rng.shuffle(hands)
    rng.shuffle(heavy_picks)
    pool = []
    for hand, heavy_pick in zip(hands, heavy_picks):
        rng.shuffle(hand)
        cycle = [_degree_op("tropical.grid", inst, rng) for inst in hand]
        cycle.append(_degree_op("tropical.n8_many_fans", heavy_pick, rng))
        pool.append(cycle)
    return pool


def check_tropical(lib, op, code, out, rng):
    if code != 0:
        return False
    doc = json.loads(out)
    return doc["dim"] == op.expect["dim"] and doc["transcript"]["fan_degree"] == doc["degree"]


# ---------------------------------------------------------------------------
# small-exact: many small exact operations


#: (m, r, n) grid of star configurations: m collinear points, r-fold
#: products, ambient P^n; up to (7, 3, 6).
STAR_GRID = [(m, r, n) for m in range(3, 8) for r in (2, 3) for n in range(r + 1, 7)]


def zero_sum_space():
    """Generators of the 3 x 4 matrices with zero row and column sums, flattened.

    With the Segre variety of P^2 x P^3 this space gives the deficient
    product: Terracini dimension 9 below the expected 10.
    """
    rows = []
    for i in range(2):
        for j in range(3):
            mat = [[0] * 4 for _ in range(3)]
            mat[i][j] = mat[2][3] = 1
            mat[i][3] = mat[2][j] = -1
            rows.append([x for row in mat for x in row])
    return rows


#: In-regime identifiability cases (dim, r, n): n >= binom(dim + r, r) - 1.
IDENTIFIABILITY_CASES = [(1, 2, 3), (1, 2, 4), (1, 3, 3), (1, 3, 4), (2, 2, 5)]
IDENTIFIABILITY_TRIALS = 200

SPAN_CASES = [([[1, 2]], 3), ([[1, 2], [1, 1]], 5), ([[2, 2]], 5), ([[1, 3]], 4), ([[1, 1], [1, 1]], 6)]


def _star_op(rng, m, r, n):
    line = generic_space(rng, 1, n, bound=20)
    points, seen = [], set()
    while len(points) < m:
        a, b = rng.randint(1, 30), rng.randint(-30, 30)
        point = [a * x + b * y for x, y in zip(*line)]
        key = Fraction(b, a)
        if all(point) and key not in seen:
            seen.add(key)
            points.append(point)
    payload = {"line": line, "points": points, "r": r}
    return _cli_op("small.star_config", "star-config", payload, rng, {"count": comb(m, r)})


def small_exact_pool(rng):
    """Cycles of nine small ops, one per star grid point, so a pool covers the grid.

    The star configuration is the only op whose cost follows the grid point;
    the others vary only in their random coefficients.
    """
    pool = []
    for c, (m, r, n) in enumerate(rng.sample(STAR_GRID, len(STAR_GRID))):
        ln = rng.randint(3, 5)
        lr = rng.randint(2, ln - 1)
        dims, sn = SPAN_CASES[c % len(SPAN_CASES)]
        quad_l, quad_m = generic_space(rng, 1, 3, 30), generic_space(rng, 1, 3, 30)
        plane = generic_space(rng, 2, 5)
        idim, ir, in_ = IDENTIFIABILITY_CASES[c % len(IDENTIFIABILITY_CASES)]
        ident = {"space": generic_space(rng, idim, in_, 20), "r": ir,
                 "trials": IDENTIFIABILITY_TRIALS, "seed": rng.randrange(2 ** 32)}
        cycle = [
            _star_op(rng, m, r, n),
            _cli_op("small.line_power", "line-power",
                    {"line": generic_space(rng, 1, ln), "r": lr}, rng, {"dim": lr, "n": ln}),
            _cli_op("small.line_power_degenerate", "line-power",
                    {"line": degenerate_line(rng, 4), "r": rng.randint(2, 4)}, rng, {"n": 4}),
            _cli_op("small.span_dim", "span-dim", {"dims": dims, "n": sn}, rng, {}),
            _cli_op("small.span_dim", "span-dim", {"dims": dims, "n": sn + 1}, rng, {}),
            _cli_op("small.dim_estimate", "dim-estimate",
                    {"x": {"type": "segre", "a": 2, "b": 3}, "y": _linear(zero_sum_space()),
                     "dim_h": 0, "dim_g": 11}, rng, {}),
            _cli_op("small.bracket_quadric", "bracket",
                    {"mode": "quadric", "line_l": quad_l, "line_m": quad_m}, rng,
                    {"sampler": ("product", quad_l, quad_m)}),
            _cli_op("small.bracket_cubic", "bracket", {"mode": "cubic", "plane": plane}, rng,
                    {"sampler": ("power", plane)}),
            Op("small.identifiability", None, ident, {}),
        ]
        pool.append(cycle)
    return pool


def check_small(lib, op, code, out, rng):
    if code != 0:
        return False
    kind = op.kind
    if kind == "small.identifiability":
        return out == "None"
    doc = json.loads(out)
    if kind == "small.star_config":
        return doc["verified"] is True and len(doc["points"]) == op.expect["count"]
    if kind.startswith("small.line_power"):
        gens = [[Fraction(x) for x in row] for row in doc["generators"]]
        n = op.expect["n"]
        if kind == "small.line_power":
            # Closed form: one equation per (r+2)-subset of coordinates.
            shape_ok = doc["method"] == "matrix" and doc["dim"] == op.expect["dim"]
            want_eqs = comb(n + 1, doc["dim"] + 2)
        else:
            # Sampled span: a basis of its linear equations.
            shape_ok = doc["method"] == "sampled"
            want_eqs = n - doc["dim"]
        return (shape_ok and len(gens) == doc["dim"] + 1 and len(doc["equations"]) == want_eqs
                and all(_vanishes(eq, gens) for eq in doc["equations"]))
    if kind == "small.span_dim":
        return doc["match"] is True
    if kind == "small.dim_estimate":
        return (doc["dim_x"], doc["dim_y"], doc["terracini_dim"], doc["expected_dim"],
                doc["deficient"]) == (5, 5, 9, 10, True)
    return _vanishes(doc["form"], fresh_points(op.expect["sampler"], rng))


# ---------------------------------------------------------------------------


#: name -> (pool generator, checker, reason the workload exists).
WORKLOADS = {
    "interp": (interp_pool, check_interp,
               "big-integer kernels and point sampling dominate; moves with kernel and sampler "
               "changes, never touches the tropical layer"),
    "tropical": (tropical_pool, check_tropical,
                 "fan combinatorics and small exact LPs only, no sampling or kernel; the "
                 "no-change control for interp changes"),
    "small-exact": (small_exact_pool, check_small,
                    "thousands of tiny Fraction eliminations and most CLI serialization: the "
                    "opposite linalg regime from interp"),
}


def generate(name, seed):
    """The workload's pool of cycles; the same (name, seed) gives the same ops."""
    make = WORKLOADS[name][0]
    return make(random.Random("perfbench:%s:%d" % (name, seed)))


def check(lib, name, op, code, out, seed):
    """Exact check of one op's output; the fresh points come from a seeded rng."""
    rng = random.Random("perfbench-check:%d:%s" % (seed, op.text))
    try:
        return bool(WORKLOADS[name][1](lib, op, code, out, rng))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
