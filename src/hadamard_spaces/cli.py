"""Command-line front end with deterministic JSON input/output.

Every subcommand reads a JSON payload (from --in or standard input), runs
one computation with a single seeded random state, and emits a JSON
document.  Identical payload + seed always produces byte-identical output;
`interp` reads no random state, so its output is the same at every seed.

Output is written once, as compact JSON text with sorted keys.  Every
subcommand but `degree --transcript` returns a dict, which `main` encodes
with one `json.dumps(doc, sort_keys=True, separators=(",", ":"))`.
`degree --transcript` returns those same bytes as text: its cones, up to
thousands per document, fill a fixed template from the JSON text of their
masks (`tropical.mask_text`, memoized on the domain of
`tropical.mask_indices`), the summed fan's from one shared head per minus
mask and multiplicity; its four small fields go through json.dumps.  Text
is written as it is.

`--format pretty` is `json.dumps(json.loads(text), indent=2,
sort_keys=True)` of that compact text, for every subcommand, and gives the
bytes of `json.dumps(doc, indent=2, sort_keys=True)`:
- json.loads gives back a document that prints as doc does.  No output
  holds a float, and every key is a string.  A tuple reads back as a
  list, which prints the same.  A string is written as ASCII escapes, and
  the string read back is written as the same escapes.  Every printed int
  is within Python's int-to-str limit, or writing the compact text would
  have raised, so json.loads reads it back.
- Both texts sort keys, so the order of the read-back dicts is irrelevant.

Flags are read by `parse_args` from one table, OPTIONS, which maps each
long option to its attribute, kind (int, str, a tuple of choices, or a
switch) and default.  It reads a command line as the argparse parser this
module used to build read it: `--opt value` and `--opt=value`, unique
prefixes of long options (`--tr`), options before or after the command, a
value that looks like a negative number (`--seed -3`), `--`, and
`-h`/`--help`, which prints HELP, argparse's text.  A bad command line is
one JSON validation error with argparse's `field` and message: the reader
checks in argparse's order (ambiguous prefixes first, then each word in
turn, then a missing command, then unrecognized words), so it reports the
error argparse reported first.  One deliberate difference: argparse
dropped a `--` given as `--opt=--` and set the option to an empty list
(`--seed=--` then raised a TypeError); here it is the value `--`.  That
argparse parser is kept in the tests as the reader's oracle; the package
no longer imports argparse or gettext.

Exit codes: 0 success (`-h`/`--help` too), 1 payload or command-line
validation error (the message points at the offending field, or at the
flag: `command`, `seed`, `format`, ...), 2 mathematical precondition
failure (the message names the violated hypothesis), 3 retry/sampling
budget exhaustion.  Exit 3 also covers every size limit, all but the
last two checked before the work:
- `degree --transcript` fans past tropical.FAN_BUDGET;
- a `degree` whose digit bound is past Python's int-to-str limit;
- `line-power` past products.SPAN_DIM_WORK_LIMIT or
  products.SPAN_DIM_BIT_WORK_LIMIT (its power matrix) or past
  line_powers.LINE_POWER_OUTPUT_LIMIT (its printed entries);
- `span-dim` past products.SPAN_DIM_WORK_LIMIT or, with explicit
  generators, past products.SPAN_DIM_BIT_WORK_LIMIT (counting its entries'
  bits);
- an `interp` degree past products.INTERP_MONOMIAL_BUDGET, or whose
  parameter grid times its monomials is past products.INTERP_GRID_LIMIT;
- an `interp` of an empty product (a reciprocal factor in a coordinate
  hyperplane, or factors whose product map vanishes);
- `bracket verify` trials past brackets.VERIFY_TRIALS_LIMIT;
- `star-config` past star_configs.STAR_CONFIG_OUTPUT_LIMIT (its printed
  entries and general position minors, counted from m, r and n) or past
  star_configs.STAR_CONFIG_BIT_WORK_LIMIT (that count times the squared
  bits of its general position minors);
- a `segre` sampler past samplers.SEGRE_AMBIENT_LIMIT, before it is built;
- a `span-dim` by `dims` whose SAMPLE_BUDGET draws were all rank-deficient;
- an `interp` whose work, over all the degrees of a `dmax` search, passes
  linalg.LIFT_BUDGET: each matrix's build, charged before it is built,
  and its kernel's lifting and exact checks, each step charged before it
  runs.
"""

import json
import random
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

from . import papersuite
from .brackets import (cubic_plane_square, quadric_bracket_display,
                       quadric_square_symbolic, quadric_symbolic_identity,
                       quadric_two_lines, verify_identity)
from .linalg import (BudgetExhausted, PreconditionError, QMatrix, integer_rank, is_json_int,
                     is_rational_literal, rat_str)
from .line_powers import (check_line_power_limits, line_power_matrix, line_power_minor,
                          power_linear_equations, sampled_power_span)
from .poly import SparsePoly
from .products import (check_span_dim_bit_work, check_span_dim_work, expected_dimension,
                       gen_vandermonde, interpolate_forms, interpolate_hypersurface,
                       span_dimension_formula, terracini_dim)
from .projective import SAMPLE_BUDGET, LinSpace, PPoint, pluecker
from .samplers import (hadamard_power_sampler, hadamard_product_sampler,
                       linear_space_sampler, reciprocal_sampler, segre_sampler)
from .star_configs import (PointSet, build_star, check_star_config_bit_work,
                           check_star_config_limits, verify_star)
from .tropical import closed_form_degree, fan_degree_pipeline, mask_text

DEFAULT_SEED = 20259


class ValidationError(ValueError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(message)


def _want(payload, field, kind, required=True, default=None):
    if field not in payload:
        if required:
            raise ValidationError(field, "missing required field")
        return default
    value = payload[field]
    if kind is int and not is_json_int(value):
        raise ValidationError(field, "expected an integer")
    if kind is list and not isinstance(value, list):
        raise ValidationError(field, "expected a list")
    if kind is dict and not isinstance(value, dict):
        raise ValidationError(field, "expected an object")
    if kind is str and not isinstance(value, str):
        raise ValidationError(field, "expected a string")
    return value


def _parse_rational(value, field, *index):
    """A rational literal (`linalg.is_rational_literal`): a JSON integer as
    it is, a string as a Fraction; anything else is a validation error,
    whose message gives the entry's location, `[i][j]` for `index` (i, j)."""
    if is_json_int(value):
        return value
    if is_rational_literal(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValidationError(field, "zero denominator at %s" % _where(index))
        except ValueError as exc:  # more digits than int() converts
            raise ValidationError(field, "bad rational entry at %s: %s" % (_where(index), exc))
    got = "a float" if isinstance(value, float) else json.dumps(value)
    raise ValidationError(field, "expected an integer or a \"num/den\" string at %s, got %s"
                          % (_where(index), got))


def _where(index):
    return "".join("[%d]" % k for k in index)


def _parse_matrix(data, field):
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ValidationError(field, "expected a non-empty list of rows")
    # An int entry is taken as it is (a bool is not one); the rest are parsed.
    rows = [[x if type(x) is int else _parse_rational(x, field, i, j) for j, x in enumerate(row)]
            for i, row in enumerate(data)]
    try:
        return QMatrix(rows)
    except ValueError as exc:
        raise ValidationError(field, str(exc))


def _parse_space(data, field):
    mat = _parse_matrix(data, field)
    try:
        return LinSpace(mat)
    except ValueError as exc:
        raise ValidationError(field, str(exc))


def _parse_point(data, field):
    if not isinstance(data, list) or not data:
        raise ValidationError(field, "expected a coordinate list")
    coords = [x if type(x) is int else _parse_rational(x, field, j) for j, x in enumerate(data)]
    try:
        return PPoint(coords)
    except ValueError as exc:
        raise ValidationError(field, str(exc))


def _parse_sampler(data, field):
    if not isinstance(data, dict):
        raise ValidationError(field, "expected a sampler object")
    kind = data.get("type")
    if kind == "linear":
        return linear_space_sampler(_parse_space(data.get("generators"), field + ".generators"))
    if kind == "reciprocal":
        return reciprocal_sampler(_parse_space(data.get("generators"), field + ".generators"))
    if kind == "segre":
        a = data.get("a")
        b = data.get("b")
        for name, value in (("a", a), ("b", b)):
            if not is_json_int(value) or value < 1:
                raise ValidationError(field + "." + name, "segre sampler needs positive integers a, b")
        return segre_sampler(a, b)
    if kind == "product":
        factors = data.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            raise ValidationError(field + ".factors", "need at least two factor samplers")
        built = [_parse_sampler(f, "%s.factors[%d]" % (field, i)) for i, f in enumerate(factors)]
        for i, factor in enumerate(built):
            if factor.ambient_dim != built[0].ambient_dim:
                raise ValidationError("%s.factors[%d]" % (field, i),
                                      "ambient dimension P^%d differs from factors[0]'s P^%d"
                                      % (factor.ambient_dim, built[0].ambient_dim))
        sampler = built[0]
        for nxt in built[1:]:
            sampler = hadamard_product_sampler(sampler, nxt)
        return sampler
    if kind == "power":
        r = data.get("r")
        if not is_json_int(r) or r < 1:
            raise ValidationError(field + ".r", "power must be a positive integer")
        return hadamard_power_sampler(_parse_sampler(data.get("base"), field + ".base"), r)
    raise ValidationError(field + ".type",
                          "unknown sampler type %r (linear, reciprocal, segre, product, power)" % kind)


def _parse_dim_mult_list(data, field):
    if not isinstance(data, list):
        raise ValidationError(field, "expected a list of [dimension, multiplicity] pairs")
    out = []
    for i, pair in enumerate(data):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(is_json_int(x) for x in pair)):
            raise ValidationError("%s[%d]" % (field, i), "expected [dimension, multiplicity]")
        m, r = pair
        if m < 0 or r < 1:
            raise ValidationError("%s[%d]" % (field, i),
                                  "dimension must be >= 0 and multiplicity >= 1")
        out.append((m, r))
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_line_power(payload, rng, args):
    line = _parse_space(_want(payload, "line", list), "line")
    if line.dim != 1:
        raise ValidationError("line", "expected exactly two generator rows")
    r = _want(payload, "r", int)
    if r < 1:
        raise ValidationError("r", "power must be >= 1")
    check_line_power_limits(line, r)
    n = line.ambient_dim
    pl = pluecker(line)
    if pl.nonvanishing():
        power = LinSpace.span_of(line_power_matrix(line, r))
        method = "matrix"
        if r <= n:
            scale = pl.scale ** comb(r + 1, 2)
            minors = {cols: line_power_minor(pl, r, cols)
                      for cols in combinations(range(n + 1), r + 1)}
            pk = {",".join(map(str, cols)): rat_str(m, scale) for cols, m in minors.items()}
        else:
            pk = pluecker(power).to_json()
        equations = power_linear_equations(n, r, minors) if r < n else []
    else:
        power = sampled_power_span(line, r)
        method = "sampled"
        pk = pluecker(power).to_json()
        equations = [SparsePoly.linear_form(vec).primitive()
                     for vec in power.generators.nullspace().ints]
    return {
        "method": method,
        "dim": power.dim,
        "generators": power.to_json(),
        "pluecker": pk,
        "equations": [f.to_json() for f in equations],
    }


def cmd_star_config(payload, rng, args):
    line = _parse_space(_want(payload, "line", list), "line")
    if line.dim != 1:
        raise ValidationError("line", "expected exactly two generator rows")
    raw_points = _want(payload, "points", list)
    points = [_parse_point(p, "points[%d]" % i) for i, p in enumerate(raw_points)]
    r = _want(payload, "r", int)
    check_star_config_limits(len(points), r, line.ambient_dim)
    check_star_config_bit_work(line, points, r)
    try:
        zset = PointSet(points)
    except ValueError as exc:
        raise ValidationError("points", str(exc))
    witness = build_star(zset, line, r)
    hyperplanes = []
    for h in witness.hyperplanes:
        hyperplanes.append({
            "generators": h.to_json(),
            "equations": h.equation_matrix().to_json(),
        })
    pts = []
    for point, subset in zip(witness.points, witness.origin_subsets):
        pts.append({"coords": point.to_json(), "subset": list(subset)})
    return {
        "ambient_space": witness.ambient_space.to_json(),
        "hyperplanes": hyperplanes,
        "points": pts,
        "verified": verify_star(witness),
    }


def _draw_space(rng, m, n):
    """An m-space in P^n with generator entries drawn from [-1000, 1000],
    a rank-deficient draw redrawn up to SAMPLE_BUDGET draws in all."""
    for _ in range(SAMPLE_BUDGET):
        rows = [[rng.randint(-1000, 1000) for _ in range(n + 1)] for _ in range(m + 1)]
        try:
            return LinSpace(rows)
        except ValueError:  # the only one LinSpace raises on these rows: rank deficiency
            continue
    raise BudgetExhausted("no draw of %d generators in P^%d had full rank in %d draws"
                          % (m + 1, n, SAMPLE_BUDGET))


def cmd_span_dim(payload, rng, args):
    if "spaces" in payload:
        raw = _want(payload, "spaces", list)
        if not raw:
            raise ValidationError("spaces", "need at least one space")
        entries = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict):
                raise ValidationError("spaces[%d]" % i, "expected an object")
            space = _parse_space(item.get("generators"), "spaces[%d].generators" % i)
            if entries and space.ambient_dim != entries[0][0].ambient_dim:
                raise ValidationError("spaces[%d].generators" % i,
                                      "ambient dimension differs from spaces[0]")
            mult = item.get("mult", 1)
            if not is_json_int(mult) or mult < 1:
                raise ValidationError("spaces[%d].mult" % i, "multiplicity must be >= 1")
            entries.append((space, mult))
        n = entries[0][0].ambient_dim
        check_span_dim_work([(s.dim, r) for s, r in entries], n)
        check_span_dim_bit_work(entries)
    else:
        dims = _parse_dim_mult_list(_want(payload, "dims", list), "dims")
        if not dims:
            raise ValidationError("dims", "need at least one [dimension, multiplicity] pair")
        n = _want(payload, "n", int)
        if any(m > n for m, _ in dims):
            raise ValidationError("n", "ambient dimension must be at least every dimension in dims")
        check_span_dim_work(dims, n)
        entries = [(_draw_space(rng, m, n), r) for m, r in dims]
    rank = integer_rank(gen_vandermonde(entries).ints)
    formula = span_dimension_formula([(s.dim, r) for s, r in entries], n)
    return {
        "rank": rank,
        "span_dim": rank - 1,
        "formula_dim": formula,
        "match": rank - 1 == formula,
    }


def _cone_text(cone, mult):
    """A cone and its multiplicity as compact JSON text, keys sorted."""
    plus, minus = cone
    return '{"minus":%s,"mult":%d,"plus":%s}' % (mask_text(minus), mult, mask_text(plus))


def _transcript_text(detail):
    """The transcript object as compact JSON text, keys in sorted order.
    The summed fan's cones are written from one shared head per (minus
    mask, multiplicity), the text up to the plus mask, and joined once
    (the fan of a pipeline has at least one cone); only the few
    contributing pairs render their cones on their own."""
    fan, complement = detail["fan"], detail["complement"]
    heads, cones = {}, []
    for (plus, minus), mult in fan.cones.items():
        head = heads.get((minus, mult))
        if head is None:
            head = heads[minus, mult] = '{"minus":%s,"mult":%d,"plus":' % (mask_text(minus), mult)
        cones.append(head + mask_text(plus))
    pairs = ",".join('{"lattice_index":%d,"sigma1":%s,"sigma2":%s}'
                     % (idx, _cone_text(c1, fan.cones[c1]), _cone_text(c2, complement.cones[c2]))
                     for c1, c2, idx in detail["pairs"])
    small = json.dumps({"delta": detail["delta"],
                        "displacement": [rat_str(x) for x in detail["displacement"]],
                        "fan_degree": rat_str(detail["degree"]),
                        "global_weight": rat_str(fan.global_weight)},
                       sort_keys=True, separators=(",", ":"))
    return '{"cones":[%s}],"contributing_pairs":[%s],%s' % ("},".join(cones), pairs, small[1:])


def cmd_degree(payload, rng, args):
    """The degree document; with --transcript, already as compact JSON text."""
    plain = _parse_dim_mult_list(payload.get("plain", []), "plain")
    reciprocal = _parse_dim_mult_list(payload.get("reciprocal", []), "reciprocal")
    if not plain and not reciprocal:
        raise ValidationError("plain", "need at least one factor")
    n = _want(payload, "n", int)
    if n < 0:
        raise ValidationError("n", "ambient dimension must be >= 0")
    dim, degree, warning = closed_form_degree(plain, reciprocal, n)
    doc = {"dim": dim, "degree": rat_str(degree)}
    if warning:
        doc["warning"] = warning
    if not args.transcript:
        return doc
    text = '{"degree":%s,"dim":%d,"transcript":%s' % (
        json.dumps(doc["degree"]), dim,
        _transcript_text(fan_degree_pipeline(plain, reciprocal, n, rng)))
    if warning:
        text += ',"warning":' + json.dumps(warning)
    return text + "}"


def cmd_interp(payload, rng, args):
    sampler = _parse_sampler(_want(payload, "sampler", dict), "sampler")
    has_degree = "degree" in payload
    has_dmax = "dmax" in payload
    if has_degree == has_dmax:
        raise ValidationError("degree", "provide exactly one of 'degree' or 'dmax'")
    if has_degree:
        d = _want(payload, "degree", int)
        if d < 1:
            raise ValidationError("degree", "degree must be >= 1")
        forms = interpolate_forms(sampler, d)
        return {"degree": d, "forms": [f.to_json() for f in forms]}
    dmax = _want(payload, "dmax", int)
    if dmax < 1:
        raise ValidationError("dmax", "dmax must be >= 1")
    degree, form = interpolate_hypersurface(sampler, dmax)
    return {"degree": degree, "form": form.to_json()}


def cmd_dim_estimate(payload, rng, args):
    sampler_x = _parse_sampler(_want(payload, "x", dict), "x")
    sampler_y = _parse_sampler(_want(payload, "y", dict), "y")
    if sampler_y.ambient_dim != sampler_x.ambient_dim:
        raise ValidationError("y", "ambient dimension P^%d differs from x's P^%d"
                              % (sampler_y.ambient_dim, sampler_x.ambient_dim))
    n = sampler_x.ambient_dim
    dim_h = _want(payload, "dim_h", int)
    if dim_h < 0:
        raise ValidationError("dim_h", "torus dimension must be >= 0")
    dim_g = _want(payload, "dim_g", int)
    if not 0 <= dim_g <= n:
        raise ValidationError("dim_g", "torus dimension must be between 0 and n = %d" % n)
    p, tp = sampler_x.sample(rng)
    q, tq = sampler_y.sample(rng)
    tangent_dim = terracini_dim(p, tp, q, tq)
    expected = expected_dimension(tp.dim, tq.dim, dim_h, dim_g)
    return {
        "dim_x": tp.dim,
        "dim_y": tq.dim,
        "terracini_dim": tangent_dim,
        "expected_dim": expected,
        "deficient": tangent_dim < expected,
    }


def cmd_bracket(payload, rng, args):
    mode = _want(payload, "mode", str)
    if mode == "quadric":
        line_l = _parse_space(_want(payload, "line_l", list), "line_l")
        line_m = _parse_space(_want(payload, "line_m", list), "line_m")
        form = quadric_two_lines(pluecker(line_l), pluecker(line_m))
        doc = {"form": form.to_json()}
        if args.format == "pretty":
            doc["bracket_display"] = quadric_bracket_display()
        return doc
    if mode == "cubic":
        plane = _parse_space(_want(payload, "plane", list), "plane")
        form = cubic_plane_square(pluecker(plane))
        return {"form": form.to_json()}
    if mode == "verify":
        identity = _want(payload, "identity", str)
        if identity not in ("quadric", "cubic"):
            raise ValidationError("identity", "expected 'quadric' or 'cubic'")
        if args.symbolic:
            if identity != "quadric":
                raise PreconditionError(
                    "symbolic expansion is only provided for the quadric identity; "
                    "the cubic identity is verified by sampling and interpolation")
            return {
                "mode": "symbolic",
                "expansion_zero": quadric_symbolic_identity().is_zero(),
                "square_identity": quadric_square_symbolic(),
            }
        trials = payload.get("trials", 25)
        if not is_json_int(trials) or trials < 1:
            raise ValidationError("trials", "trials must be a positive integer")
        if identity == "quadric":
            line_l = _parse_space(payload.get("line_l", list(papersuite.LINE_L_POINTS)), "line_l")
            line_m = _parse_space(payload.get("line_m", list(papersuite.LINE_M_POINTS)), "line_m")
            form = quadric_two_lines(pluecker(line_l), pluecker(line_m))
            sampler = hadamard_product_sampler(
                linear_space_sampler(line_l), linear_space_sampler(line_m))
        else:
            plane = _parse_space(payload.get("plane", list(papersuite.PLANE_POINTS)), "plane")
            form = cubic_plane_square(pluecker(plane))
            sampler = hadamard_power_sampler(linear_space_sampler(plane), 2)
        ok = verify_identity(form, sampler, trials, rng)
        return {"mode": "sampling", "trials": trials, "verified": ok}
    raise ValidationError("mode", "expected 'quadric', 'cubic', or 'verify'")


def cmd_paper_suite(payload, rng, args):
    return papersuite.run_all(args.seed)


COMMANDS = {
    "line-power": cmd_line_power,
    "star-config": cmd_star_config,
    "span-dim": cmd_span_dim,
    "degree": cmd_degree,
    "interp": cmd_interp,
    "dim-estimate": cmd_dim_estimate,
    "bracket": cmd_bracket,
    "paper-suite": cmd_paper_suite,
}

NEEDS_PAYLOAD = {"line-power", "star-config", "span-dim", "degree", "interp",
                 "dim-estimate", "bracket"}


#: Every long option: the attribute it sets, its kind (int, str, a tuple of
#: choices, or bool for a switch) and its default.  `-h` is `--help`, a
#: switch that ends the reading.  The order is argparse's, which an
#: ambiguous prefix's message lists.
OPTIONS = {
    "--help": ("help", bool, False),
    "--seed": ("seed", int, DEFAULT_SEED),
    "--in": ("infile", str, None),
    "--out": ("outfile", str, None),
    "--format": ("format", ("json", "pretty"), "json"),
    "--symbolic": ("symbolic", bool, False),
    "--transcript": ("transcript", bool, False),
}

_DEFAULTS = {attr: default for attr, _, default in OPTIONS.values()}

HELP = """\
usage: hadamard-spaces [-h] [--seed SEED] [--in INFILE] [--out OUTFILE]
                       [--format {json,pretty}] [--symbolic] [--transcript]
                       {bracket,degree,dim-estimate,interp,line-power,paper-suite,span-dim,star-config}

Exact computations with Hadamard products of projective linear spaces.

positional arguments:
  {bracket,degree,dim-estimate,interp,line-power,paper-suite,span-dim,star-config}

options:
  -h, --help            show this help message and exit
  --seed SEED           master seed for all randomness (default 20259)
  --in INFILE           payload path (default: standard input)
  --out OUTFILE         output path (default: standard output)
  --format {json,pretty}
  --symbolic            symbolic verification mode for `bracket verify`
  --transcript          include the fan computation transcript in `degree`
                        output
"""

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _flag_error(name, message):
    """A command-line error about an option or the command, worded and
    named (`field`) as argparse names it."""
    label = "-h/--help" if name == "--help" else name
    return ValidationError(label.lstrip("-"), "argument %s: %s" % (label, message))


def _choice(name, value, choices):
    if value not in choices:
        raise _flag_error(name, "invalid choice: %r (choose from %s)"
                          % (value, ", ".join(map(repr, sorted(choices)))))
    return value


def _read_option(token):
    """A token before `--` as argparse reads it: None for a positional, else
    (the long option it names, None if none; its `=` value, None if none).
    An ambiguous prefix is an error."""
    if token[:1] != "-" or token == "-":
        return None
    if token in OPTIONS:
        return token, None
    if token == "-h":
        return "--help", None
    if token[1] != "-":
        if token[:2] == "-h":  # argparse reads -hh as -h -h; anything else glued is a value
            rest = token[3:] if token[:3] == "-h=" else token[2:]
            left = rest.lstrip("h")
            return "--help", None if rest and not left else left
        return None if _NEGATIVE_NUMBER.match(token) or " " in token else (None, None)
    name, eq, value = token.partition("=")
    if not eq:
        value = None
    if name in OPTIONS:
        return name, value
    matches = [option for option in OPTIONS if option.startswith(name)]
    if len(matches) > 1:
        raise ValidationError(None, "ambiguous option: %s could match %s"
                              % (token, ", ".join(matches)))
    if matches:
        return matches[0], value
    return None if " " in token else (None, None)


def parse_args(argv):
    """The command line read from OPTIONS, as a namespace of the command and
    every option's attribute; `help` is true when -h or --help was read,
    and the rest may then be unread.  A bad command line raises
    ValidationError naming the `field` argparse's error named."""
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_read_option(token) for token in argv[:end]]  # ambiguity first, as argparse
    options += [None] * (len(argv) - end)
    args = SimpleNamespace(command=None, **_DEFAULTS)
    extras = []
    i = 0
    while i < len(argv):
        option = options[i]
        i += 1
        if option is None:
            if args.command is not None or i - 1 == end == len(argv) - 1:
                extras.append(argv[i - 1])
                continue
            i += i - 1 == end  # a `--` just before the command
            args.command = _choice("command", argv[i - 1], COMMANDS)
            i += i == end  # or just after it
            continue
        name, value = option
        if name is None:
            extras.append(argv[i - 1])
            continue
        attr, kind, _ = OPTIONS[name]
        if kind is bool:
            if value is not None:
                raise _flag_error(name, "ignored explicit argument %r" % value)
            setattr(args, attr, True)
            if attr == "help":
                return args
            continue
        if value is None:
            if i >= end or options[i]:
                raise _flag_error(name, "expected one argument")
            value = argv[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _flag_error(name, "invalid int value: %r" % value)
        elif kind is not str:
            _choice(name, value, kind)
        setattr(args, attr, value)
    if args.command is None:
        raise ValidationError(None, "the following arguments are required: command")
    if extras:
        raise ValidationError(None, "unrecognized arguments: %s" % " ".join(extras))
    return args


def _fail(code, field, message):
    doc = {"error": {"code": code, "message": message}}
    if field:
        doc["error"]["field"] = field
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    return code


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except ValidationError as exc:
        return _fail(1, exc.field, str(exc))
    if args.help:
        sys.stdout.write(HELP)
        return 0
    if args.seed < 0:
        return _fail(1, "seed", "seed must be a nonnegative integer")

    payload = {}
    if args.command in NEEDS_PAYLOAD:
        try:
            if args.infile:
                with open(args.infile) as fh:
                    text = fh.read()
            else:
                text = sys.stdin.read()
            payload = json.loads(text) if text.strip() else {}
        except OSError as exc:
            return _fail(1, "in", str(exc))
        except ValueError as exc:  # bad JSON, or an integer past int()'s digit limit
            return _fail(1, None, "malformed JSON payload: %s" % exc)
        if not isinstance(payload, dict):
            return _fail(1, None, "payload must be a JSON object")

    rng = random.Random(args.seed)
    try:
        doc = COMMANDS[args.command](payload, rng, args)
    except ValidationError as exc:
        return _fail(1, exc.field, str(exc))
    except PreconditionError as exc:
        return _fail(2, None, str(exc))
    except BudgetExhausted as exc:
        return _fail(3, None, str(exc))

    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if args.format == "pretty":
        text = json.dumps(json.loads(text), indent=2, sort_keys=True)
    text += "\n"
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if args.command == "paper-suite" and not doc.get("all_pass", False):
        failing = [c["name"] for c in doc["checks"] if not c["pass"]]
        return _fail(2, None, "reproduction checks failed: %s" % ", ".join(failing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
