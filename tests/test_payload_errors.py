"""Payload errors: every payload gets an answer or one JSON error with
the documented exit code.

`payload_error_goldens.json` maps each (argv, payload text) to its exit code
and stderr.  It holds a case for every payload `ValidationError` site and
the orders a reader of the fields could get wrong: a payload with two bad
fields names the one read first (`line` before `r`; `spaces` wins over
junk `dims`; `bracket verify --symbolic` reads no `trials`).  The bytes were
recorded from the CLI before `cli.SCHEMA` replaced its hand-written checks.

Further tests: payloads nested past `cli.PAYLOAD_DEPTH_LIMIT` under every
installed Python, a fuzz test of payloads drawn from `cli.SCHEMA`, and the
sampler factor limit.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hadamard_spaces import cli, samplers

GOLDENS = json.loads((Path(__file__).parent / "payload_error_goldens.json").read_text())


def run_main(argv, text):
    """Exit code, stdout and stderr of one in-process `cli.main` call whose
    payload text is `text`."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", GOLDENS, ids=[case["name"] for case in GOLDENS])
def test_payload_errors_keep_their_bytes(case):
    code, out, err = run_main(case["argv"], case["payload"])
    assert (code, err) == (case["code"], case["stderr"])
    assert code == 0 or out == ""


# ---------------------------------------------------------------------------
# payloads nested past the depth limit

def _power_chain(depth):
    return ('{"sampler": %s{"type": "linear", "generators": [[1, 2, 3]]}%s, "degree": 1}'
            % ('{"type": "power", "r": 1, "base": ' * depth, "}" * depth))


NESTED_PAYLOADS = {
    # 100,000 brackets: json.loads itself overflows on every Python.
    "sampler of nested lists": '{"sampler": %s%s, "degree": 1}' % ("[" * 100000, "]" * 100000),
    # 990 powers: json.loads overflows on 3.10 and 3.11, the reader on 3.12+.
    "power sampler chain 990 deep": _power_chain(990),
    # A 1,500-deep list in a field no subcommand reads: json.loads reads it
    # on 3.13 only, so it answered there and was too deep elsewhere.
    "unread field 1500 deep": '{"sampler": {"type": "linear", "generators": [[1, 2, 3]]}, '
                              '"degree": 1, "junk": %s1%s}' % ("[" * 1500, "]" * 1500),
    # 489 to 493 powers: the reader overflowed at 491 on 3.10 and 3.11 and
    # at 493 on 3.12 and 3.13.
    **{"power sampler chain %d deep" % depth: _power_chain(depth) for depth in range(489, 494)},
    # Just past cli.PAYLOAD_DEPTH_LIMIT: the chain and its leaf add four levels.
    "power sampler chain past the depth limit": _power_chain(cli.PAYLOAD_DEPTH_LIMIT - 3),
}

def _installed_pythons():
    """This interpreter, then every other CPython 3.1x under pyenv."""
    here = Path(sys.executable).resolve()
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    return [Path(sys.executable)] + [p for p in sorted(root.glob("versions/3.1[0-9]*/bin/python3"))
                                     if p.resolve() != here]


def test_payloads_at_the_depth_limit_are_read():
    code, out, _ = run_main(["interp"], _power_chain(cli.PAYLOAD_DEPTH_LIMIT - 4))
    assert code == 0 and json.loads(out)["degree"] == 1


@pytest.mark.parametrize("python", _installed_pythons(), ids=lambda p: p.parts[-3])
def test_nested_payloads_are_one_json_error_on_every_python(python):
    error = '{"error": {"code": 1, "message": "%s"}}\n' % cli.TOO_DEEP
    for text in NESTED_PAYLOADS.values():
        proc = subprocess.run([str(python), "-m", "hadamard_spaces.cli", "interp"], input=text,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", error)


# ---------------------------------------------------------------------------
# a fuzz test drawn from cli.SCHEMA

def _fields_read(steps, data):
    """The fields (name, kind, default...) that `steps` read from `data`,
    following each branch to the case `data` picks (every case of a flag's)."""
    out, todo = [], list(reversed(steps))
    while todo:
        step = todo.pop()
        if callable(step):
            continue
        name, kind, *_ = step
        if not isinstance(kind, dict):
            out.append(step)
        elif isinstance(name, tuple):
            todo += reversed(kind.get(tuple(n for n in name if n in data), ()))
        elif name[:2] == "--":
            todo += [case_step for case in kind.values() for case_step in reversed(case)]
        elif isinstance(data.get(name), str):
            todo += reversed(kind.get(data[name], ()))
    return out


@st.composite
def _value(draw, kind, n, depth=0):
    """A JSON value `kind` reads in P^n: small shapes, 2-digit entries."""
    entry = st.integers(-99, 99) | st.builds("{}/{}".format, st.integers(-99, 99),
                                             st.integers(1, 99))
    if isinstance(kind, cli.Int):
        least = 0 if kind.least is None else kind.least
        return draw(st.integers(least, least + 3))
    if isinstance(kind, cli.Choice):
        return draw(st.sampled_from(kind.choices))
    if isinstance(kind, cli.Space):
        rows = 2 if kind.line else draw(st.integers(1, min(n + 1, 3)))
        return draw(st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1),
                             min_size=rows, max_size=rows))
    if isinstance(kind, cli.Point):
        return draw(st.lists(entry, min_size=n + 1, max_size=n + 1))
    if isinstance(kind, cli.Pair):
        return [draw(st.integers(0, n)), draw(st.integers(1, 2))]
    if isinstance(kind, cli.List):
        size = draw(st.integers(kind.least, kind.least + (1 if depth else 4)))
        return [draw(_value(kind.item, n, depth + 1)) for _ in range(size)]
    return draw(_object(kind.steps, n, depth + 1))


@st.composite
def _object(draw, steps, n, depth=0, argv=None):
    """A JSON object that `steps` reads: its required fields, half of the
    fields with a default, and one case of each branch; a flag a branch is
    on goes to `argv`."""
    data = {}
    todo = list(reversed(steps))
    while todo:
        step = todo.pop()
        if callable(step):
            continue
        name, kind, *default = step
        if isinstance(kind, dict):
            if isinstance(name, tuple):
                key = draw(st.sampled_from(list(kind)))
            elif name[:2] == "--":
                key = draw(st.booleans())
                if key:
                    argv.append(name)
            else:
                key = data[name]
            if depth >= 2 and key in ("product", "power"):  # a sampler's base or factor
                key = data[name] = "linear"
            todo += reversed(kind[key])
        elif not default or default[0] is None or draw(st.booleans()):
            data[name] = draw(_value(kind, n, depth))
    return data


def _breaks(data, steps):
    """(path, value) pairs that break one field that `steps` read from
    `data`: a wrong JSON type, a bool for an int, a float or a bad rational
    string, out of range, or missing (value `...`)."""
    out = []
    for name, kind, *_ in _fields_read(steps, data):
        if name not in data:
            continue
        value = data[name]
        out += [((name,), ...), ((name,), {"bad": 1}), ((name,), "x")]
        if isinstance(kind, cli.Int):
            out += [((name,), True), ((name,), 1.0)]
            if kind.least is not None:
                out.append(((name,), kind.least - 1))
        elif isinstance(kind, (cli.Space, cli.Point)):
            entry = (name, 0, 0) if isinstance(kind, cli.Space) else (name, 0)
            out += [(entry, 1.5), (entry, "1.5"), (entry, "1/0")]
        elif isinstance(kind, cli.List) and value:
            out += [((name, 0), ...), ((name, 0), True)]
            if isinstance(kind.item, cli.Obj):
                out += [((name, 0, *path), v) for path, v in _breaks(value[0], kind.item.steps)]
        elif isinstance(kind, cli.Obj):
            out += [((name, *path), v) for path, v in _breaks(value, kind.steps)]
    return out


def _broken(data, path, value):
    data = json.loads(json.dumps(data))
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    if value is ...:
        del target[last]
    else:
        target[last] = value
    return data


@st.composite
def _payloads(draw):
    """(argv, payload text): a payload drawn from SCHEMA, and half the time
    one of its fields broken."""
    command = draw(st.sampled_from(sorted(cli.SCHEMA)))
    argv = [command]
    data = draw(_object(cli.SCHEMA[command], draw(st.integers(1, 5)), 0, argv))
    breaks = _breaks(data, cli.SCHEMA[command])
    if breaks and draw(st.booleans()):
        data = _broken(data, *draw(st.sampled_from(breaks)))
    return argv, json.dumps(data)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_payloads())
def test_payloads_drawn_from_the_schema_end_in_one_documented_outcome(case):
    """A payload drawn from cli.SCHEMA, valid or with one field broken, ends
    in exit 0, 1, 2 or 3; a nonzero exit prints nothing on stdout and one
    JSON error of its code on stderr; a rerun prints the same bytes."""
    argv, text = case
    code, out, err = run_main(argv, text)
    assert code in (0, 1, 2, 3)
    if code:
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"]["code"] == code
    else:
        assert err == ""
    assert run_main(argv, text) == (code, out, err)


def test_samplers_past_the_factor_limit_exit_3_before_they_are_built():
    limit = samplers.SAMPLER_FACTOR_LIMIT
    line = {"type": "linear", "generators": [[1, 2, 3], [0, 1, 5]]}
    point = {"type": "linear", "generators": [[1, 2, 3]]}
    power = lambda base, r: {"type": "power", "r": r, "base": base}
    assert len(cli.SAMPLER.read(power(line, limit), "sampler").factors) == limit
    assert len(cli.SAMPLER.read({"type": "product", "factors": [point] * limit},
                                "sampler").factors) == limit
    for sampler, count in ((power(line, limit + 1), limit + 1),
                           (power(line, 10 ** 12), 10 ** 12),
                           (power(power(point, 10 ** 6), 10 ** 6), 10 ** 6),
                           ({"type": "product", "factors": [point] * (limit + 1)}, limit + 1),
                           (power({"type": "segre", "a": 1, "b": 1}, limit // 2 + 1), limit + 2)):
        message = "the sampler has %d factors, past the limit of %d" % (count, limit)
        for argv, payload in ((["interp"], {"sampler": sampler, "dmax": 3}),
                              (["dim-estimate"], {"x": sampler, "y": line, "dim_h": 0, "dim_g": 2})):
            error = '{"error": {"code": 3, "message": "%s"}}\n' % message
            assert run_main(argv, json.dumps(payload)) == (3, "", error)
