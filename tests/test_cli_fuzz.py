"""Property tests of the CLI boundary: no input escapes ``main()`` as an exception.

A verdict exits 0 or 1 and a refused input exits 2 with ``error: ...`` on
stderr; anything raised out of ``main()`` fails.  One test feeds stdin to
``verify``, every ``convert`` direction and ``project``: arbitrary JSON and
text, and valid arcs and flocks over GF(4) and GF(8) (bare or wrapped, one
failing its verdict) with up to three values replaced or keys deleted.  The
other sets one numeric option of a valid ``construct denniston``, ``construct
mathon-extend``, ``search`` or ``rank`` call at h <= 4 to an arbitrary int,
so that each bad value meets the check meant for it.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arcflock import flocks as fl
from arcflock import mathon_arcs as ma
from arcflock.cli import main
from arcflock.finite_field import make_field


def _check(argv, stdin=""):
    """A verdict exits 0 or 1; a refused input exits 2 with ``error: ...`` on stderr."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


_SETTINGS = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _valid_payloads() -> list:
    gf4, gf8 = make_field(2), make_field(3)
    alpha4 = min(a for a in range(gf4.q) if gf4.trace(a) == 1)
    arcs = [
        ma.denniston_arc(gf4, alpha4, (1,)),
        ma.denniston_arc(gf8, 1, (1,)),
        ma.denniston_arc(gf8, 1, (1, 2, 3)),
    ]
    # two planes with equal X2: their sections meet, so the verdict fails
    payloads = [{"field": gf8.to_json(), "planes": [[1, 0, 0, 0], [1, 1, 0, 1]]}]
    for arc in arcs:
        arc_json = ma.arc_to_json(arc)
        flocks = [fl.flock_to_json(fl.arc_to_flock(arc)), fl.flock_to_json(fl.project_arc(arc))]
        payloads += [arc_json, {"arc": arc_json}]
        payloads += flocks + [{"flock": f} for f in flocks]
    return payloads


_VALID = _valid_payloads()

_SCALARS = st.none() | st.booleans() | st.integers(-1, 9) | st.text(max_size=3)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _containers(obj) -> list:
    """obj and every dict or list nested in it."""
    found = [obj]
    for child in obj.values() if isinstance(obj, dict) else obj:
        if isinstance(child, (dict, list)):
            found += _containers(child)
    return found


@st.composite
def _mutants(draw):
    obj = copy.deepcopy(draw(st.sampled_from(_VALID)))
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(_containers(obj)))
        if not node:
            continue
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if draw(st.booleans()):
            node[key] = draw(_JSON)
        else:
            del node[key]
    return obj


_STDIN = _mutants().map(json.dumps) | _JSON.map(json.dumps) | st.text(max_size=20)
_ARGV = st.sampled_from(
    [
        ["verify", "-"],
        ["convert", "--direction", "arc-to-flock", "-"],
        ["convert", "--direction", "flock-to-arc", "-"],
        ["convert", "--direction", "chain", "-"],
        ["project", "-"],
        ["project", "-", "--p=1,0,2,0"],
        ["project", "-", "--p=1,0,9,0"],
        ["project", "-", "--p="],
    ]
)


@_SETTINGS
@given(stdin=_STDIN, argv=_ARGV)
def test_cli_boundary_never_raises(stdin, argv):
    _check(argv, stdin)


# valid invocations, option -> value (None: left out); each example sets one
# option, these or --modulus, to a drawn value
_BASES = [
    (["construct", "denniston"], {"h": 3, "alpha": 1, "A": "1,2"}),
    (["construct", "denniston"], {"h": 4, "alpha": 8, "A": "1"}),
    (["construct", "mathon-extend"], {"h": 3, "H": "1", "lambda-d": 2, "rho": 5}),
    (["construct", "mathon-extend"], {"h": 3, "H": "1", "lambda-d": 6, "rho": None}),
    (["search"], {"h": 3, "d": 2}),
    (["rank"], {"h": 4, "d": 4}),
]
# values inside GF(16) stay near the valid ones; unbounded ones hit the range checks
_INT = st.integers(0, 15) | st.integers()
_INTS = st.lists(_INT, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))
_VALUES = {
    "h": st.integers(0, 4),
    "modulus": st.sampled_from([7, 11, 13, 19, 25, 31]) | _INT,  # irreducible ones first
    "A": _INTS,
    "H": _INTS,
}


@st.composite
def _numeric_argv(draw):
    command, base = draw(st.sampled_from(_BASES))
    key = draw(st.sampled_from([*base, "modulus"]))
    options = {**base, key: draw(_VALUES.get(key, _INT))}
    return command + [f"--{k}={v}" for k, v in options.items() if v is not None]


@_SETTINGS
@given(argv=_numeric_argv())
def test_cli_numeric_arguments_never_raise(argv):
    _check(argv)
