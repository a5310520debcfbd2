"""Shared fixtures for the correctness and acceptance tests.

The battery holds one Denniston arc for every field q in {4, 8, 16, 32} and
every power-of-two degree d dividing q (d = q included), plus two
non-Denniston specimens: a degree-4 arc with non-constant beta over GF(8)
and a degree-8 trace-system extension arc over GF(32).

The naive definitions the tests compare against live in oracles.py.
"""

import pytest

from arcflock import mathon_arcs as ma
from arcflock import search as se
from arcflock.finite_field import make_field

# smallest alpha with absolute trace 1 per field degree  [DERIVED: scan in
# test_finite_field.py::test_trace_against_naive_oracle's oracle]
BATTERY_ALPHA = {2: 2, 3: 1, 4: 8, 5: 1}


def battery_specs() -> list[tuple[int, int, int]]:
    """(h, alpha, d) for every field and every power-of-two d dividing q."""
    out = []
    for h in (2, 3, 4, 5):
        for k in range(1, h + 1):
            out.append((h, BATTERY_ALPHA[h], 1 << k))
    return out


@pytest.fixture(scope="session")
def battery_arcs() -> dict[tuple[int, int], ma.MathonArc]:
    """Denniston arcs keyed by (q, d); lam set {1, ..., d-1} (a bit-span group)."""
    arcs = {}
    for h, alpha, d in battery_specs():
        gf = make_field(h)
        arcs[(gf.q, d)] = ma.denniston_arc(gf, alpha, tuple(range(1, d)))
    return arcs


@pytest.fixture(scope="session")
def generic_arc_q8() -> ma.MathonArc:
    """Degree-4 arc over GF(8) with non-constant beta: closure of
    F_{1,1,1} and F_{1,3,4}, which adds exactly F_{1,7,5}.  [DERIVED: the
    closure is recomputed here; the expected conic list is frozen in
    test_mathon_arcs.py]"""
    gf = make_field(3)
    return ma.close_set([ma.Conic(gf, 1, 1, 1), ma.Conic(gf, 1, 3, 4)])


@pytest.fixture(scope="session")
def extension_arc_q32() -> ma.MathonArc:
    """Degree-8 arc over GF(32) from the trace-condition system:
    H = {0,1,2,3}, lambda_d = 4, rho = 16.  [DERIVED: rho frozen from
    solve_trace_system, re-derived against oracles.scan_trace_system
    in test_search.py]"""
    gf = make_field(5)
    spec = se.GroupSpec(gf, (0, 1, 2, 3), 4)
    return se.construct_extension_arc(spec, 16)
