"""Shared fixtures and oracles for the correctness and acceptance tests.

The battery holds one Denniston arc for every field q in {4, 8, 16, 32} and
every power-of-two degree d dividing q (d = q included), plus two
non-Denniston specimens: a degree-4 arc with non-constant beta over GF(8)
and a degree-8 trace-system extension arc over GF(32).

mu_solutions_scan and scan_trace_system are the exhaustive oracle for the
GF(2) elimination in arcflock.search: they evaluate every trace condition at
every mu and share no code with the solver.
"""

import dataclasses

import pytest

from arcflock import mathon_arcs as ma
from arcflock import search as se
from arcflock.finite_field import make_field

# smallest alpha with absolute trace 1 per field degree  [DERIVED: scan in
# test_finite_field.py::test_trace_against_naive_oracle's oracle]
BATTERY_ALPHA = {2: 2, 3: 1, 4: 8, 5: 1}


def mu_solutions_scan(system: se.TraceConditionSystem) -> frozenset[int]:
    """All mu in GF(q), zero included, satisfying every condition — by full scan."""
    gf = system.gf
    eps = system.epsilon
    return frozenset(
        mu
        for mu in gf.elements()
        if all(gf.trace(gf.mul(cond.c, mu)) == eps for cond in system.conditions)
    )


def scan_trace_system(
    system: se.TraceConditionSystem,
) -> tuple[int, frozenset[int], frozenset[int]]:
    """(rank, prefilter rho, valid rho) of a trace system, by exhaustive mu scan.

    The rank is h minus the dimension of the homogeneous solution space.  A
    prefilter rho is 1/mu for a nonzero solution mu; it is valid when, in
    addition, beta = (lambda_d + 1) * mu + 1 has trace 1.
    """
    gf = system.gf
    top = system.group.lambda_d ^ 1
    kernel = mu_solutions_scan(dataclasses.replace(system, epsilon=0))
    rank = gf.h - (len(kernel).bit_length() - 1)
    nonzero = [mu for mu in mu_solutions_scan(system) if mu]
    prefilter = frozenset(gf.inv(mu) for mu in nonzero)
    valid = frozenset(
        gf.inv(mu) for mu in nonzero if gf.trace(gf.mul(top, mu) ^ 1) == 1
    )
    return rank, prefilter, valid


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
    solve_trace_system, re-derived against scan_trace_system in
    test_search.py]"""
    gf = make_field(5)
    spec = se.GroupSpec(gf, (0, 1, 2, 3), 4)
    return se.construct_extension_arc(spec, 16)
