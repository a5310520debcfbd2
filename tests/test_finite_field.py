"""Field arithmetic against naive polynomial oracles and frozen constants."""

import random

import oracles
import pytest

from arcflock import flocks as fl
from arcflock import mathon_arcs as ma
from arcflock import search as se
from arcflock.finite_field import (
    GF,
    MAX_H,
    gf2_add_row,
    gf2_back_substitute,
    least_irreducible,
    make_field,
)

# [DERIVED: each value re-proven least irreducible by the naive oracle]
FROZEN_MODULI = {
    1: 3,
    2: 7,
    3: 11,
    4: 19,
    5: 37,
    6: 67,
    7: 131,
    8: 283,
    9: 515,
    10: 1033,
    11: 2053,
    12: 4105,
    13: 8219,
    14: 16417,
    15: 32771,
    16: 65579,
}


def test_least_irreducible_matches_frozen_table():
    for h, frozen in FROZEN_MODULI.items():
        assert least_irreducible(h) == frozen


def test_frozen_moduli_are_least_by_naive_oracle():
    # A usable modulus has constant term 1 (odd encoding); for h >= 2 an even
    # encoding is divisible by x and hence reducible, so scanning odd candidates
    # only matters for h = 1 where x itself is irreducible but not a modulus.
    for h, frozen in FROZEN_MODULI.items():
        assert frozen & 1
        assert oracles.poly_irreducible(frozen, h), (h, frozen)
        for m in range((1 << h) + 1, frozen, 2):
            assert not oracles.poly_irreducible(m, h), (h, m)


@pytest.mark.parametrize("h", range(1, 9))
def test_mul_matches_polynomial_oracle(h):
    gf = make_field(h)
    rng = random.Random(1000 + h)
    pairs = (
        [(a, b) for a in gf.elements() for b in gf.elements()]
        if gf.q <= 16
        else [(rng.randrange(gf.q), rng.randrange(gf.q)) for _ in range(2000)]
    )
    for a, b in pairs:
        assert gf.mul(a, b) == oracles.poly_mod(oracles.poly_mul(a, b), gf.modulus)


@pytest.mark.parametrize("h", (1, 2, 3, 4, 5, 6))
def test_scaled_powers_rows_hold_every_product(h):
    gf = make_field(h)
    assert sorted(map(gf.log_index, gf.elements())) == list(range(gf.q))
    for b in gf.elements():
        row = gf.scaled_powers(b)
        assert len(row) == gf.q
        for y in gf.elements():
            assert row[gf.log_index(y)] == oracles.poly_mod(oracles.poly_mul(b, y), gf.modulus)


@pytest.mark.parametrize("h", range(1, 9))
def test_field_axioms(h):
    gf = make_field(h)
    rng = random.Random(2000 + h)
    for _ in range(500):
        a, b, c = (rng.randrange(gf.q) for _ in range(3))
        assert gf.add(a, b) == gf.add(b, a) == (a ^ b)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
        assert gf.mul(a, 1) == a and gf.add(a, 0) == a and gf.add(a, a) == 0


@pytest.mark.parametrize("h", range(1, 9))
def test_inverse_and_division(h):
    gf = make_field(h)
    for a in gf.nonzero_elements():
        inv = gf.inv(a)
        assert gf.mul(a, inv) == 1
        assert gf.div(1, a) == inv
        assert gf.div(a, a) == 1
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.div(1, 0)


@pytest.mark.parametrize("h", range(1, 7))
def test_div_many_matches_div_on_every_pair(h):
    gf = make_field(h)
    divisors = list(gf.nonzero_elements())
    for a in gf.elements():
        assert gf.div_many(a, divisors) == [gf.div(a, b) for b in divisors]
        with pytest.raises(ZeroDivisionError):
            gf.div_many(a, [1, 0])
    assert gf.div_many(1, []) == []


@pytest.mark.parametrize("h", range(1, 17))
def test_square_and_sqrt_are_inverse_bijections(h):
    gf = make_field(h)
    if h <= 8:
        elements = gf.elements()
    else:
        elements = [0, 1, gf.q - 1] + random.Random(2500 + h).sample(range(2, gf.q - 1), 500)
    squares = set()
    for a in elements:
        s = gf.square(a)
        assert s == gf.mul(a, a)
        assert gf.sqrt(s) == a
        assert gf.mul(gf.sqrt(a), gf.sqrt(a)) == a
        squares.add(s)
    if h <= 8:
        assert squares == set(gf.elements())  # Frobenius is a bijection


@pytest.mark.parametrize("h", range(1, 9))
def test_trace_against_naive_oracle(h):
    gf = make_field(h)
    ones = 0
    for a in gf.elements():
        t = gf.trace(a)
        assert t == oracles.poly_trace(gf.modulus, h, a)
        assert gf.trace(gf.square(a)) == t
        ones += t
    assert ones == gf.q // 2  # the trace map is balanced
    for a in gf.elements():
        for b in (1, gf.q - 1, gf.q // 2):
            assert gf.trace(a ^ b) == gf.trace(a) ^ gf.trace(b)


def _oracle_trace_of_product(gf, a, b):
    return oracles.poly_trace(gf.modulus, gf.h, oracles.poly_mod(oracles.poly_mul(a, b), gf.modulus))


@pytest.mark.parametrize("h", range(1, MAX_H + 1))
def test_dual_basis_against_naive_trace(h):
    # d_i = from_trace_coordinates(2^i) satisfies trace(2^j * d_i) = [i = j]
    gf = make_field(h)
    dual = [gf.from_trace_coordinates(1 << i) for i in range(h)]
    for i, d in enumerate(dual):
        assert gf.is_element(d)
        assert [_oracle_trace_of_product(gf, 1 << j, d) for j in range(h)] == [
            int(i == j) for j in range(h)
        ]


def test_dual_basis_refuses_a_degenerate_trace_form(monkeypatch):
    # with a trace that vanishes everywhere no Gram row adds a pivot
    gf = GF(3)
    monkeypatch.setattr(GF, "trace", lambda self, a: 0)
    with pytest.raises(AssertionError, match="the trace form is degenerate"):
        gf._build_dual_basis()


@pytest.mark.parametrize("n", range(1, 7))
def test_gf2_add_row_against_brute_force(n):
    # after every added row: the consistency flag, the rank (by the size of the
    # row span) and the solution count against a scan of every x in GF(2)^n;
    # the stored rows form an echelon, and back-substituted they are the
    # reduced row echelon form of the same consistent system
    rng = random.Random(1600 + n)
    for _ in range(200):
        echelon = {}
        consistent = True
        rows, rhs = [], []
        for _ in range(rng.randrange(1, 2 * n + 2)):
            row, b = rng.randrange(1 << n), rng.randrange(2)
            stored = dict(echelon)
            consistent &= not gf2_add_row(echelon, row, b)
            assert stored.items() <= echelon.items()  # stored rows never change
            rows.append(row)
            rhs.append(b)
            span = {0}
            for r in rows:
                span |= {r ^ s for s in span}
            solutions = [
                x for x in range(1 << n)
                if all((r & x).bit_count() & 1 == c for r, c in zip(rows, rhs))
            ]
            assert 1 << len(echelon) == len(span)
            assert consistent == bool(solutions)
            assert len(solutions) == ((1 << (n - len(echelon))) if consistent else 0)
            for pb, (r, _) in echelon.items():  # echelon: each row led by its pivot
                assert r.bit_length() - 1 == pb
            reduced = gf2_back_substitute(echelon)
            assert [pb for pb, _, _ in reduced] == sorted(echelon)
            for pb, r, _ in reduced:  # reduced row echelon form
                assert r.bit_length() - 1 == pb
                assert all(not r >> qb & 1 for qb, _, _ in reduced if qb != pb)
            if consistent:  # every solution keeps the reduced rows; free bits 0 give one
                assert all(
                    (r & x).bit_count() & 1 == c for x in solutions for _, r, c in reduced
                )
                assert sum(b << pb for pb, _, b in reduced) in solutions


def _sum_rows(rows, w):
    """The XOR of the rows whose bits are set in w."""
    total = 0
    for i, row in enumerate(rows):
        if w >> i & 1:
            total ^= row
    return total


@pytest.mark.parametrize("n", range(1, 7))
def test_gf2_add_row_returns_the_dependency_of_a_row_it_cannot_add(n):
    # row i with right-hand side 1 << i: a row adding a pivot returns 0, any other
    # returns the set w of rows, itself included, that sum to zero; these w span
    # every dependency among the rows
    rng = random.Random(1700 + n)
    for _ in range(100):
        rows = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 2 * n + 2))]
        echelon, deps = {}, []
        for i, row in enumerate(rows):
            rank = len(echelon)
            w = gf2_add_row(echelon, row, 1 << i)
            assert (len(echelon) == rank + 1) == (w == 0)
            if w:
                assert w >> i == 1 and _sum_rows(rows, w) == 0
                deps.append(w)
        kernel = [w for w in range(1, 1 << len(rows)) if _sum_rows(rows, w) == 0]
        span = {0}
        for w in deps:
            span |= {w ^ s for s in span}
        assert span - {0} == set(kernel)


@pytest.mark.parametrize("h", range(1, 7))
def test_trace_coordinates_turn_trace_forms_into_parities(h):
    # exhaustive: trace(c * mu(v)) = parity(c & v) for every c and every v
    gf = make_field(h)
    mus = [gf.from_trace_coordinates(v) for v in gf.elements()]
    assert sorted(mus) == list(gf.elements())  # v -> mu is a bijection
    for c in gf.elements():
        for v, mu in enumerate(mus):
            assert _oracle_trace_of_product(gf, c, mu) == (c & v).bit_count() & 1


def test_battery_alpha_values_have_trace_one():
    # [DERIVED: smallest trace-1 element per field, by the naive oracle]
    from conftest import BATTERY_ALPHA

    for h, alpha in BATTERY_ALPHA.items():
        gf = make_field(h)
        assert oracles.poly_trace(gf.modulus, h, alpha) == 1
        for smaller in range(alpha):
            assert oracles.poly_trace(gf.modulus, h, smaller) == 0


@pytest.mark.parametrize("h", range(1, 7))
def test_trace_zero_iff_artin_schreier_solvable(h):
    # x^2 + x = c has two roots when trace(c) = 0 and none otherwise
    gf = make_field(h)
    for c in gf.elements():
        roots = [x for x in gf.elements() if gf.square(x) ^ x == c]
        assert len(roots) == (2 if gf.trace(c) == 0 else 0)


@pytest.mark.parametrize("h", (2, 3, 4, 5))
def test_additive_span_against_brute_closure(h):
    gf = make_field(h)
    rng = random.Random(3000 + h)
    for _ in range(30):
        gens = {rng.randrange(1, gf.q) for _ in range(rng.randint(1, 3))}
        span = gf.additive_span(gens)
        brute = {0}
        changed = True
        while changed:
            changed = False
            for g in gens:
                for s in list(brute):
                    if (s ^ g) not in brute:
                        brute.add(s ^ g)
                        changed = True
        assert span == brute
        assert gf.additive_span(span - {0}) == span


def test_additive_span_rejects_out_of_range():
    gf = make_field(3)
    with pytest.raises(ValueError):
        gf.additive_span({8})


@pytest.mark.parametrize("g", [True, 1.5, "a"])
def test_additive_span_refuses_what_is_not_an_element(g):
    with pytest.raises(ValueError, match=r"^element .* is outside GF\(2\^3\)$"):
        make_field(3).additive_span([g])


def test_gf4_worked_examples():
    # [PAPER-style worked values for GF(4) with modulus x^2+x+1: the generator
    #  w = 2 satisfies w^2 = w + 1 = 3, w * (w+1) = 1, trace(w) = 1, trace(1) = 0]
    gf = make_field(2)
    assert gf.modulus == 7
    assert gf.square(2) == 3
    assert gf.mul(2, 3) == 1
    assert gf.inv(2) == 3
    assert gf.trace(2) == 1 and gf.trace(3) == 1
    assert gf.trace(0) == 0 and gf.trace(1) == 0


def test_trace_of_one_by_field_parity():
    # trace(1) = h mod 2  [TRIVIAL: 1 is fixed by Frobenius, so the sum has h terms]
    for h in range(1, 9):
        assert make_field(h).trace(1) == h % 2


def test_multiplicative_group_is_cyclic_of_order_q_minus_one():
    for h in (2, 3, 4, 5):
        gf = make_field(h)
        orders = []
        for a in gf.nonzero_elements():
            x, k = a, 1
            while x != 1:
                x = gf.mul(x, a)
                k += 1
            assert (gf.q - 1) % k == 0
            orders.append(k)
        assert max(orders) == gf.q - 1  # a primitive element exists


def _prime_factors(n: int) -> set[int]:
    factors, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            factors.add(p)
            n //= p
        p += 1
    return factors | ({n} if n > 1 else set())


def _poly_pow(g: int, e: int, modulus: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = oracles.poly_mod(oracles.poly_mul(r, g), modulus)
        g = oracles.poly_mod(oracles.poly_mul(g, g), modulus)
        e >>= 1
    return r


@pytest.mark.parametrize("h", range(1, MAX_H + 1))
def test_exp_table_runs_over_the_least_generator(h):
    # g generates the multiplicative group exactly when g^((q-1)/p) != 1 for
    # every prime p dividing q - 1; the table's generator is the least such g
    gf = make_field(h)
    n = gf.q - 1
    primes = _prime_factors(n)
    least = next(
        g for g in range(1, gf.q)
        if all(_poly_pow(g, n // p, gf.modulus) != 1 for p in primes)
    )
    assert gf._exp[1 % n] == least  # for q = 2 the one generator is 1 = _exp[0]


def test_constructor_validation():
    with pytest.raises(ValueError):
        GF(0)
    with pytest.raises(ValueError):
        GF(MAX_H + 1)
    with pytest.raises(ValueError):
        GF(3, modulus=12)  # reducible: x^3 + x^2 = x^2 (x + 1)
    with pytest.raises(ValueError):
        GF(3, modulus=19)  # wrong degree
    alt = GF(4, modulus=25)  # x^4 + x^3 + 1 is irreducible: a legal alternative
    assert alt.modulus == 25 and alt != make_field(4)
    for a in alt.nonzero_elements():
        assert alt.mul(a, alt.inv(a)) == 1


_GF8 = make_field(3)
_NOT_A_FIELD = "the field must be a GF, got None"
_NOT_A_CONIC = "the conic must be a Conic, got 'x'"


@pytest.mark.parametrize(
    "build, message",
    [
        # refused before the cache hashes the list
        (lambda: make_field([3]), f"extension degree must be an int in 1..{MAX_H}, got [3]"),
        (lambda: make_field(3, [11]), "modulus must be an int, got [11]"),
        (lambda: ma.Conic(None, 1, 1, 1), _NOT_A_FIELD),
        (lambda: ma.denniston_arc(None, 1, (1,)), _NOT_A_FIELD),
        (lambda: fl.PartialFlock(None, ((1, 0, 0, 0),)), _NOT_A_FIELD),
        (lambda: se.GroupSpec(None, (0, 1), 2), _NOT_A_FIELD),
        (lambda: ma.MathonArc(_GF8, ("x",)), _NOT_A_CONIC),
        (lambda: ma.close_set(["x"]), _NOT_A_CONIC),
    ],
    ids=["make_field-h", "make_field-modulus", "Conic", "denniston_arc",
         "PartialFlock", "GroupSpec", "MathonArc-member", "close_set"],
)
def test_constructors_refuse_malformed_arguments_with_value_error(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


_NOT_AN_ARC = "the arc must be a MathonArc, got None"
_NOT_A_FLOCK = "the flock must be a PartialFlock, got None"
_NO_CONIC = "the conic must be a Conic, got None"
_NOT_A_SPEC = "the spec must be a GroupSpec, got None"
_CONIC8 = ma.Conic(_GF8, 1, 1, 1)
_PLANES8 = ((1, 0, 0, 0), (1, 1, 1, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: se.search_field(None, 2), _NOT_A_FIELD),
        (lambda: se.enumerate_group_specs(None, 2), _NOT_A_FIELD),
        (lambda: se.additive_subgroups_containing_one(None, 2), _NOT_A_FIELD),
        (lambda: ma.verify_maximal_arc(None, [], 2), _NOT_A_FIELD),
        (lambda: ma.arc_points(None), _NOT_AN_ARC),
        (lambda: fl.arc_to_flock(None), _NOT_AN_ARC),
        (lambda: fl.flock_to_arc(None), _NOT_A_FLOCK),
        (lambda: fl.verify_partial_flock(None), _NOT_A_FLOCK),
        (lambda: fl.classify_flock(None), _NOT_A_FLOCK),
        (lambda: fl.extend_flock(None, (1, 1, 1, 1)), _NOT_A_FLOCK),
        (lambda: ma.denniston_arc(_GF8, 1, [1, "x"]), "lam='x' is not an element of GF(8)"),
        (lambda: ma.denniston_arc(_GF8, 1, None),
         "A must be an iterable of field elements, got None"),
        (lambda: ma.close_set(None), "a seed is an iterable of conics, got None"),
        (lambda: least_irreducible(None),
         f"extension degree must be an int in 1..{MAX_H}, got None"),
        (lambda: ma.conic_points(None), _NO_CONIC),
        (lambda: ma.compose(_CONIC8, None), _NO_CONIC),
        (lambda: ma.composition_trace(None, _CONIC8), _NO_CONIC),
        (lambda: ma.arc_to_json(None), _NOT_AN_ARC),
        (lambda: fl.project_arc(None), _NOT_AN_ARC),
        (lambda: fl.project_conic_to_plane(None), _NO_CONIC),
        (lambda: fl.projection_singular_plane(None, fl.DEFAULT_PROJECTION_POINT), _NOT_A_FIELD),
        (lambda: fl.denniston_line(None, _CONIC8), _NO_CONIC),
        (lambda: fl.denniston_lines_concurrent(None), _NOT_AN_ARC),
        (lambda: fl.synthetic_extension(None, _CONIC8), _NOT_AN_ARC),
        (lambda: fl.synthetic_extension(ma.MathonArc(_GF8, (_CONIC8,)), None), _NO_CONIC),
        (lambda: fl.denniston_closure(None, _CONIC8), _NO_CONIC),
        (lambda: fl.flock_to_json(None), _NOT_A_FLOCK),
        (lambda: fl.geometric_to_additive(None), _NOT_A_FLOCK),
        (lambda: fl.additive_to_geometric(None), _NOT_A_FLOCK),
        (lambda: fl.plane_section(None, _PLANES8[1]), _NOT_A_FIELD),
        (lambda: fl.plane_compose(None, *_PLANES8), _NOT_A_FIELD),
        (lambda: fl.singular_plane(None, *_PLANES8), _NOT_A_FIELD),
        (lambda: se.construct_extension_arc(None, 1), _NOT_A_SPEC),
        (lambda: se.search_group(None), _NOT_A_SPEC),
        (lambda: se.double_spec(None), _NOT_A_SPEC),
    ],
    ids=["search_field", "enumerate_group_specs", "additive_subgroups", "verify_maximal_arc",
         "arc_points", "arc_to_flock", "flock_to_arc", "verify_partial_flock", "classify_flock",
         "extend_flock", "denniston_arc-member", "denniston_arc-A", "close_set",
         "least_irreducible", "conic_points", "compose", "composition_trace", "arc_to_json",
         "project_arc", "project_conic_to_plane", "projection_singular_plane", "denniston_line",
         "denniston_lines_concurrent", "synthetic_extension-arc", "synthetic_extension-conic",
         "denniston_closure", "flock_to_json", "geometric_to_additive", "additive_to_geometric",
         "plane_section", "plane_compose", "singular_plane", "construct_extension_arc",
         "search_group", "double_spec"],
)
def test_library_entry_points_refuse_malformed_arguments_with_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_bool_degree_is_refused():
    make_field(1)  # a cached GF(2) must not answer for make_field(True)
    for build in (GF, make_field):
        for h in (True, False):
            with pytest.raises(ValueError, match=f"an int in 1..{MAX_H}, got {h!r}"):
                build(h)


def test_json_round_trip_and_errors():
    gf = make_field(5)
    blob = gf.to_json()
    assert blob == {"h": 5, "modulus": 37}
    assert GF.from_json(blob) == gf
    with pytest.raises(ValueError):
        GF.from_json({"h": 5})
    with pytest.raises(ValueError):
        GF.from_json({"h": 5, "modulus": 37, "extra": 1})
    with pytest.raises(ValueError):
        GF.from_json({"h": 5, "modulus": 36})
    for blob in ({"h": True, "modulus": 3}, {"h": 1, "modulus": True}):
        with pytest.raises(ValueError, match="integers"):
            GF.from_json(blob)
    with pytest.raises(ValueError, match="irreducible"):
        GF.from_json({"h": 3, "modulus": -11})  # used to loop forever


def test_is_element():
    gf = make_field(3)
    assert all(gf.is_element(v) for v in gf.elements())
    assert not any(gf.is_element(v) for v in (-1, 8, True, False, 1.0, "1", None))


def test_make_field_caches():
    assert make_field(3) is make_field(3)
    assert make_field(3, 11) is make_field(3, 11)
    # explicit default modulus builds the same field even if cached separately
    assert make_field(3) == make_field(3, 11)
    assert make_field(4, 25) != make_field(4)
