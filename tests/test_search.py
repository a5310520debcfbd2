"""Trace-condition solver against exhaustive scans and counting formulas."""

import itertools
import json
import random

import oracles
import pytest

from arcflock.finite_field import make_field
from arcflock.mathon_arcs import DisjointnessError, arc_points, verify_maximal_arc
from arcflock.search import (
    GroupSpec,
    SearchRecord,
    additive_subgroups_containing_one,
    base_denniston_arc,
    beta_of,
    build_trace_system,
    construct_extension_arc,
    double_spec,
    enumerate_group_specs,
    guaranteed_degree,
    rank_analysis,
    search_field,
    search_group,
    solve_trace_system,
)


def _gauss2(n: int, k: int) -> int:
    """Gaussian binomial [n choose k]_2: number of k-dim subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


# -- GroupSpec -----------------------------------------------------------------------


def test_group_spec_validation():
    gf = make_field(5)
    with pytest.raises(ValueError, match="sorted tuple"):
        GroupSpec(gf, (0, 2, 1, 3), 4)
    with pytest.raises(ValueError, match="contain 0"):
        GroupSpec(gf, (1, 2, 3), 4)
    with pytest.raises(ValueError, match="contain 1"):
        GroupSpec(gf, (0, 2, 4, 6), 1)
    with pytest.raises(ValueError, match="closed under addition"):
        GroupSpec(gf, (0, 1, 2, 4), 8)
    with pytest.raises(ValueError, match="outside the field"):
        GroupSpec(gf, (0, 1, 32, 33), 4)
    with pytest.raises(ValueError, match="outside H"):
        GroupSpec(gf, (0, 1, 2, 3), 2)
    with pytest.raises(ValueError, match="outside the field"):
        GroupSpec(gf, (0, 1, 2, 3), 99)


@pytest.mark.parametrize("h", range(2, 8))
def test_enumerated_specs_equal_checked_specs(h):
    # the enumeration checks each subgroup once; every spec it builds is the
    # one the checking constructor gives
    gf = make_field(h)
    for k in range(1, h + 1):
        for s in enumerate_group_specs(gf, 1 << k):
            checked = GroupSpec(s.gf, s.H, s.lambda_d)
            assert s == checked and hash(s) == hash(checked)


def test_group_spec_properties():
    gf = make_field(5)
    spec = GroupSpec(gf, (0, 1, 2, 3), 4)
    assert spec.d == 4
    # the extension arc's lam values are the squares of H + {0, lambda_d}, minus 0
    doubled = set(spec.H) | {x ^ spec.lambda_d for x in spec.H}
    assert doubled == set(range(8))
    lams = construct_extension_arc(spec, 16).lam_values
    assert set(lams) == {gf.square(x) for x in doubled} - {0}


# -- building the system -------------------------------------------------------------


def test_frozen_system_q32():
    # [DERIVED: multipliers recomputed from the defining quotient below]
    gf = make_field(5)
    spec = GroupSpec(gf, (0, 1, 2, 3), 4)
    system = build_trace_system(spec)
    assert system.epsilon == 0  # 1 + trace(1), odd-degree field
    assert list(zip(spec.H[1:], system.conditions)) == [(1, 1), (2, 3), (3, 14)]
    for lam, c in zip(spec.H[1:], system.conditions):
        recomputed = gf.div(gf.mul(lam, 4 ^ 1), 4 ^ lam)
        assert c == recomputed != 0


def test_epsilon_depends_on_field_parity():
    assert build_trace_system(GroupSpec(make_field(4), (0, 1), 2)).epsilon == 1
    assert build_trace_system(GroupSpec(make_field(5), (0, 1), 2)).epsilon == 0


def test_condition_count_is_d_minus_one():
    gf = make_field(5)
    for H in additive_subgroups_containing_one(gf, 8):
        ld = next(x for x in gf.elements() if x not in H)
        system = build_trace_system(GroupSpec(gf, H, ld))
        assert len(system.conditions) == 7
        # one multiplier per nonzero element of H, in H's order
        assert list(system.conditions) == [
            gf.div(gf.mul(lam, ld ^ 1), ld ^ lam) for lam in H if lam
        ]


# -- linear algebra over GF(2) -------------------------------------------------------


def test_condition_rows_are_linear_functionals():
    # in trace coordinates v of mu, the row of trace(c * mu) = epsilon is c itself
    gf = make_field(4)
    for spec in enumerate_group_specs(gf, 4):
        system = build_trace_system(spec)
        rows = list(system.conditions) + [spec.lambda_d ^ 1]
        for v in gf.elements():
            mu = gf.from_trace_coordinates(v)
            for row in rows:
                assert gf.trace(gf.mul(row, mu)) == (row & v).bit_count() & 1


def _linear_mu_solutions(system) -> frozenset[int]:
    """The mu solving the conditions, listed by the solver from their echelon form."""
    from arcflock.finite_field import gf2_add_row
    from arcflock.search import _valid_rho

    gf = system.gf
    echelon = {}
    consistent = True
    for c in system.conditions:
        consistent &= not gf2_add_row(echelon, c, system.epsilon)
    if not consistent:
        return frozenset()
    nonzero = frozenset(gf.inv(rho) for rho in _valid_rho(gf, echelon))
    return nonzero | ({0} if system.epsilon == 0 else frozenset())


@pytest.mark.parametrize("h", (4, 5))
def test_scan_and_linear_solutions_agree(h):
    gf = make_field(h)
    for order in (2, 4):
        for spec in enumerate_group_specs(gf, order):
            system = build_trace_system(spec)
            assert oracles.mu_solutions_scan(system) == _linear_mu_solutions(system)


def _check_against_scan(spec):
    system = build_trace_system(spec)
    rank, prefilter, valid = oracles.scan_trace_system(system)
    record = search_group(spec)
    assert (record.rank, record.num_rho_prefilter, record.num_rho_valid) == (
        rank,
        len(prefilter),
        len(valid),
    ), spec
    assert solve_trace_system(system) == valid, spec


@pytest.mark.parametrize("h", (3, 4, 5, 6))
def test_search_group_and_solutions_match_scan(h):
    gf = make_field(h)
    for order in (2, 4, 8):
        if order < gf.q:
            for spec in enumerate_group_specs(gf, order):
                _check_against_scan(spec)


def test_search_group_and_solutions_match_scan_h16():
    _check_against_scan(GroupSpec(make_field(16), (0, 1, 2, 3), 4))


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_search_group_and_solutions_match_scan_h16_order8(seed):
    # even h, so epsilon = 1: seven conditions plus the trace(beta) row in 16 unknowns
    gf = make_field(16)
    rng = random.Random(seed)
    H = {0, 1}
    while len(H) < 8:
        H = gf.additive_span(H | {rng.randrange(2, gf.q)})
    lambda_d = rng.choice([x for x in gf.elements() if x not in H])
    _check_against_scan(GroupSpec(gf, tuple(sorted(H)), lambda_d))


@pytest.mark.parametrize("h", (4, 5))
def test_rank_analysis_counts_solutions(h):
    gf = make_field(h)
    for order in (2, 4):
        for spec in enumerate_group_specs(gf, order):
            system = build_trace_system(spec)
            analysis = rank_analysis(system)
            scan = oracles.mu_solutions_scan(system)
            assert analysis.solution_count == len(scan)
            if scan:
                assert len(scan) == 1 << (gf.h - analysis.rank)
            assert analysis.independent == (analysis.rank == len(system.conditions))


def test_condition_value_squared_is_equivalent():
    gf = make_field(5)
    spec = GroupSpec(gf, (0, 1, 2, 3), 4)
    system = build_trace_system(spec)
    for c in system.conditions:
        for rho in gf.nonzero_elements():
            direct = gf.trace(gf.div(c, rho)) == system.epsilon
            assert (oracles.condition_value_squared(gf, c, rho) == 1) == direct


# -- solving and constructing --------------------------------------------------------


def test_frozen_solution_q32():
    gf = make_field(5)
    spec = GroupSpec(gf, (0, 1, 2, 3), 4)
    system = build_trace_system(spec)
    assert rank_analysis(system) == rank_analysis(system)  # deterministic
    assert rank_analysis(system).rank == 3
    assert oracles.scan_trace_system(system)[1] == {16, 27, 30}
    assert search_group(spec).num_rho_prefilter == 3
    assert solve_trace_system(system) == {16}
    assert beta_of(gf, 4, 16) == 3


def test_beta_of_refuses_rho_zero_and_non_elements():
    gf = make_field(7)
    for rho in (0, 128, -1, True, 1.0):
        with pytest.raises(ValueError, match="^rho must be a nonzero field element$"):
            beta_of(gf, 4, rho)
    with pytest.raises(ValueError, match="^lambda_d=128 is not an element of GF\\(128\\)$"):
        beta_of(gf, 128, 16)
    assert beta_of(gf, 127, 1) == 127


def test_rank_analysis_json_is_frozen():
    # the per-pair payload that the benchmark's rank job digests, key order included
    spec = GroupSpec(make_field(7), tuple(range(8)), 8)
    payload = rank_analysis(build_trace_system(spec)).to_json()
    assert json.dumps(payload) == '{"rank": 6, "solution_count": 2, "independent": false}'


def test_base_denniston_arc_lams_are_squares_of_H():
    gf = make_field(5)
    spec = GroupSpec(gf, (0, 1, 2, 3), 4)
    base = base_denniston_arc(spec)
    assert base.lam_values == tuple(sorted(gf.square(x) for x in (1, 2, 3)))
    assert base.lam_values == (1, 4, 5)
    assert base.degree == 4
    assert all(c.alpha == 1 and c.beta == 1 for c in base.conics)


def test_construct_extension_arc_frozen_q32():
    gf = make_field(5)
    spec = GroupSpec(gf, (0, 1, 2, 3), 4)
    arc = construct_extension_arc(spec, 16)
    assert [(c.alpha, c.beta, c.lam) for c in arc.conics] == [
        (1, 1, 1),
        (1, 1, 4),
        (1, 1, 5),
        (1, 5, 16),
        (1, 10, 17),
        (1, 19, 20),
        (1, 30, 21),
    ]
    assert len(arc_points(arc)) == 232
    assert verify_maximal_arc(gf, arc_points(arc), 8).verdict


def test_degree16_doubling_at_h9():
    # the paper's doubling at guaranteed_degree(9) = 16: |H| = 8 and lambda_d = 8
    gf = make_field(9)
    spec = GroupSpec(gf, tuple(range(8)), 8)
    _, rho, arc = double_spec(spec)
    assert arc.degree == 16 == guaranteed_degree(9)
    assert set(arc.conics) >= set(base_denniston_arc(spec).conics)
    report = verify_maximal_arc(gf, arc_points(arc), arc.degree)
    assert report.verdict
    assert report.size == gf.q * 15 + 16


def test_construct_extension_arc_rejects_bad_rho():
    gf = make_field(5)
    spec = GroupSpec(gf, (0, 1, 2, 3), 4)
    with pytest.raises(ValueError, match="nonzero field element"):
        construct_extension_arc(spec, 0)
    with pytest.raises(ValueError, match="nonzero field element"):
        construct_extension_arc(spec, 32)
    # rho in the prefilter but with a degenerate beta
    with pytest.raises(ValueError, match="degenerate conic"):
        construct_extension_arc(spec, 27)
    # rho failing the trace system: the new conic meets a base conic
    with pytest.raises(DisjointnessError):
        construct_extension_arc(spec, 2)


def test_double_spec_rho_policy():
    # H = {0,1}, lambda_d = 2 in GF(32) has valid rho {4, ..., 30}
    gf = make_field(5)
    spec = GroupSpec(gf, (0, 1), 2)
    valid = solve_trace_system(build_trace_system(spec))
    record, rho, arc = double_spec(spec)
    assert rho == min(valid) == 4
    assert record == search_group(spec)
    assert arc == construct_extension_arc(spec, 4)
    record, rho, arc = double_spec(spec, max(valid))
    assert rho == max(valid) == 30
    assert record == search_group(spec)
    assert arc == construct_extension_arc(spec, 30)
    for bad in (0, 3, 31, 32, 1.5):
        assert bad not in valid
        with pytest.raises(ValueError, match=f"^rho {bad} is not a valid solution$"):
            double_spec(spec, bad)


def test_double_spec_without_valid_rho():
    # H = <1, 2, 4> = {0, ..., 7}, lambda_d = 8 in GF(32): consistent, but no rho
    spec = GroupSpec(make_field(5), tuple(range(8)), 8)
    assert search_group(spec).num_rho_valid == 0
    with pytest.raises(ValueError, match=r"^no valid rho exists for this \(H, lambda_d\) pair$"):
        double_spec(spec)


@pytest.mark.parametrize(
    "H, lambda_d, message",
    [((0, 1), 2.0, "lambda_d lies outside"), ((0, 1.0), 2, "H contains values outside"),
     ((0, True), 2, "H contains values outside"), ((0, "1"), 2, "H contains values outside"),
     ((0, 1), "2", "lambda_d lies outside")],
    ids=["float-lambda-d", "float-in-H", "bool-in-H", "str-in-H", "str-lambda-d"],
)
def test_group_spec_refuses_non_int_elements(H, lambda_d, message):
    with pytest.raises(ValueError, match=message):
        GroupSpec(make_field(3), H, lambda_d)


@pytest.mark.parametrize("rho", [None, 1.5, 16.0, "16", True], ids=repr)
def test_construct_extension_arc_refuses_non_elements(rho):
    spec = GroupSpec(make_field(5), (0, 1, 2, 3), 4)
    with pytest.raises(ValueError, match="nonzero field element"):
        construct_extension_arc(spec, rho)


@pytest.mark.parametrize("order", ["4", 2.0, None, 3, 1], ids=repr)
def test_search_field_refuses_bad_orders(order):
    with pytest.raises(ValueError, match="power of two"):
        search_field(make_field(3), order)


@pytest.mark.parametrize("h", [3.0, "3", None, 0, -1], ids=repr)
def test_guaranteed_degree_refuses_non_positive_ints(h):
    with pytest.raises(ValueError, match="int of at least 1"):
        guaranteed_degree(h)


def test_search_group_record_and_example():
    gf = make_field(5)
    spec = GroupSpec(gf, (0, 1, 2, 3), 4)
    record = search_group(spec)
    assert (record.q, record.H, record.lambda_d) == (32, (0, 1, 2, 3), 4)
    assert record.epsilon == 0
    assert record.rank == 3
    assert record.num_rho_prefilter == 3
    assert record.num_rho_valid == 1
    assert record.example_arc is None
    assert record.to_json()["example_arc"] is None
    record.example_arc = construct_extension_arc(spec, 16)
    assert record.to_json()["example_arc"]["degree"] == 8


# -- enumeration ---------------------------------------------------------------------


def test_subgroup_counts_match_gaussian_binomials():
    # subgroups of order 2^k containing the fixed element 1 correspond to
    # (k-1)-dim subspaces of the quotient GF(2)^h / <1>
    for h, order, expected in (
        (5, 2, _gauss2(4, 0)),
        (5, 4, _gauss2(4, 1)),
        (5, 8, _gauss2(4, 2)),
        (4, 4, _gauss2(3, 1)),
        (8, 128, _gauss2(7, 6)),
        (10, 512, _gauss2(9, 8)),
        (16, 1 << 16, 1),
    ):
        subs = additive_subgroups_containing_one(make_field(h), order)
        assert len(subs) == expected
    assert _gauss2(4, 1) == 15 and _gauss2(4, 2) == 35 and _gauss2(3, 1) == 7


def test_subgroups_are_valid_and_deduplicated():
    gf = make_field(4)
    subs = additive_subgroups_containing_one(gf, 4)
    assert len(set(subs)) == len(subs) == 7
    assert list(subs) == sorted(subs)
    for H in subs:
        assert H[0] == 0 and 1 in H and len(H) == 4
        assert all(a ^ b in H for a, b in itertools.combinations(H, 2))


def test_subgroups_match_literal_brute_force_q16():
    gf = make_field(4)
    brute = []
    for rest in itertools.combinations(range(2, 16), 2):
        cand = (0, 1) + rest
        s = set(cand)
        if all(a ^ b in s for a, b in itertools.combinations(cand, 2)):
            brute.append(cand)
    assert tuple(sorted(brute)) == additive_subgroups_containing_one(gf, 4)


@pytest.mark.parametrize("h", [1, 2, 3, 4, 5, 6])
def test_subgroups_match_the_growth_oracle_at_every_order(h):
    gf = make_field(h)
    for order in (1 << k for k in range(1, h + 1)):
        expected = oracles.subgroups_by_growth(gf, order)
        assert additive_subgroups_containing_one(gf, order) == expected


def test_subgroup_enumeration_validation():
    gf = make_field(3)
    with pytest.raises(ValueError, match="power of two"):
        additive_subgroups_containing_one(gf, 3)
    with pytest.raises(ValueError, match="exceeds the field size"):
        additive_subgroups_containing_one(gf, 16)


def test_enumerate_group_specs_refuses_oversized_surveys_early(monkeypatch):
    def never(gf, order):
        raise AssertionError("subgroups were enumerated before the refusal")

    monkeypatch.setattr("arcflock.search.additive_subgroups_containing_one", never)
    # [15 choose 1]_2 * (2^16 - 4) = 32767 * 65532 pairs, each listing 4 + 1 elements
    with pytest.raises(ValueError, match="2147287044 .* pairs listing 10736435220 field elements;"
                       " surveys stop at 8388608$"):
        enumerate_group_specs(make_field(16), 4)
    # [10 choose 1]_2 * (2^11 - 4) pairs of 5 elements: the smallest survey refused
    with pytest.raises(ValueError, match="2091012 .* pairs listing 10455060 field elements"):
        enumerate_group_specs(make_field(11), 4)
    # few pairs, but each lists a large H: [10 choose 9]_2 * 1024 pairs of 1025 elements,
    # and [9 choose 8]_2 * 512 pairs of 513
    with pytest.raises(ValueError, match="1047552 .* pairs listing 1073740800 field elements"):
        enumerate_group_specs(make_field(11), 1024)
    with pytest.raises(ValueError, match="261632 .* pairs listing 134217216 field elements"):
        enumerate_group_specs(make_field(10), 512)
    with pytest.raises(ValueError, match="power of two"):
        enumerate_group_specs(make_field(16), 6)
    with pytest.raises(ValueError, match="exceeds the field size"):
        enumerate_group_specs(make_field(3), 16)


def test_survey_size_matches_the_enumeration():
    from arcflock.search import MAX_SURVEY_ELEMENTS, _survey_size

    for h in range(1, 7):
        gf = make_field(h)
        for order in (2, 4, 8, 16, 32, 64):
            if order <= gf.q:
                expected = _gauss2(h - 1, order.bit_length() - 2) * (gf.q - order)
                assert _survey_size(gf, order) == expected
                assert len(enumerate_group_specs(gf, order)) == expected
    # search --h 9 --d 4, the largest survey in the tests, CI, README and benchmark,
    # fits, and so do rank --h 8 --d 8, rank --h 8 --d 128 and search --h 7 --d 8;
    # each pair lists its H and its lambda_d
    assert _survey_size(make_field(9), 4) == 129540
    assert _survey_size(make_field(8), 8) * 9 == 5952744 <= MAX_SURVEY_ELEMENTS
    for h, order in ((9, 4), (8, 8), (8, 128), (7, 8)):
        assert _survey_size(make_field(h), order) * (order + 1) <= MAX_SURVEY_ELEMENTS
    assert _survey_size(make_field(9), 8) * 9 == 48966120 > MAX_SURVEY_ELEMENTS
    assert _survey_size(make_field(11), 4) * 5 == 10455060 > MAX_SURVEY_ELEMENTS


def test_survey_budget_decides_as_the_former_pair_and_condition_bounds():
    # the budget of |H| + 1 listed elements per pair admits exactly the surveys of at
    # most 2^20 pairs and 2^23 trace conditions, d - 1 per pair, for every field and order
    from arcflock.search import _check_survey

    for h in range(1, 17):
        gf = make_field(h)
        for d in (1 << k for k in range(1, h + 1)):
            pairs = _gauss2(h - 1, d.bit_length() - 2) * (gf.q - d)
            admitted = pairs <= 2**20 and pairs * (d - 1) <= 2**23
            try:
                _check_survey(gf, d)
            except ValueError as exc:
                assert not admitted, (h, d, exc)
            else:
                assert admitted, (h, d)


def test_enumerate_group_specs_counts_and_order():
    gf = make_field(4)
    specs = enumerate_group_specs(gf, 4)
    assert len(specs) == 7 * (16 - 4)
    assert all(s.lambda_d not in s.H for s in specs)
    keys = [(s.H, s.lambda_d) for s in specs]
    assert keys == sorted(keys)


# -- one elimination per coset --------------------------------------------------------


def _coset_rho(spec):
    """The valid rho that the coset elimination lists for one spec."""
    from arcflock.search import _first_rho, _solve_coset

    records, echelon = _solve_coset(spec.gf, spec.H, spec.lambda_d)
    if not records[0].num_rho_valid:
        return frozenset()
    return _first_rho(spec.gf, echelon, records[0])


def _check_against_reference(record, spec, with_rho=True):
    # the per-system path: rank_analysis counts mu = 0 among the solutions of an
    # epsilon = 0 system, and solve_trace_system lists the valid rho
    system = build_trace_system(spec)
    analysis = rank_analysis(system)
    assert (record.H, record.lambda_d, record.epsilon) == (spec.H, spec.lambda_d, system.epsilon)
    assert record.rank == analysis.rank, spec
    assert record.num_rho_prefilter == analysis.solution_count - (system.epsilon == 0), spec
    if with_rho:
        valid = solve_trace_system(system)
        assert record.num_rho_valid == len(valid), spec
        assert _coset_rho(spec) == valid, spec


@pytest.mark.parametrize("h", range(2, 8))
def test_coset_records_match_the_per_system_reference(h):
    # every order at both parities: search_field's records against rank_analysis,
    # and search_group and the valid rho (against solve_trace_system) too, on
    # every pair up to h = 6; at h = 7 (308 826 pairs) the records of orders
    # up to 8 and every eighth pair otherwise; the mu scan at h <= 5
    gf = make_field(h)
    for order in (1 << k for k in range(1, h)):  # every order below q
        specs = enumerate_group_specs(gf, order)
        records = search_field(gf, order)
        assert len(records) == len(specs)
        for i, (record, spec) in enumerate(zip(records, specs)):
            sampled = h <= 6 or i % 8 == 0
            if sampled or order <= 8:
                _check_against_reference(record, spec, with_rho=sampled)
            if sampled:
                bare = SearchRecord(record.q, record.H, record.lambda_d, record.epsilon,
                                    record.rank, record.num_rho_prefilter, record.num_rho_valid)
                assert bare == search_group(spec)
            if h <= 5:
                rank, prefilter, valid = oracles.scan_trace_system(build_trace_system(spec))
                assert (record.rank, record.num_rho_prefilter) == (rank, len(prefilter))
                assert record.num_rho_valid == len(valid) and _coset_rho(spec) == valid


@pytest.mark.parametrize("h", range(9, 17))
def test_coset_records_match_the_per_system_reference_on_sampled_pairs(h):
    gf = make_field(h)
    rng = random.Random(900 + h)
    for k in range(1, 6):  # |H| = 2 .. 32
        for _ in range(4):
            H = {0, 1}
            while len(H) < 1 << k:
                H = gf.additive_span(H | {rng.randrange(2, gf.q)})
            lambda_d = rng.choice([x for x in range(gf.q) if x not in H])
            spec = GroupSpec(gf, tuple(sorted(H)), lambda_d)
            record = search_group(spec)
            # listing 2^(h - rank) solutions is cheap only for a large enough rank
            _check_against_reference(record, spec, with_rho=h - record.rank <= 10)


def _counts_by_coset(h, order):
    """The distinct (rank, prefilter, valid) of each coset lambda_d + H of a survey."""
    cosets = {}
    for r in search_field(make_field(h), order):
        key = (r.H, min(r.lambda_d ^ x for x in r.H))
        cosets.setdefault(key, set()).add((r.rank, r.num_rho_prefilter, r.num_rho_valid))
    return list(cosets.values())


def test_even_h_counts_vary_inside_a_coset():
    # at even h only the rank is the coset's: at h = 6, |H| = 8 some coset has
    # lambda_d with different rho counts, so the even-h branch is exercised
    even = _counts_by_coset(6, 8)
    assert any(len(counts) > 1 for counts in even)
    assert all(len({rank for rank, _, _ in counts}) == 1 for counts in even)
    # at odd h every count is the coset's
    assert all(len(counts) == 1 for counts in _counts_by_coset(5, 4))


def test_search_field_reduces_one_row_per_pair(monkeypatch):
    # one elimination per coset of d rows, and its example arc from the same one
    import arcflock.search as se
    from arcflock.finite_field import gf2_add_row

    calls = []

    def counted(echelon, row, b):
        calls.append(row)
        return gf2_add_row(echelon, row, b)

    monkeypatch.setattr(se, "gf2_add_row", counted)
    records = search_field(make_field(7), 4)
    assert len(records) == 7812 == len(calls)
    assert sum(1 for r in records if r.example_arc) == 1


# -- field-level search --------------------------------------------------------------


def test_search_field_q16_no_examples_in_even_degree():
    gf = make_field(4)
    records = search_field(gf, 4)
    assert len(records) == 84
    assert all(r.epsilon == 1 and r.rank == 3 for r in records)
    assert sum(1 for r in records if r.num_rho_valid > 0) == 66
    assert all(r.example_arc is None for r in records)
    first = records[0]
    assert (first.H, first.lambda_d) == ((0, 1, 2, 3), 4)
    assert first.num_rho_prefilter == 2 and first.num_rho_valid == 0


def test_search_field_q32_order2():
    gf = make_field(5)
    records = search_field(gf, 2)
    assert len(records) == 30
    assert all(r.H == (0, 1) for r in records)
    assert all(r.rank == 1 and r.num_rho_prefilter == 15 for r in records)
    assert all(r.num_rho_valid >= 1 for r in records)


def test_search_field_example_and_order_q8():
    gf = make_field(3)
    records = search_field(gf, 2)
    keys = [(r.H, r.lambda_d) for r in records]
    assert keys == [(s.H, s.lambda_d) for s in enumerate_group_specs(gf, 2)]
    examples = [r for r in records if r.example_arc is not None]
    assert len(examples) == 1
    arc = examples[0].example_arc
    assert arc.degree == 4
    assert verify_maximal_arc(gf, arc_points(arc), 4).verdict


def test_search_field_attaches_an_example_exactly_when_its_scan_fits():
    # the example is the first solvable record's arc, attached when arc_points would list it
    for h in range(3, 16, 2):
        gf = make_field(h)
        records = search_field(gf, 2)
        first = next(r for r in records if r.num_rho_valid)
        arc = double_spec(GroupSpec(gf, first.H, first.lambda_d))[2]
        try:
            arc_points(arc)
            scannable = True
        except ValueError:
            scannable = False
        assert scannable == (h <= 11)
        assert [r.example_arc for r in records if r.example_arc] == ([arc] if scannable else [])


# -- guaranteed degree ---------------------------------------------------------------


def test_guaranteed_degree_frozen_and_oracle():
    frozen = {1: 2, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8, 8: 16, 9: 16, 15: 16, 16: 32}
    for h, expected in frozen.items():
        assert guaranteed_degree(h) == expected
    # independent doubling-chain oracle
    for h in range(1, 17):
        g = 2
        while g <= h:
            g *= 2
        assert guaranteed_degree(h) == g
    with pytest.raises(ValueError):
        guaranteed_degree(0)
