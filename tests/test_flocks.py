"""Cone sections, flock conversions and the projection chain against oracles."""

import itertools
import random
from collections import Counter

import oracles
import pytest

from arcflock import flocks as fl
from arcflock import mathon_arcs as ma
from arcflock import projective as pg
from arcflock import search as se
from arcflock.finite_field import make_field
from arcflock.flocks import (
    BASE_NUCLEUS,
    DEFAULT_PROJECTION_POINT,
    EMBEDDING_PLANE,
    SINGULAR_PLANE,
    VERTEX,
    PartialFlock,
    additive_to_geometric,
    additive_to_raw_plane,
    arc_to_flock,
    base_representation,
    classify_flock,
    delta_plane,
    denniston_closure,
    denniston_line,
    denniston_lines_concurrent,
    extend_flock,
    flock_from_json,
    flock_to_arc,
    flock_to_json,
    geometric_to_additive,
    kappa_inv_plane,
    kappa_plane,
    phi_plane,
    plane_compose,
    plane_section,
    project_arc,
    project_conic_to_plane,
    projection_singular_plane,
    raw_to_additive_plane,
    section_trace,
    sections_disjoint,
    singular_plane,
    standard_to_plane,
    standardize_plane,
    synthetic_extension,
    verify_partial_flock,
)
from arcflock.mathon_arcs import (
    MAX_SCAN_STEPS,
    Conic,
    DisjointnessError,
    close_set,
    compose,
    conic_points,
    denniston_arc,
)


def _vertex_avoiding_planes(gf):
    return [p for p in oracles.points(gf, 4) if p[0] != 0]


# -- the cone and its sections -------------------------------------------------------


@pytest.mark.parametrize("h", (1, 2, 3, 4))
def test_cone_point_count(h):
    gf = make_field(h)
    pts = oracles.cone_points(gf)
    assert len(pts) == gf.q * gf.q + gf.q + 1  # [TRIVIAL: cone point count]
    assert VERTEX in pts
    assert all(oracles.is_on_cone(gf, p) for p in pts)
    assert pts == oracles.brute_cone(gf)


@pytest.mark.parametrize("h", (2, 3))
def test_nuclear_line(h):
    gf = make_field(h)
    pts = oracles.nuclear_line_points(gf)
    assert len(pts) == gf.q + 1
    assert VERTEX in pts and BASE_NUCLEUS in pts
    # the vertex is the only cone point on the nuclear line
    assert [p for p in pts if oracles.is_on_cone(gf, p)] == [VERTEX]
    line_as_planes = ((0, 1, 0, 0), (0, 0, 0, 1))
    for p in pts:
        assert all(oracles.incident(gf, p, u) for u in line_as_planes)


@pytest.mark.parametrize("h", (2, 3))
def test_nuclear_intersection(h):
    gf = make_field(h)
    rng = random.Random(1300 + h)
    for _ in range(60):
        plane = rng.choice(oracles.points(gf, 4))
        if plane[0] == 0 and plane[2] == 0:
            with pytest.raises(ValueError, match="whole nuclear line"):
                oracles.nuclear_intersection(gf, plane)
            continue
        pt = oracles.nuclear_intersection(gf, plane)
        assert pt in oracles.nuclear_line_points(gf)
        assert oracles.incident(gf, pt, plane)


@pytest.mark.parametrize("h", (2, 3))
def test_vertex_avoiding_sections_have_q_plus_1_points(h):
    gf = make_field(h)
    for plane in _vertex_avoiding_planes(gf):
        assert len(plane_section(gf, plane)) == gf.q + 1


@pytest.mark.parametrize("h", (1, 2, 3))
def test_plane_section_matches_brute_force_on_every_plane(h):
    # planes through the vertex have no conic section and are refused
    gf = make_field(h)
    cone = oracles.brute_cone(gf)
    for plane in oracles.points(gf, 4):
        if plane[0] == 0:
            with pytest.raises(ValueError, match="passes through the cone vertex"):
                plane_section(gf, plane)
            continue
        brute = frozenset(e for e in cone if oracles.incident(gf, e, plane))
        assert plane_section(gf, plane) == brute
        assert len(brute) == gf.q + 1
        if h > 1:  # the same plane with u0 = 2 is scaled back once
            assert plane_section(gf, tuple(gf.mul(2, u) for u in plane)) == brute


def test_plane_section_matches_brute_force_on_sampled_planes_h4():
    gf = make_field(4)
    cone = oracles.brute_cone(gf)
    rng = random.Random(1800)
    # x0 = 0 on the generators (1, 0, 0) and (0, 0, 1) of the first two
    planes = [(1, 0, 3, 0), (1, 0, 0, 0)] + rng.sample(_vertex_avoiding_planes(gf), 60)
    for plane in planes:
        brute = frozenset(e for e in cone if oracles.incident(gf, e, plane))
        assert plane_section(gf, plane) == brute
        assert plane_section(gf, tuple(gf.mul(5, u) for u in plane)) == brute


def _brute_force_shared_points(gf, planes):
    """verify_partial_flock of a plane set, its shared points held to brute-force sections."""
    F = PartialFlock(gf, tuple(sorted(planes)))
    cone = oracles.brute_cone(gf)
    sections = [frozenset(e for e in cone if oracles.incident(gf, e, u)) for u in F.planes]
    report = verify_partial_flock(F)
    assert report.section_sizes == tuple(map(len, sections))
    assert [ij for ij, _, _ in report.pairs] == list(itertools.combinations(range(F.size), 2))
    for (i, j), tr, shared in report.pairs:
        assert shared == len(sections[i] & sections[j])
        assert tr == section_trace(gf, F.planes[i], F.planes[j])
    return F, sections, report


def test_flock_oracle_counts_the_shared_points_of_every_plane_pair_h2():
    # all 64 vertex-avoiding planes of PG(3,4) in one report: 2016 pairs,
    # equal-t pairs among them, and every cone point off the vertex on 16 planes
    gf = make_field(2)
    _, _, report = _brute_force_shared_points(gf, _vertex_avoiding_planes(gf))
    assert len(report.pairs) == 2016
    # planes with equal t meet in one cone point: 4 values of t, C(16, 2) pairs each
    pattern = Counter((tr, shared) for _, tr, shared in report.pairs)
    assert pattern == {(None, 1): 4 * 120, (1, 0): 576, (0, 2): 960}


@pytest.mark.parametrize("h", (3, 4))
def test_flock_oracle_counts_shared_points_on_sampled_planes(h):
    gf = make_field(h)
    q = gf.q
    rng = random.Random(1900 + h)
    planes = set(rng.sample(_vertex_avoiding_planes(gf), 24))
    # four planes through the cone point (x0, 1, u, u^2): f = x0 + t u + g u^2
    x0, u = rng.randrange(q), rng.randrange(q)
    through = set()
    for tg in rng.sample(range(q * q), 4):
        t, g = divmod(tg, q)
        through.add((1, x0 ^ gf.mul(t, u) ^ gf.mul(g, gf.square(u)), t, g))
    # three planes with one X2-coefficient t
    t = rng.randrange(q)
    equal_t = {(1, f, t, g) for f, g in zip(rng.sample(range(q), 3), rng.sample(range(q), 3))}
    F, sections, report = _brute_force_shared_points(gf, planes | through | equal_t)
    point = pg.normalize(gf, (x0, 1, u, gf.square(u)))
    assert point in frozenset.intersection(*(sections[F.planes.index(p)] for p in through))
    assert sum(tr is None for _, tr, _ in report.pairs) >= 3
    assert any(shared == 0 for _, _, shared in report.pairs)


def test_denniston_flock_and_its_projection_verify_at_h10():
    # q = 1024: the PG(3,q) scan behind the sections would need ~10^9 points
    gf = make_field(10)
    alpha = next(a for a in gf.nonzero_elements() if gf.trace(a) == 1)
    m = denniston_arc(gf, alpha, (1, 2, 3))
    for F in (arc_to_flock(m), project_arc(m)):
        report = verify_partial_flock(F)
        assert report.section_sizes == (gf.q + 1,) * 4
        assert report.verdict


def test_section_trace_matches_oracle_exhaustively_q4():
    # [DERIVED: the trace test is verified point-for-point against the
    # brute-force section oracle over every vertex-avoiding plane pair]
    gf = make_field(2)
    planes = _vertex_avoiding_planes(gf)
    assert len(planes) == 64
    for u, w in itertools.combinations(planes, 2):
        tr = section_trace(gf, u, w)
        shared = len(plane_section(gf, u) & plane_section(gf, w))
        if tr is None:
            assert u[2] == w[2] and shared > 0
        else:
            assert (tr == 1) == (shared == 0)
            assert sections_disjoint(gf, u, w) == (shared == 0)


def test_section_trace_matches_oracle_sampled_q8():
    gf = make_field(3)
    planes = _vertex_avoiding_planes(gf)
    rng = random.Random(1400)
    for _ in range(300):
        u, w = rng.sample(planes, 2)
        tr = section_trace(gf, u, w)
        shared = len(plane_section(gf, u) & plane_section(gf, w))
        if tr is None:
            assert shared > 0
        else:
            assert (tr == 1) == (shared == 0)


def test_section_trace_rejects_vertex_planes():
    gf = make_field(3)
    with pytest.raises(ValueError, match="vertex"):
        section_trace(gf, (0, 1, 0, 0), (1, 0, 0, 0))


_GF8 = make_field(3)
_ARC8 = denniston_arc(_GF8, 1, (1, 2, 3))
_GOOD = (1, 0, 2, 0)

#: every public flocks entry point that takes a caller's plane or projection point
_PLANE_ENTRY_POINTS = {
    "plane_section": lambda u: plane_section(_GF8, u),
    "section_trace": lambda u: section_trace(_GF8, u, _GOOD),
    "section_trace second": lambda u: section_trace(_GF8, _GOOD, u),
    "sections_disjoint": lambda u: sections_disjoint(_GF8, _GOOD, u),
    "PartialFlock": lambda u: PartialFlock(_GF8, (u,)),
    "extend_flock": lambda u: extend_flock(arc_to_flock(_ARC8), u),
    "raw_to_additive_plane": lambda u: raw_to_additive_plane(_GF8, u),
    "additive_to_raw_plane": lambda u: additive_to_raw_plane(_GF8, u),
    "plane_compose": lambda u: plane_compose(_GF8, u, _GOOD),
    "plane_compose second": lambda u: plane_compose(_GF8, _GOOD, u),
    "standardize_plane": lambda u: standardize_plane(_GF8, u),
    "singular_plane": lambda u: singular_plane(_GF8, u, _GOOD),
    "singular_plane second": lambda u: singular_plane(_GF8, _GOOD, u),
    "project_arc": lambda p: project_arc(_ARC8, p),
    "project_conic_to_plane": lambda p: project_conic_to_plane(_ARC8.conics[0], p),
    "projection_singular_plane": lambda p: projection_singular_plane(_GF8, p),
}


@pytest.mark.parametrize("entry", sorted(_PLANE_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, 99, 1, 0), "coordinate 99 is not an element of GF(8)"),
        ((1, 0, 1), "a PG(3,q) point or plane needs exactly four coordinates, got (1, 0, 1)"),
        ((1, True, 1, 0), "coordinate True is not an element of GF(8)"),
        ((0, 0, 0, 0), "the zero vector is not a projective point"),
    ],
    ids=["outside the field", "three coordinates", "bool", "zero vector"],
)
def test_every_plane_entry_point_refuses_malformed_coordinates(entry, bad, message):
    # projective.check_space_coords is the one entry check: no value and no
    # IndexError; section_trace once read the trace 0 off (1, 99, 1, 0) and
    # off (1, True, 1, 0) against (1, 0, 2, 0)
    with pytest.raises(ValueError) as info:
        _PLANE_ENTRY_POINTS[entry](bad)
    assert str(info.value) == message


# -- PartialFlock container ----------------------------------------------------------


def test_partial_flock_validation():
    gf = make_field(3)
    with pytest.raises(ValueError, match="at least one plane"):
        PartialFlock(gf, ())
    with pytest.raises(ValueError, match="normalized, distinct and sorted"):
        PartialFlock(gf, ((1, 1, 1, 1), (1, 0, 0, 0)))  # unsorted
    with pytest.raises(ValueError, match="normalized, distinct and sorted"):
        PartialFlock(gf, ((1, 0, 0, 0), (1, 0, 0, 0)))  # duplicate
    with pytest.raises(ValueError, match="normalized, distinct and sorted"):
        PartialFlock(gf, ((2, 0, 0, 2),))  # not normalized
    with pytest.raises(ValueError, match="cone vertex"):
        PartialFlock(gf, ((0, 1, 0, 0),))
    with pytest.raises(ValueError, match="not an element"):
        PartialFlock(gf, ((1, 8, 0, 0),))


def test_partial_flock_refuses_a_list_of_planes():
    # a list would leave the frozen flock unhashable and unequal to the same flock from a tuple
    gf = make_field(3)
    with pytest.raises(ValueError, match="^planes must be a tuple$"):
        PartialFlock(gf, [(1, 0, 0, 0)])
    assert hash(PartialFlock(gf, ((1, 0, 0, 0),))) == hash(PartialFlock(gf, ((1, 0, 0, 0),)))
    with pytest.raises(ValueError, match="four coordinates"):
        PartialFlock(gf, ((1, 0, 0),))


def test_make_flock_normalizes_and_sorts():
    gf = make_field(3)
    F = oracles.make_flock(gf, [(2, 2, 2, 2), (1, 0, 0, 0), (1, 1, 1, 1)])
    assert F.planes == ((1, 0, 0, 0), (1, 1, 1, 1))
    assert F.size == 2


# -- algebraic correspondence --------------------------------------------------------


def test_denniston_flock_frozen_planes(battery_arcs):
    F = arc_to_flock(battery_arcs[(8, 4)])
    assert F.planes == ((1, 0, 0, 0), (1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3))
    assert base_representation(F) == ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3))


def test_battery_flocks_verify_and_classify(battery_arcs):
    for (q, d), arc in battery_arcs.items():
        F = arc_to_flock(arc)
        assert F.size == d
        report = verify_partial_flock(F)
        assert report.verdict, (q, d)
        assert all(s == q + 1 for s in report.section_sizes)
        assert all(tr == 1 and shared == 0 for _, tr, shared in report.pairs)
        cls = classify_flock(F)
        assert cls.additive
        assert cls.linear  # Denniston arcs give linear flocks


def test_generic_flock_is_additive_but_not_linear(generic_arc_q8):
    F = arc_to_flock(generic_arc_q8)
    assert verify_partial_flock(F).verdict
    cls = classify_flock(F)
    assert cls.additive and not cls.linear


def _random_plane_set(gf, rng, kind):
    """Planes [1, f, t, g] from triples (t, f, g) of one of four kinds.

    additive: the span of up to h random triples with independent t;
    collision: that span plus a triple that reuses one of its t;
    no_x0: the span without (0, 0, 0); open: the span minus or plus one
    random triple.
    """
    span = {0: (0, 0)}
    for _ in range(rng.randint(1, gf.h)):
        t = rng.choice([x for x in range(1, gf.q) if x not in span])
        f, g = rng.randrange(gf.q), rng.randrange(gf.q)
        span.update({l ^ t: (a ^ f, b ^ g) for l, (a, b) in span.items()})
    triples = {(t, f, g) for t, (f, g) in span.items()}
    if kind == "collision":
        t, f, g = rng.choice(sorted(triples))
        triples.add((t, f ^ rng.randrange(1, gf.q), g))
    elif kind == "no_x0":
        triples.discard((0, 0, 0))
    elif kind == "open" and rng.random() < 0.5 and len(triples) > 2:
        triples.remove(rng.choice(sorted(triples - {(0, 0, 0)})))
    elif kind == "open":
        triples.add(tuple(rng.randrange(gf.q) for _ in range(3)))
    return oracles.make_flock(gf, [(1, f, t, g) for t, f, g in triples])


@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_classify_flock_additivity_matches_pair_closure(h):
    # 4 x 125 plane sets per field, 2000 in all, against the pair-by-pair oracle
    gf = make_field(h)
    rng = random.Random(h)
    outcomes = Counter()
    for kind in ("additive", "collision", "no_x0", "open"):
        for _ in range(125):
            F = _random_plane_set(gf, rng, kind)
            additive = oracles.additive_by_pairs(F)
            assert classify_flock(F).additive == additive, F.planes
            outcomes[kind, additive] += 1
    assert outcomes["additive", True] == 125
    assert outcomes["collision", False] == outcomes["no_x0", False] == 125
    assert outcomes["open", False] >= 60


@pytest.mark.parametrize("h", [3, 4])
def test_linearity_matches_meet_and_incidence(h):
    """Reference: meet the first two planes, then test both points on the rest."""
    gf = make_field(h)
    rng = random.Random(h)
    planes = _vertex_avoiding_planes(gf)
    linear_seen = 0
    for trial in range(200):
        if trial % 2:  # planes of one pencil, so the set is linear
            a, b = rng.sample(planes, 2)
            pencil = {pg.normalize(gf, [x ^ gf.mul(s, y) for x, y in zip(a, b)])
                      for s in range(gf.q)} | {pg.normalize(gf, b)}
            pencil = sorted(u for u in pencil if u[0] != 0)
            chosen = rng.sample(pencil, rng.randrange(2, min(6, len(pencil)) + 1))
        else:
            chosen = rng.sample(planes, rng.randrange(2, 6))
        F = PartialFlock(gf, tuple(sorted(chosen)))
        line = oracles.perp(gf, F.planes[:2], 4)
        linear = all(oracles.incident(gf, pt, u) for pt in line for u in F.planes[2:])
        assert classify_flock(F).linear == linear
        linear_seen += linear
    assert 100 <= linear_seen < 200


def test_extension_flock_q32_is_additive_but_not_linear(extension_arc_q32):
    F = arc_to_flock(extension_arc_q32)
    assert F.size == 8
    assert verify_partial_flock(F).verdict
    cls = classify_flock(F)
    assert cls.additive and not cls.linear


def test_flock_report_json_shape(battery_arcs):
    report = verify_partial_flock(arc_to_flock(battery_arcs[(8, 4)]))
    obj = report.to_json()
    assert obj["q"] == 8 and obj["size"] == 4 and obj["verdict"] is True
    assert obj["section_sizes"] == [9, 9, 9, 9]
    assert len(obj["pairs"]) == 6
    assert all(p["trace"] == 1 and p["shared_points"] == 0 for p in obj["pairs"])


def test_flock_oracle_refuses_too_many_steps_before_listing(monkeypatch):
    # a degree-256 flock at h = 16 would list 256 * 65 537 section points
    gf = make_field(16)
    F = arc_to_flock(denniston_arc(gf, 2048, range(1, 256)))
    assert F.size == 256

    def no_listing(*args):
        raise AssertionError("a section was listed before the refusal")

    monkeypatch.setattr("arcflock.flocks.plane_section", no_listing)
    monkeypatch.setattr("arcflock.flocks._x0_column", no_listing)
    refusal = f"stops at {MAX_SCAN_STEPS} steps.* 65537 \\* 256 \\* 257 / 2"
    with pytest.raises(ValueError, match=refusal):
        verify_partial_flock(F)
    # the bench's largest flocks and a degree-4 flock at h = 16 stay below
    assert 65 * 32 * 33 // 2 <= MAX_SCAN_STEPS and 65537 * 4 * 5 // 2 <= MAX_SCAN_STEPS


def test_bad_flock_report_fails():
    # two planes with equal X2-coefficient always share a cone point
    gf = make_field(3)
    F = oracles.make_flock(gf, [(1, 0, 0, 0), (1, 1, 0, 1)])
    report = verify_partial_flock(F)
    assert not report.verdict
    (_, tr, shared) = report.pairs[0]
    assert tr is None and shared > 0


def test_flock_round_trips_back_to_arc(battery_arcs, generic_arc_q8, extension_arc_q32):
    arcs = list(battery_arcs.values()) + [generic_arc_q8, extension_arc_q32]
    for arc in arcs:
        assert flock_to_arc(arc_to_flock(arc)) == arc


def test_flock_to_arc_rejects_non_additive(battery_arcs):
    raw = project_arc(battery_arcs[(8, 4)])
    assert not classify_flock(raw).additive
    with pytest.raises(ValueError, match="additive"):
        flock_to_arc(raw)


# -- projection ----------------------------------------------------------------------


@pytest.mark.parametrize("y", (1, 3))
def test_projection_is_a_bijection_from_cone_to_plane(y):
    gf = make_field(3)
    p = (1, 0, y, 0)
    images = {oracles.project_point(gf, p, e) for e in oracles.cone_points(gf)}
    assert images == set(oracles.points(gf, 3))  # bijective onto PG(2,q)
    assert oracles.project_point(gf, p, VERTEX) == (0, 0, 1)  # vertex -> common nucleus
    for e in oracles.cone_points(gf):
        back = oracles.unproject_point(gf, p, oracles.project_point(gf, p, e))
        assert back == e


def test_unproject_then_project_is_identity():
    gf = make_field(4)
    p = (1, 0, 7, 0)
    for pt in oracles.points(gf, 3):
        e = oracles.unproject_point(gf, p, pt)
        assert oracles.is_on_cone(gf, e)
        assert oracles.project_point(gf, p, e) == pt


def test_projection_point_validation():
    gf = make_field(3)
    for bad in (VERTEX, BASE_NUCLEUS):
        with pytest.raises(ValueError, match="special point"):
            oracles.project_point(gf, bad, (0, 1, 0, 0))
    with pytest.raises(ValueError, match="not on the nuclear line"):
        oracles.project_point(gf, (1, 1, 1, 0), (0, 1, 0, 0))


def test_singular_plane_section_projects_onto_external_line():
    gf = make_field(3)
    for y in (1, 2, 5):
        p = (1, 0, y, 0)
        S = projection_singular_plane(gf, p)
        section = plane_section(gf, S)
        assert VERTEX not in section
        assert len(section) == gf.q + 1
        assert all(oracles.project_point(gf, p, e)[2] == 0 for e in section)
    assert projection_singular_plane(gf, DEFAULT_PROJECTION_POINT) == SINGULAR_PLANE


def test_project_conic_to_plane_frozen_and_consistent():
    gf = make_field(3)
    assert project_conic_to_plane(Conic(gf, 1, 1, 1)) == (1, 1, 0, 1)


@pytest.mark.parametrize("h", (1, 2, 3, 4))
def test_conic_plane_section_is_the_unprojected_conic(h):
    # every projection point (1,0,y,0) of the nuclear line; every conic up to
    # h = 3, a seeded sample of 100 conics at h = 4
    gf = make_field(h)
    conics = oracles.all_conics(gf)
    if h == 4:
        conics = random.Random(1504).sample(conics, 100)
    for y in gf.nonzero_elements():
        p = (1, 0, y, 0)
        for c in conics:
            plane = project_conic_to_plane(c, p)
            expected = {oracles.unproject_point(gf, p, pt) for pt in conic_points(c)}
            assert plane_section(gf, plane) == expected


def test_project_arc_frozen_raw_planes(battery_arcs):
    raw = project_arc(battery_arcs[(8, 4)])
    assert raw.planes == ((1, 0, 1, 0), (1, 1, 0, 1), (1, 3, 2, 3), (1, 4, 5, 4))
    assert verify_partial_flock(raw).verdict


def test_project_arc_general_point_is_a_flock(generic_arc_q8):
    raw = project_arc(generic_arc_q8, (1, 0, 5, 0))
    assert raw.size == 4
    assert verify_partial_flock(raw).verdict


# -- the coefficient chain -----------------------------------------------------------


def test_delta_is_an_involution():
    gf = make_field(3)
    rng = random.Random(1600)
    for _ in range(50):
        u = rng.choice(oracles.points(gf, 4))
        assert delta_plane(delta_plane(u)) == u


def test_kappa_and_its_inverse():
    gf = make_field(4)
    rng = random.Random(1700)
    for _ in range(50):
        u = tuple(rng.randrange(gf.q) for _ in range(4))
        assert kappa_inv_plane(gf, kappa_plane(gf, u)) == u
        assert kappa_plane(gf, kappa_inv_plane(gf, u)) == u


def test_iota_inverts_the_nuclear_parameter():
    gf = make_field(3)
    for y in gf.nonzero_elements():
        pt = oracles.iota_nuclear_point(gf, (1, 0, y, 0))
        assert pt == (1, 0, gf.inv(y), 0)
        assert oracles.iota_nuclear_point(gf, pt) == (1, 0, y, 0)


def test_phi_errors():
    gf = make_field(3)
    with pytest.raises(ValueError, match="vertex"):
        phi_plane(gf, (0, 1, 1, 1))
    with pytest.raises(ValueError, match="base nucleus"):
        phi_plane(gf, (1, 1, 0, 1))


def test_chain_special_planes():
    gf = make_field(3)
    assert raw_to_additive_plane(gf, SINGULAR_PLANE) == EMBEDDING_PLANE
    assert additive_to_raw_plane(gf, EMBEDDING_PLANE) == SINGULAR_PLANE


def test_chain_refuses_a_vertex_plane():
    with pytest.raises(ValueError, match=r"^plane \(0, 1, 0, 0\) passes through the cone vertex"):
        raw_to_additive_plane(make_field(3), (0, 1, 0, 0))


def test_chain_rejects_other_planes_through_projection_point():
    gf = make_field(3)
    u = (1, 1, 1, 1)  # contains (1,0,1,0) but is not the singular plane
    assert oracles.incident(gf, DEFAULT_PROJECTION_POINT, u)
    with pytest.raises(ValueError, match="not the singular plane"):
        raw_to_additive_plane(gf, u)


def test_chain_round_trips_on_generic_planes():
    gf = make_field(3)
    count = 0
    for u in oracles.points(gf, 4):
        if u[0] == 0 or u[0] == u[2]:
            continue  # vertex planes and planes through p have no raw form
        count += 1
        a = raw_to_additive_plane(gf, u)
        assert additive_to_raw_plane(gf, a) == u
        if a[0] != 0 and a[2] != 0:
            assert raw_to_additive_plane(gf, additive_to_raw_plane(gf, a)) == a
    assert count > 0


def test_chain_equality_on_arcs(battery_arcs, generic_arc_q8):
    # the geometric route (project, then rewrite coefficients) must land on
    # exactly the algebraic additive flock
    arcs = [battery_arcs[(8, 2)], battery_arcs[(8, 4)], battery_arcs[(8, 8)], generic_arc_q8]
    for arc in arcs:
        assert geometric_to_additive(project_arc(arc)) == arc_to_flock(arc)
        assert additive_to_geometric(arc_to_flock(arc)) == project_arc(arc)


# -- standard form and plane composition ---------------------------------------------


def test_standardize_plane_round_trip():
    gf = make_field(3)
    for u in oracles.points(gf, 4):
        if u[0] == u[2]:
            with pytest.raises(ValueError, match="no standard form"):
                standardize_plane(gf, u)
            continue
        abc = standardize_plane(gf, u)
        assert standard_to_plane(gf, abc) == u
        a, b, c = abc
        # the standard equation really is u up to the forced scaling
        assert pg.normalize(gf, (a, b, a ^ 1, c)) == u


def test_standard_plane_conic_inverts_projection():
    gf = make_field(3)
    rng = random.Random(1800)
    for c in rng.sample(oracles.all_conics(gf), 40):
        plane = project_conic_to_plane(c)
        assert oracles.standard_plane_conic(gf, standardize_plane(gf, plane)) == c


@pytest.mark.parametrize("h", (3, 4))
def test_plane_compose_mirrors_conic_composition(h):
    gf = make_field(h)
    rng = random.Random(1900 + h)
    conics = oracles.all_conics(gf)
    checked = 0
    while checked < 60:
        c1, c2 = rng.sample(conics, 2)
        if c1.lam == c2.lam:
            continue
        V = project_conic_to_plane(c1)
        W = project_conic_to_plane(c2)
        if not sections_disjoint(gf, V, W):
            continue
        checked += 1
        composed = plane_compose(gf, V, W)
        assert composed == project_conic_to_plane(compose(c1, c2))
        # pencil membership: the composition contains the common line of V and W
        for pt in oracles.perp(gf, [V, W], 4):
            assert oracles.incident(gf, pt, composed)


def test_plane_compose_errors():
    gf = make_field(3)
    V = project_conic_to_plane(Conic(gf, 1, 1, 1))
    W_same_lam = project_conic_to_plane(Conic(gf, 3, 1, 1))
    with pytest.raises(ValueError, match="distinct X0-coefficients"):
        plane_compose(gf, V, W_same_lam)
    with pytest.raises(ValueError, match="vertex"):
        plane_compose(gf, (0, 1, 1, 1), V)
    W_meets = project_conic_to_plane(Conic(gf, 1, 3, 2))
    assert not sections_disjoint(gf, V, W_meets)
    with pytest.raises(DisjointnessError):
        plane_compose(gf, V, W_meets)


def test_singular_plane_carries_the_denniston_line():
    gf = make_field(3)
    c1, c2 = Conic(gf, 1, 1, 1), Conic(gf, 1, 3, 4)
    V = project_conic_to_plane(c1)
    W = project_conic_to_plane(c2)
    S = singular_plane(gf, V, W)
    assert S == (1, 0, 1, 2)
    assert oracles.incident(gf, DEFAULT_PROJECTION_POINT, S)
    # its trace in X0 = 0 unembeds onto the Denniston line of the two conics
    line = denniston_line(c1, c2)
    assert line == (0, 1, 5)
    for spanning in oracles.perp(gf, [S, EMBEDDING_PLANE], 4):
        assert oracles.incident(gf, oracles.unembed_point(spanning), line)


def test_singular_plane_needs_distinct_x0_coefficients():
    # both standard forms have a = 1
    message = "^the pencil plane through p needs distinct X0-coefficients$"
    with pytest.raises(ValueError, match=message):
        singular_plane(make_field(3), (1, 0, 0, 0), (1, 1, 0, 0))


def test_embed_unembed_round_trip():
    gf = make_field(3)
    for pt in oracles.points(gf, 3):
        assert oracles.unembed_point(oracles.embed_point(pt)) == pt
    with pytest.raises(ValueError, match="X0 = 0"):
        oracles.unembed_point((1, 0, 0, 0))


# -- Denniston lines -----------------------------------------------------------------


def test_denniston_line_agrees_across_the_closure(generic_arc_q8):
    c1, c2, c3 = generic_arc_q8.conics
    l12 = denniston_line(c1, c2)
    assert l12 == denniston_line(c1, c3) == denniston_line(c2, c3)
    # the line is external to the whole arc
    gf = generic_arc_q8.gf
    from arcflock.mathon_arcs import arc_points

    assert all(not oracles.incident(gf, pt, l12) for pt in arc_points(generic_arc_q8))


def test_denniston_line_validation():
    gf = make_field(3)
    c = Conic(gf, 1, 1, 1)
    with pytest.raises(ValueError, match="distinct conics"):
        denniston_line(c, c)
    with pytest.raises(ValueError, match="different fields"):
        denniston_line(c, Conic(make_field(4), 8, 1, 1))


def test_denniston_lines_of_a_denniston_arc_coincide(battery_arcs):
    report = denniston_lines_concurrent(battery_arcs[(8, 4)])
    assert report.lines == ((0, 0, 1),)  # the external line z = 0
    assert report.concurrent and report.common_point is None


def test_denniston_lines_of_the_q32_extension_are_concurrent(extension_arc_q32):
    report = denniston_lines_concurrent(extension_arc_q32)
    assert len(report.lines) == 7
    assert report.concurrent
    assert report.common_point == (1, 0, 0)


def test_line_concurrency_matches_meet_and_incidence(monkeypatch):
    """Reference: meet the first two lines, then test that point on the rest."""
    gf = make_field(3)
    arc = denniston_arc(gf, 1, tuple(range(1, 8)))  # 7 conics, 21 pairs
    rng = random.Random(7)
    triples = oracles.points(gf, 3)  # the points, and the lines in dual coordinates
    concurrent_seen = 0
    for trial in range(200):
        pool = oracles.lines_through2(gf, rng.choice(triples)) if trial % 2 else triples
        drawn = iter(rng.choices(pool, k=21))
        monkeypatch.setattr("arcflock.flocks.denniston_line", lambda c1, c2: next(drawn))
        report = denniston_lines_concurrent(arc)
        (pt,) = oracles.perp(gf, report.lines[:2], 3)
        concurrent = all(oracles.incident(gf, pt, l) for l in report.lines[2:])
        assert report.concurrent == concurrent
        assert report.common_point == (pt if concurrent else None)
        concurrent_seen += concurrent
    assert 100 <= concurrent_seen < 200


def test_denniston_lines_need_degree_four():
    gf = make_field(3)
    arc = close_set([Conic(gf, 1, 1, 1)])
    with pytest.raises(ValueError, match="degree at least 4"):
        denniston_lines_concurrent(arc)


# -- extension -----------------------------------------------------------------------


def test_extend_flock_matches_synthetic_extension(battery_arcs):
    gf = make_field(3)
    d4 = battery_arcs[(8, 4)]
    F4 = arc_to_flock(d4)
    ext = extend_flock(F4, (1, 4, 4, 4))
    c = Conic(gf, 1, 1, 4)
    assert ext == arc_to_flock(synthetic_extension(d4, c))
    assert ext == arc_to_flock(oracles.close_by_composition(d4.conics + (c,)))
    assert ext.size == 8
    assert verify_partial_flock(ext).verdict


def test_extend_flock_to_a_non_linear_flock_q32(extension_arc_q32):
    # doubling the q=32 base Denniston flock lands exactly on the flock of
    # the known degree-8 extension arc
    gf = extension_arc_q32.gf
    base = close_set([c for c in extension_arc_q32.conics if c.lam in (1, 4, 5)])
    F_base = arc_to_flock(base)
    assert classify_flock(F_base).linear
    new_plane = (1, gf.mul(1, 16), 16, gf.mul(5, 16))  # plane of F_{1,5,16}
    ext = extend_flock(F_base, new_plane)
    assert ext == arc_to_flock(extension_arc_q32)
    cls = classify_flock(ext)
    assert cls.additive and not cls.linear
    assert verify_partial_flock(ext).verdict


def _extension_cases(gf, F):
    """Every plane V that extend_flock accepts for F: off the vertex and the base
    nucleus, with a section disjoint from each section of F."""
    for t in range(1, gf.q):
        for f, g in itertools.product(range(gf.q), repeat=2):
            V = (1, f, t, g)
            if all(sections_disjoint(gf, V, u) for u in F.planes):
                yield V


def test_extend_flock_exhaustive_q8_q16():
    # every accepted (F, V) over the Denniston flocks of every trace-1 alpha
    # and every proper subgroup containing 1, plus one non-linear flock at
    # q = 16 (the q = 8 one has no extension): the result is F plus V + F, so
    # it has double size and is additive, and the section oracle passes it,
    # so the check of every pair, which extend_flock no longer runs, could not
    # fail on any of them
    gf16 = make_field(4)
    non_linear = arc_to_flock(close_set([Conic(gf16, 1, 8, 1), Conic(gf16, 1, 11, 2)]))
    assert not classify_flock(non_linear).linear
    bases = [non_linear]
    for h in (3, 4):
        gf = make_field(h)
        for k in range(1, h):
            for A in se.additive_subgroups_containing_one(gf, 1 << k):
                bases += [
                    arc_to_flock(denniston_arc(gf, alpha, A[1:]))
                    for alpha in gf.elements()
                    if gf.trace(alpha) == 1
                ]
    verdicts = {}
    cases = 0
    for F in bases:
        for V in _extension_cases(F.gf, F):
            ext = extend_flock(F, V)
            shifted = {(1, V[1] ^ u[1], V[2] ^ u[2], V[3] ^ u[3]) for u in F.planes}
            assert ext.planes == tuple(sorted(set(F.planes) | shifted))
            assert ext.size == 2 * F.size
            if ext.planes not in verdicts:
                verdicts[ext.planes] = verify_partial_flock(ext).verdict
                assert classify_flock(ext).additive
            cases += 1
    assert cases == 288 + 10208 + 80  # [DERIVED: Denniston at q = 8 and 16, then non-linear]
    assert all(verdicts.values())


def _doublings(h):
    """(base arc, new conic) for one doubling at h.

    Odd h: the trace system of H = <1, 2, ...> of order guaranteed_degree / 2
    and the least solvable lambda_d, alpha = 1.  Even h: Denniston arcs with
    the least trace-1 alpha, doubled from degree 2 up to guaranteed_degree.
    """
    gf = make_field(h)
    top = se.guaranteed_degree(h) // 2
    if h % 2:
        H = tuple(range(top))
        for ld in range(top, gf.q):
            valid = se.solve_trace_system(se.build_trace_system(se.GroupSpec(gf, H, ld)))
            if valid:
                break
        beta = se.beta_of(gf, ld, min(valid))
        spec = se.GroupSpec(gf, H, ld)
        return [(se.base_denniston_arc(spec), Conic(gf, 1, gf.square(beta), gf.square(ld)))]
    alpha = min(a for a in gf.elements() if gf.trace(a) == 1)
    return [(denniston_arc(gf, alpha, range(1, d)), Conic(gf, alpha, 1, d))
            for d in (2, 4, 8, 16) if d <= top]


@pytest.mark.parametrize("h", [3, 4, 5, 6, 7, 8, 9])
def test_both_routes_carry_each_doubling(h):
    # the flock route: double the base's flock by the new conic's plane, by
    # XOR; the raw route: compose that plane with each conic plane in the raw
    # picture of the coefficient chain; the arc route: synthetic extension by
    # the conic, then its flock, which goes through extend_flock, so it is
    # also held to the closure of base and conic by pairwise composition
    doublings = _doublings(h)
    assert doublings
    for base, c in doublings:
        gf = base.gf
        F = arc_to_flock(base)
        plane = (1, gf.mul(c.alpha, c.lam), c.lam, gf.mul(c.beta, c.lam))
        raw_v = additive_to_raw_plane(gf, plane)
        composed = {
            raw_to_additive_plane(gf, plane_compose(gf, raw_v, additive_to_raw_plane(gf, u)))
            for u in F.planes
            if u != EMBEDDING_PLANE
        }
        raw_route = PartialFlock(gf, tuple(sorted(set(F.planes) | {plane} | composed)))
        ext = extend_flock(F, plane)
        assert ext == raw_route == arc_to_flock(synthetic_extension(base, c))
        assert ext == arc_to_flock(oracles.close_by_composition(base.conics + (c,)))
        assert ext.size == 2 * base.degree
    assert 2 * doublings[-1][0].degree == se.guaranteed_degree(h)


def test_flock_doubling_and_conversion_stay_on_the_triple_span(monkeypatch, battery_arcs):
    # none goes through the raw picture, closes the conic set again or
    # composes conics: arcs double through extend_flock
    def no_route(*args):
        raise AssertionError("left the triple span")

    base = battery_arcs[(8, 4)]
    gf = base.gf
    F = arc_to_flock(base)
    doubled_arc = denniston_arc(gf, 1, range(1, 8))
    doubled = arc_to_flock(doubled_arc)
    for module, name in ((fl, "additive_to_raw_plane"), (fl, "plane_compose"),
                         (fl, "raw_to_additive_plane"), (ma, "close_set"),
                         (ma, "composition_trace"), (ma, "compose")):
        monkeypatch.setattr(module, name, no_route)
    for name in ("close_set", "composition_trace", "compose"):
        monkeypatch.setattr(fl, name, no_route, raising=False)
    assert extend_flock(F, (1, 4, 4, 4)) == doubled
    assert flock_to_arc(F) == base
    assert flock_to_arc(doubled).degree == 8
    assert synthetic_extension(base, Conic(gf, 1, 1, 4)) == doubled_arc
    assert denniston_closure(*base.conics[:2]) == base


def test_extension_arc_spans_its_triples_once(monkeypatch):
    # the base arc is not closed again, and the doubled arc is read off
    # extend_flock's planes, not spanned a second time by flock_to_arc
    calls = []

    def counted(seed):
        calls.append(1)
        return ma.triple_span(seed)

    monkeypatch.setattr(fl, "triple_span", counted)
    spec = se.GroupSpec(make_field(5), (0, 1, 2, 3), 4)
    assert se.construct_extension_arc(spec, 16).degree == 8
    assert len(calls) == 1


def test_denniston_arc_closes_nothing(monkeypatch):
    def no_closure(*args):
        raise AssertionError("a Denniston arc is closed by its subgroup check")

    monkeypatch.setattr(ma, "close_set", no_closure)
    monkeypatch.setattr(ma, "triple_span", no_closure)
    gf = make_field(6)
    arc = denniston_arc(gf, 32, (1, 2, 3, 4, 5, 6, 7))
    assert [(c.alpha, c.beta, c.lam) for c in arc.conics] == [(32, 1, l) for l in range(1, 8)]


def test_generic_arc_q8_has_no_extension(generic_arc_q8):
    # [DERIVED: exhaustive scan; no valid conic outside the lam subgroup is
    # disjoint from all three conics of this arc, so no doubling exists]
    gf = generic_arc_q8.gf
    subgroup = set(generic_arc_q8.lam_values) | {0}
    candidates = [c for c in oracles.all_conics(gf) if c.lam not in subgroup]
    assert candidates  # plenty of conics to try ...
    assert not any(
        all(
            conic_points(c).isdisjoint(conic_points(mc))
            for mc in generic_arc_q8.conics
        )
        for c in candidates
    )


def test_extend_flock_rejections(battery_arcs):
    gf = make_field(3)
    F4 = arc_to_flock(battery_arcs[(8, 4)])
    raw = project_arc(battery_arcs[(8, 4)])
    with pytest.raises(ValueError, match="additive"):
        extend_flock(raw, (1, 4, 4, 4))
    with pytest.raises(ValueError, match="cone vertex"):
        extend_flock(F4, (0, 1, 1, 1))
    with pytest.raises(ValueError, match="base nucleus"):
        extend_flock(F4, (1, 1, 0, 1))
    # trace failure against the plane X0 = 0
    with pytest.raises(DisjointnessError, match=r"\(1, 0, 0, 0\)"):
        extend_flock(F4, (1, 2, 1, 2))
    # matching X2-coefficient with an existing conic plane
    with pytest.raises(DisjointnessError, match=r"\(1, 1, 1, 1\)"):
        extend_flock(F4, (1, 5, 1, 6))


@pytest.mark.parametrize(
    "V, message",
    [((1, 2, 3), "four coordinates"), ((1, 0, 9, 0), "coordinate 9"),
     ((1, 0, 1.0, 0), "coordinate 1.0"), ("1234", "four coordinates")],
    ids=["three-coordinates", "out-of-range", "float", "string"],
)
def test_extend_flock_refuses_malformed_planes(battery_arcs, V, message):
    with pytest.raises(ValueError, match=message):
        extend_flock(arc_to_flock(battery_arcs[(8, 4)]), V)


@pytest.mark.parametrize("h", [2, 3])
def test_extend_flock_rejects_every_additive_non_flock_of_two_planes(h):
    # F = {X0 = 0, u} with the section of u meeting that of X0 = 0, and any V
    # passing the test against F: the test of F against X0 = 0 refuses each,
    # so the doubled set is never returned
    gf = make_field(h)
    cases = 0
    for u in _vertex_avoiding_planes(gf):
        if u[2] == 0 or sections_disjoint(gf, EMBEDDING_PLANE, u):
            continue
        F = PartialFlock(gf, (EMBEDDING_PLANE, u))
        for V in _extension_cases(gf, F):
            with pytest.raises(DisjointnessError, match="share a cone point"):
                extend_flock(F, V)
            cases += 1
    assert cases > 0


# -- serialization -------------------------------------------------------------------


def test_flock_json_schema_and_round_trip(battery_arcs, generic_arc_q8):
    for arc in [battery_arcs[(8, 4)], battery_arcs[(16, 4)], generic_arc_q8]:
        F = arc_to_flock(arc)
        obj = flock_to_json(F)
        assert set(obj) == {"field", "planes", "B", "f", "g", "additive", "linear"}
        assert obj["additive"] is True
        assert sorted(obj["B"]) == obj["B"]
        assert flock_from_json(obj) == F


def test_flock_json_frozen_content(battery_arcs):
    obj = flock_to_json(arc_to_flock(battery_arcs[(8, 4)]))
    assert obj["planes"] == [[1, 0, 0, 0], [1, 1, 1, 1], [1, 2, 2, 2], [1, 3, 3, 3]]
    assert obj["B"] == [0, 1, 2, 3]
    assert obj["f"] == [0, 1, 2, 3]
    assert obj["g"] == [0, 1, 2, 3]
    assert obj["additive"] is True and obj["linear"] is True


def test_flock_from_json_validation(battery_arcs):
    good = flock_to_json(arc_to_flock(battery_arcs[(8, 4)]))
    with pytest.raises(ValueError, match="'field' and 'planes'"):
        flock_from_json({"planes": []})
    with pytest.raises(ValueError, match="four coordinates"):
        flock_from_json(dict(good, planes=[[1, 0, 0]]))
    with pytest.raises(ValueError, match="list of planes"):
        flock_from_json(dict(good, planes=5))
    with pytest.raises(ValueError, match="not an element"):
        flock_from_json(dict(good, planes=[[1, 999, 0, 0]]))
    with pytest.raises(ValueError, match="declared 'B'"):
        flock_from_json(dict(good, B=[0, 1, 2, 4]))
    with pytest.raises(ValueError, match="declared 'linear'"):
        flock_from_json(dict(good, linear=False))
    # derived fields match by JSON value and type: 1 is not true, 1.0 not 1
    for key, value in [
        ("additive", 1),
        ("linear", 1),
        ("B", [0, 1.0, 2, 3]),
        ("f", [0, 1, 2, 3.0]),
        ("g", [0.0, 1, 2, 3]),
    ]:
        with pytest.raises(ValueError, match=f"declared '{key}'"):
            flock_from_json(dict(good, **{key: value}))


def test_flock_from_json_refuses_a_plane_listed_twice():
    # also in another scaling: planes are compared, and named, after normalization
    field = make_field(3).to_json()
    for planes in ([[1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 1]],
                   [[1, 0, 0, 0], [2, 2, 2, 2], [1, 1, 1, 1]]):
        with pytest.raises(ValueError, match=r"^plane \[1, (0|1), \1, \1\] is listed twice$"):
            flock_from_json({"field": field, "planes": planes})
