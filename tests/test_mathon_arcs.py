"""Conic composition and maximal-arc construction against geometric oracles."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from arcflock import mathon_arcs as ma
from arcflock import search as se
from arcflock.finite_field import MAX_H, make_field
from arcflock.flocks import (
    arc_to_flock,
    denniston_closure,
    flock_to_arc,
    is_denniston_type,
    synthetic_extension,
)
from arcflock.mathon_arcs import (
    NUCLEUS,
    ClosureError,
    Conic,
    DisjointnessError,
    MathonArc,
    arc_from_json,
    arc_points,
    arc_to_json,
    close_set,
    compose,
    composition_trace,
    conic_points,
    denniston_arc,
    quadric_points,
    verify_maximal_arc,
)

import oracles
from conftest import BATTERY_ALPHA, battery_specs


# -- conic construction and point sets -----------------------------------------------


def test_conic_validation():
    gf = make_field(3)
    with pytest.raises(ValueError, match="lam must be nonzero"):
        Conic(gf, 1, 1, 0)
    with pytest.raises(ValueError, match="degenerate conic"):
        Conic(gf, 0, 1, 1)  # trace(0) = 0
    with pytest.raises(ValueError, match="degenerate conic"):
        Conic(gf, 1, 6, 1)  # trace(6) = 0 in GF(8)
    with pytest.raises(ValueError, match="not an element"):
        Conic(gf, 8, 1, 1)
    with pytest.raises(ValueError, match="not an element"):
        Conic(gf, 1, 1, -2)


@pytest.mark.parametrize("h", (2, 3, 4))
def test_conic_points_against_inline_equation_scan(h):
    gf = make_field(h)
    rng = random.Random(9000 + h)
    conics = oracles.all_conics(gf)
    sample = conics if len(conics) <= 60 else rng.sample(conics, 60)
    for c in sample:
        pts = conic_points(c)
        assert pts == oracles.quadric_scan(gf, c.alpha, c.beta, c.lam)
        assert len(pts) == gf.q + 1
        assert NUCLEUS not in pts
        assert all(p[2] != 0 for p in pts)  # z = 0 is external


def test_quadric_points_handles_degenerate_coefficients():
    # the same inline scan must agree even when the triple is not a valid conic
    gf = make_field(3)
    for a, b, l in ((0, 0, 1), (1, 6, 2), (0, 1, 5)):
        assert quadric_points(gf, a, b, l) == oracles.quadric_scan(gf, a, b, l)
    with pytest.raises(ValueError, match="l must be nonzero"):
        quadric_points(gf, 1, 0, 0)


def test_quadric_points_refuses_coefficients_outside_the_field():
    # GF.sqrt stays unchecked, so the public entry checks what it hands on
    gf = make_field(3)
    cases = ((1, 1, 99, "l=99"), (8, 1, 1, "a=8"), (1, -1, 1, "b=-1"), (True, 1, 1, "a=True"))
    for a, b, l, bad in cases:
        with pytest.raises(ValueError, match=f"^{bad} is not an element of GF\\(8\\)$"):
            quadric_points(gf, a, b, l)


@pytest.mark.parametrize("h", (1, 2, 3))
def test_quadric_points_against_inline_scan_for_every_triple(h):
    # degenerate triples too: b = 0, a = 0 and trace(ab) = 0
    gf = make_field(h)
    for a, b in itertools.product(gf.elements(), repeat=2):
        for l in gf.nonzero_elements():
            assert quadric_points(gf, a, b, l) == oracles.quadric_scan(gf, a, b, l)
        with pytest.raises(ValueError, match="l must be nonzero"):
            quadric_points(gf, a, b, 0)


# -- composition ---------------------------------------------------------------------


def test_compose_frozen_example():
    # [DERIVED: coefficient arithmetic checked once by hand in GF(8) mod x^3+x+1]
    gf = make_field(3)
    c1 = Conic(gf, 1, 1, 1)
    c2 = Conic(gf, 1, 3, 4)
    assert compose(c1, c2) == Conic(gf, 1, 7, 5)


@pytest.mark.parametrize("h", (3, 4))
def test_compose_is_commutative_and_involutive(h):
    gf = make_field(h)
    rng = random.Random(1100 + h)
    conics = oracles.all_conics(gf)
    checked = 0
    while checked < 200:
        c1, c2 = rng.sample(conics, 2)
        if c1.lam == c2.lam or composition_trace(c1, c2) != 1:
            continue  # compose() returns a Conic, so the result must be valid
        checked += 1
        c12 = compose(c1, c2)
        assert c12 == compose(c2, c1)
        assert c12.lam == c1.lam ^ c2.lam
        # composing back recovers the other operand
        assert compose(c12, c1) == c2
        assert compose(c12, c2) == c1


def test_compose_rejects_equal_lam_and_mixed_fields():
    gf = make_field(3)
    with pytest.raises(ValueError, match="distinct lam"):
        compose(Conic(gf, 1, 1, 1), Conic(gf, 1, 3, 1))
    with pytest.raises(ValueError, match="different fields"):
        compose(Conic(gf, 1, 1, 1), Conic(make_field(4), 8, 1, 1))


def test_composition_trace_one_implies_disjoint_exhaustive_q8():
    # One-sided guarantee, checked against the point-set oracle over every
    # composable pair of valid conics in GF(8).
    # [DERIVED: pair counts from this same exhaustive oracle scan, frozen]
    gf = make_field(3)
    conics = oracles.all_conics(gf)
    counts = {(1, True): 0, (1, False): 0, (0, True): 0, (0, False): 0}
    for c1, c2 in itertools.combinations(conics, 2):
        if c1.lam == c2.lam:
            continue
        counts[(composition_trace(c1, c2), oracles.conics_disjoint(c1, c2))] += 1
    assert counts[(1, False)] == 0  # trace 1 never produces a shared point
    assert counts[(1, True)] == 5880
    assert counts[(0, False)] == 10584
    assert counts[(0, True)] == 0


@pytest.mark.parametrize("h, pairs", [(2, 108), (3, 16464)])
def test_composition_trace_decides_disjointness_exhaustively(h, pairs):
    # Mathon's criterion, both ways, against the point-set oracle: conics with
    # distinct lam are disjoint exactly when their composition has trace 1;
    # distinct conics with equal lam always meet.
    # [DERIVED: pairs = C(n, 2) - (q - 1) C(n / (q - 1), 2) for the
    # n = (q - 1) q (q - 1) / 2 conics, counted by hand]
    gf = make_field(h)
    seen = 0
    for c1, c2 in itertools.combinations(oracles.all_conics(gf), 2):
        if c1.lam == c2.lam:
            assert not oracles.conics_disjoint(c1, c2), (c1, c2)
        else:
            assert (composition_trace(c1, c2) == 1) == oracles.conics_disjoint(c1, c2), (c1, c2)
            seen += 1
    assert seen == pairs


def test_trace_zero_pair_meets():
    gf = make_field(3)
    c1, c2 = Conic(gf, 1, 1, 1), Conic(gf, 1, 3, 2)
    assert composition_trace(c1, c2) == 0
    assert not oracles.conics_disjoint(c1, c2)


def test_conics_disjoint_rejects_equal_conics():
    gf = make_field(3)
    with pytest.raises(ValueError, match="distinct conics"):
        oracles.conics_disjoint(Conic(gf, 1, 1, 1), Conic(gf, 1, 1, 1))


# -- closure -------------------------------------------------------------------------


def test_close_set_adds_exactly_the_missing_composition():
    gf = make_field(3)
    arc = close_set([Conic(gf, 1, 1, 1), Conic(gf, 1, 3, 4)])
    assert arc.conics == (
        Conic(gf, 1, 1, 1),
        Conic(gf, 1, 3, 4),
        Conic(gf, 1, 7, 5),
    )
    assert arc.degree == 4
    assert arc.lam_values == (1, 4, 5)


def test_close_set_lam_collision_in_seed():
    gf = make_field(3)
    with pytest.raises(ClosureError, match="lam collision"):
        close_set([Conic(gf, 1, 1, 1), Conic(gf, 1, 3, 1)])


def test_close_set_composition_collision():
    # compose(F_{1,1,1}, F_{1,1,2}) = F_{1,1,3}, which collides with F_{1,3,3}
    gf = make_field(3)
    seed = [Conic(gf, 1, 1, 1), Conic(gf, 1, 1, 2), Conic(gf, 1, 3, 3)]
    with pytest.raises(ClosureError, match="collides"):
        close_set(seed)


def test_close_set_degenerate_composition():
    gf = make_field(3)
    with pytest.raises(ClosureError, match="not a conic"):
        close_set([Conic(gf, 1, 1, 1), Conic(gf, 1, 3, 2)])


def test_close_set_refuses_an_empty_seed_and_two_fields():
    with pytest.raises(ValueError, match="^seed must contain at least one conic$"):
        close_set([])
    seed = [Conic(make_field(3), 1, 1, 1), Conic(make_field(5), 1, 1, 2)]
    with pytest.raises(ValueError, match="^seed conics live in different fields$"):
        close_set(seed)


def test_close_set_duplicate_seed_conic_is_fine():
    gf = make_field(3)
    c = Conic(gf, 1, 1, 1)
    arc = close_set([c, c])
    assert arc.conics == (c,)
    assert arc.degree == 2


def _closure_outcome(close, seed):
    """The closed arc, or the class of the error raised."""
    try:
        return close(seed)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_close_set_matches_pairwise_composition(h):
    # seeds of 1-5 members of a random Denniston arc, half of them with one
    # arbitrary conic swapped in: most of those fail to close
    gf = make_field(h)
    rng = random.Random(h)
    conics = oracles.all_conics(gf)
    alphas = [a for a in gf.elements() if gf.trace(a) == 1]
    outcomes = Counter()
    for _ in range(1000):
        lams = gf.additive_span(rng.sample(range(1, gf.q), rng.randint(1, min(h, 3))))
        arc = denniston_arc(gf, rng.choice(alphas), lams - {0})
        seed = rng.choices(arc.conics, k=rng.randint(1, 5))
        if rng.random() < 0.5:
            seed[rng.randrange(len(seed))] = rng.choice(conics)
        expected = _closure_outcome(oracles.close_by_composition, seed)
        assert _closure_outcome(close_set, seed) == expected
        outcomes[expected if isinstance(expected, type) else MathonArc] += 1
    assert set(outcomes) == {MathonArc, ClosureError}
    assert min(outcomes.values()) >= 250


def test_mathon_arc_requires_sorted_distinct_lams():
    gf = make_field(3)
    c1, c2 = Conic(gf, 1, 1, 1), Conic(gf, 1, 1, 2)
    with pytest.raises(ValueError, match="sorted"):
        MathonArc(gf, (c2, c1))
    with pytest.raises(ValueError, match="at least one"):
        MathonArc(gf, ())


def test_mathon_arc_requires_one_field():
    gf = make_field(3)
    with pytest.raises(ValueError, match="^conics live in different fields$"):
        MathonArc(gf, (Conic(gf, 1, 1, 1), Conic(make_field(5), 1, 1, 2)))


def test_mathon_arc_refuses_a_list_of_conics():
    # a list would leave the frozen arc unhashable and unequal to the same arc from a tuple
    gf = make_field(3)
    c = Conic(gf, 1, 1, 1)
    with pytest.raises(ValueError, match="^conics must be a tuple$"):
        MathonArc(gf, [c])
    assert hash(MathonArc(gf, (c,))) == hash(MathonArc(gf, (c,)))


# -- Denniston arcs and the verification oracle --------------------------------------


def test_denniston_battery_verified_as_maximal_arcs(battery_arcs):
    for (q, d), arc in battery_arcs.items():
        gf = arc.gf
        assert arc.degree == d
        report = verify_maximal_arc(gf, arc_points(arc), d)
        assert report.verdict, (q, d)
        assert report.size == q * (d - 1) + d
        assert set(report.histogram) <= {0, d}


def test_denniston_hyperoval_q4_frozen_histogram():
    # [DERIVED: exhaustive line scan in PG(2,4)]
    gf = make_field(2)
    arc = denniston_arc(gf, BATTERY_ALPHA[2], (1,))
    report = verify_maximal_arc(gf, arc_points(arc), 2)
    assert report.verdict
    assert report.size == 6
    assert report.histogram == {0: 6, 2: 15}


def test_denniston_full_field_q4_frozen_histogram():
    # degree q: every line meets the arc except z = 0
    gf = make_field(2)
    arc = denniston_arc(gf, BATTERY_ALPHA[2], (1, 2, 3))
    report = verify_maximal_arc(gf, arc_points(arc), 4)
    assert report.verdict
    assert report.size == 16
    assert report.histogram == {0: 1, 4: 20}


def test_denniston_degree4_q8_frozen_histogram():
    gf = make_field(3)
    arc = denniston_arc(gf, 1, (1, 2, 3))
    report = verify_maximal_arc(gf, arc_points(arc), 4)
    assert report.verdict
    assert report.size == 28
    assert report.histogram == {0: 10, 4: 63}


def test_denniston_arc_validation():
    gf = make_field(3)
    with pytest.raises(ValueError, match="nonempty"):
        denniston_arc(gf, 1, ())
    with pytest.raises(ValueError, match="must omit"):
        denniston_arc(gf, 1, (0, 1))
    with pytest.raises(ValueError, match="closed under addition"):
        denniston_arc(gf, 1, (1, 2))  # span is {0,1,2,3}
    with pytest.raises(ValueError, match="trace"):
        denniston_arc(gf, 2, (1, 2, 3))  # trace(2) = 0 in GF(8)
    with pytest.raises(ValueError, match="not an element"):
        denniston_arc(gf, 1, (1, 9))
    gf4 = make_field(2)
    with pytest.raises(ValueError, match="trace"):
        denniston_arc(gf4, 1, (1,))  # trace(1) = 0 for even h


@pytest.mark.parametrize(
    "alpha, A, message",
    [(1.0, (1,), "alpha=1.0"), (1, (1.0,), "lam=1.0"), ("1", (1,), "alpha='1'")],
    ids=["float-alpha", "float-lam", "str-alpha"],
)
def test_denniston_arc_refuses_non_int_elements(alpha, A, message):
    with pytest.raises(ValueError, match=message):
        denniston_arc(make_field(3), alpha, A)


@pytest.mark.parametrize("alpha", (8, 98, 99, -1))
def test_denniston_arc_refuses_out_of_range_alpha_before_its_trace(alpha):
    # 8 and 98 have masked trace 0, 99 and -1 masked trace 1: one message for all
    with pytest.raises(ValueError) as err:
        denniston_arc(make_field(3), alpha, (1,))
    assert str(err.value) == f"alpha={alpha} is not an element of GF(8)"


def test_verify_maximal_arc_rejects_corrupted_set():
    gf = make_field(3)
    arc = denniston_arc(gf, 1, (1, 2, 3))
    pts = set(arc_points(arc))
    dropped = next(iter(pts - {NUCLEUS}))
    pts.discard(dropped)
    report = verify_maximal_arc(gf, pts, 4)
    assert not report.verdict
    assert report.size == 27
    # some line through the dropped point now meets the set in d - 1 points
    assert 3 in report.histogram


def test_verify_maximal_arc_rejects_wrong_degree_claim():
    gf = make_field(3)
    arc = denniston_arc(gf, 1, (1, 2, 3))
    report = verify_maximal_arc(gf, arc_points(arc), 2)
    assert not report.verdict


# -- two-conic closure, extension, type test -----------------------------------------


def test_denniston_closure_of_two_disjoint_conics():
    gf = make_field(3)
    arc = denniston_closure(Conic(gf, 1, 1, 1), Conic(gf, 1, 1, 2))
    assert arc.degree == 4
    assert arc.lam_values == (1, 2, 3)
    assert all(c.alpha == 1 and c.beta == 1 for c in arc.conics)


def test_denniston_closure_rejects_meeting_conics():
    gf = make_field(3)
    with pytest.raises(DisjointnessError):
        denniston_closure(Conic(gf, 1, 1, 1), Conic(gf, 1, 3, 2))


def test_synthetic_extension_doubles_to_full_denniston(battery_arcs):
    gf = make_field(3)
    d4 = battery_arcs[(8, 4)]
    m8 = synthetic_extension(d4, Conic(gf, 1, 1, 4))
    assert m8.degree == 8
    assert set(m8.conics) >= set(d4.conics)
    report = verify_maximal_arc(gf, arc_points(m8), 8)
    assert report.verdict
    # constant-beta extension closes to the full-field Denniston arc
    assert is_denniston_type(m8)


def test_synthetic_extension_rejects_lam_inside_subgroup(battery_arcs):
    gf = make_field(3)
    with pytest.raises(ValueError, match="already lies"):
        synthetic_extension(battery_arcs[(8, 4)], Conic(gf, 1, 3, 2))


def test_synthetic_extension_rejects_meeting_conic(battery_arcs):
    gf = make_field(3)
    with pytest.raises(DisjointnessError):
        synthetic_extension(battery_arcs[(8, 4)], Conic(gf, 1, 3, 4))


def test_synthetic_extension_refuses_another_field_and_an_open_base(battery_arcs):
    gf = make_field(3)
    with pytest.raises(ValueError, match="^conic and arc live in different fields$"):
        synthetic_extension(battery_arcs[(8, 4)], Conic(make_field(5), 1, 1, 4))
    open_base = MathonArc(gf, (Conic(gf, 1, 1, 1), Conic(gf, 1, 1, 2)))  # lacks lam = 3
    with pytest.raises(ValueError, match="^only an additive partial flock can be extended$"):
        synthetic_extension(open_base, Conic(gf, 1, 1, 4))


def test_denniston_closure_of_conics_on_one_lam_meets():
    gf = make_field(3)
    with pytest.raises(DisjointnessError, match="share a point$"):
        denniston_closure(Conic(gf, 1, 1, 1), Conic(gf, 1, 3, 1))


def test_constructions_list_no_points(monkeypatch, extension_arc_q32):
    # disjointness is decided by composition; only the oracles list points
    def no_points(*args):
        raise AssertionError("a construction listed conic points")

    monkeypatch.setattr(ma, "quadric_points", no_points)
    gf = make_field(5)
    d4 = denniston_arc(gf, 1, (1, 2, 3))
    assert close_set(d4.conics[:2]) == d4
    assert arc_from_json(arc_to_json(d4)) == d4
    assert flock_to_arc(arc_to_flock(d4)) == d4
    assert synthetic_extension(d4, Conic(gf, 1, 1, 4)) == denniston_arc(gf, 1, range(1, 8))
    assert denniston_closure(*d4.conics[:2]) == d4
    spec = se.GroupSpec(gf, (0, 1, 2, 3), 4)
    assert se.construct_extension_arc(spec, 16) == extension_arc_q32
    meets = Conic(gf, 1, 5, 4)  # misses the base conics on lam = 1, 2, meets lam = 3
    with pytest.raises(DisjointnessError, match=r"meets the section of \(1, 3, 3, 3\)$"):
        synthetic_extension(d4, meets)
    with pytest.raises(DisjointnessError, match=r"meets the section of \(1, 3, 3, 3\)$"):
        denniston_closure(d4.conics[2], meets)
    with pytest.raises(AssertionError, match="listed conic points"):
        arc_points(d4)
    with pytest.raises(AssertionError, match="listed conic points"):
        oracles.conics_disjoint(*d4.conics[:2])


def test_generic_arc_is_not_denniston_type(generic_arc_q8, battery_arcs):
    assert not is_denniston_type(generic_arc_q8)
    assert is_denniston_type(battery_arcs[(8, 4)])


def test_generic_arc_is_a_maximal_arc(generic_arc_q8):
    gf = generic_arc_q8.gf
    report = verify_maximal_arc(gf, arc_points(generic_arc_q8), 4)
    assert report.verdict


def test_extension_arc_q32_is_a_degree8_maximal_arc(extension_arc_q32):
    gf = extension_arc_q32.gf
    assert extension_arc_q32.degree == 8
    report = verify_maximal_arc(gf, arc_points(extension_arc_q32), 8)
    assert report.verdict
    assert report.size == 232
    assert not is_denniston_type(extension_arc_q32)


# -- JSON ----------------------------------------------------------------------------


def test_arc_json_round_trip(battery_arcs, generic_arc_q8):
    for arc in list(battery_arcs.values()) + [generic_arc_q8]:
        obj = arc_to_json(arc)
        assert set(obj) == {"field", "conics", "degree"}
        assert arc_from_json(obj) == arc


def test_arc_from_json_rejects_non_closed_set():
    gf = make_field(3)
    obj = {
        "field": gf.to_json(),
        "conics": [
            {"alpha": 1, "beta": 1, "lambda": 1},
            {"alpha": 1, "beta": 3, "lambda": 4},
        ],
    }
    with pytest.raises(ValueError, match="not closed"):
        arc_from_json(obj)


def test_arc_from_json_names_a_repeated_conic():
    # one conic is a closed set, so the repeat, not closure, is what is wrong
    gf = make_field(3)
    F = {"alpha": 1, "beta": 1, "lambda": 1}
    assert len(arc_from_json({"field": gf.to_json(), "conics": [F]}).conics) == 1
    G = {"alpha": 1, "beta": 1, "lambda": 2}
    for conics in ([F, F], [F, G, F]):
        with pytest.raises(ValueError, match="^conic alpha=1 beta=1 lambda=1 is listed twice$"):
            arc_from_json({"field": gf.to_json(), "conics": conics})


def test_verify_maximal_arc_denniston_degree4_h9():
    # the line scan at q = 512: 1540 points, each with its pencil of 513 lines
    gf = make_field(9)
    q, d = gf.q, 4
    alpha = next(a for a in gf.nonzero_elements() if gf.trace(a) == 1)
    m = denniston_arc(gf, alpha, (1, 2, 3))
    report = verify_maximal_arc(gf, arc_points(m), m.degree)
    size = q * (d - 1) + d
    # [TRIVIAL: a maximal arc has |K|(q+1)/d secants and q(q-d+1)/d external lines]
    assert report.size == size
    assert report.histogram == {0: q * (q - d + 1) // d, d: size * (q + 1) // d}
    assert report.verdict


def _random_point_sets(gf, rng):
    """Seeded point sets in arbitrary, often non-normalized coordinates."""
    q = gf.q

    def point(at_infinity=False):
        while True:
            p = (rng.randrange(q), rng.randrange(q), 0 if at_infinity else rng.randrange(q))
            if any(p):
                return p

    yield set()
    yield {(1, 0, 0)}
    yield {(rng.randrange(1, q), 0, 0)}
    yield {point(at_infinity=True) for _ in range(3)}  # no affine point
    # small sets, so the oracle's count per line met stays cheap at large q
    for _ in range(12):
        size = rng.randrange(1, min(3 * q, 48))
        yield {point(at_infinity=rng.random() < 0.2) for _ in range(size)}
    # one projective point under several representatives: each tuple counts
    x, y, z = rng.randrange(q), rng.randrange(q), rng.randrange(1, q)
    yield {(gf.mul(s, x), gf.mul(s, y), gf.mul(s, z)) for s in range(1, min(q, 48))}


# h = 9 reaches coordinates above 255, the high byte of the scan's 16-bit
# packing, and walks a 9-bit Gray code over the slopes
@pytest.mark.parametrize("h", range(1, 10))
def test_line_scan_matches_line_histogram_on_random_sets(h):
    gf = make_field(h)
    rng = random.Random(7100 + h)
    for pts in _random_point_sets(gf, rng):
        report = verify_maximal_arc(gf, pts, 2)
        assert report.histogram == oracles.line_histogram(gf, pts), sorted(pts)
        assert report.size == len(pts)
        assert sum(report.histogram.values()) == gf.q * gf.q + gf.q + 1


def test_line_scan_matches_line_histogram_on_the_battery(
    battery_arcs, generic_arc_q8, extension_arc_q32
):
    arcs = [*battery_arcs.values(), generic_arc_q8, extension_arc_q32]
    for arc in arcs:
        pts = arc_points(arc)
        report = verify_maximal_arc(arc.gf, pts, arc.degree)
        assert report.histogram == oracles.line_histogram(arc.gf, pts)


def test_line_scan_rejects_the_zero_vector():
    gf = make_field(3)
    with pytest.raises(ValueError, match="zero vector"):
        verify_maximal_arc(gf, [(1, 0, 1), (0, 0, 0)], 2)


def test_line_scan_refuses_malformed_points():
    gf = make_field(3)
    cases = (
        ((1, 99, 1), "coordinate 99 is not an element of GF\\(8\\)"),
        ((1, -1, 1), "coordinate -1 is not an element of GF\\(8\\)"),
        ((True, 0, 1), "coordinate True is not an element of GF\\(8\\)"),
        ((1.0, 0, 1), "coordinate 1.0 is not an element of GF\\(8\\)"),
        ((1, "a", 1), "coordinate 'a' is not an element of GF\\(8\\)"),
        (("a", "b", "c"), "coordinate 'a' is not an element of GF\\(8\\)"),
        ("abc", "point is a tuple of three coordinates, got 'abc'$"),
        ((1, 0), "point is a tuple of three coordinates, got \\(1, 0\\)$"),
        ((1, 0, 1, 0), "point is a tuple of three coordinates, got \\(1, 0, 1, 0\\)$"),
        ([1, 0, 1], "point is a tuple of three coordinates, got \\[1, 0, 1\\]$"),
    )
    for bad, message in cases:
        # beside (1, 0, 1), which (True, 0, 1) and (1.0, 0, 1) equal as tuples
        with pytest.raises(ValueError, match=message):
            verify_maximal_arc(gf, [(1, 0, 1), bad, (0, 1, 0)], 2)
    # the largest coordinate is still an element
    report = verify_maximal_arc(gf, [(7, 7, 7), (7, 0, 0)], 2)
    assert report.histogram == oracles.line_histogram(gf, [(7, 7, 7), (7, 0, 0)])


def test_line_scan_memory_stays_linear_in_q():
    # the scan keeps one parallel class of q lines at a time, never a count per line
    gf = make_field(9)
    alpha = next(a for a in gf.nonzero_elements() if gf.trace(a) == 1)
    pts = arc_points(denniston_arc(gf, alpha, (1, 2, 3)))
    tracemalloc.start()
    try:
        assert verify_maximal_arc(gf, pts, 4).verdict
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def unread():
    raise AssertionError("the points were read before the refusal")
    yield


def test_line_scan_refuses_fields_above_its_ceiling():
    # no arc above h = 12 fits: the least, degree 2 at q = 8192, needs (q + 2)(q + 1) steps
    assert 8194 * 8193 > ma.MAX_SCAN_STEPS
    for d, steps in ((4, "24580 \\* 8193"), (2, "8194 \\* 8193")):
        with pytest.raises(ValueError, match=f"stops at {ma.MAX_SCAN_STEPS} steps.* {steps}$"):
            verify_maximal_arc(make_field(13), unread(), d)
    gf = make_field(12)
    report = verify_maximal_arc(gf, [(1, 0, 0)], 2)
    assert report.histogram == {0: gf.q * gf.q, 1: gf.q + 1}


def test_line_scan_refuses_a_degree_below_2_before_reading():
    # so a tiny set at large q cannot reach a scan under a degree that sizes no arc
    for d in (1, 0, -1):
        with pytest.raises(ValueError, match=f"degree at least 2, got d = {d}$"):
            verify_maximal_arc(make_field(13), unread(), d)


@pytest.mark.parametrize("value", ["4", 4.0, 2.5, True], ids=repr)
@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda v: verify_maximal_arc(make_field(3), [(0, 0, 1)], v),
         "a maximal arc has an int degree at least 2, got d = "),
        (lambda v: make_field(v), f"extension degree must be an int in 1..{MAX_H}, got "),
        (lambda v: make_field(3, v), "modulus must be an int, got "),
    ],
    ids=["arc-degree", "field-degree", "field-modulus"],
)
def test_a_degree_or_modulus_that_is_not_an_int_is_refused(refuse, message, value):
    with pytest.raises(ValueError) as info:
        refuse(value)
    assert str(info.value) == message + repr(value)


def test_arc_points_refuses_an_arc_over_the_budget_before_listing(monkeypatch):
    def no_points(c):
        raise AssertionError("a conic's points were listed before the refusal")

    monkeypatch.setattr(ma, "conic_points", no_points)
    gf11 = make_field(11)
    arc32 = denniston_arc(gf11, 1, sorted(gf11.additive_span((1, 2, 4, 8, 16)) - {0}))
    with pytest.raises(ValueError, match=f"stops at {ma.MAX_SCAN_STEPS} steps.* 63520 \\* 2049$"):
        arc_points(arc32)
    gf13 = make_field(13)
    alpha = next(a for a in gf13.nonzero_elements() if gf13.trace(a) == 1)
    with pytest.raises(ValueError, match=" 8194 \\* 8193$"):
        arc_points(denniston_arc(gf13, alpha, (1,)))
    # an arc that fits reaches conic_points
    with pytest.raises(AssertionError, match="listed before"):
        arc_points(denniston_arc(gf11, 1, (1, 2, 3)))


def test_line_scan_refuses_too_many_steps_before_scanning(monkeypatch):
    # the arcs the doubling needs fit: degree 16 at h = 11, degree 4 at h = 12
    assert (2048 * 15 + 16) * 2049 <= ma.MAX_SCAN_STEPS
    assert (4096 * 3 + 4) * 4097 <= ma.MAX_SCAN_STEPS
    gf = make_field(11)
    A = sorted(gf.additive_span((1, 2, 4, 8, 16)) - {0})
    pts = {NUCLEUS}.union(*map(conic_points, denniston_arc(gf, 1, A).conics))
    assert len(pts) == 2048 * 31 + 32

    def no_scan(self, b):
        raise AssertionError("the scan started before the refusal")

    monkeypatch.setattr(type(gf), "scaled_powers", no_scan)
    with pytest.raises(ValueError, match=f"stops at {ma.MAX_SCAN_STEPS} steps.* 63520 \\* 2049"):
        verify_maximal_arc(gf, pts, 32)
    # a degree whose arc fits still has the points it was given re-checked
    with pytest.raises(ValueError, match=f"stops at {ma.MAX_SCAN_STEPS} steps.* 63520 \\* 2049"):
        verify_maximal_arc(gf, pts, 2)


def test_arc_from_json_rejects_wrong_degree_and_bad_shapes():
    gf = make_field(3)
    good = arc_to_json(denniston_arc(gf, 1, (1, 2, 3)))
    for degree in (5, 4.0, "4", [4]):
        with pytest.raises(ValueError, match="declared degree"):
            arc_from_json(dict(good, degree=degree))
    with pytest.raises(ValueError, match="'field' and 'conics'"):
        arc_from_json({"conics": []})
    bad_conic = dict(good, conics=[{"alpha": 1, "beta": 1}])
    with pytest.raises(ValueError, match="alpha, beta and lambda"):
        arc_from_json(bad_conic)
    with pytest.raises(ValueError, match="list of conics"):
        arc_from_json(dict(good, conics=5))
    with pytest.raises(ValueError, match="not an element"):
        arc_from_json(dict(good, conics=[{"alpha": True, "beta": 1, "lambda": 1}]))
