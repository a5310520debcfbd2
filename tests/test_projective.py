"""Projective-space primitives against counting formulas and brute incidence."""

import itertools
import random

import pytest

from arcflock import projective as pg
from arcflock.finite_field import make_field


@pytest.mark.parametrize("h", (1, 2, 3, 4, 5))
def test_plane_point_and_line_counts(h):
    gf = make_field(h)
    n = gf.q * gf.q + gf.q + 1  # [TRIVIAL: |PG(2,q)| formula]
    pts = pg.enumerate_points2(gf)
    lns = pg.enumerate_lines2(gf)
    assert len(pts) == len(set(pts)) == n
    assert len(lns) == len(set(lns)) == n
    assert all(p == pg.normalize(gf, p) for p in pts)


@pytest.mark.parametrize("h", (1, 2, 3))
def test_space_point_and_plane_counts(h):
    gf = make_field(h)
    n = gf.q**3 + gf.q**2 + gf.q + 1
    assert len(pg.enumerate_points3(gf)) == n
    assert len(pg.enumerate_planes3(gf)) == n


def test_points_enumerate_in_ascending_order():
    gf = make_field(3)
    pts = pg.enumerate_points2(gf)
    assert list(pts) == sorted(pts)


@pytest.mark.parametrize("h", (2, 3, 5))
def test_normalize_scale_invariance(h):
    gf = make_field(h)
    rng = random.Random(4000 + h)
    for _ in range(200):
        coords = tuple(rng.randrange(gf.q) for _ in range(3))
        if all(c == 0 for c in coords):
            continue
        base = pg.normalize(gf, coords)
        assert next(c for c in base if c) == 1
        for s in gf.nonzero_elements():
            scaled = tuple(gf.mul(s, c) for c in coords)
            assert pg.normalize(gf, scaled) == base


def test_normalize_rejects_zero_vector():
    gf = make_field(3)
    with pytest.raises(ValueError):
        pg.normalize(gf, (0, 0, 0))


@pytest.mark.parametrize("h", (2, 3))
def test_incidence_duality_and_line_points(h):
    gf = make_field(h)
    for line in pg.enumerate_lines2(gf):
        on_line = pg.line_points2(gf, line)
        brute = {p for p in pg.enumerate_points2(gf) if pg.incident(gf, p, line)}
        assert set(on_line) == brute
        assert len(on_line) == gf.q + 1
    for point in pg.enumerate_points2(gf):
        through = pg.lines_through2(gf, point)
        assert len(through) == gf.q + 1
        assert all(pg.incident(gf, point, l) for l in through)


@pytest.mark.parametrize("h", (1, 2, 3, 4))
def test_pencils_match_brute_incidence_in_ascending_order(h):
    # [DERIVED: brute-force incidence over the ascending enumeration]
    gf = make_field(h)
    triples = pg.enumerate_points2(gf)
    for t in triples:
        brute = tuple(u for u in triples if pg.incident(gf, t, u))
        assert pg.lines_through2(gf, t) == brute
        assert pg.line_points2(gf, t) == brute
        assert list(brute) == sorted(brute)


def test_pencil_of_the_zero_vector_is_rejected():
    gf = make_field(3)
    with pytest.raises(ValueError, match="zero vector"):
        pg.lines_through2(gf, (0, 0, 0))


@pytest.mark.parametrize("h", (2, 3, 4))
def test_join_and_meet(h):
    gf = make_field(h)
    rng = random.Random(5000 + h)
    pts = pg.enumerate_points2(gf)
    for _ in range(150):
        p1, p2 = rng.sample(pts, 2)
        line = pg.join_points2(gf, p1, p2)
        assert pg.incident(gf, p1, line) and pg.incident(gf, p2, line)
        l1, l2 = rng.sample(pg.enumerate_lines2(gf), 2)
        pt = pg.meet_lines2(gf, l1, l2)
        assert pg.incident(gf, pt, l1) and pg.incident(gf, pt, l2)


def test_two_points_determine_a_unique_line():
    gf = make_field(2)
    for p1, p2 in itertools.combinations(pg.enumerate_points2(gf), 2):
        line = pg.join_points2(gf, p1, p2)
        others = [
            l
            for l in pg.enumerate_lines2(gf)
            if pg.incident(gf, p1, l) and pg.incident(gf, p2, l)
        ]
        assert others == [line]


@pytest.mark.parametrize("h", (2, 3))
def test_plane_through_three_points(h):
    gf = make_field(h)
    rng = random.Random(6000 + h)
    pts3 = pg.enumerate_points3(gf)
    built = 0
    while built < 50:
        p1, p2, p3 = rng.sample(pts3, 3)
        try:
            plane = pg.plane_through(gf, p1, p2, p3)
        except ValueError:
            continue  # collinear draw
        built += 1
        for p in (p1, p2, p3):
            assert pg.incident(gf, p, plane)


def test_plane_through_rejects_collinear_points():
    gf = make_field(3)
    p1 = (1, 0, 0, 0)
    p2 = (0, 1, 0, 0)
    p3 = pg.normalize(gf, (1, 1, 0, 0))  # on the line spanned by p1, p2
    with pytest.raises(ValueError):
        pg.plane_through(gf, p1, p2, p3)
    with pytest.raises(ValueError):
        pg.plane_through(gf, p1, p1, p2)


@pytest.mark.parametrize("h", (2, 3))
def test_meet_planes_spans_the_intersection(h):
    gf = make_field(h)
    rng = random.Random(7000 + h)
    planes = pg.enumerate_planes3(gf)
    for _ in range(60):
        a, b = rng.sample(planes, 2)
        s1, s2 = pg.meet_planes(gf, a, b)
        for s in (s1, s2):
            assert pg.incident(gf, s, a) and pg.incident(gf, s, b)
        # the two spanning points generate exactly the q+1 common points
        brute = {
            p
            for p in pg.enumerate_points3(gf)
            if pg.incident(gf, p, a) and pg.incident(gf, p, b)
        }
        span = {s1, s2}
        for c in gf.nonzero_elements():
            span.add(
                pg.normalize(gf, tuple(x ^ gf.mul(c, y) for x, y in zip(s1, s2)))
            )
        assert span == brute and len(span) == gf.q + 1


def test_meet_planes_rejects_equal_planes():
    gf = make_field(3)
    with pytest.raises(ValueError):
        pg.meet_planes(gf, (1, 0, 0, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError):
        # a scalar multiple is the same plane
        pg.meet_planes(gf, (0, 1, 1, 0), tuple(gf.mul(3, c) for c in (0, 1, 1, 0)))


def test_meet_planes_frozen_axis_example():
    # the planes X1 = 0 and X3 = 0 meet in the line {(s, 0, t, 0)}
    gf = make_field(3)
    s1, s2 = pg.meet_planes(gf, (0, 1, 0, 0), (0, 0, 0, 1))
    assert {s1, s2} == {(1, 0, 0, 0), (0, 0, 1, 0)}


def test_check_space_coords():
    gf = make_field(3)
    assert pg.check_space_coords(gf, [1, 0, 7, 0]) == (1, 0, 7, 0)
    for bad in (
        [1, 0, 8, 0],
        [1, 0, -1, 0],
        [1, "a", 0, 0],
        [1, True, 0, 0],
        [1, 0.0, 0, 0],
    ):
        with pytest.raises(ValueError, match="not an element"):
            pg.check_space_coords(gf, bad)
    for bad in ([1, 0, 0], (1, 0, 0, 0, 0), 5, "1,0,1,0"):
        with pytest.raises(ValueError, match="four coordinates"):
            pg.check_space_coords(gf, bad)


@pytest.mark.parametrize("h", (2, 3))
def test_nullspace_matches_brute_scan(h):
    gf = make_field(h)
    rng = random.Random(8000 + h)
    for _ in range(40):
        rows = [
            tuple(rng.randrange(gf.q) for _ in range(4))
            for _ in range(rng.randint(1, 3))
        ]
        if any(all(c == 0 for c in r) for r in rows):
            continue
        basis = pg.nullspace(gf, rows, 4)
        brute = {
            p
            for p in pg.enumerate_points3(gf)
            if all(pg.incident(gf, p, r) for r in rows)
        }
        # span the returned basis projectively and compare point sets
        span = set()
        k = len(basis)
        for coeffs in itertools.product(gf.elements(), repeat=k):
            if all(c == 0 for c in coeffs):
                continue
            vec = [0, 0, 0, 0]
            for c, b in zip(coeffs, basis):
                for i in range(4):
                    vec[i] ^= gf.mul(c, b[i])
            span.add(pg.normalize(gf, tuple(vec)))
        assert span == brute
