"""Projective-space primitives against counting formulas and brute incidence."""

import itertools
import random

import oracles
import pytest

from arcflock import projective as pg
from arcflock.finite_field import make_field


@pytest.mark.parametrize("h", (1, 2, 3, 4, 5))
def test_plane_point_and_line_counts(h):
    gf = make_field(h)
    n = gf.q * gf.q + gf.q + 1  # [TRIVIAL: |PG(2,q)| formula]
    pts = oracles.points(gf, 3)  # also the lines, in dual coordinates
    assert len(pts) == len(set(pts)) == n
    assert all(p == pg.normalize(gf, p) for p in pts)


@pytest.mark.parametrize("h", (1, 2, 3))
def test_space_point_and_plane_counts(h):
    gf = make_field(h)
    n = gf.q**3 + gf.q**2 + gf.q + 1
    pts = oracles.points(gf, 4)  # also the planes, in dual coordinates
    assert len(pts) == len(set(pts)) == n
    assert all(p == pg.normalize(gf, p) for p in pts)


def test_points_enumerate_in_ascending_order():
    gf = make_field(3)
    for n in (3, 4):
        pts = oracles.points(gf, n)
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
    # by duality the pencil of a line's coordinates lists the points on it
    gf = make_field(h)
    for line in oracles.points(gf, 3):
        on_line = oracles.lines_through2(gf, line)
        brute = {p for p in oracles.points(gf, 3) if oracles.incident(gf, p, line)}
        assert set(on_line) == brute
        assert len(on_line) == gf.q + 1
    for point in oracles.points(gf, 3):
        through = oracles.lines_through2(gf, point)
        assert len(through) == gf.q + 1
        assert all(oracles.incident(gf, point, l) for l in through)


@pytest.mark.parametrize("h", (1, 2, 3, 4))
def test_pencils_match_brute_incidence_in_ascending_order(h):
    # [DERIVED: brute-force incidence over the ascending enumeration]
    gf = make_field(h)
    triples = oracles.points(gf, 3)
    for t in triples:
        brute = tuple(u for u in triples if oracles.incident(gf, t, u))
        assert oracles.lines_through2(gf, t) == brute
        assert list(brute) == sorted(brute)


def test_pencil_of_the_zero_vector_is_rejected():
    gf = make_field(3)
    with pytest.raises(ValueError, match="zero vector"):
        oracles.lines_through2(gf, (0, 0, 0))


@pytest.mark.parametrize("h", (2, 3, 4))
def test_join_and_meet(h):
    gf = make_field(h)
    rng = random.Random(5000 + h)
    pts = oracles.points(gf, 3)
    for _ in range(150):
        p1, p2 = rng.sample(pts, 2)
        (line,) = oracles.perp(gf, [p1, p2], 3)
        assert oracles.incident(gf, p1, line) and oracles.incident(gf, p2, line)
        l1, l2 = rng.sample(pts, 2)
        (pt,) = oracles.perp(gf, [l1, l2], 3)
        assert oracles.incident(gf, pt, l1) and oracles.incident(gf, pt, l2)


def test_two_points_determine_a_unique_line():
    gf = make_field(2)
    triples = oracles.points(gf, 3)
    for p1, p2 in itertools.combinations(triples, 2):
        others = tuple(
            l for l in triples if oracles.incident(gf, p1, l) and oracles.incident(gf, p2, l)
        )
        assert others == oracles.perp(gf, [p1, p2], 3)


@pytest.mark.parametrize("h", (2, 3))
def test_plane_through_three_points(h):
    gf = make_field(h)
    rng = random.Random(6000 + h)
    pts3 = oracles.points(gf, 4)
    built = 0
    while built < 50:
        p1, p2, p3 = rng.sample(pts3, 3)
        planes = oracles.perp(gf, [p1, p2, p3], 4)
        if len(planes) != 1:
            continue  # collinear draw
        built += 1
        for p in (p1, p2, p3):
            assert oracles.incident(gf, p, planes[0])


@pytest.mark.parametrize("h", (2, 3))
def test_meet_planes_spans_the_intersection(h):
    gf = make_field(h)
    rng = random.Random(7000 + h)
    planes = oracles.points(gf, 4)
    for _ in range(60):
        a, b = rng.sample(planes, 2)
        s1, s2 = oracles.perp(gf, [a, b], 4)
        for s in (s1, s2):
            assert oracles.incident(gf, s, a) and oracles.incident(gf, s, b)
        # the two spanning points generate exactly the q+1 common points
        brute = {p for p in planes if oracles.incident(gf, p, a) and oracles.incident(gf, p, b)}
        span = {s1, s2}
        for c in gf.nonzero_elements():
            span.add(
                pg.normalize(gf, tuple(x ^ gf.mul(c, y) for x, y in zip(s1, s2)))
            )
        assert span == brute and len(span) == gf.q + 1


def test_meet_planes_frozen_axis_example():
    # the planes X1 = 0 and X3 = 0 meet in the line {(s, 0, t, 0)}
    gf = make_field(3)
    assert oracles.perp(gf, [(0, 1, 0, 0), (0, 0, 0, 1)], 4) == ((1, 0, 0, 0), (0, 0, 1, 0))


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
        brute = {p for p in oracles.points(gf, 4) if all(oracles.incident(gf, p, r) for r in rows)}
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
