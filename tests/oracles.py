"""Naive definitions that the tests compare arcflock against; nothing in src/ imports them.

Each is the textbook form of something the package computes by a shortcut:
field arithmetic as polynomials over GF(2), every point of PG(2,q) and
PG(3,q), incidence as a dot product, joins and meets as a nullspace, the
pencil of a point and the line histogram of a point set line by line, conic
and cone points by scanning, the disjointness of two conics by their point
sets, the closure of a conic set by composing pairs until nothing new
appears, the additivity of a plane set by XOR of every pair, the pointwise
projection from the nuclear line, subgroups by growing every intermediate
level, and trace systems solved by evaluating every condition at every mu.
"""

import itertools
from collections import Counter
from typing import Iterable, Sequence

from arcflock import flocks as fl
from arcflock import mathon_arcs as ma
from arcflock import projective as pg
from arcflock import search as se
from arcflock.finite_field import GF
from arcflock.mathon_arcs import Conic

# -- GF(2^h) as polynomials over GF(2): no table lookups, no library calls ------------


def poly_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def poly_irreducible(m: int, h: int) -> bool:
    if m.bit_length() != h + 1:
        return False
    for d in range(1, h // 2 + 1):
        for p in range(1 << d, 1 << (d + 1)):
            if poly_mod(m, p) == 0:
                return False
    return True


def poly_trace(modulus: int, h: int, a: int) -> int:
    t = 0
    x = a
    for _ in range(h):
        t ^= x
        x = poly_mod(poly_mul(x, x), modulus)
    assert t in (0, 1)
    return t


# -- projective geometry -------------------------------------------------------------


def points(gf: GF, n: int) -> tuple[pg.Coords, ...]:
    """Every normalized n-tuple: the points of PG(n-1,q), ascending.

    Lines of PG(2,q) and planes of PG(3,q) have the same coordinate lists in
    dual coordinates.
    """
    pts: list[pg.Coords] = []
    for lead in range(n - 1, -1, -1):
        head = (0,) * lead + (1,)
        for rest in itertools.product(range(gf.q), repeat=n - 1 - lead):
            pts.append(head + rest)
    return tuple(pts)


def incident(gf: GF, point: pg.Coords, hyper: pg.Coords) -> bool:
    """Whether a point lies on a line (PG(2,q)) or plane (PG(3,q))."""
    acc = 0
    for x, y in zip(point, hyper):
        acc ^= gf.mul(x, y)
    return acc == 0


def perp(gf: GF, rows: Sequence[pg.Coords], n: int) -> tuple[pg.Coords, ...]:
    """The normalized nullspace basis of the rows.

    One vector for the line through two points or the point on two lines of
    PG(2,q), and for the plane through three non-collinear points of PG(3,q);
    two points spanning the line where two distinct planes meet.
    """
    return tuple(pg.normalize(gf, v) for v in pg.nullspace(gf, rows, n))


def lines_through2(gf: GF, point: pg.Coords) -> tuple[pg.Coords, ...]:
    """The q + 1 lines [a, b, c] through a point (x, y, z) of PG(2,q), ascending.

    They are the normalized triples with a x + b y + c z = 0.  With z != 0
    they are [0, 1, y/z] and [1, b, (x + b y)/z] for every b; with z = 0
    they are [0, 0, 1] plus [1, x/y, c] (y != 0) or [0, 1, c] (y = 0) for
    every c.  By duality the same list is the q + 1 points on the line
    [x, y, z].
    """
    x, y, z = point
    if z:
        iz = gf.inv(z)
        cx, cy = gf.mul(x, iz), gf.mul(y, iz)
        return ((0, 1, cy),) + tuple((1, b, cx ^ gf.mul(b, cy)) for b in range(gf.q))
    if y:
        head = (1, gf.div(x, y))
    elif x:
        head = (0, 1)
    else:
        raise ValueError("the zero vector is not a projective point")
    return ((0, 0, 1),) + tuple(head + (c,) for c in range(gf.q))


def line_histogram(gf: GF, pts: Iterable[pg.Coords]) -> dict[int, int]:
    """How many lines of PG(2,q) meet the set in k points, from a count per line met."""
    per_line: Counter = Counter()
    for pt in set(pts):
        per_line.update(lines_through2(gf, pt))
    hist = Counter(per_line.values())
    zero_lines = gf.q * gf.q + gf.q + 1 - len(per_line)
    if zero_lines:
        hist[0] = zero_lines
    return dict(sorted(hist.items()))


def all_conics(gf: GF) -> list[Conic]:
    """Every conic F_{a,b,l}: trace(a b) = 1 and l != 0, in (a, b, l) order."""
    return [
        Conic(gf, a, b, l)
        for a in gf.elements()
        for b in gf.elements()
        for l in gf.nonzero_elements()
        if gf.trace(gf.mul(a, b)) == 1
    ]


def quadric_scan(gf: GF, a: int, b: int, l: int) -> set[pg.Coords]:
    """The zero set of a x^2 + x y + b y^2 + l z^2, by scanning all of PG(2,q)."""
    return {
        p
        for p in points(gf, 3)
        if gf.mul(a, gf.square(p[0]))
        ^ gf.mul(p[0], p[1])
        ^ gf.mul(b, gf.square(p[1]))
        ^ gf.mul(l, gf.square(p[2]))
        == 0
    }


def conics_disjoint(c1: Conic, c2: Conic) -> bool:
    """Point-set disjointness; this oracle, not the trace test, is authoritative."""
    if c1 == c2:
        raise ValueError("disjointness is a question about distinct conics")
    return ma.conic_points(c1).isdisjoint(ma.conic_points(c2))


def close_by_composition(seed: Iterable[Conic]) -> ma.MathonArc:
    """Close a seed set by definition: compose every pair until nothing new appears.

    Raises ClosureError when two conics share a lam or a composition is
    degenerate, and DisjointnessError when two closed conics share a point.
    """
    seed = list(seed)
    if not seed or any(c.gf != seed[0].gf for c in seed):
        raise ValueError("seed must be nonempty conics of one field")
    by_lam: dict[int, Conic] = {}
    for c in seed:
        old = by_lam.setdefault(c.lam, c)
        if old != c:
            raise ma.ClosureError(f"lam collision between {old} and {c}")
    changed = True
    while changed:
        changed = False
        cs = sorted(by_lam.values(), key=lambda c: c.lam)
        for c1, c2 in itertools.combinations(cs, 2):
            try:
                new = ma.compose(c1, c2)
            except ValueError as exc:
                raise ma.ClosureError(f"{c1} and {c2} compose to no conic: {exc}") from exc
            old = by_lam.get(new.lam)
            if old is None:
                by_lam[new.lam] = new
                changed = True
            elif old != new:
                raise ma.ClosureError(f"{c1} and {c2} compose to {new}, not {old}")
    closed = sorted(by_lam.values(), key=lambda c: c.lam)
    for c1, c2 in itertools.combinations(closed, 2):
        if not conics_disjoint(c1, c2):
            raise ma.DisjointnessError(f"{c1} and {c2} share a point")
    return ma.MathonArc(seed[0].gf, tuple(closed))


# -- the cone, the nuclear line and the projection -----------------------------------


def is_on_cone(gf: GF, point: pg.Coords) -> bool:
    """Whether a PG(3,q) point satisfies X1 X3 = X2^2."""
    return gf.mul(point[1], point[3]) == gf.square(point[2])


def brute_cone(gf: GF) -> frozenset[pg.Coords]:
    """The cone by filtering every point of PG(3,q)."""
    return frozenset(p for p in points(gf, 4) if is_on_cone(gf, p))


def cone_points(gf: GF) -> frozenset[pg.Coords]:
    """All q^2 + q + 1 points of the cone, vertex included, generator by generator."""
    pts = {fl.VERTEX}
    generators = [(1, u, gf.square(u)) for u in range(gf.q)] + [(0, 0, 1)]
    for gen in generators:
        pts.update(pg.normalize(gf, (x0,) + gen) for x0 in range(gf.q))
    return frozenset(pts)


def nuclear_line_points(gf: GF) -> tuple[pg.Coords, ...]:
    """The q + 1 points of the nuclear line N = {(t,0,1,0)} plus the vertex."""
    pts = {fl.VERTEX, fl.BASE_NUCLEUS}
    for t in gf.nonzero_elements():
        pts.add(pg.normalize(gf, (t, 0, 1, 0)))
    return tuple(sorted(pts))


def nuclear_intersection(gf: GF, plane: pg.Coords) -> pg.Coords:
    """The unique point where a plane not containing N meets the nuclear line."""
    u0, u2 = plane[0], plane[2]
    if u0 == 0 and u2 == 0:
        raise ValueError("the plane contains the whole nuclear line")
    if u0 == 0:
        return fl.VERTEX
    # (t,0,1,0) with t*u0 + u2 = 0
    return pg.normalize(gf, (gf.div(u2, u0), 0, 1, 0))


def additive_by_pairs(F: fl.PartialFlock) -> bool:
    """Whether the (t, f, g) triples of the planes form a group with distinct t, pair by pair."""
    triples = fl.base_representation(F)
    triple_set = set(triples)
    return (
        len({t for t, _, _ in triples}) == len(triples)
        and (0, 0, 0) in triple_set
        and all(
            (a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2]) in triple_set
            for a, b in itertools.combinations(triple_set, 2)
        )
    )


def make_flock(gf: GF, planes: Iterable[pg.Coords]) -> fl.PartialFlock:
    """Normalize, deduplicate and sort raw plane tuples into a PartialFlock."""
    return fl.PartialFlock(gf, tuple(sorted({pg.normalize(gf, p) for p in planes})))


def embed_point(point: pg.Coords) -> pg.Coords:
    """PG(2,q) -> plane X0 = 0: (x, y, z) -> (0, x, z, y)."""
    x, y, z = point
    return (0, x, z, y)


def unembed_point(point: pg.Coords) -> pg.Coords:
    """Plane X0 = 0 -> PG(2,q): (0, a, b, c) -> (a, c, b)."""
    if point[0] != 0:
        raise ValueError(f"point {point} is not on the plane X0 = 0")
    return (point[1], point[3], point[2])


def project_point(gf: GF, p: pg.Coords, e: pg.Coords) -> pg.Coords:
    """Project a PG(3,q) point from p = (1,0,y,0) into PG(2,q) coordinates.

    The image is the intersection of the line through p and e with the
    plane X0 = 0, read back through the embedding.  Restricted to the cone
    this map is a bijection onto the full plane, sending the vertex to the
    common nucleus (0,0,1).
    """
    y = fl._projection_parameter(gf, p)
    img = (e[1], e[3], e[2] ^ gf.mul(y, e[0]))
    return pg.normalize(gf, img)


def unproject_point(gf: GF, p: pg.Coords, point: pg.Coords) -> pg.Coords:
    """The unique cone point that projects from p onto a given PG(2,q) point."""
    y = fl._projection_parameter(gf, p)
    x, yy, z = pg.normalize(gf, point)
    s2 = gf.mul(x, yy) ^ gf.square(z)
    if s2 == 0:
        # already on the cone after embedding
        return pg.normalize(gf, embed_point((x, yy, z)))
    mu = gf.div(y, gf.sqrt(s2))
    e = (1, gf.mul(mu, x), y ^ gf.mul(mu, z), gf.mul(mu, yy))
    return pg.normalize(gf, e)


def iota_nuclear_point(gf: GF, point: pg.Coords) -> pg.Coords:
    """Inversion (1,0,y,0) -> (1,0,1/y,0) on the nuclear line minus {x, n}."""
    y = fl._projection_parameter(gf, point)
    return (1, 0, gf.inv(y), 0)


def standard_plane_conic(gf: GF, abc: tuple[int, int, int]) -> Conic:
    """The conic that a standard-form plane's section projects onto (default p)."""
    a, b, c = abc
    return Conic(gf, gf.square(b), gf.square(c), gf.square(a))


# -- trace-condition systems ---------------------------------------------------------


def subgroups_by_growth(gf: GF, order: int) -> tuple[tuple[int, ...], ...]:
    """The additive subgroups containing 1 of one order, grown level by level from {0, 1}.

    Every subgroup of each smaller order is built, once per element outside it.
    """
    level: set[frozenset[int]] = {frozenset({0, 1})}
    while len(next(iter(level))) < order:
        level = {
            frozenset(S | {s ^ e for e in S}) for S in level for s in gf.elements() if s not in S
        }
    return tuple(sorted(tuple(sorted(S)) for S in level))


def condition_value_squared(gf: GF, c: int, rho: int) -> int:
    """trace(1 + (c/rho)^2); equals 1 iff trace(c/rho) = 1 + trace(1)."""
    return gf.trace(1 ^ gf.square(gf.div(c, rho)))


def mu_solutions_scan(system: se.TraceConditionSystem) -> frozenset[int]:
    """All mu in GF(q), zero included, satisfying every condition — by full scan."""
    gf = system.gf
    eps = system.epsilon
    return frozenset(
        mu
        for mu in gf.elements()
        if all(gf.trace(gf.mul(c, mu)) == eps for c in system.conditions)
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
    kernel = mu_solutions_scan(se.TraceConditionSystem(gf, system.group, 0, system.conditions))
    rank = gf.h - (len(kernel).bit_length() - 1)
    nonzero = [mu for mu in mu_solutions_scan(system) if mu]
    prefilter = frozenset(gf.inv(mu) for mu in nonzero)
    valid = frozenset(
        gf.inv(mu) for mu in nonzero if gf.trace(gf.mul(top, mu) ^ 1) == 1
    )
    return rank, prefilter, valid
