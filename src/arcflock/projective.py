"""Projective geometry over GF(2^h): PG(2,q) and PG(3,q).

Points, lines and planes are tuples of field elements in homogeneous
coordinates, normalized so the first nonzero coordinate equals 1.  That
canonical form makes equality, hashing and set membership exact.  All
enumerations are deterministic: ascending lexicographic order on the
normalized coordinate tuples.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .finite_field import GF

Coords = tuple[int, ...]


def normalize(gf: GF, coords: Sequence[int]) -> Coords:
    """Canonical representative of a projective point (or hyperplane)."""
    for i, c in enumerate(coords):
        if c:
            if c == 1:
                return tuple(coords)
            s = gf.inv(c)
            return tuple(coords[:i]) + (1,) + tuple(gf.mul(s, x) for x in coords[i + 1 :])
    raise ValueError("the zero vector is not a projective point")


def check_space_coords(gf: GF, coords: object) -> Coords:
    """Validate outside input as the four coordinates of a PG(3,q) point or plane."""
    if not isinstance(coords, (list, tuple)) or len(coords) != 4:
        raise ValueError(
            f"a PG(3,q) point or plane needs exactly four coordinates, got {coords!r}"
        )
    for c in coords:
        if not gf.is_element(c):
            raise ValueError(f"coordinate {c!r} is not an element of GF({gf.q})")
    return tuple(coords)


def incident(gf: GF, point: Coords, hyper: Coords) -> bool:
    """Whether a point lies on a line (PG(2,q)) or plane (PG(3,q))."""
    acc = 0
    for x, y in zip(point, hyper):
        acc ^= gf.mul(x, y)
    return acc == 0


def _projective_points(gf: GF, n: int) -> tuple[Coords, ...]:
    pts: list[Coords] = []
    for lead in range(n - 1, -1, -1):
        head = (0,) * lead + (1,)
        for rest in itertools.product(range(gf.q), repeat=n - 1 - lead):
            pts.append(head + rest)
    return tuple(pts)


def enumerate_points2(gf: GF) -> tuple[Coords, ...]:
    """All q^2 + q + 1 points of PG(2,q), canonical order."""
    return _projective_points(gf, 3)


def enumerate_lines2(gf: GF) -> tuple[Coords, ...]:
    """All q^2 + q + 1 lines of PG(2,q) in dual coordinates, canonical order."""
    return _projective_points(gf, 3)


def enumerate_points3(gf: GF) -> tuple[Coords, ...]:
    """All q^3 + q^2 + q + 1 points of PG(3,q), canonical order."""
    return _projective_points(gf, 4)


def enumerate_planes3(gf: GF) -> tuple[Coords, ...]:
    """All q^3 + q^2 + q + 1 planes of PG(3,q) in dual coordinates."""
    return _projective_points(gf, 4)


def nullspace(gf: GF, rows: Sequence[Sequence[int]], n: int) -> list[Coords]:
    """Canonical basis of the right nullspace of a small matrix over GF(q)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        s = gf.inv(mat[r][col])
        mat[r] = [gf.mul(s, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x ^ gf.mul(f, y) for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = mat[ri][fc]  # characteristic 2: negation is identity
        basis.append(tuple(v))
    return basis


def _orthogonal2(gf: GF, triple: Coords) -> tuple[Coords, ...]:
    """The q + 1 normalized triples [a, b, c] with a x + b y + c z = 0, ascending.

    With z != 0 they are [0, 1, y/z] and [1, b, (x + b y)/z] for every b;
    with z = 0 they are [0, 0, 1] plus [1, x/y, c] (y != 0) or [0, 1, c]
    (y = 0) for every c.
    """
    x, y, z = triple
    if z:
        iz = gf.inv(z)
        cx, cy = gf.mul(x, iz), gf.mul(y, iz)
        mul = gf.mul
        return ((0, 1, cy),) + tuple((1, b, cx ^ mul(b, cy)) for b in range(gf.q))
    if y:
        head = (1, gf.div(x, y))
    elif x:
        head = (0, 1)
    else:
        raise ValueError("the zero vector is not a projective point")
    return ((0, 0, 1),) + tuple(head + (c,) for c in range(gf.q))


def line_points2(gf: GF, line: Coords) -> tuple[Coords, ...]:
    """The q + 1 points on a line of PG(2,q), ascending."""
    return _orthogonal2(gf, line)


def lines_through2(gf: GF, point: Coords) -> tuple[Coords, ...]:
    """The q + 1 lines through a point of PG(2,q), ascending."""
    return _orthogonal2(gf, point)


def join_points2(gf: GF, p1: Coords, p2: Coords) -> Coords:
    """The line of PG(2,q) through two distinct points."""
    basis = nullspace(gf, [p1, p2], 3)
    if len(basis) != 1:
        raise ValueError("join requires two distinct points")
    return normalize(gf, basis[0])


def meet_lines2(gf: GF, l1: Coords, l2: Coords) -> Coords:
    """The intersection point of two distinct lines of PG(2,q)."""
    basis = nullspace(gf, [l1, l2], 3)
    if len(basis) != 1:
        raise ValueError("meet requires two distinct lines")
    return normalize(gf, basis[0])


def plane_through(gf: GF, p1: Coords, p2: Coords, p3: Coords) -> Coords:
    """The plane of PG(3,q) spanned by three non-collinear points."""
    basis = nullspace(gf, [p1, p2, p3], 4)
    if len(basis) != 1:
        raise ValueError("the three points are collinear or not distinct")
    return normalize(gf, basis[0])


def meet_planes(gf: GF, a: Coords, b: Coords) -> tuple[Coords, Coords]:
    """Two distinct points spanning the line where two distinct planes meet."""
    if normalize(gf, a) == normalize(gf, b):
        raise ValueError("the planes coincide")
    b1, b2 = nullspace(gf, [a, b], 4)
    return normalize(gf, b1), normalize(gf, b2)
