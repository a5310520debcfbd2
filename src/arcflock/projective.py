"""Projective geometry over GF(2^h): PG(2,q) and PG(3,q).

Points, lines and planes are tuples of field elements in homogeneous
coordinates, normalized so the first nonzero coordinate equals 1.  That
canonical form makes equality, hashing and set membership exact.  Joins,
meets and common lines all come from one GF(q) nullspace, and the pencil of
a point of PG(2,q) is written down in closed form, in ascending order.
"""

from __future__ import annotations

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


def lines_through2(gf: GF, point: Coords) -> tuple[Coords, ...]:
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
        mul = gf.mul
        return ((0, 1, cy),) + tuple((1, b, cx ^ mul(b, cy)) for b in range(gf.q))
    if y:
        head = (1, gf.div(x, y))
    elif x:
        head = (0, 1)
    else:
        raise ValueError("the zero vector is not a projective point")
    return ((0, 0, 1),) + tuple(head + (c,) for c in range(gf.q))
