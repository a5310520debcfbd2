"""Projective geometry over GF(2^h): PG(2,q) and PG(3,q).

Points, lines and planes are tuples of field elements in homogeneous
coordinates, normalized so the first nonzero coordinate equals 1.  That
canonical form makes equality, hashing and set membership exact.  Joins,
meets and common lines all come from one GF(q) nullspace.
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
    """The one check of outside PG(3,q) coordinates: four field elements, not all 0, normalized."""
    if not isinstance(coords, (list, tuple)) or len(coords) != 4:
        raise ValueError(
            f"a PG(3,q) point or plane needs exactly four coordinates, got {coords!r}"
        )
    for c in coords:
        if not gf.is_element(c):
            raise ValueError(f"coordinate {c!r} is not an element of GF({gf.q})")
    return normalize(gf, coords)


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
