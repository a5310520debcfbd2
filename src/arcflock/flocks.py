"""Partial flocks of the quadratic cone in PG(3,q) and their links to arcs.

The cone K is the quadric X1 X3 = X2^2 with vertex (1,0,0,0).  A partial
flock is a set of planes, none through the vertex, whose cone sections are
pairwise disjoint conics.  Planes are normalized 4-tuples, checked once per
public call by projective.check_space_coords and, for a section, one vertex
refusal.  A vertex-avoiding plane normalizes to [1, f, t, g], and two such
planes have disjoint sections exactly when their X2-coordinates differ and
trace((f+f')(g+g')/(t+t')^2) = 1.  That trace test is exact for cone
sections; a section-intersection oracle that shares nothing with it runs
alongside it in every verification report.  The oracle reads each section
off the cone's parametrisation: every cone point other than the vertex is
(x0, s^2, s u, u^2) for (s:u) in PG(1,q) and x0 in GF(q), so the plane
[1, f, t, g] meets each of the q + 1 generators in one point, at
x0 = f + t u + g u^2 on (1, u, u^2) and at x0 = g on (0, 0, 1).  A section
is that column of q + 1 values, one x0 per generator, listed in O(q) from
rotated exp tables with no multiplication and no scan of PG(3,q); two
sections share a point exactly where their columns agree, so the oracle
compares d sections generator by generator in O(d q).

A Mathon arc with conics F_{alpha,beta,lam} corresponds to the additive
partial flock with planes [1, alpha*lam, lam, beta*lam] plus the plane
X0 = 0: the closed conic set and the flock are one GF(2)-space of triples
(t, f, g) = (lam, alpha*lam, beta*lam) (Hamilton-Thas).  That space,
mathon_arcs.triple_span of the planes, is the only bridge between flocks
and arcs: classify_flock decides additivity by it, flock_to_arc reads one
conic off each nonzero t, and extend_flock, the one doubling, doubles it by
XOR: synthetic_extension and denniston_closure double an arc through it, by
the new conic's plane.  The trace test of two planes u, w is that of u + w
against X0 = 0, so an additive plane set is a partial flock exactly when
every other plane's section misses that of X0 = 0: the flock analogue of
Mathon's theorem, by which extend_flock tests V and the planes of F against
X0 = 0 alone.

Independently, the arc's plane PG(2,q) embeds into X0 = 0 via
(x,y,z) -> (0,x,z,y), and projecting the cone from a point p = (1,0,y,0)
of the nuclear line N = {(t,0,1,0)} u {vertex} is a bijection onto that
embedded plane.  Each arc conic is then the shadow of one plane section:
from p = (1,0,y,0) the section plane of F_{alpha,beta,lam} is
[y sqrt(lam), sqrt(alpha), sqrt(lam)+1, sqrt(beta)].  For the default
p = (1,0,1,0) those planes plus the singular plane X0 + X2 = 0 form the raw
projection flock.  The package computes only these planes; the pointwise
projection is the tests' oracle for them.  A coefficient chain (delta, then
phi built from inversion on N, then the squaring map kappa) rewrites the raw
planes into the additive ones, plane for plane.

Planes avoiding p carry a standard form a X0 + b X1 + (a+1) X2 + c X3 = 0.
Composing two standard planes by the weighted average mirroring Mathon's
conic composition yields a third plane of their pencil; the coefficientwise
sum of the two standard equations is the pencil's unique plane through p,
and its trace in X0 = 0 is the common external line -- the Denniston
line -- of the two projected conics' degree-4 closure.  Carried through the
coefficient chain, this geometric composition is the XOR of the additive
planes.
"""

from __future__ import annotations

import itertools
import json
from array import array
from collections import Counter, defaultdict
from operator import xor
from typing import Optional

from . import projective as pg
from .finite_field import GF, _FrozenValue, _Value, check_kind
from .mathon_arcs import MAX_SCAN_STEPS, ClosureError, Conic, DisjointnessError, MathonArc
from .mathon_arcs import _span_arc, triple_span

#: vertex of the cone X1 X3 = X2^2
VERTEX: pg.Coords = (1, 0, 0, 0)

#: nucleus of the base conic cut by the plane X0 = 0
BASE_NUCLEUS: pg.Coords = (0, 0, 1, 0)

#: default projection point on the nuclear line
DEFAULT_PROJECTION_POINT: pg.Coords = (1, 0, 1, 0)

#: the plane X0 = 0 holding the embedded copy of PG(2,q)
EMBEDDING_PLANE: pg.Coords = (1, 0, 0, 0)

#: the plane X0 + X2 = 0, singular for the default projection point
SINGULAR_PLANE: pg.Coords = (1, 0, 1, 0)


# -- the cone and its plane sections -------------------------------------------


def _checked_plane(gf: GF, plane: object) -> pg.Coords:
    """A caller's plane checked and normalized, refused if it passes through the vertex."""
    u = pg.check_space_coords(gf, plane)
    if u[0] == 0:
        raise ValueError(f"plane {u} passes through the cone vertex {VERTEX}")
    return u


def _square_logs(gf: GF) -> list[int]:
    """log_index(u^2) for each u of gf.scaled_powers(1): the field's powers, then 0.

    Squaring doubles the log, so this index list reads g u^2 off the row
    scaled_powers(g) in the order in which scaled_powers(t) lists t u.
    """
    n = gf.q - 1
    return [2 * k % n for k in range(n)] + [n]


def _x0_column(gf: GF, square_logs: list[int], plane: pg.Coords) -> array:
    """Where a normalized plane [1, f, t, g] meets each of the q + 1 cone generators.

    Entry k < q is x0 = f + t u + g u^2 on the generator (1, u, u^2), u the
    k-th entry of gf.scaled_powers(1); entry q is x0 = g on (0, 0, 1).  The
    products t u and g u^2 are read off the rows scaled_powers(t) and
    scaled_powers(g), with square_logs from _square_logs, so no entry costs a
    multiplication.  The column is an array of machine words, not a list of
    int objects, which at h = 16 would take about four times the memory.
    """
    _, f, t, g = plane
    g_u2 = map(gf.scaled_powers(g).__getitem__, square_logs)
    column = array("L", map(f.__xor__, map(xor, gf.scaled_powers(t), g_u2)))
    column.append(g)
    return column


def plane_section(gf: GF, plane: pg.Coords) -> frozenset[pg.Coords]:
    """The q + 1 cone points on a plane [u0, u1, u2, u3] avoiding the vertex.

    Scaled once to u0 = 1, the plane meets the generator (X1, X2, X3) where
    x0 = u1 X1 + u2 X2 + u3 X3: one point per generator, read off
    _x0_column.  A point with x0 != 0 is scaled to x0 = 1 by subtracting
    log x0 from the logs of its coordinates.  Planes through the vertex
    (u0 = 0) are refused.
    """
    check_kind(gf, GF, "field")
    square_logs = _square_logs(gf)
    column = _x0_column(gf, square_logs, _checked_plane(gf, plane))
    n = gf.q - 1
    power = gf.scaled_powers(1)[:n]  # power[k] = u of generator k; a negative k wraps mod n
    logs = list(map(gf.log_index, column))
    points = {
        (1, power[-l], power[k - l], power[s - l]) if x0 else (0, 1, power[k], power[s])
        for k, x0, l, s in zip(range(n), column, logs, square_logs)
    }
    f, g = column[n], column[n + 1]  # on (1, 0, 0) and on (0, 0, 1)
    points.add((1, power[-logs[n]], 0, 0) if f else (0, 1, 0, 0))
    points.add((1, 0, 0, power[-logs[n + 1]]) if g else (0, 0, 0, 1))
    return frozenset(points)


def section_trace(gf: GF, u: pg.Coords, w: pg.Coords) -> Optional[int]:
    """trace((f+f')(g+g')/(t+t')^2) for planes [1,f,t,g]; None when t = t'.

    Both planes must avoid the vertex (nonzero X0 coefficient).  The value 1
    is equivalent to the two cone sections being disjoint; with t = t' two
    distinct sections always share a point, so no trace value applies.
    """
    return _normalized_section_trace(gf, _checked_plane(gf, u), _checked_plane(gf, w))


def _normalized_section_trace(gf: GF, u: pg.Coords, w: pg.Coords) -> Optional[int]:
    """section_trace of two planes already normalized to [1, f, t, g]."""
    dt = u[2] ^ w[2]
    if dt == 0:
        return None
    return gf.trace(gf.div(gf.mul(u[1] ^ w[1], u[3] ^ w[3]), gf.square(dt)))


def sections_disjoint(gf: GF, u: pg.Coords, w: pg.Coords) -> bool:
    """Whether two vertex-avoiding planes cut disjoint cone sections."""
    return section_trace(gf, u, w) == 1


# -- partial flocks ---------------------------------------------------------------


class PartialFlock(_FrozenValue):
    """A set of planes avoiding the cone vertex, stored in canonical order."""

    __slots__ = ("gf", "planes")

    def __init__(self, gf: GF, planes: tuple[pg.Coords, ...]) -> None:
        check_kind(gf, GF, "field")
        if not isinstance(planes, tuple):  # a list would leave the flock unhashable
            raise ValueError("planes must be a tuple")
        if not planes:
            raise ValueError("a partial flock needs at least one plane")
        norm = [_checked_plane(gf, p) for p in planes]
        if list(planes) != sorted(set(norm)):
            raise ValueError("planes must be normalized, distinct and sorted")
        set_gf, set_planes = self._setters
        set_gf(self, gf)
        set_planes(self, planes)

    @property
    def size(self) -> int:
        return len(self.planes)


def base_representation(F: PartialFlock) -> tuple[tuple[int, int, int], ...]:
    """Per-plane triples (t, f, g) from the normalized form [1, f, t, g].

    Sorted by t; together they present the flock as a base set B = {t} with
    coefficient maps f, g.
    """
    return tuple(sorted((p[2], p[1], p[3]) for p in F.planes))


class FlockReport(_Value):
    """Pairwise trace values and section intersections of a plane set."""

    __slots__ = ("q", "size", "section_sizes", "pairs")

    def __init__(self, q: int, size: int, section_sizes: tuple[int, ...],
                 pairs: tuple[tuple[tuple[int, int], Optional[int], int], ...]) -> None:
        self.q = q
        self.size = size
        self.section_sizes = section_sizes
        self.pairs = pairs

    @property
    def verdict(self) -> bool:
        return all(s == self.q + 1 for s in self.section_sizes) and all(
            tr == 1 and shared == 0 for _, tr, shared in self.pairs
        )

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "size": self.size,
            "section_sizes": list(self.section_sizes),
            "pairs": [
                {"planes": list(ij), "trace": tr, "shared_points": shared}
                for ij, tr, shared in self.pairs
            ],
            "verdict": self.verdict,
        }


def verify_partial_flock(F: PartialFlock) -> FlockReport:
    """Check every plane pair by the trace test and the section oracle.

    The oracle lists each section as its x0 column, one x0 per cone
    generator (_x0_column), so every section has q + 1 points.  Two
    sections share a point exactly where their columns agree, so the shared
    points are counted generator by generator: a generator whose d values
    are distinct costs one set, and only a value met by several planes adds
    to their pairs' counts.  The work is d (q + 1) values plus one count per
    shared point.  The step bound charges (q + 1) d (d + 1) / 2 steps, the
    cost of listing d point sets and intersecting C(d, 2) pairs of them, so
    it overestimates that work; the oracle is refused on it, before any
    section is listed, when it exceeds MAX_SCAN_STEPS.
    """
    check_kind(F, PartialFlock, "flock")
    gf = F.gf
    d = F.size
    if (gf.q + 1) * d * (d + 1) // 2 > MAX_SCAN_STEPS:
        raise ValueError(
            f"the flock section oracle stops at {MAX_SCAN_STEPS} steps, got"
            f" (q + 1) * d * (d + 1) / 2 = {gf.q + 1} * {d} * {d + 1} / 2"
        )
    square_logs = _square_logs(gf)
    columns = [_x0_column(gf, square_logs, p) for p in F.planes]
    shared: Counter = Counter()
    for x0s in zip(*columns):
        if len(set(x0s)) < d:
            meeting = defaultdict(list)
            for i, x0 in enumerate(x0s):
                meeting[x0].append(i)
            for indices in meeting.values():
                shared.update(itertools.combinations(indices, 2))
    pairs = tuple(
        ((i, j), _normalized_section_trace(gf, F.planes[i], F.planes[j]), shared[i, j])
        for i, j in itertools.combinations(range(d), 2)
    )
    return FlockReport(
        q=gf.q,
        size=d,
        section_sizes=tuple(len(c) for c in columns),
        pairs=pairs,
    )


class FlockClassification(_FrozenValue):
    """Additivity of the base representation and linearity of the plane set."""

    __slots__ = ("additive", "linear")

    def __init__(self, additive: bool, linear: bool) -> None:
        set_additive, set_linear = self._setters
        set_additive(self, additive)
        set_linear(self, linear)


def _flock_span(F: PartialFlock) -> Optional[dict[int, tuple[int, int]]]:
    """The triple_span t -> (f, g) of the planes [1, f, t, g].

    None when the triples are not their own span, that is when F is not additive.
    """
    try:
        span = triple_span((p, p[2], p[1], p[3]) for p in F.planes)
    except ClosureError:
        return None
    # the span holds every triple and (0, 0, 0), so no more means equal
    return span if len(span) == F.size else None


def classify_flock(F: PartialFlock) -> FlockClassification:
    """Decide whether a flock is additive and whether it is linear.

    Additive: X0 = 0 is a plane and the triples (t, f, g) of the planes
    [1, f, t, g] are their own GF(2)-span, close_set's triple_span, with
    distinct t (so B = {t} is a group and f, g are additive maps on it).
    Linear: all planes share a common line, i.e. the points on every plane
    form a nullspace of dimension 2 (distinct planes meet in at most a line).
    """
    check_kind(F, PartialFlock, "flock")
    linear = F.size == 1 or len(pg.nullspace(F.gf, F.planes, 4)) >= 2
    return FlockClassification(additive=_flock_span(F) is not None, linear=linear)


# -- the algebraic arc <-> flock correspondence ------------------------------------


def arc_to_flock(m: MathonArc) -> PartialFlock:
    """The additive partial flock of a Mathon arc.

    Each conic F_{alpha,beta,lam} contributes the plane
    [1, alpha*lam, lam, beta*lam]; the plane X0 = 0 completes the flock, so
    the base set is the arc's lam subgroup including 0.
    """
    check_kind(m, MathonArc, "arc")
    planes = {EMBEDDING_PLANE, *map(_conic_plane, m.conics)}
    return PartialFlock(m.gf, tuple(sorted(planes)))


def _conic_plane(c: Conic) -> pg.Coords:
    """The flock plane [1, alpha*lam, lam, beta*lam] of the conic F_{alpha,beta,lam}."""
    gf = c.gf
    return (1, gf.mul(c.alpha, c.lam), c.lam, gf.mul(c.beta, c.lam))


def is_denniston_type(m: MathonArc) -> bool:
    """Whether the arc's additive partial flock is linear (all planes share a line)."""
    return classify_flock(arc_to_flock(m)).linear


def flock_to_arc(F: PartialFlock) -> MathonArc:
    """Rebuild the Mathon arc of an additive partial flock.

    Inverse of arc_to_flock.  The plane X0 = 0 carries no conic; every other
    plane [1, f, t, g] yields F_{f/t, g/t, t}, read off the flock's own triple
    span, so nothing is closed again.  A plane whose conic is degenerate, that
    is whose section meets that of X0 = 0, raises ClosureError.
    """
    check_kind(F, PartialFlock, "flock")
    span = _flock_span(F)
    if span is None:
        raise ValueError("only an additive partial flock corresponds to an arc")
    return _span_arc(F.gf, span)


# -- projection from the nuclear line ----------------------------------------------


def _projection_parameter(gf: GF, p: pg.Coords) -> int:
    """The y with p = (1,0,y,0); rejects points off N and the points x, n."""
    pn = pg.check_space_coords(gf, p)
    if pn == VERTEX or pn == BASE_NUCLEUS:
        raise ValueError(f"cannot project from the special point {pn}")
    if pn[0] != 1 or pn[1] != 0 or pn[3] != 0:
        raise ValueError(f"projection point {pn} is not on the nuclear line")
    return pn[2]


def projection_singular_plane(gf: GF, p: pg.Coords) -> pg.Coords:
    """The plane through p whose projection collapses onto the line z = 0."""
    check_kind(gf, GF, "field")
    return _singular_projection_plane(gf, _projection_parameter(gf, p))


def _singular_projection_plane(gf: GF, y: int) -> pg.Coords:
    """projection_singular_plane from the checked point (1,0,y,0)."""
    return pg.normalize(gf, (y, 0, 1, 0))


def project_conic_to_plane(
    c: Conic, p: pg.Coords = DEFAULT_PROJECTION_POINT
) -> pg.Coords:
    """The plane cutting the cone section that projects onto a given conic.

    From p = (1,0,y,0) the cone point (x0, X1, X2, X3) lands on
    (X1, X3, X2 + y x0), and with X1 X3 = X2^2 the conic's equation there
    is the square of sqrt(lam) y x0 + sqrt(alpha) X1 + (sqrt(lam)+1) X2 +
    sqrt(beta) X3.  So the plane is [y sqrt(lam), sqrt(alpha), sqrt(lam)+1,
    sqrt(beta)].
    """
    gf = check_kind(c, Conic, "conic").gf
    return _projected_conic_plane(gf, _projection_parameter(gf, p), c)


def _projected_conic_plane(gf: GF, y: int, c: Conic) -> pg.Coords:
    """project_conic_to_plane from the checked point (1,0,y,0)."""
    sl = gf.sqrt(c.lam)
    plane = (gf.mul(y, sl), gf.sqrt(c.alpha), sl ^ 1, gf.sqrt(c.beta))
    return pg.normalize(gf, plane)


def project_arc(
    m: MathonArc, p: pg.Coords = DEFAULT_PROJECTION_POINT
) -> PartialFlock:
    """The raw projection flock of an arc: one plane per conic plus the singular one.

    The result is a genuine partial flock (its sections project bijectively
    onto the disjoint conics and the external line z = 0) but in general it
    is not additive; the coefficient chain in geometric_to_additive rewrites
    it into the additive flock of the same arc.  The arc and p are checked once.
    """
    gf = check_kind(m, MathonArc, "arc").gf
    y = _projection_parameter(gf, p)
    planes = {_projected_conic_plane(gf, y, c) for c in m.conics}
    planes.add(_singular_projection_plane(gf, y))
    return PartialFlock(gf, tuple(sorted(planes)))


# -- the coefficient chain between the raw and the additive picture -----------------


def delta_plane(u: pg.Coords) -> pg.Coords:
    """Substitution X0 -> X0 + X2 on plane coefficients (an involution)."""
    return (u[0], u[1], u[2] ^ u[0], u[3])


def phi_plane(gf: GF, u: pg.Coords) -> pg.Coords:
    """Replace a plane by the span of its X0 = 0 trace and the inverted N-point.

    The plane meets the nuclear line in (u2/u0, 0, 1, 0); inverting that
    point while keeping the trace in X0 = 0 replaces the X0 coefficient by
    u2^2/u0.  Undefined for planes through the vertex or the base nucleus.
    """
    if u[0] == 0:
        raise ValueError(f"plane {u} passes through the cone vertex {VERTEX}")
    if u[2] == 0:
        raise ValueError(f"plane {u} passes through the base nucleus {BASE_NUCLEUS}")
    return (gf.div(gf.square(u[2]), u[0]), u[1], u[2], u[3])


def kappa_plane(gf: GF, u: pg.Coords) -> pg.Coords:
    """Coordinatewise squaring (the Frobenius collineation on plane coordinates)."""
    return tuple(gf.square(x) for x in u)


def kappa_inv_plane(gf: GF, u: pg.Coords) -> pg.Coords:
    """Coordinatewise square root, inverse of kappa_plane."""
    return tuple(gf.sqrt(x) for x in u)


def raw_to_additive_plane(gf: GF, u: pg.Coords) -> pg.Coords:
    """One plane of the chain: delta, then phi, then kappa, then normalize.

    The singular plane X0 + X2 = 0 maps to X0 = 0 directly (delta already
    lands there and phi does not apply).  Any other plane through the
    default projection point is rejected.
    """
    w = delta_plane(_checked_plane(gf, u))
    if w[2] == 0:
        if w == EMBEDDING_PLANE:
            return EMBEDDING_PLANE
        raise ValueError(
            f"plane {u} passes through the projection point "
            f"{DEFAULT_PROJECTION_POINT} but is not the singular plane"
        )
    return pg.normalize(gf, kappa_plane(gf, phi_plane(gf, w)))


def additive_to_raw_plane(gf: GF, u: pg.Coords) -> pg.Coords:
    """Inverse chain: kappa^{-1}, then phi, then delta, then normalize.

    The plane X0 = 0 maps back to the singular plane X0 + X2 = 0.
    """
    un = _checked_plane(gf, u)
    if un == EMBEDDING_PLANE:
        return SINGULAR_PLANE
    w = kappa_inv_plane(gf, un)
    return pg.normalize(gf, delta_plane(phi_plane(gf, w)))


def geometric_to_additive(F: PartialFlock) -> PartialFlock:
    """Rewrite a raw projection flock into the additive flock of its arc."""
    gf = check_kind(F, PartialFlock, "flock").gf
    return PartialFlock(
        gf, tuple(sorted(raw_to_additive_plane(gf, p) for p in F.planes))
    )


def additive_to_geometric(F: PartialFlock) -> PartialFlock:
    """Rewrite an additive flock into the raw picture of the default projection."""
    gf = check_kind(F, PartialFlock, "flock").gf
    return PartialFlock(
        gf, tuple(sorted(additive_to_raw_plane(gf, p) for p in F.planes))
    )


# -- standard plane form and composition -------------------------------------------


def standardize_plane(gf: GF, u: pg.Coords) -> tuple[int, int, int]:
    """The (a, b, c) of the unique scaling a X0 + b X1 + (a+1) X2 + c X3 = 0.

    Exists exactly when the X0 and X2 coefficients differ, i.e. when the
    plane avoids the default projection point (1,0,1,0).
    """
    return _standard_form(gf, pg.check_space_coords(gf, u))


def _standard_form(gf: GF, u: pg.Coords) -> tuple[int, int, int]:
    """standardize_plane of a checked plane."""
    if u[0] == u[2]:
        raise ValueError(
            f"plane {u} contains the projection point {DEFAULT_PROJECTION_POINT}"
            " and has no standard form"
        )
    s = gf.inv(u[0] ^ u[2])
    return (gf.mul(s, u[0]), gf.mul(s, u[1]), gf.mul(s, u[3]))


def standard_to_plane(gf: GF, abc: tuple[int, int, int]) -> pg.Coords:
    """The normalized plane of a standard form (a, b, c)."""
    a, b, c = abc
    return pg.normalize(gf, (a, b, a ^ 1, c))


def plane_compose(gf: GF, V: pg.Coords, W: pg.Coords) -> pg.Coords:
    """The third plane of the pencil, mirroring Mathon's conic composition.

    With standard forms (a, b, c) and (a', b', c'), a distinct-X0 pair with
    disjoint sections composes to (a+a', (ab+a'b')/(a+a'), (ac+a'c')/(a+a')).
    The result lies in the pencil of V and W, so it contains their common
    line, and its section projects onto the composition of the two projected
    conics.
    """
    check_kind(gf, GF, "field")
    disjoint = sections_disjoint(gf, V, W)  # the one check of V and W
    a1, b1, c1 = _standard_form(gf, V)
    a2, b2, c2 = _standard_form(gf, W)
    da = a1 ^ a2
    if da == 0:
        raise ValueError("composition needs distinct X0-coefficients")
    if not disjoint:
        raise DisjointnessError(f"sections of {V} and {W} share a cone point")
    nb = gf.div(gf.mul(a1, b1) ^ gf.mul(a2, b2), da)
    nc = gf.div(gf.mul(a1, c1) ^ gf.mul(a2, c2), da)
    return standard_to_plane(gf, (da, nb, nc))


def singular_plane(gf: GF, V: pg.Coords, W: pg.Coords) -> pg.Coords:
    """The unique plane of the pencil of V and W through the projection point.

    Computed as the coefficientwise sum of the two standard equations.  Its
    trace in X0 = 0 is the Denniston line of the two projected conics.
    """
    check_kind(gf, GF, "field")
    a1, b1, c1 = standardize_plane(gf, V)
    a2, b2, c2 = standardize_plane(gf, W)
    if a1 == a2:
        raise ValueError("the pencil plane through p needs distinct X0-coefficients")
    return pg.normalize(gf, (a1 ^ a2, b1 ^ b2, a1 ^ a2, c1 ^ c2))


# -- Denniston lines ---------------------------------------------------------------


def denniston_line(c1: Conic, c2: Conic) -> pg.Coords:
    """The external line of the degree-4 closure of two distinct conics.

    In PG(2,q) line coordinates this is
    [sqrt(alpha+alpha'), sqrt(beta+beta'), sqrt(lam+lam')]; all three conic
    pairs of a degree-4 closed set give the same line.
    """
    check_kind(c1, Conic, "conic")
    check_kind(c2, Conic, "conic")
    if c1.gf != c2.gf:
        raise ValueError("conics live in different fields")
    if (c1.alpha, c1.beta, c1.lam) == (c2.alpha, c2.beta, c2.lam):
        raise ValueError("a Denniston line needs two distinct conics")
    gf = c1.gf
    return pg.normalize(
        gf,
        (
            gf.sqrt(c1.alpha ^ c2.alpha),
            gf.sqrt(c1.beta ^ c2.beta),
            gf.sqrt(c1.lam ^ c2.lam),
        ),
    )


class DennistonLineReport(_FrozenValue):
    """All pairwise Denniston lines of an arc and their concurrency."""

    __slots__ = ("lines", "concurrent", "common_point")

    def __init__(self, lines: tuple[pg.Coords, ...], concurrent: bool,
                 common_point: Optional[pg.Coords]) -> None:
        set_lines, set_concurrent, set_common_point = self._setters
        set_lines(self, lines)
        set_concurrent(self, concurrent)
        set_common_point(self, common_point)


def denniston_lines_concurrent(m: MathonArc) -> DennistonLineReport:
    """Collect the Denniston line of every conic pair and test concurrency."""
    check_kind(m, MathonArc, "arc")
    if m.degree < 4:
        raise ValueError("Denniston lines need an arc of degree at least 4")
    gf = m.gf
    lines = tuple(
        sorted(
            {
                denniston_line(c1, c2)
                for c1, c2 in itertools.combinations(m.conics, 2)
            }
        )
    )
    if len(lines) == 1:
        return DennistonLineReport(lines=lines, concurrent=True, common_point=None)
    common = pg.nullspace(gf, lines, 3)
    return DennistonLineReport(
        lines=lines,
        concurrent=bool(common),
        common_point=pg.normalize(gf, common[0]) if common else None,
    )


# -- flock extension ---------------------------------------------------------------


def extend_flock(F: PartialFlock, V: pg.Coords) -> PartialFlock:
    """Double an additive partial flock by one new disjoint plane.

    The new plane must avoid the vertex (1,0,0,0) and the base nucleus
    (0,0,1,0), and its section must be disjoint from every section of F;
    every plane of F other than X0 = 0 must miss the section of X0 = 0, so
    that F is a partial flock.  The result is F and V + F, the XOR of the
    triple span of F with that of V: the unique additive flock on the doubled
    base set, which the paper's composition of V with each plane of F in the
    raw picture also gives.  No other pair of it needs a test: the trace test
    of two planes is that of their sum against X0 = 0, and each sum is in F
    or V + F.  This is the one doubling; arcs double through it.
    """
    check_kind(F, PartialFlock, "flock")
    gf = F.gf
    if _flock_span(F) is None:
        raise ValueError("only an additive partial flock can be extended")
    v = _checked_plane(gf, V)
    if v[2] == 0:
        raise ValueError(f"plane {v} passes through the base nucleus {BASE_NUCLEUS}")
    for u in F.planes:
        if _normalized_section_trace(gf, v, u) != 1:
            raise DisjointnessError(f"the section of {v} meets the section of {u}")
        if u != EMBEDDING_PLANE and _normalized_section_trace(gf, EMBEDDING_PLANE, u) != 1:
            raise DisjointnessError(f"sections of {EMBEDDING_PLANE} and {u} share a cone point")
    shifted = {(1, v[1] ^ u[1], v[2] ^ u[2], v[3] ^ u[3]) for u in F.planes}
    return PartialFlock(gf, tuple(sorted(set(F.planes) | shifted)))


def synthetic_extension(m: MathonArc, c: Conic) -> MathonArc:
    """Extend a degree-d arc by one disjoint conic to the unique degree-2d arc.

    The conic's lam must be new.  The arc's flock is doubled by the conic's
    plane (extend_flock), which names the planes of a meeting pair and
    refuses a base that is not closed, and the arc is read back off it.
    """
    check_kind(m, MathonArc, "arc")
    check_kind(c, Conic, "conic")
    if c.gf != m.gf:
        raise ValueError("conic and arc live in different fields")
    if c.lam in m.lam_values:
        raise ValueError(f"lam={c.lam} already lies in the arc's lam subgroup")
    doubled = extend_flock(arc_to_flock(m), _conic_plane(c))
    return _span_arc(m.gf, {t: (f, g) for _, f, t, g in doubled.planes})


def denniston_closure(c1: Conic, c2: Conic) -> MathonArc:
    """The unique degree-4 arc of Denniston type containing two disjoint conics.

    It is the doubling of the one-conic arc {c1} by c2; conics with equal lam meet.
    """
    check_kind(c1, Conic, "conic")
    check_kind(c2, Conic, "conic")
    if c1.lam == c2.lam:
        raise DisjointnessError(f"{c1} and {c2} share a point")
    return synthetic_extension(MathonArc(c1.gf, (c1,)), c2)


# -- serialization ------------------------------------------------------------------


def flock_to_json(F: PartialFlock) -> dict:
    check_kind(F, PartialFlock, "flock")
    triples = base_representation(F)
    cls = classify_flock(F)
    return {
        "field": F.gf.to_json(),
        "planes": [list(p) for p in F.planes],
        "B": [t for t, _, _ in triples],
        "f": [f for _, f, _ in triples],
        "g": [g for _, _, g in triples],
        "additive": cls.additive,
        "linear": cls.linear,
    }


def flock_from_json(obj: dict) -> PartialFlock:
    """Rebuild a flock from JSON; any declared derived field must match as JSON."""
    if not isinstance(obj, dict) or "field" not in obj or "planes" not in obj:
        raise ValueError("flock object must have 'field' and 'planes' keys")
    gf = GF.from_json(obj["field"])
    if not isinstance(obj["planes"], list):
        raise ValueError("'planes' must be a list of planes")
    planes: set[pg.Coords] = set()
    for entry in obj["planes"]:
        p = pg.check_space_coords(gf, entry)
        if p in planes:
            raise ValueError(f"plane {list(p)} is listed twice")
        planes.add(p)
    F = PartialFlock(gf, tuple(sorted(planes)))
    derived = flock_to_json(F)
    for key in ("B", "f", "g", "additive", "linear"):
        if key in obj and json.dumps(obj[key]) != json.dumps(derived[key]):
            raise ValueError(f"declared {key!r} does not match the planes")
    return F
