"""Maximal arcs of Denniston and Mathon type in PG(2,q), q = 2^h.

The building blocks are conics

    F_{alpha,beta,lam} = { (x,y,z) : alpha x^2 + x y + beta y^2 + lam z^2 = 0 }

with trace(alpha beta) = 1 and lam != 0.  Every such conic has nucleus
(0,0,1) and is disjoint from the line z = 0.  Its points are read off the
nucleus pencil: with r = 1/sqrt(lam), ra = sqrt(alpha) r, rb = sqrt(beta) r,
the line (1, u^2, .) meets it at z = ra + r u + rb u^2 and (0, 1, .) at rb,
the column that _quadratic_column also lists for a flock plane's cone
section.  A conic is its triple (lam, alpha lam, beta lam) (_triple,
_triple_conic), the (t, f, g) of its flock plane [1, alpha lam, lam, beta lam]
(flocks.arc_to_flock), and two conics with distinct lam compose, by a
lam-weighted average of coefficients, to the XOR of their triples; a set of
conics closed under it, i.e. whose triples span a GF(2)-space with one member
per lam, together with the common nucleus, is a maximal arc of degree
|set| + 1 (Mathon's construction).  triple_span grows that space, for
close_set and for the flocks module, and _span_arc reads the arc off it: the
closed conic set and the additive partial flock are one space of triples
(Hamilton-Thas), so arcs double through flocks.extend_flock.  Denniston arcs
are the special case alpha constant, beta = 1, with the lam values ranging
over an additive subgroup minus 0.

By Mathon's theorem two conics with distinct lam are disjoint exactly when
their composition (lam'', A, B) has trace(A B / lam''^2) = 1 (_triple_trace,
which is also the flocks' one trace test), so a span whose members are all
conics is pairwise disjoint, and no construction lists points.  Point sets
feed only the line scan: arc_points lists them for verify_maximal_arc, which
never consults the trace.

The line scan rests on a pair count in PG(2,q).  Let n affine tuples give
the affine points P, m_P tuples each, and let a_L count the tuples on the
affine line L.  Then sum_L a_L^2 counts the ordered pairs of tuples (a tuple
with itself included) with a line L through both: a pair giving one point
has q + 1 such lines, any other pair exactly one, so

    sum_L a_L^2 = n^2 + q sum_P m_P^2,  which is n(n + q) for distinct points.

The affine lines fall into q + 1 parallel classes of q lines, each tuple on
one line of each class.  A class whose tuples meet k of its lines has
sum a_L^2 >= n^2/k over them (Cauchy-Schwarz), with equality exactly when
each met line holds n/k tuples.  For distinct points the bounds add up to

    sum floor(n/k) <= sum n/k <= n + q,

so when the floors sum to n + q both are equalities: each k divides n and
every class is uniform, its k alone giving its lines' counts.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import chain, repeat
from operator import xor
from typing import TYPE_CHECKING, Optional

from .finite_field import GF, _FrozenValue, _Value, check_kind

if TYPE_CHECKING:  # pg.Coords only annotates here, so the arc commands never load projective
    from . import projective as pg

#: common nucleus of every conic in the family
NUCLEUS: pg.Coords = (0, 0, 1)

#: largest |points| * (q + 1), the point-line steps of one verify_maximal_arc
#: scan: degree 16 at h = 11 (6.3e7) and degree 4 at h = 12 (5.0e7) fit; degree
#: 32 at h = 11 (1.3e8) does not, nor any arc above h = 12: (q + 2)(q + 1) > 2^26
MAX_SCAN_STEPS = 1 << 26


def _check_elements(gf: GF, **named: object) -> None:
    """Refuse any named value that is not an element of gf."""
    for name, v in named.items():
        if not gf.is_element(v):
            raise ValueError(f"{name}={v!r} is not an element of GF({gf.q})")


class ClosureError(ValueError):
    """A seed set cannot be completed to a closed set of conics."""


class DisjointnessError(ValueError):
    """Two conics that must be disjoint share a point."""


class Conic(_FrozenValue):
    """F_{alpha,beta,lam}; requires trace(alpha*beta) = 1 and lam != 0."""

    __slots__ = ("gf", "alpha", "beta", "lam")

    def __init__(self, gf: GF, alpha: int, beta: int, lam: int) -> None:
        check_kind(gf, GF, "field")
        _check_elements(gf, alpha=alpha, beta=beta, lam=lam)
        if lam == 0:
            raise ValueError("lam must be nonzero")
        if gf.trace(gf.mul(alpha, beta)) != 1:
            raise ValueError(
                f"degenerate conic: trace(alpha*beta) = 0 for alpha={alpha}, beta={beta}"
            )
        set_gf, set_alpha, set_beta, set_lam = self._setters
        set_gf(self, gf)
        set_alpha(self, alpha)
        set_beta(self, beta)
        set_lam(self, lam)


def _square_logs(gf: GF) -> list[int]:
    """log_index(u^2) for each u of gf.scaled_powers(1): the field's powers, then 0.

    Squaring doubles the log, so this index list reads c u^2 off the row
    scaled_powers(c) in the order in which scaled_powers(b) lists b u; 2k
    mod the odd q - 1 runs over the even logs, then the odd ones.
    """
    n = gf.q - 1
    return [*range(0, n, 2), *range(1, n, 2), n]


def _quadratic_column(gf: GF, square_logs: list[int], a: int, b: int, c: int) -> array:
    """The values a + b u + c u^2, one per u of gf.scaled_powers(1), then c (u infinite).

    The products b u and c u^2 are read off the rows scaled_powers(b) and
    scaled_powers(c), with square_logs from _square_logs, so no entry costs a
    multiplication.  The column is an array of machine words, not a list of
    int objects, which at h = 16 would take about four times the memory.
    """
    c_u2 = map(gf.scaled_powers(c).__getitem__, square_logs)
    column = array("L", map(a.__xor__, map(xor, gf.scaled_powers(b), c_u2)))
    column.append(c)
    return column


def quadric_points(gf: GF, a: int, b: int, l: int) -> frozenset[pg.Coords]:
    """Zero set of a x^2 + x y + b y^2 + l z^2 for any a, b and l != 0.

    The point (0,0,1) is off the quadric, and each of the q + 1 lines through
    it meets the quadric exactly once, because squaring is a bijection: on
    (1, u^2, z) the equation reads l z^2 = a + u^2 + b u^4, so z = ra + r u +
    rb u^2 with r = 1/sqrt(l), ra = sqrt(a) r and rb = sqrt(b) r: the column
    of (ra, r, rb), whose last entry rb is z on (0, 1, z).  The coefficients
    must be field elements.
    """
    _check_elements(gf, a=a, b=b, l=l)
    if l == 0:
        raise ValueError("l must be nonzero: with l = 0 the quadric holds (0,0,1)")
    mul, sqrt = gf.mul, gf.sqrt
    r = gf.inv(sqrt(l))
    square_logs = _square_logs(gf)
    column = _quadratic_column(gf, square_logs, mul(sqrt(a), r), r, mul(sqrt(b), r))
    squares = map(gf.scaled_powers(1).__getitem__, square_logs)
    return frozenset(chain(zip(repeat(1), squares, column), [(0, 1, column[gf.q])]))


def conic_points(c: Conic) -> frozenset[pg.Coords]:
    """The q + 1 points of a conic; none of them lies on z = 0."""
    check_kind(c, Conic, "conic")
    return quadric_points(c.gf, c.alpha, c.beta, c.lam)


def _triple(c: Conic) -> tuple[int, int, int]:
    """The triple (lam, alpha lam, beta lam) of F_{alpha,beta,lam}, its flock plane's (t, f, g)."""
    return c.lam, c.gf.mul(c.alpha, c.lam), c.gf.mul(c.beta, c.lam)


def _triple_conic(gf: GF, lam: int, A: int, B: int) -> Conic:
    """The conic F_{A/lam, B/lam, lam} of a triple with lam != 0; ValueError if degenerate."""
    return Conic(gf, gf.div(A, lam), gf.div(B, lam), lam)


def _triple_trace(gf: GF, lam: int, A: int, B: int) -> int:
    """trace(A B / lam^2) of a triple with lam != 0: 1 exactly when its conic is nondegenerate."""
    return gf.trace(gf.div(gf.mul(A, B), gf.square(lam)))


def _composed(c1: Conic, c2: Conic) -> tuple[GF, int, int, int]:
    """The field and triple of the composition of two conics with distinct lam: XOR of theirs."""
    check_kind(c1, Conic, "conic")
    check_kind(c2, Conic, "conic")
    if c1.gf != c2.gf:
        raise ValueError("conics live in different fields")
    if c1.lam == c2.lam:
        raise ValueError("composition requires distinct lam values")
    return (c1.gf, *map(xor, _triple(c1), _triple(c2)))


def compose(c1: Conic, c2: Conic) -> Conic:
    """Mathon composition: lam-weighted average of coefficients, XOR of the triples."""
    return _triple_conic(*_composed(c1, c2))


def composition_trace(c1: Conic, c2: Conic) -> int:
    """trace(alpha'' * beta'') of the composition; 1 guarantees disjointness."""
    return _triple_trace(*_composed(c1, c2))


class MathonArc(_FrozenValue):
    """Conics of one field, sorted by distinct lam, plus their nucleus; nothing else is checked.

    Closed, disjoint conic sets come from close_set, arc_from_json, denniston_arc and _span_arc."""

    __slots__ = ("gf", "conics")

    def __init__(self, gf: GF, conics: tuple[Conic, ...]) -> None:
        if not isinstance(conics, tuple):  # a list would leave the arc unhashable
            raise ValueError("conics must be a tuple")
        if not conics:
            raise ValueError("an arc needs at least one conic")
        for c in conics:
            check_kind(c, Conic, "conic")
        lams = [c.lam for c in conics]
        if any(c.gf != gf for c in conics):
            raise ValueError("conics live in different fields")
        if sorted(set(lams)) != lams:
            raise ValueError("conics must be sorted by lam with no repeats")
        set_gf, set_conics = self._setters
        set_gf(self, gf)
        set_conics(self, conics)

    @property
    def degree(self) -> int:
        return len(self.conics) + 1

    @property
    def lam_values(self) -> tuple[int, ...]:
        return tuple(c.lam for c in self.conics)


def triple_span(seed: Iterable[tuple[object, int, int, int]]) -> dict[int, tuple[int, int]]:
    """The GF(2)-span of seed triples as a dict lam -> (A, B), grown from {0: (0, 0)}.

    Seed items are (member, lam, A, B).  A lam the span holds with another
    (A, B) raises ClosureError naming the member, so there are at most q keys.
    """
    span: dict[int, tuple[int, int]] = {0: (0, 0)}
    for member, lam, A, B in seed:
        old = span.get(lam)
        if old is None:
            span.update({l ^ lam: (a ^ A, b ^ B) for l, (a, b) in span.items()})
        elif old != (A, B):
            raise ClosureError(f"lam collision: {member} collides with the closure on lam={lam}")
    return span


def close_set(seed: Iterable[Conic]) -> MathonArc:
    """Close a seed set of conics under composition into a Mathon arc.

    Composition is coordinatewise XOR on the triples (lam, alpha lam,
    beta lam), so the closure is the triple_span of the seed.  Raises
    ClosureError when a seed's lam is taken by another member of the span or
    a member is degenerate; else, by Mathon's theorem, the members are
    pairwise disjoint, as any two compose to a third, nondegenerate one.
    """
    if not isinstance(seed, Iterable):
        raise ValueError(f"a seed is an iterable of conics, got {seed!r}")
    seed = list(seed)
    if not seed:
        raise ValueError("seed must contain at least one conic")
    for c in seed:
        check_kind(c, Conic, "conic")
    gf = seed[0].gf
    if any(c.gf != gf for c in seed):
        raise ValueError("seed conics live in different fields")
    return _span_arc(gf, triple_span((c, *_triple(c)) for c in seed))


def _span_arc(gf: GF, span: dict[int, tuple[int, int]]) -> MathonArc:
    """The arc of a triple span: F_{A/lam, B/lam, lam} for each nonzero lam, in lam order.

    Raises ClosureError naming the lam of a degenerate member.
    """
    closed = []
    for l in sorted(span)[1:]:  # every key but 0
        try:
            closed.append(_triple_conic(gf, l, *span[l]))
        except ValueError as exc:
            raise ClosureError(f"the closure's member on lam={l} is not a conic: {exc}") from exc
    return MathonArc(gf, tuple(closed))


def denniston_arc(gf: GF, alpha: int, A: Iterable[int]) -> MathonArc:
    """The Denniston arc {F_{alpha,1,lam} : lam in A}; A u {0} must be a subgroup.

    That subgroup check closes the conic set: any two members compose to
    F_{alpha,1,lam+lam'}, another member, so nothing is closed again.
    """
    check_kind(gf, GF, "field")
    if not isinstance(A, Iterable):
        raise ValueError(f"A must be an iterable of field elements, got {A!r}")
    lams = list(A)
    for l in lams:  # a non-int would not sort with the ints; the ints are checked below
        if type(l) is not int:
            _check_elements(gf, lam=l)
    lams = sorted(set(lams))
    if not lams:
        raise ValueError("A must be nonempty")
    if 0 in lams:
        raise ValueError("0 does not index a conic; A must omit it")
    for l in lams:
        _check_elements(gf, lam=l)
    _check_elements(gf, alpha=alpha)
    if gf.trace(alpha) != 1:
        raise ValueError(f"trace(alpha) must be 1, got alpha={alpha}")
    if gf.additive_span(lams) != set(lams) | {0}:
        raise ValueError("A together with 0 must be closed under addition")
    return MathonArc(gf, tuple(Conic(gf, alpha, 1, l) for l in lams))


def arc_size(q: int, d: int) -> int:
    """q(d - 1) + d, the number of points of a degree-d maximal arc."""
    return q * (d - 1) + d


def line_scan_fits(q: int, size: int) -> bool:
    """Whether a line scan of size points, size * (q + 1) steps, is within MAX_SCAN_STEPS."""
    return size * (q + 1) <= MAX_SCAN_STEPS


def _check_line_scan(q: int, size: int) -> None:
    if not line_scan_fits(q, size):
        steps = f"|points| * (q + 1) = {size} * {q + 1}"
        raise ValueError(f"the arc line scan stops at {MAX_SCAN_STEPS} steps, got {steps}")


def arc_points(m: MathonArc) -> frozenset[pg.Coords]:
    """All q(d-1) + d points of the arc, the conics plus the nucleus, if their scan fits."""
    check_kind(m, MathonArc, "arc")
    _check_line_scan(m.gf.q, arc_size(m.gf.q, m.degree))
    return frozenset({NUCLEUS}).union(*map(conic_points, m.conics))


class MaximalArcReport(_Value):
    """Line-intersection histogram of a candidate point set; a fresh {} by default."""

    __slots__ = ("q", "degree", "size", "expected_size", "histogram")

    def __init__(self, q: int, degree: int, size: int, expected_size: int,
                 histogram: Optional[dict[int, int]] = None) -> None:
        self.q = q
        self.degree = degree
        self.size = size
        self.expected_size = expected_size
        self.histogram = {} if histogram is None else histogram

    @property
    def verdict(self) -> bool:
        return self.size == self.expected_size and set(self.histogram) <= {0, self.degree}

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "degree": self.degree,
            "size": self.size,
            "expected_size": self.expected_size,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "verdict": self.verdict,
        }


def _checked_plane_points(gf: GF, points: Iterable[object]) -> list[pg.Coords]:
    """The points as listed, each a tuple of three field elements, not all 0.

    They are checked before any set is built, so a malformed tuple equal to a
    good one, such as (True, 0, 1) beside (1, 0, 1), cannot hide behind it.
    Each check is one C-level pass; a Python loop runs only to name the first
    offender.
    """
    pts = list(points)
    if not (set(map(type, pts)) <= {tuple} and set(map(len, pts)) <= {3}):
        bad = next(p for p in pts if type(p) is not tuple or len(p) != 3)
        raise ValueError(f"a PG(2,q) point is a tuple of three coordinates, got {bad!r}")
    coords = chain.from_iterable  # one pass each, no list of 3 |points| coordinates
    ints = set(map(type, coords(pts))) <= {int}
    if not (ints and 0 <= min(coords(pts), default=0) and max(coords(pts), default=0) < gf.q):
        bad = next(c for c in coords(pts) if not gf.is_element(c))
        raise ValueError(f"coordinate {bad!r} is not an element of GF({gf.q})")
    if (0, 0, 0) in pts:
        raise ValueError("the zero vector is not a projective point")
    return pts


def _packed(values: Iterable[int], typecode: str) -> int:
    """Values packed into one int, one array item of typecode ("B" or "H") each, in native byte order."""
    return int.from_bytes(array(typecode, values).tobytes(), "little")


def _affine_coordinates(gf: GF, affine: list[pg.Coords]) -> list[list[int]]:
    """[x/z, ...] and [y/z, ...] of the points (x, y, z) with z != 0, read off the log tables."""
    power = gf.scaled_powers(1)[: gf.q - 1]  # power[k] = g^k; a negative k wraps mod q - 1
    log = gf.log_index
    log_zs = [log(p[2]) for p in affine]
    return [[power[log(p[i]) - l] if p[i] else 0 for p, l in zip(affine, log_zs)] for i in (0, 1)]


def _line_classes(gf: GF, xs: list[int], ys: list[int]) -> Iterator[bytes | memoryview]:
    """The line each affine point lies on, one parallel class at a time.

    The point (x, y, 1) lies on [0, 1, y] and on [1, b, x + b y] for every
    slope b, so the classes are y, then x + b y for b = k ^ (k >> 1),
    k = 0, ..., q - 1 (Gray-code order).  The values are packed into one
    int, one byte each at q <= 256 and 16 bits each above; as b y is
    GF(2)-linear in b, each slope's int is the previous one XOR the packed
    2^j y, j the lowest set bit of k.  A class comes back as bytes at
    q <= 256 and as a memoryview of 16-bit values above.
    """
    typecode = "B" if gf.q <= 256 else "H"
    width = array(typecode).itemsize * len(xs)

    def unpacked(line: int) -> bytes | memoryview:
        # to_bytes gives back the array's bytes, so cast("H") reads the packed values
        raw = line.to_bytes(width, "little")
        return raw if typecode == "B" else memoryview(raw).cast("H")

    yield unpacked(_packed(ys, typecode))
    log_ys = list(map(gf.log_index, ys))
    steps = [_packed(map(gf.scaled_powers(1 << j).__getitem__, log_ys), typecode)
             for j in range(gf.h)]
    line = _packed(xs, typecode)
    yield unpacked(line)
    for k in range(1, gf.q):
        line ^= steps[(k & -k).bit_length() - 1]
        yield unpacked(line)


def verify_maximal_arc(gf: GF, points: Iterable[pg.Coords], d: int) -> MaximalArcReport:
    """Check a point set is a degree-d maximal arc by its points on every line.

    The lines are taken one parallel class at a time (_line_classes), so
    memory stays O(q) for any point set.  A point (x, y, 0) lies on [0, 0, 1]
    and on every line of the class b = x/y (y != 0) or of the class [0, 1, c]
    (y = 0).  An affine point is normalized to (x, y, 1) by log tables, and
    each class costs one int XOR and one C-level pass over its values.

    That pass gives k, the class's number of met lines: at q <= 256, where a
    class is bytes, q less the length of every value 0..q-1 with the class's
    values deleted by bytes.translate; above, len(set(values)).  If the n
    affine tuples are n points (no two agree once scaled to the canonical
    form, first nonzero coordinate 1, which arc_points lists already) and the
    n // k sum to n + q, the pair-count identity in the module docstring
    makes every class uniform: k lines of n/k affine points and q - k lines
    of none, plus the class's points at infinity on each.  Every maximal arc
    passes; any other set, such as one listing a point twice under two
    representatives, is counted line by line (one Counter per class) by a
    second walk, which starts as soon as a class's k does not divide n.

    The work is |points| (q + 1) steps, held to MAX_SCAN_STEPS for a
    degree-d arc (d >= 2) before the points are read, and for the points
    before the scan.  Each point must be a tuple of three field elements, not
    all 0; each tuple counts once, as given.
    """
    check_kind(gf, GF, "field")
    q = gf.q
    if type(d) is not int or d < 2:
        raise ValueError(f"a maximal arc has an int degree at least 2, got d = {d!r}")
    _check_line_scan(q, arc_size(q, d))
    pts = set(_checked_plane_points(gf, points))
    _check_line_scan(q, len(pts))
    at_infinity = [0] * (q + 1)  # on every line of the class b = x/y, or [0, 1, c] at index q
    for x, y, _ in (p for p in pts if not p[2]):
        at_infinity[gf.div(x, y) if y else q] += 1
    # the tuples are distinct points unless some are not canonical (first
    # nonzero coordinate 1) and, made canonical, meet each other or the set
    moved = [tuple(gf.div(v, c) for v in p)
             for p in pts if p[2] and (c := p[0] or p[1] or p[2]) != 1]
    distinct = len(set(moved)) == len(moved) and pts.isdisjoint(moved)
    xs, ys = _affine_coordinates(gf, [p for p in pts if p[2]])
    n = len(xs)
    extras = [at_infinity[q], *(at_infinity[k ^ k >> 1] for k in range(q))]
    every = bytes(range(min(q, 256)))

    def met(values: bytes | memoryview) -> int:
        if q <= 256:  # _line_classes gives bytes: delete the class's values from all q at once
            return q - len(every.translate(None, values))
        return len(set(values))

    ks: list[int] = []
    if n and distinct:
        for values in _line_classes(gf, xs, ys):
            k = met(values)
            if n % k:  # the n // k can sum to n + q only if every k divides n
                break
            ks.append(k)
    hist: Counter = Counter()
    if len(ks) == q + 1 and sum(n // k for k in ks) == n + q:
        for extra, k in zip(extras, ks):
            hist[extra] += q - k
            hist[extra + n // k] += k
    else:
        for extra, values in zip(extras, _line_classes(gf, xs, ys)):
            per_line = Counter(values)  # points on each met line, plus extra on every line
            for k, v in Counter(per_line.values()).items():
                hist[k + extra] += v
            hist[extra] += q - len(per_line)
    hist[len(pts) - n] += 1  # the line z = 0
    return MaximalArcReport(
        q=q,
        degree=d,
        size=len(pts),
        expected_size=arc_size(q, d),
        histogram={k: v for k, v in sorted(hist.items()) if v},
    )


def arc_to_json(m: MathonArc) -> dict:
    check_kind(m, MathonArc, "arc")
    return {
        "field": m.gf.to_json(),
        "conics": [
            {"alpha": c.alpha, "beta": c.beta, "lambda": c.lam} for c in m.conics
        ],
        "degree": m.degree,
    }


def arc_from_json(obj: dict) -> MathonArc:
    """Rebuild and re-validate an arc: the conic set must already be closed."""
    if not isinstance(obj, dict) or "field" not in obj or "conics" not in obj:
        raise ValueError("arc object must have 'field' and 'conics' keys")
    gf = GF.from_json(obj["field"])
    if not isinstance(obj["conics"], list):
        raise ValueError("'conics' must be a list of conics")
    conics, seen = [], set()
    for entry in obj["conics"]:
        if not isinstance(entry, dict) or set(entry) != {"alpha", "beta", "lambda"}:
            raise ValueError("each conic needs exactly alpha, beta and lambda")
        c = Conic(gf, entry["alpha"], entry["beta"], entry["lambda"])
        if c in seen:
            raise ValueError(f"conic alpha={c.alpha} beta={c.beta} lambda={c.lam} is listed twice")
        seen.add(c)
        conics.append(c)
    arc = close_set(conics)
    if len(arc.conics) != len(conics):
        raise ValueError("conic set is not closed under composition")
    if "degree" in obj and json.dumps(obj["degree"]) != json.dumps(arc.degree):
        raise ValueError(f"declared degree {obj['degree']} != actual {arc.degree}")
    return arc
