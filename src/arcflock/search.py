"""Trace-condition search for Mathon arcs that double a Denniston arc.

Fix an additive subgroup H of GF(q) containing 1, of order d, and an
element a = lambda_d outside H.  The base Denniston arc
D = {F_{1,1,lam^2} : lam in H, lam != 0} has degree d; the candidate conic
C = F_{1, beta^2, a^2} with beta = (a + 1) mu + 1 and mu = 1 / rho misses
every member of D exactly when trace(c_lam mu) = epsilon for every nonzero
lam in H, where c_lam = lam (a + 1) / (a + lam) and epsilon = 1 + trace(1)
(0 at odd h, 1 at even h), and is nondegenerate when trace(beta) = 1, i.e.
trace((a + 1) mu) = epsilon.  In trace coordinates (v_j = trace(x^j mu))
trace(c mu) = parity(c & v), so each row over GF(2) is its multiplier (see
finite_field).  build_trace_system, rank_analysis and solve_trace_system
solve this system for one pair: the reference the tests hold the survey to,
and check against an exhaustive mu scan.

The survey solves one system per coset K = a + H.  With u_x = 1/x and
gamma = a (a + 1) mu, c_lam mu = gamma (u_a + u_{a+lam}) and (a + 1) mu =
gamma u_a, so with phi = trace(gamma .) the conditions read phi(u_x) =
phi(u_a) + epsilon for x != a in K, and validity adds phi(u_a) = epsilon.
Let M be the d x h matrix of rows u_x, r its rank and C its column space
{(phi(u_x))_x}, each vector of it reached by 2^(h-r) gamma.  Then rank =
r - [1 in C] and, zero included, num_mu = 2^(h-r) (1 + [1 in C]) and
num_valid_mu = 2^(h-r) at odd h, num_mu = 2^(h-r) ([e_a in C] + [1 + e_a in
C]) and num_valid_mu = 2^(h-r) [e_a in C] at even h.  Eliminating M with
right-hand side the bit pos(x) on row u_x leaves a dependency w per row that
adds no pivot, and these span M's left kernel: 1 in C iff every w is even,
e_a in C iff no w has bit pos(a), 1 + e_a in C iff parity(w) = w_pos(a) for
every w.  With (e_pos(x), 1 + e_pos(x), 1) on row u_x instead, such a row
leaves (w, w + parity(w) 1, parity(w)); the OR of these, which one
finite_field.gf2_add_rows call returns, decides all three.  So one
elimination gives the record of every lambda_d in the coset (at odd h all
counts are the coset's, at even h the rank is), and back-substituted with
right-hand side epsilon w_pos(a) it gives the gamma, so the valid rho =
a (a + 1) / gamma, of any one.
Counts leave out mu = 0, which gives no rho.  Each valid rho yields a
degree-2d Mathon arc containing D, built by synthetic extension
(construct_extension_arc), whose extend_flock tests the new plane against
each base plane by the section trace.  search_group only counts;
double_spec, the one doubling, also picks rho and builds the arc;
search_field attaches that arc to the first record with a valid rho, when
its line scan fits.  A survey whose records would list more than
MAX_SURVEY_ELEMENTS field elements is refused before any subgroup is
enumerated.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .finite_field import GF, _FrozenValue, _Value, check_kind, gf2_add_rows, gf2_back_substitute
from .flocks import synthetic_extension
from .mathon_arcs import Conic, MathonArc, arc_size, arc_to_json, denniston_arc, line_scan_fits

#: most field elements a survey's records list, |H| + 1 per (H, lambda_d) pair
#: (its H and its lambda_d), which bounds the survey's output and the memory
#: holding it: rank --h 8 --d 8 (661 416 pairs, 5 952 744 elements) runs, while
#: rank --h 11 --d 4 (10 455 060), rank --h 16 --d 4 (about 1.1e10) and
#: rank --h 11 --d 1024 (about 1.1e9) are refused.
MAX_SURVEY_ELEMENTS = 1 << 23


class GroupSpec(_FrozenValue):
    """An additive subgroup H containing 1 plus a coset representative outside it.

    H is stored as the sorted tuple of all its elements (0 included); the
    doubled group H + {0, lambda_d} is the lam-value set of any extension
    arc built from this spec.
    """

    __slots__ = ("gf", "H", "lambda_d")

    def __init__(self, gf: GF, H: tuple[int, ...], lambda_d: int) -> None:
        check_kind(gf, GF, "field")
        if not all(map(gf.is_element, H)):
            raise ValueError("H contains values outside the field")
        elems = set(H)
        if tuple(sorted(elems)) != H or len(elems) != len(H):
            raise ValueError("H must be a sorted tuple of distinct elements")
        if 0 not in elems:
            raise ValueError("H must contain 0")
        if 1 not in elems:
            raise ValueError("H must contain 1")
        if gf.additive_span(elems - {0}) != elems:
            raise ValueError("H must be closed under addition")
        if not gf.is_element(lambda_d):
            raise ValueError("lambda_d lies outside the field")
        if lambda_d in elems:
            raise ValueError("lambda_d must lie outside H")
        set_gf, set_H, set_lambda_d = self._setters
        set_gf(self, gf)
        set_H(self, H)
        set_lambda_d(self, lambda_d)

    def _with_lambda_d(self, lambda_d: int) -> "GroupSpec":
        """This spec with another lambda_d outside H, without checking H again."""
        spec = object.__new__(GroupSpec)
        set_gf, set_H, set_lambda_d = self._setters
        set_gf(spec, self.gf)
        set_H(spec, self.H)
        set_lambda_d(spec, lambda_d)
        return spec

    @property
    def d(self) -> int:
        """Order of H; also the degree of the base Denniston arc."""
        return len(self.H)


class TraceConditionSystem(_FrozenValue):
    """The full affine system for a GroupSpec: conditions plus target epsilon.

    Condition trace(c * mu) = epsilon is stored as its multiplier c, one per
    lam in group.H[1:], in that order.
    """

    __slots__ = ("gf", "group", "epsilon", "conditions")

    def __init__(self, gf: GF, group: GroupSpec, epsilon: int, conditions: tuple[int, ...]) -> None:
        set_gf, set_group, set_epsilon, set_conditions = self._setters
        set_gf(self, gf)
        set_group(self, group)
        set_epsilon(self, epsilon)
        set_conditions(self, conditions)


def build_trace_system(spec: GroupSpec) -> TraceConditionSystem:
    """Assemble one trace condition per nonzero element of H.

    The multiplier for lam is c_lam = lam * (lambda_d + 1) / (lambda_d + lam);
    both factors are nonzero because lambda_d lies outside H, so no condition
    degenerates.  It is computed as top + top * lambda_d / (lambda_d + lam)
    with top = lambda_d + 1, in one div_many pass.  The common right-hand side
    is epsilon = 1 + trace(1), where trace(1) = h mod 2.
    """
    gf, ld, top = spec.gf, spec.lambda_d, spec.lambda_d ^ 1
    conditions = tuple(gf.div_many(gf.mul(top, ld), spec.H[1:], ld, top))
    return TraceConditionSystem(gf, spec, 1 ^ gf.h & 1, conditions)


# -- solving the system over GF(2) ---------------------------------------------


def _eliminate(system: TraceConditionSystem) -> tuple[list[int], int, int]:
    """One elimination of the conditions, each row its multiplier above epsilon.

    The unknowns are the trace coordinates of mu.  Returns the echelon form,
    its rank and the number of mu (zero included) solving the conditions:
    2^(h - rank), or 0 when some condition contradicts the others.
    """
    eps, h, eqs = system.epsilon, system.gf.h, []
    for c in system.conditions:  # a loop: a comprehension would read eps through a cell
        eqs.append(c << 1 | eps)
    echelon = [0] * (h + 2)
    left = gf2_add_rows(echelon, eqs, 1)
    rank = h + 2 - echelon.count(0)
    return echelon, rank, 0 if left else 1 << (h - rank)


class RankAnalysis(_FrozenValue):
    """Rank of the condition functionals and the size of the mu solution space."""

    __slots__ = ("rank", "solution_count", "independent")

    def __init__(self, rank: int, solution_count: int, independent: bool) -> None:
        set_rank, set_solution_count, set_independent = self._setters
        set_rank(self, rank)
        set_solution_count(self, solution_count)
        set_independent(self, independent)

    def to_json(self) -> dict:
        return {"rank": self.rank, "solution_count": self.solution_count,
                "independent": self.independent}


def rank_analysis(system: TraceConditionSystem) -> RankAnalysis:
    """GF(2)-rank of the conditions; solution count 2^(h-rank), or 0 if inconsistent."""
    _, rank, num_mu = _eliminate(system)
    return RankAnalysis(rank, num_mu, rank == len(system.conditions))


def beta_of(gf: GF, lambda_d: int, rho: int) -> int:
    """beta = (lambda_d + 1) / rho + 1 for a candidate rho, a nonzero field element."""
    if not gf.is_element(lambda_d):
        raise ValueError(f"lambda_d={lambda_d!r} is not an element of GF({gf.q})")
    if rho == 0 or not gf.is_element(rho):
        raise ValueError("rho must be a nonzero field element")
    return gf.mul(lambda_d ^ 1, gf.inv(rho)) ^ 1


def _valid_rho(gf: GF, echelon: list, width: int, scale: int = 1, mask: int = 1) -> frozenset:
    """The rho = scale/mu, mu != 0, of a consistent echelon form with right-hand sides b & mask.

    Back-substituted, its solutions are a particular solution plus the span of
    a null basis, in trace coordinates; each is mapped back to mu once, and as
    that map is linear the span is listed in mu directly: 2^(h - rank) field
    divisions; counting alone needs no listing.
    """
    reduced = gf2_back_substitute(echelon, width)
    shift = gf.from_trace_coordinates(sum((b & mask) << pb for pb, _, b in reduced))
    basis = []
    for fb in range(gf.h):
        if not echelon[fb + width + 1]:  # free: each pivot whose row holds fb follows it
            v = sum(1 << pb for pb, row, _ in reduced if row >> fb & 1)
            basis.append(gf.from_trace_coordinates(v | 1 << fb))
    mus = {shift ^ mu for mu in gf.additive_span(basis)}
    mus.discard(0)
    return frozenset(gf.div_many(scale, list(mus)))


def solve_trace_system(system: TraceConditionSystem) -> frozenset[int]:
    """All valid rho: the trace system holds for mu = 1/rho and trace(beta) = 1.

    Validity adds the row trace((lambda_d + 1) mu) = epsilon to the conditions:
    trace(beta) = 1 rewritten, since trace(beta) = trace((lambda_d + 1) mu) +
    trace(1).
    """
    echelon, _, num_mu = _eliminate(system)
    validity = (system.group.lambda_d ^ 1) << 1 | system.epsilon
    if num_mu and not gf2_add_rows(echelon, [validity], 1):
        return _valid_rho(system.gf, echelon, 1)
    return frozenset()


# -- arc construction ------------------------------------------------------------


def base_denniston_arc(spec: GroupSpec) -> MathonArc:
    """The degree-d Denniston arc {F_{1,1,lam^2} : lam in H, lam != 0}.

    The lam-values are the squares of H's nonzero elements; squaring is an
    additive bijection, so they again span a subgroup.  Requires
    trace(1) = 1, i.e. a field of odd degree.
    """
    gf = spec.gf
    if gf.trace(1) != 1:
        raise ValueError(f"h = {gf.h} is even: the alpha = 1 base arc needs trace(1) = 1")
    lams = tuple(sorted(gf.square(lam) for lam in spec.H if lam != 0))
    return denniston_arc(gf, 1, lams)


def construct_extension_arc(spec: GroupSpec, rho: int) -> MathonArc:
    """The degree-2d arc from a valid rho: base arc plus F_{1,beta^2,lambda_d^2}.

    Degeneracy of the new conic (trace(beta) != 1) and any intersection with
    a base conic (rho outside the solution set) surface as errors from the
    conic constructor and from synthetic_extension, whose extend_flock tests
    the new conic's plane against each base plane; nothing here trusts the
    trace system.
    """
    gf = check_kind(spec, GroupSpec, "spec").gf
    beta = beta_of(gf, spec.lambda_d, rho)
    base = base_denniston_arc(spec)
    new = Conic(gf, 1, gf.square(beta), gf.square(spec.lambda_d))
    return synthetic_extension(base, new)


# -- per-pair search records -------------------------------------------------------


class SearchRecord(_Value):
    """Outcome of the solver for one (H, lambda_d) pair."""

    __slots__ = ("q", "H", "lambda_d", "epsilon", "rank", "num_rho_prefilter", "num_rho_valid",
                 "example_arc")

    def __init__(self, q: int, H: tuple[int, ...], lambda_d: int, epsilon: int, rank: int,
                 num_rho_prefilter: int, num_rho_valid: int,
                 example_arc: Optional[MathonArc] = None) -> None:
        self.q = q
        self.H = H
        self.lambda_d = lambda_d
        self.epsilon = epsilon
        self.rank = rank
        self.num_rho_prefilter = num_rho_prefilter
        self.num_rho_valid = num_rho_valid
        self.example_arc = example_arc

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "H": list(self.H),
            "lambda_d": self.lambda_d,
            "epsilon": self.epsilon,
            "rank": self.rank,
            "num_rho_prefilter": self.num_rho_prefilter,
            "num_rho_valid": self.num_rho_valid,
            "example_arc": arc_to_json(self.example_arc) if self.example_arc else None,
        }


def _solve_coset(gf: GF, H: tuple[int, ...], a: int) -> tuple[list[SearchRecord], list[int]]:
    """The records of lambda_d = a + H[i], in H's order, and their echelon form.

    Row i is 1/(a + H[i]) above (e_i, 1 + e_i, 1): what is left is the OR of
    (w, w + parity(w) 1, parity(w)) over the dependencies w (module docstring).
    """
    d, q, eps = len(H), gf.q, 1 ^ gf.h & 1
    full, width = (1 << d) - 1, 2 * d + 1
    base, spread = (full | 1 << d) << d, 1 << d | 1  # (0, 1, 1); e_i + e_i << d is spread << i
    rows, echelon = [], [0] * (gf.h + width + 1)
    for i, u in enumerate(gf.div_many(1, H, a)):
        rows.append(u << width | base ^ spread << i)
    left = gf2_add_rows(echelon, rows, width)
    seen, flipped, any_odd = left & full, left >> d & full, left >> 2 * d
    pivots = len(echelon) - echelon.count(0)
    free, rank = 1 << (gf.h - pivots), pivots - (not any_odd)
    # odd h: the mu reaching 0 or 1, the valid ones 0, and mu = 0 gives no rho
    pre, valid = free * (2 - any_odd) - 1, free - 1
    records = []
    for i, lam in enumerate(H):
        if eps:  # the mu reaching e_a or 1 + e_a in C; the valid ones e_a
            in_e = not seen >> i & 1
            pre, valid = free * (in_e + (not flipped >> i & 1)), free * in_e
        records.append(SearchRecord(q, H, a ^ lam, eps, rank, pre, valid))
    return records, echelon


def _first_rho(gf: GF, echelon: list[int], first: SearchRecord) -> frozenset[int]:
    """The valid rho of the coset's row-0 record, a = lambda_d: a (a + 1) / gamma for the
    gamma != 0 with trace(gamma / x) = epsilon [x = a] on the coset (rhs epsilon w_0)."""
    scale = gf.mul(first.lambda_d, first.lambda_d ^ 1)
    return _valid_rho(gf, echelon, 2 * len(first.H) + 1, scale, first.epsilon)


def search_group(spec: GroupSpec) -> SearchRecord:
    """Rank and rho counts for one spec, read off its coset's elimination; no arc."""
    check_kind(spec, GroupSpec, "spec")
    return _solve_coset(spec.gf, spec.H, spec.lambda_d)[0][0]


def double_spec(spec: GroupSpec, rho: Optional[int] = None) -> tuple[SearchRecord, int, MathonArc]:
    """The doubling of one spec: its record, the rho used and the degree-2d arc.

    The record's counts and the valid rho come from one elimination.  A given
    rho must be valid; without one the least valid rho is taken.
    """
    check_kind(spec, GroupSpec, "spec")
    records, echelon = _solve_coset(spec.gf, spec.H, spec.lambda_d)
    record = records[0]
    valid = _first_rho(spec.gf, echelon, record) if record.num_rho_valid else frozenset()
    if rho is None:
        if not valid:
            raise ValueError("no valid rho exists for this (H, lambda_d) pair")
        rho = min(valid)
    elif rho not in valid:
        raise ValueError(f"rho {rho} is not a valid solution")
    return record, rho, construct_extension_arc(spec, rho)


def _order_log2(gf: GF, order: int) -> int:
    """k for a subgroup order 2^k of a field; the order must be a power of two in 2..q."""
    check_kind(gf, GF, "field")
    if type(order) is not int or order < 2 or order & (order - 1):
        raise ValueError("order must be a power of two, at least 2")
    if order > gf.q:
        raise ValueError("order exceeds the field size")
    return order.bit_length() - 1


def _survey_size(gf: GF, order: int) -> int:
    """Number of (H, lambda_d) pairs with |H| = order = 2^k: [h-1, k-1]_2 (q - order).

    The subgroups of order 2^k containing 1 correspond to the (k-1)-dimensional
    subspaces of GF(2)^h / <1>, counted by the Gaussian binomial [h-1, k-1]_2.
    """
    k = _order_log2(gf, order) - 1
    n = gf.h - 1
    subgroups = 1
    for i in range(k):
        subgroups = subgroups * ((1 << (n - i)) - 1) // ((1 << (i + 1)) - 1)
    return subgroups * (gf.q - order)


def additive_subgroups_containing_one(gf: GF, order: int) -> tuple[tuple[int, ...], ...]:
    """All additive subgroups of GF(q) of the given order that contain 1.

    Returned as sorted element tuples in lexicographic order, so every
    enumeration built on top is deterministic.  A subgroup of order 2^k is
    <1> + W for exactly one (k-1)-dimensional space W of even elements (bit 0
    clear), and W has one reduced echelon basis: k-1 pivot bits, each row its
    pivot plus any lower bit that is neither bit 0 nor a pivot.  So each
    subgroup is built once, and no smaller subgroup is built at all.
    """
    k = _order_log2(gf, order)
    groups = []
    for pivots in itertools.combinations(range(1, gf.h), k - 1):
        taken = 1 | sum(1 << p for p in pivots)
        rows = [[(1 << p) | m for m in range(1 << p) if not m & taken] for p in pivots]
        groups += [tuple(sorted(gf.additive_span((1,) + b))) for b in itertools.product(*rows)]
    return tuple(sorted(groups))


def _check_survey(gf: GF, order: int) -> None:
    """Refuse, unbuilt, a survey whose records list more than MAX_SURVEY_ELEMENTS."""
    pairs = _survey_size(gf, order)
    elements = pairs * (order + 1)
    if elements > MAX_SURVEY_ELEMENTS:
        raise ValueError(
            f"a survey of |H| = {order} at h = {gf.h} has {pairs} (H, lambda_d) pairs"
            f" listing {elements} field elements; surveys stop at {MAX_SURVEY_ELEMENTS}"
        )


def enumerate_group_specs(gf: GF, order: int) -> list[GroupSpec]:
    """Every (H, lambda_d) with |H| = order: subgroups lexicographically, lambda_d upward."""
    _check_survey(gf, order)
    specs: list[GroupSpec] = []
    for H in additive_subgroups_containing_one(gf, order):
        lds = list(itertools.filterfalse(set(H).__contains__, gf.elements()))
        if lds:
            specs.append(GroupSpec(gf, H, lds[0]))  # checks H, once
            specs += map(specs[-1]._with_lambda_d, lds[1:])
    return specs


def search_field(gf: GF, order: int) -> list[SearchRecord]:
    """The record of every (H, lambda_d) pair of one order, in enumerate_group_specs' order.

    Walking lambda_d upward, each coset is solved at its least element and
    hands out its records as they come.  At most one record carries an
    example arc: double_spec's for the first one with a valid rho.  Examples
    need trace(1) = 1 — the base arc's normal form is degenerate in fields of
    even degree — and the line scan of a degree-(2 order) arc to fit
    (line_scan_fits; h <= 11 for order 2); otherwise every example stays None.
    """
    _check_survey(gf, order)
    example = gf.trace(1) == 1 and line_scan_fits(gf.q, arc_size(gf.q, 2 * order))
    records = []
    for H in additive_subgroups_containing_one(gf, order):
        pending: dict[int, SearchRecord] = {}
        for ld in itertools.filterfalse(set(H).__contains__, gf.elements()):
            if ld not in pending:
                coset, echelon = _solve_coset(gf, H, ld)
                pending.update((r.lambda_d, r) for r in coset)
                if example and coset[0].num_rho_valid:  # odd h: the coset's counts
                    rho = min(_first_rho(gf, echelon, coset[0]))
                    coset[0].example_arc = construct_extension_arc(GroupSpec(gf, H, ld), rho)
                    example = False
            records.append(pending.pop(ld))
    return records


def guaranteed_degree(h: int) -> int:
    """The arc degree 2^(floor(log2 h) + 1) attainable in GF(2^h) by doubling.

    Starting from a degree-2 base and doubling through subgroup chains of
    length floor(log2 h) guarantees this degree for every h >= 1.
    """
    if type(h) is not int or h < 1:
        raise ValueError(f"h must be an int of at least 1, got {h!r}")
    return 1 << h.bit_length()
