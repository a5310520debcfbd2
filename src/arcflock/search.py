"""Trace-condition search for Mathon arcs that double a Denniston arc.

Fix an additive subgroup H of GF(q) containing 1, of order d, and an
element lambda_d outside H.  The base Denniston arc
D = {F_{1,1,lam^2} : lam in H, lam != 0} has degree d; the candidate conic
C = F_{1, beta^2, lambda_d^2} with beta = (lambda_d + 1) * mu + 1 and
mu = 1 / rho is disjoint from every member of D exactly when

    trace(c_lam * mu) = epsilon        for every lam in H, lam != 0,

where c_lam = lam * (lambda_d + 1) / (lambda_d + lam) and
epsilon = 1 + trace(1) (so 0 in fields of odd degree, 1 in even degree).
Since trace(c * mu) is GF(2)-linear in the bits of mu, the conditions form
an affine-linear system over GF(2).  A surviving rho must also leave C
nondegenerate, i.e. trace(beta) = 1, which is one more affine row:
trace((lambda_d + 1) * mu) = epsilon.  One Gaussian elimination per system
gives the rank and both solution counts in closed form; valid rho are
listed from its particular solution and null basis only when an arc is
wanted.  (The tests check all of this against an exhaustive mu scan, and
each condition against its squared form trace(1 + (c_lam / rho)^2) = 1.)
Every valid rho yields a degree-2d Mathon arc containing D, built by
synthetic extension (construct_extension_arc) and re-verified against the
point oracle.  search_group only counts; search_field attaches one such
arc to the first record that has a valid rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .finite_field import GF
from .mathon_arcs import Conic, MathonArc, arc_to_json, denniston_arc, synthetic_extension


@dataclass(frozen=True)
class GroupSpec:
    """An additive subgroup H containing 1 plus a coset representative outside it.

    H is stored as the sorted tuple of all its elements (0 included); the
    doubled group H + {0, lambda_d} is the lam-value set of any extension
    arc built from this spec.
    """

    gf: GF
    H: tuple[int, ...]
    lambda_d: int

    def __post_init__(self) -> None:
        gf = self.gf
        elems = set(self.H)
        if tuple(sorted(elems)) != self.H or len(elems) != len(self.H):
            raise ValueError("H must be a sorted tuple of distinct elements")
        if any(not 0 <= x < gf.q for x in elems):
            raise ValueError("H contains values outside the field")
        if 0 not in elems:
            raise ValueError("H must contain 0")
        if 1 not in elems:
            raise ValueError("H must contain 1")
        if gf.additive_span(elems - {0}) != elems:
            raise ValueError("H must be closed under addition")
        if not 0 <= self.lambda_d < gf.q:
            raise ValueError("lambda_d lies outside the field")
        if self.lambda_d in elems:
            raise ValueError("lambda_d must lie outside H")

    @property
    def d(self) -> int:
        """Order of H; also the degree of the base Denniston arc."""
        return len(self.H)

    @property
    def doubled(self) -> tuple[int, ...]:
        """The order-2d group generated by H and lambda_d."""
        return tuple(sorted(set(self.H) | {x ^ self.lambda_d for x in self.H}))


@dataclass(frozen=True)
class TraceCondition:
    """One disjointness condition trace(c * mu) = epsilon, tagged by its lam."""

    lam: int
    c: int


@dataclass(frozen=True)
class TraceConditionSystem:
    """The full affine system for a GroupSpec: conditions plus target epsilon."""

    gf: GF
    group: GroupSpec
    epsilon: int
    conditions: tuple[TraceCondition, ...]


def build_trace_system(spec: GroupSpec) -> TraceConditionSystem:
    """Assemble one trace condition per nonzero element of H.

    The multiplier for lam is c_lam = lam * (lambda_d + 1) / (lambda_d + lam);
    both factors are nonzero because lambda_d lies outside H, so no condition
    degenerates.  The common right-hand side is epsilon = 1 + trace(1).
    """
    gf = spec.gf
    ld = spec.lambda_d
    top = ld ^ 1
    conditions = []
    for lam in spec.H:
        if lam == 0:
            continue
        c = gf.div(gf.mul(lam, top), ld ^ lam)
        conditions.append(TraceCondition(lam=lam, c=c))
    return TraceConditionSystem(
        gf=gf,
        group=spec,
        epsilon=1 ^ gf.trace(1),
        conditions=tuple(conditions),
    )


# -- solving the system over GF(2) ---------------------------------------------


def _condition_row(gf: GF, c: int) -> int:
    """Bitmask row of the linear functional mu -> trace(c * mu) on bit basis."""
    row = 0
    for i in range(gf.h):
        if gf.trace(gf.mul(c, 1 << i)):
            row |= 1 << i
    return row


def _gf2_add_row(reduced: list[tuple[int, int, int]], row: int, b: int) -> bool:
    """Add the equation parity(row & x) = b to a reduced row echelon form, in place.

    Entries are (pivot bit, row, rhs bit); each stored row has zeros at every
    other pivot bit.  A row that reduces to zero adds no pivot; the return
    value is False exactly when it reduces to 0 = 1, i.e. contradicts the
    rows already present.
    """
    for pb, pr, pbv in reduced:
        if (row >> pb) & 1:
            row ^= pr
            b ^= pbv
    if row == 0:
        return not b
    pb = row.bit_length() - 1
    for i, (qb, qr, qbv) in enumerate(reduced):
        if (qr >> pb) & 1:
            reduced[i] = (qb, qr ^ row, qbv ^ b)
    reduced.append((pb, row, b))
    return True


def _gf2_affine_solve(
    reduced: list[tuple[int, int, int]], nbits: int
) -> tuple[int, list[int]]:
    """Particular solution and null basis of a consistent reduced system.

    The full solution set is {particular ^ s : s in span(basis)}.
    """
    particular = 0
    for pb, _, bv in reduced:
        particular |= bv << pb
    pivot_bits = {pb for pb, _, _ in reduced}
    basis = []
    for fb in range(nbits):
        if fb in pivot_bits:
            continue
        v = 1 << fb
        for pb, row, _ in reduced:
            if (row >> fb) & 1:
                v |= 1 << pb
        basis.append(v)
    return particular, basis


def _eliminate(
    system: TraceConditionSystem,
) -> tuple[list[tuple[int, int, int]], int, int, int]:
    """One elimination: the conditions, then the row trace((lambda_d + 1) mu) = epsilon.

    That last row is trace(beta) = 1 rewritten, since trace(beta) =
    trace((lambda_d + 1) mu) + trace(1).  Returns the reduced rows of the
    whole system, the rank of the conditions alone, and the number of mu
    (zero included) solving the conditions alone and the whole system:
    2^(h - rank) of each, or 0 when inconsistent.
    """
    gf = system.gf
    eps = system.epsilon
    reduced: list[tuple[int, int, int]] = []
    consistent = True
    for cond in system.conditions:
        consistent &= _gf2_add_row(reduced, _condition_row(gf, cond.c), eps)
    rank = len(reduced)
    num_mu = (1 << (gf.h - rank)) if consistent else 0
    top_row = _condition_row(gf, system.group.lambda_d ^ 1)
    if consistent and _gf2_add_row(reduced, top_row, eps):
        num_valid_mu = 1 << (gf.h - len(reduced))
    else:
        num_valid_mu = 0
    return reduced, rank, num_mu, num_valid_mu


@dataclass(frozen=True)
class RankAnalysis:
    """Rank of the condition functionals and the size of the mu solution space."""

    rank: int
    solution_count: int
    independent: bool

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "solution_count": self.solution_count,
            "independent": self.independent,
        }


def rank_analysis(system: TraceConditionSystem) -> RankAnalysis:
    """GF(2)-rank of the conditions; solution count 2^(h-rank), or 0 if inconsistent."""
    _, rank, num_mu, _ = _eliminate(system)
    return RankAnalysis(
        rank=rank,
        solution_count=num_mu,
        independent=rank == len(system.conditions),
    )


def beta_of(gf: GF, lambda_d: int, rho: int) -> int:
    """beta = (lambda_d + 1) / rho + 1 for a candidate rho."""
    return gf.mul(lambda_d ^ 1, gf.inv(rho)) ^ 1


def solve_trace_system(system: TraceConditionSystem) -> frozenset[int]:
    """All valid rho: the trace system holds for mu = 1/rho and trace(beta) = 1.

    Lists the span of the null basis around the particular solution, so it
    costs 2^(h - rank) field inversions; counting alone needs no listing.
    """
    gf = system.gf
    reduced, _, _, num_valid_mu = _eliminate(system)
    if not num_valid_mu:
        return frozenset()
    particular, basis = _gf2_affine_solve(reduced, gf.h)
    mus = {particular}
    for v in basis:
        mus |= {mu ^ v for mu in mus}
    mus.discard(0)
    return frozenset(gf.inv(mu) for mu in mus)


# -- arc construction ------------------------------------------------------------


def base_denniston_arc(spec: GroupSpec) -> MathonArc:
    """The degree-d Denniston arc {F_{1,1,lam^2} : lam in H, lam != 0}.

    The lam-values are the squares of H's nonzero elements; squaring is an
    additive bijection, so they again span a subgroup.  Requires
    trace(1) = 1, i.e. a field of odd degree.
    """
    gf = spec.gf
    lams = tuple(sorted(gf.square(lam) for lam in spec.H if lam != 0))
    return denniston_arc(gf, 1, lams)


def construct_extension_arc(spec: GroupSpec, rho: int) -> MathonArc:
    """The degree-2d arc from a valid rho: base arc plus F_{1,beta^2,lambda_d^2}.

    Degeneracy of the new conic (trace(beta) != 1) and any intersection with
    a base conic (rho outside the solution set) surface as errors from the
    conic constructor and the point oracle; nothing here trusts the trace
    system on its own.
    """
    gf = spec.gf
    if not 1 <= rho < gf.q:
        raise ValueError("rho must be a nonzero field element")
    base = base_denniston_arc(spec)
    beta = beta_of(gf, spec.lambda_d, rho)
    new = Conic(gf, 1, gf.square(beta), gf.square(spec.lambda_d))
    return synthetic_extension(base, new)


# -- per-pair search records -------------------------------------------------------


@dataclass
class SearchRecord:
    """Outcome of the solver for one (H, lambda_d) pair."""

    q: int
    H: tuple[int, ...]
    lambda_d: int
    epsilon: int
    rank: int
    num_rho_prefilter: int
    num_rho_valid: int
    example_arc: Optional[MathonArc] = None

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


def search_group(spec: GroupSpec) -> SearchRecord:
    """Solve the trace system for one spec: rank and rho counts, no arc.

    The counts come from one elimination, with mu = 0 taken off when it
    solves the homogeneous (epsilon = 0) system, since it gives no rho.
    """
    system = build_trace_system(spec)
    _, rank, num_mu, num_valid_mu = _eliminate(system)
    mu_zero = 1 if system.epsilon == 0 else 0
    return SearchRecord(
        q=spec.gf.q,
        H=spec.H,
        lambda_d=spec.lambda_d,
        epsilon=system.epsilon,
        rank=rank,
        num_rho_prefilter=num_mu - mu_zero,
        num_rho_valid=num_valid_mu - mu_zero,
    )


def additive_subgroups_containing_one(gf: GF, order: int) -> tuple[tuple[int, ...], ...]:
    """All additive subgroups of GF(q) of the given order that contain 1.

    Returned as sorted element tuples in lexicographic order, so every
    enumeration built on top is deterministic.
    """
    if order < 2 or order & (order - 1):
        raise ValueError("order must be a power of two, at least 2")
    if order > gf.q:
        raise ValueError("order exceeds the field size")
    level: set[frozenset[int]] = {frozenset({0, 1})}
    size = 2
    while size < order:
        grown: set[frozenset[int]] = set()
        for S in level:
            for s in gf.elements():
                if s in S:
                    continue
                grown.add(frozenset(S | {s ^ e for e in S}))
        level = grown
        size *= 2
    return tuple(sorted(tuple(sorted(S)) for S in level))


def enumerate_group_specs(gf: GF, order: int, descending: bool = False) -> list[GroupSpec]:
    """Every (H, lambda_d) with |H| = order, in deterministic scan order.

    Ascending order runs subgroups lexicographically and lambda_d upward;
    descending reverses the whole list.
    """
    specs = [
        GroupSpec(gf, H, ld)
        for H in additive_subgroups_containing_one(gf, order)
        for ld in gf.elements()
        if ld not in H
    ]
    return list(reversed(specs)) if descending else specs


def search_field(gf: GF, order: int, descending: bool = False) -> list[SearchRecord]:
    """Run the solver over every (H, lambda_d) pair of one subgroup order.

    Records come back in scan order.  At most one record carries an example
    arc: the first one with a valid rho (smallest rho ascending, largest
    descending).  Examples need trace(1) = 1 — the base arc's normal form is
    degenerate in fields of even degree, so there every example stays None.
    """
    specs = enumerate_group_specs(gf, order, descending)
    records = [search_group(spec) for spec in specs]
    if gf.trace(1) == 1:
        for spec, record in zip(specs, records):
            if record.num_rho_valid == 0:
                continue
            valid = solve_trace_system(build_trace_system(spec))
            rho = max(valid) if descending else min(valid)
            record.example_arc = construct_extension_arc(spec, rho)
            break
    return records


def guaranteed_degree(h: int) -> int:
    """The arc degree 2^(floor(log2 h) + 1) attainable in GF(2^h) by doubling.

    Starting from a degree-2 base and doubling through subgroup chains of
    length floor(log2 h) guarantees this degree for every h >= 1.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    return 1 << h.bit_length()
