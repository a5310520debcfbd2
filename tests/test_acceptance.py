"""Acceptance suite: ten end-to-end checks, one per guaranteed behavior.

Each test prints a single ``ACCEPTANCE NN: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts.  The checks are exact — no tolerances —
and the three long-running ones enforce wall-clock budgets:

  01  Denniston arcs for every q in {4,8,16,32} and every power-of-two
      degree d with 2 <= d <= q are maximal arcs (independent line scan);
      < 10 s total.
  02  Exhaustive conic-composition disjointness over GF(8) and GF(16):
      every composable pair with composition trace 1 is pairwise disjoint
      from its composition; < 60 s.
  03  Arc -> flock -> arc is the identity and every flock passes both the
      pairwise trace test and the brute-force cone-section oracle.
  04  The geometric projection route equals the algebraic correspondence
      plane-for-plane for q in {8, 16, 32}.
  05  Pencil-plane identities on >= 1000 random disjoint-section plane
      pairs per field: the composed plane contains the common line, the
      singular plane passes through (1,0,1,0), and its trace in X0 = 0 is
      the external line of the two projected conics.
  06  Denniston arcs yield linear flocks; the GF(32) degree-8 extension
      arc yields an additive, non-linear flock.
  07  Trace-system solver: the exhaustive mu scan (the tests' oracle)
      equals the GF(2) elimination over every (H, lambda_d) with |H| in
      {2, 4} for q in {16, 32} — valid rho sets, prefilter and valid counts,
      and solution counts 2^(h-rank) or 0; < 30 s.
  08  End-to-end doubling over GF(32): the first subgroup pair admitting a
      valid rho yields a verified degree-8, 232-point arc containing its
      degree-4 Denniston base, with concurrent Denniston lines.
  09  guaranteed_degree matches an independent doubling recurrence for
      h = 1..16 and is realized at h = 5 by the arc of check 08 and at h = 7
      by the verified example arc of the |H| = 4 search.
  10  Parity split: epsilon = 1 for GF(16), 0 for GF(32); on >= 100
      sampled (system, rho) per field every single trace condition is
      confirmed or refuted by the point-intersection oracle, and the
      squared redundant check agrees.
"""

import random
import time

import oracles
from conftest import BATTERY_ALPHA, battery_specs

from arcflock.finite_field import make_field
from arcflock.flocks import (
    EMBEDDING_PLANE,
    SINGULAR_PLANE,
    arc_to_flock,
    classify_flock,
    denniston_line,
    denniston_lines_concurrent,
    flock_to_arc,
    geometric_to_additive,
    is_denniston_type,
    plane_compose,
    project_arc,
    section_trace,
    singular_plane,
    standardize_plane,
    verify_partial_flock,
)
from arcflock.mathon_arcs import (
    Conic,
    arc_points,
    compose,
    composition_trace,
    denniston_arc,
    quadric_points,
    verify_maximal_arc,
)
from arcflock.search import (
    base_denniston_arc,
    beta_of,
    build_trace_system,
    construct_extension_arc,
    double_spec,
    enumerate_group_specs,
    guaranteed_degree,
    rank_analysis,
    search_field,
    search_group,
    solve_trace_system,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_denniston_sufficiency():
    """Every subgroup degree gives a maximal arc, sizes and line meets exact."""
    t0 = time.monotonic()
    failures = []
    cases = 0
    for h, alpha, d in battery_specs():
        gf = make_field(h)
        q = gf.q
        m = denniston_arc(gf, alpha, tuple(range(1, d)))
        pts = arc_points(m)
        if len(pts) != q * (d - 1) + d:
            failures.append(f"q={q} d={d}: size {len(pts)}")
        # independent line scan: count arc points on every line of the plane
        per_line = {}
        for pt in pts:
            for ln in oracles.lines_through2(gf, pt):
                per_line[ln] = per_line.get(ln, 0) + 1
        meets = set(per_line.values())
        if len(per_line) < q * q + q + 1:
            meets.add(0)
        if not meets <= {0, d}:
            failures.append(f"q={q} d={d}: line meets {sorted(meets)}")
        cases += 1
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s (budget 10s)")
    ok = not failures
    _report(1, ok, f"{cases} (q,d) cases, sizes q(d-1)+d, line meets in {{0,d}}, "
                   f"{elapsed:.1f}s" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_02_composition_disjointness_exhaustive():
    """All composable conic pairs with composition trace 1, over GF(8) and GF(16).

    Pair counts frozen from an exhaustive scan: 5880 (q=8), 655200 (q=16).
    Conic point sets become bitmasks over the point index; the composition
    is recomputed inline from the weighted-average formula and bound back to
    the library compose/composition_trace on a deterministic subsample.
    """
    expected_pairs = {8: 5880, 16: 655200}
    t0 = time.monotonic()
    failures = []
    summary = []
    for h in (3, 4):
        gf = make_field(h)
        q = gf.q
        index = {pt: i for i, pt in enumerate(oracles.points(gf, 3))}
        conics = []
        masks = {}
        for a in range(1, q):
            for b in range(q):
                if gf.trace(gf.mul(a, b)) != 1:
                    continue
                for l in range(1, q):
                    mask = 0
                    for pt in quadric_points(gf, a, b, l):
                        mask |= 1 << index[pt]
                    conics.append((a, b, l))
                    masks[(a, b, l)] = mask
        mul, inv, trace = gf.mul, gf.inv, gf.trace
        n = len(conics)
        count = 0
        bound = 0
        for i in range(n):
            a1, b1, l1 = conics[i]
            m1 = masks[(a1, b1, l1)]
            for j in range(i + 1, n):
                a2, b2, l2 = conics[j]
                dl = l1 ^ l2
                if dl == 0:
                    continue  # not composable
                idl = inv(dl)
                na = mul(idl, mul(a1, l1) ^ mul(a2, l2))
                nb = mul(idl, mul(b1, l1) ^ mul(b2, l2))
                if trace(mul(na, nb)) != 1:
                    continue
                count += 1
                m2 = masks[(a2, b2, l2)]
                mc = masks[(na, nb, dl)]
                if m1 & m2 or m1 & mc or m2 & mc:
                    failures.append(f"q={q}: overlap for {(a1,b1,l1)} vs {(a2,b2,l2)}")
                if count % 9973 == 1:  # deterministic subsample: bind to the library
                    c1 = Conic(gf, a1, b1, l1)
                    c2 = Conic(gf, a2, b2, l2)
                    cc = compose(c1, c2)
                    if (cc.alpha, cc.beta, cc.lam) != (na, nb, dl):
                        failures.append(f"q={q}: inline compose deviates at {(i, j)}")
                    if composition_trace(c1, c2) != 1:
                        failures.append(f"q={q}: inline trace deviates at {(i, j)}")
                    bound += 1
        if count != expected_pairs[q]:
            failures.append(f"q={q}: {count} trace-1 pairs, expected {expected_pairs[q]}")
        summary.append(f"q={q}: {count} pairs, {bound} library-bound")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s (budget 60s)")
    ok = not failures
    _report(2, ok, f"{'; '.join(summary)}, all pairwise disjoint, {elapsed:.1f}s"
            if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_03_arc_flock_round_trip(battery_arcs, generic_arc_q8,
                                            extension_arc_q32):
    """flock_to_arc(arc_to_flock(m)) == m; flocks pass trace test and oracle."""
    arcs = list(battery_arcs.values()) + [generic_arc_q8, extension_arc_q32]
    failures = []
    for m in arcs:
        tag = f"q={m.gf.q} deg={m.degree}"
        F = arc_to_flock(m)
        if flock_to_arc(F) != m:
            failures.append(f"{tag}: round trip broke")
        report = verify_partial_flock(F)
        if any(s != m.gf.q + 1 for s in report.section_sizes):
            failures.append(f"{tag}: a section is not a conic")
        if any(tr != 1 for _, tr, _ in report.pairs):
            failures.append(f"{tag}: trace test failed")
        if any(shared != 0 for _, _, shared in report.pairs):
            failures.append(f"{tag}: sections share cone points")
        if not report.verdict:
            failures.append(f"{tag}: verdict false")
    ok = not failures
    _report(3, ok, f"{len(arcs)} arcs round-tripped; every flock passed the trace "
                   f"test and the cone-section oracle" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_04_projection_chain_equals_algebraic(battery_arcs,
                                                        generic_arc_q8,
                                                        extension_arc_q32):
    """geometric_to_additive(project_arc(m, (1,0,1,0))) == arc_to_flock(m)."""
    arcs = [m for m in battery_arcs.values() if m.gf.q in (8, 16, 32)]
    arcs += [generic_arc_q8, extension_arc_q32]
    failures = []
    for m in arcs:
        chained = geometric_to_additive(project_arc(m, (1, 0, 1, 0)))
        direct = arc_to_flock(m)
        if chained != direct:
            failures.append(f"q={m.gf.q} deg={m.degree}: plane sets differ")
    ok = not failures
    _report(4, ok, f"{len(arcs)} arcs over q in {{8,16,32}}: projection chain "
                   f"equals the algebraic flock plane-for-plane"
            if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_05_pencil_plane_identities():
    """>= 1000 random disjoint-section plane pairs per field q <= 32.

    Pairs are drawn (with replacement, seeded) from scaled standard-form
    planes a X0 + b X1 + (a+1) X2 + c X3 = 0 whose sections project to
    valid conics (trace(b c) = 1), with distinct a and disjoint sections.
    """
    failures = []
    totals = []
    for h in (2, 3, 4, 5):
        gf = make_field(h)
        q = gf.q
        rng = random.Random(50_000 + h)
        accepted = 0
        while accepted < 1000:
            a1, a2 = rng.randrange(1, q), rng.randrange(1, q)
            if a1 == a2:
                continue
            b1, c1 = rng.randrange(q), rng.randrange(q)
            b2, c2 = rng.randrange(q), rng.randrange(q)
            if gf.trace(gf.mul(b1, c1)) != 1 or gf.trace(gf.mul(b2, c2)) != 1:
                continue
            s1, s2 = rng.randrange(1, q), rng.randrange(1, q)
            V = tuple(gf.mul(s1, x) for x in (a1, b1, a1 ^ 1, c1))
            W = tuple(gf.mul(s2, x) for x in (a2, b2, a2 ^ 1, c2))
            if section_trace(gf, V, W) != 1:
                continue
            accepted += 1
            composed = plane_compose(gf, V, W)
            for pt in oracles.perp(gf, [V, W], 4):
                if not oracles.incident(gf, pt, composed):
                    failures.append(f"q={q}: composed plane misses the common "
                                    f"line of {V} and {W}")
            S = singular_plane(gf, V, W)
            if not oracles.incident(gf, (1, 0, 1, 0), S):
                failures.append(f"q={q}: singular plane of {V}, {W} misses (1,0,1,0)")
            k1 = oracles.standard_plane_conic(gf, standardize_plane(gf, V))
            k2 = oracles.standard_plane_conic(gf, standardize_plane(gf, W))
            dline = denniston_line(k1, k2)
            for pt in oracles.perp(gf, [S, EMBEDDING_PLANE], 4):
                if pt[0] != 0 or not oracles.incident(gf, oracles.unembed_point(pt), dline):
                    failures.append(f"q={q}: singular-plane trace of {V}, {W} "
                                    f"is not the external line {dline}")
            if failures:
                break
        totals.append(f"q={q}: {accepted}")
        if failures:
            break
    ok = not failures
    _report(5, ok, f"{'; '.join(totals)} pairs — composed plane contains the "
                   f"common line; singular plane through (1,0,1,0) traces the "
                   f"external line" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_06_linearity_iff_denniston(battery_arcs, extension_arc_q32):
    """Denniston arcs give linear flocks; the degree-8 extension arc does not."""
    failures = []
    for (q, d), m in battery_arcs.items():
        cls = classify_flock(arc_to_flock(m))
        if not cls.additive or not cls.linear:
            failures.append(f"q={q} d={d}: additive={cls.additive} linear={cls.linear}")
    ext_cls = classify_flock(arc_to_flock(extension_arc_q32))
    if not ext_cls.additive:
        failures.append("extension flock not additive")
    if ext_cls.linear:
        failures.append("extension flock unexpectedly linear")
    if is_denniston_type(extension_arc_q32):
        failures.append("extension arc unexpectedly of Denniston type")
    ok = not failures
    _report(6, ok, f"{len(battery_arcs)} Denniston flocks linear; GF(32) degree-8 "
                   f"extension flock additive and non-linear"
            if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_07_solver_equivalence():
    """Scan == GF(2) elimination over all (H, lambda_d), |H| in {2,4}, q in {16,32}."""
    t0 = time.monotonic()
    failures = []
    systems = 0
    for h in (4, 5):
        gf = make_field(h)
        for order in (2, 4):
            for spec in enumerate_group_specs(gf, order):
                tag = f"q={gf.q} H={spec.H} ld={spec.lambda_d}"
                system = build_trace_system(spec)
                scan = oracles.mu_solutions_scan(system)
                _, prefilter, valid = oracles.scan_trace_system(system)
                if solve_trace_system(system) != valid:
                    failures.append(f"{tag}: valid rho by scan != by elimination")
                record = search_group(spec)
                if (record.num_rho_prefilter, record.num_rho_valid) != (
                        len(prefilter), len(valid)):
                    failures.append(f"{tag}: counts ({record.num_rho_prefilter}, "
                                    f"{record.num_rho_valid}) != scan "
                                    f"({len(prefilter)}, {len(valid)})")
                analysis = rank_analysis(system)
                if analysis.solution_count != len(scan):
                    failures.append(f"{tag}: solution_count {analysis.solution_count}"
                                    f" != scan {len(scan)}")
                if len(scan) not in (0, 1 << (gf.h - analysis.rank)):
                    failures.append(f"{tag}: {len(scan)} solutions with rank "
                                    f"{analysis.rank}")
                systems += 1
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (budget 30s)")
    ok = not failures
    _report(7, ok, f"{systems} systems: mu scan == GF(2) elimination, counts "
                   f"2^(h-rank) or 0, {elapsed:.1f}s" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_08_end_to_end_doubling_gf32():
    """First GF(32) order-4 subgroup pair with a valid rho doubles its arc."""
    gf = make_field(5)
    failures = []
    hit = None
    for spec in enumerate_group_specs(gf, 4):
        valid = solve_trace_system(build_trace_system(spec))
        if valid:
            hit = (spec, min(valid))
            break
    if hit is None:
        failures.append("no (H, lambda_d) pair admits a valid rho")
        _report(8, False, failures[0])
        assert False, failures
    spec, rho = hit
    # frozen witness: the ascending scan first succeeds here  [DERIVED:
    # recomputed above; doubles as a regression pin]
    if (spec.H, spec.lambda_d, rho) != ((0, 1, 2, 3), 4, 16):
        failures.append(f"first valid pair moved: H={spec.H} ld={spec.lambda_d} "
                        f"rho={rho}")
    base = base_denniston_arc(spec)
    m = construct_extension_arc(spec, rho)
    pts = arc_points(m)
    base_pts = arc_points(base)
    if m.degree != 8:
        failures.append(f"degree {m.degree} != 8")
    if len(pts) != 232:
        failures.append(f"{len(pts)} points != 232")
    report = verify_maximal_arc(gf, pts, 8)
    if not report.verdict or set(report.histogram) > {0, 8}:
        failures.append(f"line scan rejects the arc: {report.histogram}")
    if base.degree != 4 or not is_denniston_type(base):
        failures.append("base arc is not a degree-4 Denniston arc")
    if not set(base.conics) <= set(m.conics) or not base_pts <= pts:
        failures.append("base arc is not contained in the extension")
    lines = denniston_lines_concurrent(m)
    if not lines.concurrent:
        failures.append("Denniston lines are not concurrent")
    elif lines.common_point != (1, 0, 0):
        failures.append(f"common point {lines.common_point} != (1, 0, 0)")
    ok = not failures
    _report(8, ok, f"H={spec.H} ld={spec.lambda_d} rho={rho}: verified degree-8 "
                   f"232-point arc contains its Denniston base; {len(lines.lines)} "
                   f"Denniston lines meet at {lines.common_point}"
            if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_09_guaranteed_degree_formula():
    """guaranteed_degree vs an independent doubling recurrence; realized at h=5, 7."""
    failures = []
    for h in range(1, 17):
        g = 2  # independent oracle: double while another doubling still fits
        while g <= h:
            g *= 2
        if guaranteed_degree(h) != g:
            failures.append(f"h={h}: guaranteed_degree {guaranteed_degree(h)} != {g}")
    gf = make_field(5)
    spec = next(s for s in enumerate_group_specs(gf, 4)
                if solve_trace_system(build_trace_system(s)))
    realized = double_spec(spec)[2].degree
    if realized < guaranteed_degree(5):
        failures.append(f"h=5 realizes degree {realized} < {guaranteed_degree(5)}")
    gf7 = make_field(7)
    examples = [r.example_arc for r in search_field(gf7, 4) if r.example_arc]
    if len(examples) != 1:
        failures.append(f"h=7 search gives {len(examples)} example arcs, not 1")
    else:
        arc7 = examples[0]
        if arc7.degree != guaranteed_degree(7):
            failures.append(f"h=7 realizes degree {arc7.degree} != "
                            f"{guaranteed_degree(7)}")
        if not verify_maximal_arc(gf7, arc_points(arc7), arc7.degree).verdict:
            failures.append("h=7 example arc fails the line scan")
    ok = not failures
    _report(9, ok, f"h=1..16 match the doubling recurrence; h=5 realizes degree "
                   f"{realized} >= {guaranteed_degree(5)}; h=7 realizes a verified "
                   f"degree-{guaranteed_degree(7)} arc" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_10_parity_split_and_oracle():
    """epsilon by field parity; sampled conditions vs the point oracle."""
    failures = []
    summaries = []
    for h, want_eps in ((4, 1), (5, 0)):
        gf = make_field(h)
        q = gf.q
        specs = (list(enumerate_group_specs(gf, 2))
                 + list(enumerate_group_specs(gf, 4)))
        for spec in specs:
            eps = build_trace_system(spec).epsilon
            if eps != want_eps:
                failures.append(f"q={q} H={spec.H} ld={spec.lambda_d}: "
                                f"epsilon {eps} != {want_eps}")
        rng = random.Random(100_000 + h)
        confirmed = refuted = 0
        for _ in range(120):
            spec = rng.choice(specs)
            rho = rng.randrange(1, q)
            system = build_trace_system(spec)
            mu = gf.inv(rho)
            beta = beta_of(gf, spec.lambda_d, rho)
            cand = quadric_points(gf, 1, gf.square(beta), gf.square(spec.lambda_d))
            for lam, c in zip(spec.H[1:], system.conditions):
                predicted = gf.trace(gf.mul(c, mu)) == system.epsilon
                base = quadric_points(gf, 1, 1, gf.square(lam))
                disjoint = cand.isdisjoint(base)
                if predicted != disjoint:
                    failures.append(f"q={q} H={spec.H} ld={spec.lambda_d} "
                                    f"rho={rho} lam={lam}: prediction "
                                    f"{predicted} vs oracle {disjoint}")
                if (oracles.condition_value_squared(gf, c, rho) == 1) != predicted:
                    failures.append(f"q={q} rho={rho}: squared redundant check "
                                    f"deviates")
                if predicted:
                    confirmed += 1
                else:
                    refuted += 1
        if not confirmed or not refuted:
            failures.append(f"q={q}: one-sided sample (confirmed={confirmed}, "
                            f"refuted={refuted})")
        summaries.append(f"q={q}: eps={want_eps} on {len(specs)} systems, "
                         f"{confirmed}+{refuted} conditions checked")
    ok = not failures
    _report(10, ok, "; ".join(summaries) if ok else "; ".join(failures[:4]))
    assert ok, failures
