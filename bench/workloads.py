"""The benchmark's four workloads: seeded inputs, timed jobs and their checks.

Each workload is a closed loop: one process runs one job after another.  A
workload has a ``setup(af, rng)`` that builds its inputs (field
construction and input generation; this is what ``setup_s`` measures) and a
``run(ctx, inputs)`` that runs the fixed job list through ``ctx.job``.
Only the package call inside ``ctx.job`` is timed; the correctness check
that follows it is not.

The seed picks the inputs' free parameters (the trace-1 alpha, the nested
subgroup bases, the projection point, the sampled plane pairs, the h=16
trace systems).  Field degrees, arc degrees and job counts never depend on
it, so the work done is the same for every seed.

Seed-dependent results are checked by invariants computed here from field
arithmetic alone, never by the function under test.  Seed-independent
results (survey records, CLI output) are checked against the sha256 digests
in ``digests.json``, frozen from the package as first benchmarked.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))


class JobAborted(Exception):
    """A job raised, so the jobs that depend on its result cannot run."""


class Context:
    """Times jobs, runs their checks and counts attempts and failures."""

    def __init__(self, workdir: Path, trace_kind: Optional[str] = None) -> None:
        self.workdir = workdir
        self.trace_kind = trace_kind
        self.job_s: list[float] = []
        # perf_counter() at each job's start, to match the reference kernel's samples
        self.job_start: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.work: dict[str, float] = {}
        # per-layer statistics of traced child processes (cli_session)
        self.child_layers: list[dict] = []

    def job(self, name: str, fn: Callable, *args, check: Callable[[Any], Optional[str]]):
        """Time ``fn(*args)``, then check its result; returns the result."""
        self.attempted += 1
        t0 = time.perf_counter()
        self.job_start.append(t0)
        try:
            result = fn(*args)
        except Exception as exc:  # a raising job is a failed job, not a crash
            self.job_s.append(time.perf_counter() - t0)
            self.fail(name, f"raised {type(exc).__name__}: {exc}")
            raise JobAborted from exc
        self.job_s.append(time.perf_counter() - t0)
        problem = check(result)
        if problem:
            self.fail(name, problem)
        return result

    def fail(self, name: str, problem: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {problem}")

    @contextlib.contextmanager
    def group(self):
        """Jobs in a group depend on each other; a raising job ends the group."""
        try:
            yield
        except JobAborted:
            pass


def sha256_json(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_check(key: str, encode: Callable[[Any], Any]) -> Callable[[Any], Optional[str]]:
    def check(result):
        got = sha256_json(encode(result))
        want = DIGESTS.get(key)
        return None if got == want else f"digest {got} != frozen {want}"

    return check


# -- field helpers: independent of the functions under test -------------------


def trace_one_element(gf, rng: random.Random, exclude=(0, 1)) -> int:
    while True:
        a = rng.randrange(1, gf.q)
        if a not in exclude and gf.trace(a) == 1:
            return a


def independent_elements(gf, rng: random.Random, k: int, start=()) -> list[int]:
    """``start`` extended by random elements until it has k GF(2)-independent ones."""
    gens = list(start)
    while len(gens) < k:
        g = rng.randrange(1, gf.q)
        if g not in gf.additive_span(gens):
            gens.append(g)
    return gens


def nonzero_span(gf, gens) -> tuple[int, ...]:
    return tuple(sorted(gf.additive_span(gens) - {0}))


def normalized(gf, v) -> tuple[int, ...]:
    """First nonzero homogeneous coordinate scaled to 1."""
    lead = next(c for c in v if c)
    s = gf.inv(lead)
    return tuple(gf.mul(s, c) for c in v)


def valid_rhos(gf, H, lambda_d: int) -> list[int]:
    """Every rho whose extension conic is nondegenerate and disjoint from the base arc.

    Scans mu = 1/rho directly against the conditions
    trace(c_lam * mu) = 1 + trace(1) and trace((lambda_d + 1) mu + 1) = 1.
    """
    eps = 1 ^ gf.trace(1)
    top = lambda_d ^ 1
    cs = [gf.div(gf.mul(lam, top), lambda_d ^ lam) for lam in H if lam]
    out = []
    for mu in range(1, gf.q):
        if gf.trace(gf.mul(top, mu) ^ 1) != 1:
            continue
        if all(gf.trace(gf.mul(c, mu)) == eps for c in cs):
            out.append(gf.inv(mu))
    return sorted(out)


def gf2_solution_count(rows: list[int], rhs: list[int], nbits: int) -> int:
    """Number of x in GF(2)^nbits with parity(row & x) = b for every row."""
    pivots: dict[int, tuple[int, int]] = {}
    for row, b in zip(rows, rhs):
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (row, b)
                break
            prow, pb = pivots[lead]
            row ^= prow
            b ^= pb
        else:
            if b:
                return 0
    return 1 << (nbits - len(pivots))


def functional_row(gf, c: int) -> int:
    """Bit i set when trace(c * 2^i) = 1: the functional mu -> trace(c mu)."""
    return sum(1 << i for i in range(gf.h) if gf.trace(gf.mul(c, 1 << i)))


def expected_trace_counts(gf, H, lambda_d: int) -> tuple[int, int]:
    """(num_rho_prefilter, num_rho_valid) of a trace system, by GF(2) counting."""
    eps = 1 ^ gf.trace(1)
    top = lambda_d ^ 1
    rows = [functional_row(gf, gf.div(gf.mul(lam, top), lambda_d ^ lam)) for lam in H if lam]
    # mu = 0 is no rho; it solves both systems exactly when eps = 0
    mu0 = 1 if eps == 0 else 0
    pre = gf2_solution_count(rows, [eps] * len(rows), gf.h) - mu0
    # trace(beta) = 1 with beta = top * mu + 1 is one more row: trace(top * mu) = eps
    rows.append(functional_row(gf, top))
    valid = gf2_solution_count(rows, [eps] * len(rows), gf.h) - mu0
    return pre, valid


# -- shared checks ------------------------------------------------------------


def expect(*conditions: tuple[bool, str]) -> Optional[str]:
    for ok, message in conditions:
        if not ok:
            return message
    return None


def arc_size(q: int, d: int) -> int:
    return q * (d - 1) + d


def check_arc_points(q: int, d: int) -> Callable:
    return lambda pts: expect((len(pts) == arc_size(q, d), f"{len(pts)} points"))


def check_maximal_arc(q: int, d: int) -> Callable:
    """The line histogram of a degree-d maximal arc is {0: q^2+q+1-m, d: m}."""
    n = arc_size(q, d)
    met = n * (q + 1) // d
    want = {0: q * q + q + 1 - met, d: met}

    def check(report):
        return expect(
            (report.size == n, f"size {report.size} != {n}"),
            (dict(report.histogram) == want, f"histogram {dict(report.histogram)} != {want}"),
        )

    return check


def check_flock_report(q: int, size: int) -> Callable:
    """Every section has q + 1 points and every pair has trace 1 and 0 shared points."""

    def check(report):
        return expect(
            (report.size == size, f"{report.size} planes, expected {size}"),
            (all(s == q + 1 for s in report.section_sizes),
             f"section sizes {sorted(set(report.section_sizes))}"),
            (len(report.pairs) == size * (size - 1) // 2, f"{len(report.pairs)} pairs"),
            (all(tr == 1 and shared == 0 for _, tr, shared in report.pairs),
             "a plane pair meets or fails the trace test"),
        )

    return check


# -- arc_oracle ---------------------------------------------------------------


def extension_inputs(af, gf, rng: random.Random, order: int):
    """A seeded (GroupSpec, rho) whose trace system has a valid rho."""
    while True:
        gens = independent_elements(gf, rng, order.bit_length() - 1, start=[1])
        H = tuple(sorted(gf.additive_span(gens)))
        lambda_d = rng.choice([x for x in range(gf.q) if x not in H])
        rhos = valid_rhos(gf, H, lambda_d)
        if rhos:
            return af.GroupSpec(gf, H, lambda_d), rng.choice(rhos)


def arc_oracle_setup(af, rng: random.Random):
    arcs = []
    for h, degrees in ((7, (4, 8, 16, 32)), (8, (4, 16))):
        gf = af.make_field(h)
        alpha = trace_one_element(gf, rng)
        # nested subgroups: the arcs of one field share conics and points
        gens = independent_elements(gf, rng, max(degrees).bit_length() - 1)
        for d in degrees:
            arcs.append((gf, d, alpha, nonzero_span(gf, gens[: d.bit_length() - 1])))
    spec, rho = extension_inputs(af, af.make_field(7), rng, order=4)
    return {"arcs": arcs, "extension": (spec, rho)}


def arc_oracle_run(ctx: Context, af, inputs) -> None:
    def oracle_jobs(label, gf, d, build, *build_args):
        q = gf.q
        with ctx.group():
            arc = ctx.job(f"{label} build", build, *build_args,
                          check=lambda m: expect((m.degree == d, f"degree {m.degree}")))
            pts = ctx.job(f"{label} points", af.arc_points, arc, check=check_arc_points(q, d))
            ctx.job(f"{label} verify", af.verify_maximal_arc, gf, pts, d,
                    check=check_maximal_arc(q, d))
            flock = ctx.job(f"{label} arc_to_flock", af.arc_to_flock, arc,
                            check=lambda F: expect((F.size == d, f"{F.size} planes")))
            ctx.job(f"{label} flock_to_arc", af.flock_to_arc, flock,
                    check=lambda m: expect((m == arc, "round trip changed the arc")))
            ctx.job(f"{label} chain", lambda m: af.geometric_to_additive(af.project_arc(m)), arc,
                    check=lambda F: expect((F == flock, "chain differs from arc_to_flock")))
            ctx.job(f"{label} lines", af.denniston_lines_concurrent, arc,
                    check=lambda r: expect((r.concurrent, "Denniston lines not concurrent")))

    for gf, d, alpha, lams in inputs["arcs"]:
        oracle_jobs(f"denniston h={gf.h} d={d}", gf, d, af.denniston_arc, gf, alpha, lams)
    spec, rho = inputs["extension"]
    oracle_jobs(f"extension h={spec.gf.h}", spec.gf, 2 * spec.d,
                af.construct_extension_arc, spec, rho)


# -- flock_oracle -------------------------------------------------------------


def raw_plane(gf, alpha: int, beta: int, lam: int) -> tuple[int, ...]:
    """The default-projection section plane [sqrt(lam), sqrt(alpha), sqrt(lam)+1, sqrt(beta)]."""
    sl = gf.sqrt(lam)
    return normalized(gf, (sl, gf.sqrt(alpha), sl ^ 1, gf.sqrt(beta)))


def sampled_plane_pairs(gf, rng: random.Random, count: int):
    """Random conic pairs with distinct lam whose sections and composition are disjoint."""
    pairs = []
    while len(pairs) < count:
        conics = []
        for _ in range(2):
            a = rng.randrange(1, gf.q)
            b = rng.randrange(1, gf.q)
            if gf.trace(gf.mul(a, b)) == 1:
                conics.append((a, b, rng.randrange(1, gf.q)))
        if len(conics) < 2 or conics[0][2] == conics[1][2]:
            continue
        (a1, b1, l1), (a2, b2, l2) = conics
        dl = l1 ^ l2
        a3 = gf.div(gf.mul(a1, l1) ^ gf.mul(a2, l2), dl)
        b3 = gf.div(gf.mul(b1, l1) ^ gf.mul(b2, l2), dl)
        if gf.trace(gf.mul(a3, b3)) != 1:
            continue
        V, W = raw_plane(gf, a1, b1, l1), raw_plane(gf, a2, b2, l2)
        # the section trace test on the normalized planes [1, f, t, g]
        dt = V[2] ^ W[2]
        if dt == 0 or gf.trace(gf.div(gf.mul(V[1] ^ W[1], V[3] ^ W[3]), gf.mul(dt, dt))) != 1:
            continue
        line = normalized(gf, (gf.sqrt(a1 ^ a2), gf.sqrt(b1 ^ b2), gf.sqrt(dl)))
        pairs.append((V, W, raw_plane(gf, a3, b3, dl), line))
    return pairs


def flock_oracle_setup(af, rng: random.Random):
    arcs = []
    for h, degrees in ((6, (4, 16, 32)), (7, (4, 16))):
        gf = af.make_field(h)
        alpha = trace_one_element(gf, rng)
        gens = independent_elements(gf, rng, max(degrees).bit_length() - 1)
        y = rng.randrange(2, gf.q)
        for d in degrees:
            k = d.bit_length() - 1
            extra = independent_elements(gf, rng, k + 1, start=gens[:k])[k]
            arcs.append((gf, d, alpha, nonzero_span(gf, gens[:k]), y, extra))
    gf7 = af.make_field(7)
    return {"arcs": arcs, "pairs": (gf7, sampled_plane_pairs(gf7, rng, 12))}


def additive_denniston_planes(gf, alpha: int, lams) -> tuple[tuple[int, ...], ...]:
    """[1, alpha lam, lam, lam] per lam, plus X0 = 0 for lam = 0."""
    return tuple(sorted({(1, 0, 0, 0)} | {(1, gf.mul(alpha, l), l, l) for l in lams}))


def flock_oracle_run(ctx: Context, af, inputs) -> None:
    for gf, d, alpha, lams, y, extra in inputs["arcs"]:
        q = gf.q
        label = f"h={gf.h} d={d}"
        with ctx.group():
            arc = ctx.job(f"{label} build", af.denniston_arc, gf, alpha, lams,
                          check=lambda m: expect((m.degree == d, f"degree {m.degree}")))
            flock = ctx.job(f"{label} arc_to_flock", af.arc_to_flock, arc,
                            check=lambda F: expect((
                                F.planes == additive_denniston_planes(gf, alpha, lams),
                                "planes differ from [1, alpha lam, lam, lam]")))
            ctx.job(f"{label} verify", af.verify_partial_flock, flock,
                    check=check_flock_report(q, d))
            projected = ctx.job(f"{label} project y={y}", af.project_arc, arc, (1, 0, y, 0),
                                check=lambda F: expect((F.size == d, f"{F.size} planes")))
            ctx.job(f"{label} verify projected", af.verify_partial_flock, projected,
                    check=check_flock_report(q, d))
            if d <= 16:
                doubled = nonzero_span(gf, list(lams) + [extra])
                ctx.job(f"{label} extend", af.extend_flock, flock,
                        (1, gf.mul(alpha, extra), extra, extra),
                        check=lambda F: expect((
                            F.planes == additive_denniston_planes(gf, alpha, doubled),
                            "extension is not the doubled Denniston flock")))

    gf, pairs = inputs["pairs"]
    for i, (V, W, composed, line) in enumerate(pairs):
        with ctx.group():
            ctx.job(f"pair {i} compose", af.plane_compose, gf, V, W,
                    check=lambda u: expect((u == composed, f"{u} != {composed}")))
            ctx.job(f"pair {i} singular", af.singular_plane, gf, V, W,
                    check=lambda u: expect(
                        (u[0] == u[2], "singular plane misses (1,0,1,0)"),
                        (normalized(gf, (u[1], u[3], u[2])) == line,
                         "trace in X0 = 0 is not the Denniston line")))
            ctx.job(f"pair {i} sections", lambda: [af.flocks.plane_section(gf, u) for u in (V, W, composed)],
                    check=lambda secs: expect(
                        (all(len(s) == gf.q + 1 for s in secs), "section size != q + 1"),
                        (not (secs[0] & secs[2] or secs[1] & secs[2] or secs[0] & secs[1]),
                         "composed section meets a factor")))


# -- trace_survey -------------------------------------------------------------


def records_json(records) -> list:
    return [r.to_json() for r in records]


def trace_survey_setup(af, rng: random.Random):
    gf16 = af.make_field(16)
    systems = []
    for _ in range(4):
        H = tuple(sorted(gf16.additive_span(independent_elements(gf16, rng, 2, start=[1]))))
        lambda_d = rng.randrange(gf16.q)
        while lambda_d in H:
            lambda_d = rng.randrange(gf16.q)
        systems.append(af.GroupSpec(gf16, H, lambda_d))
    return {
        "surveys": [(af.make_field(7), 4), (af.make_field(9), 2)],
        "rank_field": af.make_field(6),
        "systems": systems,
    }


def trace_survey_run(ctx: Context, af, inputs) -> None:
    solved = with_valid = 0
    for gf, order in inputs["surveys"]:
        with ctx.group():
            records = ctx.job(f"search_field h={gf.h} |H|={order}", af.search_field, gf, order,
                              check=digest_check(f"search_h{gf.h}_d{order}", records_json))
            solved += len(records)
            with_valid += sum(1 for r in records if r.num_rho_valid)

    def rank_survey(gf, order):
        return [(s, af.rank_analysis(af.build_trace_system(s)))
                for s in af.search.enumerate_group_specs(gf, order)]

    gf6 = inputs["rank_field"]
    with ctx.group():
        ctx.job("rank_analysis h=6 |H|=8", rank_survey, gf6, 8,
                check=digest_check("rank_h6_d8", lambda rows: [
                    [list(s.H), s.lambda_d, a.to_json()] for s, a in rows]))

    for spec in inputs["systems"]:
        pre, valid = expected_trace_counts(spec.gf, spec.H, spec.lambda_d)
        with ctx.group():
            record = ctx.job(f"search_group h=16 H={spec.H} lambda_d={spec.lambda_d}",
                             af.search_group, spec,
                             check=lambda r: expect(
                                 (r.num_rho_prefilter == pre,
                                  f"prefilter {r.num_rho_prefilter} != {pre}"),
                                 (r.num_rho_valid == valid, f"valid {r.num_rho_valid} != {valid}")))
            solved += 1
            with_valid += 1 if record.num_rho_valid else 0
    ctx.work["search.valid_ratio"] = with_valid / solved if solved else 0.0


# -- cli_session --------------------------------------------------------------

def cli_session_setup(af, rng: random.Random):
    """The fixed CLI script.  Its arguments come from field arithmetic, not the seed,
    so that every step's stdout can be checked against a frozen digest."""
    gf6, gf7 = af.make_field(6), af.make_field(7)
    alpha = min(a for a in range(2, gf6.q) if gf6.trace(a) == 1)
    H = tuple(sorted(gf7.additive_span([1, 2])))
    lambda_d = min(x for x in range(gf7.q) if x not in H and valid_rhos(gf7, H, x))
    steps = [
        ("construct_denniston", ["construct", "denniston", "--h", "6", "--alpha", str(alpha),
                                 "--A", "1,2,4"], "arc.json"),
        ("verify_arc", ["verify", "arc.json"], None),
        ("convert_arc_to_flock", ["convert", "--direction", "arc-to-flock", "arc.json"],
         "flock.json"),
        ("verify_flock", ["verify", "flock.json"], None),
        ("convert_flock_to_arc", ["convert", "--direction", "flock-to-arc", "flock.json"], None),
        ("convert_chain", ["convert", "--direction", "chain", "arc.json"], None),
        ("project", ["project", "arc.json", "--p", "1,0,2,0"], None),
        ("construct_mathon_extend", ["construct", "mathon-extend", "--h", "7", "--H", "1,2",
                                     "--lambda-d", str(lambda_d)], None),
        ("search", ["search", "--h", "7", "--d", "2"], None),
        ("rank", ["rank", "--h", "6", "--d", "4"], None),
    ]
    return {"steps": steps}


def cli_command(trace_kind: Optional[str], trace_out: Path) -> list[str]:
    if trace_kind is None:
        return [sys.executable, "-m", "arcflock"]
    return [sys.executable, str(BENCH_DIR / "traced_cli.py"), trace_kind, str(trace_out)]


def cli_session_run(ctx: Context, af, inputs) -> None:
    """Run the script one command at a time in the work directory; time each process."""
    workdir = ctx.workdir
    env = os.environ.copy()
    timings: dict[str, float] = {}
    stdout_bytes = 0
    layer_files = []

    def invoke(step, argv, index):
        trace_out = workdir / f"layers-{index}.json"
        layer_files.append(trace_out)
        t0 = time.perf_counter()
        proc = subprocess.run(cli_command(ctx.trace_kind, trace_out) + argv, cwd=workdir, env=env,
                              capture_output=True, timeout=120)
        timings[step] = time.perf_counter() - t0
        return proc

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with ctx.group():
            ctx.job("startup --help", invoke, "startup", ["--help"], 0,
                    check=lambda p: expect((p.returncode == 0, f"exit {p.returncode}"),
                                           (p.stdout.startswith(b"usage: arcflock"),
                                            "no usage line")))
        for index, (step, argv, save_as) in enumerate(inputs["steps"], start=1):
            with ctx.group():
                proc = ctx.job(step, invoke, step, argv, index,
                               check=lambda p, step=step: expect(
                                   (p.returncode == 0, f"exit {p.returncode}: {p.stderr[-300:]!r}"),
                                   (hashlib.sha256(p.stdout).hexdigest() == DIGESTS.get(f"cli_{step}"),
                                    f"stdout digest {hashlib.sha256(p.stdout).hexdigest()}")))
                stdout_bytes += len(proc.stdout)
                if save_as:
                    (workdir / save_as).write_bytes(proc.stdout)
        ctx.work.update({f"cli.{step}.s": t for step, t in timings.items()})
        ctx.work["cli.stdout_bytes"] = stdout_bytes
        ctx.child_layers = [json.loads(p.read_text()) for p in layer_files if p.exists()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


WORKLOADS = {
    "arc_oracle": (arc_oracle_setup, arc_oracle_run),
    "flock_oracle": (flock_oracle_setup, flock_oracle_run),
    "trace_survey": (trace_survey_setup, trace_survey_run),
    "cli_session": (cli_session_setup, cli_session_run),
}
