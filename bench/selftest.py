"""Self-tests of the benchmark's correctness gate, isolation and seed invariance.

    python3 bench/selftest.py

Checks that:

* corrupted results are counted as failed jobs: an arc with one point
  removed, a survey record with one field changed, a flock report with a
  shared point, a CLI stdout with one byte changed, and a job that raises;
* the GF(2) counting used to check the h=16 systems agrees with the package
  on every trace system of small fields;
* the tracer reports a missing function as absent instead of failing,
  finds every lru_cache of the package and writes its spans;
* workers run without ``ARCFLOCK_THREADS``;
* the traced work counts (``verify_maximal_arc.incidences``,
  ``cone_points.points_scanned``, ``search_group.calls``) and the job counts
  are identical under two seeds, for every workload.

Exits 0 when every check holds; prints one line per check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, find_caches, package_modules  # noqa: E402

import arcflock as af  # noqa: E402

FAILURES: list[str] = []


def report(name: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        FAILURES.append(name)


def counted_as_failed(fn, *args, check) -> bool:
    ctx = wl.Context(BENCH_DIR.parent / ".bench_work" / "selftest")
    with ctx.group():
        ctx.job("corrupted", fn, *args, check=check)
    return ctx.attempted == 1 and ctx.failed == 1


def passes(fn, *args, check) -> bool:
    ctx = wl.Context(BENCH_DIR.parent / ".bench_work" / "selftest")
    ctx.job("intact", fn, *args, check=check)
    return ctx.failed == 0


def test_corruption_is_counted() -> None:
    gf = af.make_field(4)
    arc = af.denniston_arc(gf, 8, (1, 2, 3))
    pts = af.arc_points(arc)
    check = wl.check_maximal_arc(gf.q, 4)
    report("intact arc passes the histogram check",
           passes(af.verify_maximal_arc, gf, pts, 4, check=check))
    damaged = frozenset(sorted(pts)[1:])
    report("arc with one point removed is counted as failed",
           counted_as_failed(af.verify_maximal_arc, gf, damaged, 4, check=check))

    flock = af.arc_to_flock(arc)
    fcheck = wl.check_flock_report(gf.q, flock.size)
    good = af.verify_partial_flock(flock)
    (ij, tr, _), *rest = good.pairs
    bad = dataclasses.replace(good, pairs=((ij, tr, 1), *rest))
    report("flock report with a shared point is counted as failed",
           passes(lambda: good, check=fcheck) and counted_as_failed(lambda: bad, check=fcheck))

    records = af.search_field(af.make_field(9), 2)
    dcheck = wl.digest_check("search_h9_d2", wl.records_json)
    changed = [dataclasses.replace(records[0], num_rho_valid=records[0].num_rho_valid + 1)]
    report("survey record with one field changed fails its frozen digest",
           passes(lambda: records, check=dcheck)
           and counted_as_failed(lambda: changed + records[1:], check=dcheck))

    stdout = b'{"kind":"arc"}\n'
    ccheck = lambda out: wl.expect(  # noqa: E731  the check cli_session applies
        (hashlib.sha256(out).hexdigest() == hashlib.sha256(stdout).hexdigest(), "digest"))
    report("CLI stdout with one byte changed is counted as failed",
           counted_as_failed(lambda: stdout.replace(b"arc", b"arC"), check=ccheck))

    report("a job that raises is counted as failed",
           counted_as_failed(af.denniston_arc, gf, 0, (1,), check=lambda m: None))


def test_trace_counts_agree_with_package() -> None:
    ok = True
    for h in (3, 4, 5):
        gf = af.make_field(h)
        for order in (2, 4):
            for spec in af.search.enumerate_group_specs(gf, order):
                record = af.search_group(spec)
                want = wl.expected_trace_counts(gf, spec.H, spec.lambda_d)
                ok &= (record.num_rho_prefilter, record.num_rho_valid) == want
                if gf.trace(1):  # extension arcs exist only in odd degree
                    rhos = wl.valid_rhos(gf, spec.H, spec.lambda_d)
                    ok &= len(rhos) == record.num_rho_valid
    report("GF(2) counting matches search_group for h=3..5, |H|=2,4", ok)


def test_isolation() -> None:
    os.environ["ARCFLOCK_THREADS"] = "4"
    env = run.worker_env()
    report("workers run without ARCFLOCK_THREADS and import from src/",
           "ARCFLOCK_THREADS" not in env and env["PYTHONPATH"] == str(run.ROOT / "src"))


def test_seed_invariance() -> None:
    keys = (("mathon_arcs.verify_maximal_arc", "incidences"),
            ("flocks.cone_points", "points_scanned"),
            ("search.search_group", "calls"))
    env = run.worker_env()
    for workload in (w["name"] for w in run.load_spec()["workloads"]):
        seen = []
        for seed in (1, 2):
            rep = run.call_worker(env, time.monotonic(), workload, seed, "spans")
            counts = tuple(rep["layers"].get(name, {}).get(field, 0) for name, field in keys)
            seen.append((counts, rep["attempted"], rep["failed"]))
        report(f"{workload}: work and job counts equal under seeds 1 and 2 {seen[0]}",
               seen[0] == seen[1] and seen[0][2] == 0)


def test_tracer_copes_with_refactors() -> None:
    mods = package_modules()
    caches = set(find_caches(mods))
    report(f"every lru_cache is found ({len(caches)})", caches == {
        "finite_field.make_field", "projective._projective_points", "projective._orthogonal2",
        "mathon_arcs.quadric_points", "flocks.cone_points", "flocks.nuclear_line_points"})
    scan = af.search.mu_solutions_scan
    del af.search.mu_solutions_scan
    try:
        tracer = Tracer()
        tracer.install("spans")
        report("a removed function is reported absent", tracer.absent == ["search.mu_solutions_scan"])
    finally:
        af.search.mu_solutions_scan = scan
    gf = af.make_field(3)
    af.arc_points(af.denniston_arc(gf, 1, (1,)))
    path = BENCH_DIR.parent / ".bench_work" / "selftest-spans.tsv"
    path.parent.mkdir(exist_ok=True)
    tracer.write_spans(str(path))
    rows = path.read_text(encoding="utf-8").splitlines()
    path.unlink()
    stats = tracer.layer_stats()
    report("spans are written and self time excludes children",
           rows[0] == "name\tstart\tend\tparent" and len(rows) == tracer.span_count() + 1
           and any(r.startswith("mathon_arcs.quadric_points\t") for r in rows)
           and stats["mathon_arcs.denniston_arc"]["s"] < stats["mathon_arcs.denniston_arc"]["total_s"])


def main() -> int:
    test_corruption_is_counted()
    test_trace_counts_agree_with_package()
    test_isolation()
    test_seed_invariance()
    test_tracer_copes_with_refactors()  # last: it wraps this process's package
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
