"""Benchmark of the arcflock package: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the package in the ``src/`` next to this
directory.  Workloads (each a closed loop, one job after another in one
process; see workloads.py for the job lists):

* ``arc_oracle``: Denniston arcs at h=7 (d=4..32) and h=8 (d=4, 16) plus one
  h=7 trace-system extension arc, each through the line-scan oracle, the
  arc/flock round trip, the projection chain and the Denniston lines.
  Conic point sets and line pencils dominate.
* ``flock_oracle``: the cone-section oracle on algebraic and projected flocks
  at h=6 and h=7, flock doubling and plane composition.  The PG(3,q) scan
  behind ``cone_points`` dominates time and memory.
* ``trace_survey``: trace-system surveys at h=7 and h=9, a rank survey at h=6
  and seeded single systems at h=16.  The search and the field dominate.
* ``cli_session``: a fixed script of ``python -m arcflock`` processes.
  Interpreter start, argument parsing and JSON handling show only here.

Each repetition runs in a fresh worker process (worker.py), so the package's
caches start empty and peak RSS belongs to that repetition alone.  Workers
import the package from ``src/`` only, with ``ARCFLOCK_THREADS`` removed from
their environment.  Repetitions run until the next one would overrun
``--seconds``; every figure is the median over them (job-list times: the
sum of each job's median).

``--trace 0`` reports the end-to-end metrics:

* ``wall_ref``: the job list's time (after set-up) in units of the
  reference kernel (reference.py), whose process samples the workers' CPU
  through the whole run.  The speed of a shared host drifts by tens of
  percent for minutes at a time; dividing each job's time by the kernel's
  time around it cancels most of that drift, so this is the figure that
  gates regressions.  The raw time is printed too, as ``wall_s``, and is a
  per-layer metric;
* ``setup_s``: import, field construction and input generation, the
  median over the repetitions.  Rescaled like ``wall_ref``: the raw time
  times the kernel's nominal time (reference.NOMINAL_S) over its time
  around the set-up, so seconds at the kernel's nominal speed;
* ``peak_rss_mb``: the worker's ``ru_maxrss``, or its children's for
  ``cli_session``.

``--trace 1`` runs rounds of three repetitions, untraced, with spans and
with call counters (tracer.py), and reports the per-layer metrics named in
BENCHMARK.json:
self times (``.s``) and cache figures from the span repetitions, call counts
of the hot leaf functions from the counter repetitions, figures the
benchmark measures itself (``cli.*``, ``search.valid_ratio``) from the
untraced ones, and the tracing overhead (the span repetitions' ``wall_s``
minus the untraced one, each the sum of per-job medians).  The last span
repetition's spans are left in ``.bench_work/NAME.spans.tsv``.

Human-readable lines come first: provenance, ``ops_failed`` with its base
``ops_attempted``, and every metric with its unit.  The last line is the
JSON result with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 when a result was printed, and nonzero
without a result when a worker could not run (for example, no ``src/``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# a run must end within 180 s; no worker may start a wait beyond this
HARD_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("ARCFLOCK_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["COLUMNS"] = "80"
    return env


def call_worker(env, started: float, workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    timeout = max(5.0, HARD_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker for {workload} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"{mode} worker for {workload} printed no result") from exc


def provenance(seed: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": f"Python {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "numpy": importlib.util.find_spec("numpy") is not None,
    }


def layer_values(rep: dict) -> dict[str, float]:
    """Flat ``name -> value`` view of one traced repetition's statistics."""
    flat = {}
    for name, fields in rep.get("layers", {}).items():
        for field, value in fields.items():
            flat[f"{name}.{field}"] = value
    for name, fields in rep.get("caches", {}).items():
        for field, value in fields.items():
            flat[f"cache.{name}.{field}"] = value
    flat["trace.spans"] = rep.get("spans", 0)
    return flat


def run_reps(env, started, deadline, workload, seed, modes) -> list[list[dict]]:
    """Rounds of one worker per mode, until the next round would pass the deadline."""
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append([call_worker(env, started, workload, seed, mode) for mode in modes])
        if time.monotonic() + (time.monotonic() - t0) > deadline:
            return rounds


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def job_medians(times: list[list[float]]) -> float:
    """Sum over the job list of each job's median across repetitions.

    A burst of load on a shared host slows a few jobs of one repetition,
    not the same job in most repetitions.
    """
    return sum(median(job) for job in zip(*times))


def end_to_end(plain: list[dict], kernels: reference.Samples) -> dict[str, float]:
    """Times in kernel durations, each divided by the kernel's time around it."""
    job_ref = [[s / kernels.around(t, t + s) for t, s in zip(r["job_start"], r["job_s"])]
               for r in plain]
    setup_ref = [r["setup_s"] / kernels.around(r["setup_start"], r["setup_start"] + r["setup_s"])
                 for r in plain]
    return {
        "wall_ref": job_medians(job_ref),
        "wall_s": job_medians([r["job_s"] for r in plain]),
        "setup_s": median(setup_ref) * reference.NOMINAL_S,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }


def add_per_layer(values, listed, plain, traced, counted) -> None:
    """Per-layer metrics: tracer figures from the traced repetitions, the
    benchmark's own (``cli.*``, ``search.valid_ratio``) from the untraced ones."""
    flat = [{**layer_values(c), **layer_values(t)} for t, c in zip(traced, counted)]
    # measured like wall_s, in the same rounds, so that the host's drift
    # falls on both alike
    values["trace.wall_s"] = job_medians([r["job_s"] for r in traced])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
    for name in (m["name"] for m in listed):
        if name in values:
            continue
        if name in plain[0]["work"]:
            values[name] = median([r["work"][name] for r in plain])
        elif name in flat[0]:
            values[name] = median([f[name] for f in flat])
        else:  # not exercised by this workload
            values[name] = 0


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "arcflock" / "__init__.py").is_file():
        print(f"no arcflock package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = worker_env()
    started = time.monotonic()
    deadline = started + args.seconds
    modes = ("run",) if args.trace == 0 else ("run", "spans", "counts")
    sampler = reference.Sampler()
    try:
        rounds = run_reps(env, started, deadline, args.workload, args.seed, modes)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        kernels = sampler.stop()
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds if len(r) > 1]
    counted = [r[2] for r in rounds if len(r) > 2]

    reps = plain + traced + counted
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = end_to_end(plain, kernels)
    shown = list(values)
    absent: list[str] = []
    if args.trace == 0:
        listed = spec["end_to_end"]
    else:
        listed = spec["per_layer"]
        add_per_layer(values, listed, plain, traced, counted)
        absent = traced[0]["absent"] + counted[0]["absent"]
    shown += [m["name"] for m in listed if m["name"] not in shown]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(plain)} untraced, {len(traced)} with spans, "
          f"{len(counted)} with counters; reference kernel {1000 * kernels.median():.3f} ms "
          f"(median of {len(kernels.seconds)})")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(f"ops_failed {failed} of ops_attempted {attempted}")
    for rep in reps:
        for failure in rep["failures"]:
            print(f"  FAILED {failure}")
    if absent:
        print("absent from the package (reported as 0): " + ", ".join(absent))
    for name in shown:
        print(f"  {name:<52} {values[name]:>16.6f} {units[name]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
