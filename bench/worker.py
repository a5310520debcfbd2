"""One repetition of a benchmark workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--mode run|spans|counts]

``spans`` and ``counts`` modes install the tracer of that kind (see
tracer.py) before the set-up and add per-layer statistics to the result;
``spans`` mode also writes its spans to ``.bench_work/NAME.spans.tsv``
(for ``cli_session``, the CLI processes' spans are summed into their
statistics and not written).
Prints one JSON object on stdout.  The runner starts every worker with
PYTHONPATH set to the checkout's ``src/``; a copy of arcflock found anywhere
else is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

from tracer import Tracer, cache_stats
from workloads import ROOT, WORKLOADS, Context


def merge_child_layers(layers: dict, caches: dict, children: list[dict]) -> int:
    """Add the statistics of traced child processes; returns their span count."""
    spans = 0
    for child in children:
        spans += child["spans"]
        for target, into in ((child["layers"], layers), (child["caches"], caches)):
            for name, fields in target.items():
                slot = into.setdefault(name, {})
                for field, value in fields.items():
                    slot[field] = slot.get(field, 0) + value
    return spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "spans", "counts"), default="run")
    args = parser.parse_args()

    # one CPU for this worker and its CLI children: the one the reference
    # kernel samples (reference.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    import arcflock as af

    src = (ROOT / "src").resolve()
    if not os.path.realpath(af.__file__).startswith(str(src) + os.sep):
        print(f"arcflock was imported from {af.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = Tracer() if args.mode != "run" else None
    if tracer is not None:
        tracer.install(args.mode)
    setup, run = WORKLOADS[args.workload]
    inputs = setup(af, random.Random(args.seed))
    setup_s = time.perf_counter() - t0

    workdir = ROOT / ".bench_work"
    ctx = Context(workdir / f"{args.workload}-{os.getpid()}",
                  trace_kind=args.mode if tracer is not None else None)
    run(ctx, af, inputs)
    # the CLI session's work happens in its child processes
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    out = {
        "setup_start": t0,
        "setup_s": setup_s,
        "wall_s": sum(ctx.job_s),
        "job_start": ctx.job_start,
        "job_s": ctx.job_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "work": ctx.work,
    }
    if tracer is not None:
        layers = tracer.layer_stats()
        caches = cache_stats(tracer.caches)
        spans = tracer.span_count() + merge_child_layers(layers, caches, ctx.child_layers)
        out.update(layers=layers, caches=caches, absent=tracer.absent, spans=spans)
        if args.mode == "spans":
            workdir.mkdir(exist_ok=True)
            tracer.write_spans(str(workdir / f"{args.workload}.spans.tsv"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
