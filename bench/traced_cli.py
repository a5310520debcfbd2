"""Run one arcflock command under the tracer and save its per-layer statistics.

    python3 bench/traced_cli.py spans|counts OUT.json ARGS...

Behaves like ``python -m arcflock ARGS...`` (same stdout and exit code) and
writes the command's layer, cache and span counts to OUT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracer import Tracer, cache_stats


def main() -> int:
    kind, out = sys.argv[1], Path(sys.argv[2])
    tracer = Tracer()
    tracer.install(kind)
    cli = sys.modules["arcflock.cli"]
    try:
        code = cli.main(sys.argv[3:])
    except SystemExit as exc:  # argparse exits for --help and usage errors
        code = exc.code or 0
    finally:
        sys.stdout.flush()
        stats = {
            "layers": tracer.layer_stats(),
            "caches": cache_stats(tracer.caches),
            "spans": tracer.span_count(),
        }
        out.write_text(json.dumps(stats), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
