"""Per-module tracing of the arcflock package from outside it.

The tracer replaces module attributes of ``arcflock`` with wrappers.  The
package's own code looks its functions up through those attributes
(``pg.normalize``, ``se.search_group``, a name imported with ``from .x import
y``), so the wrappers see intra-package calls too.  Every module binding of a
wrapped function is replaced, found by identity, not by a list of importers.

A tracer installs one of two kinds of wrapper, in separate processes:

* ``spans``: a wrapper records (name, start, end, parent) into flat arrays
  kept in memory; self time is computed from the spans after the run, as
  each span's duration minus the part covered by its children;
* ``counts``: a wrapper only counts calls of the hot leaf functions, the
  field arithmetic (``GF.mul`` runs ~10^7 times in one workload),
  ``incident`` and the like.  Counting them in the span process would put
  the counters' own cost into their callers' self time.

Targets that a later version of the package no longer has are recorded as
absent and reported with value 0; they are not an error.  Caches are found
by introspecting every ``arcflock`` module for ``functools.lru_cache``
objects, so a removed or added cache needs no change here.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from array import array
from typing import Any, Callable, Optional

# (module, function) pairs that get a span wrapper.
SPANNED: dict[str, tuple[str, ...]] = {
    "finite_field": ("make_field",),
    "projective": (
        "normalize",
        "nullspace",
        "lines_through2",
        "line_points2",
        "join_points2",
        "meet_lines2",
        "plane_through",
        "meet_planes",
        "enumerate_points2",
        "enumerate_points3",
    ),
    "mathon_arcs": (
        "quadric_points",
        "close_set",
        "denniston_arc",
        "synthetic_extension",
        "arc_points",
        "verify_maximal_arc",
        "arc_from_json",
    ),
    "flocks": (
        "cone_points",
        "plane_section",
        "verify_partial_flock",
        "classify_flock",
        "arc_to_flock",
        "flock_to_arc",
        "project_arc",
        "geometric_to_additive",
        "extend_flock",
        "plane_compose",
        "singular_plane",
        "denniston_lines_concurrent",
        "flock_from_json",
    ),
    "search": (
        "search_field",
        "search_group",
        "solve_trace_system",
        "prefilter_rho",
        "mu_solutions_scan",
        "mu_solutions_linear",
        "rank_analysis",
        "build_trace_system",
        "enumerate_group_specs",
        "additive_subgroups_containing_one",
        "construct_extension_arc",
    ),
    "cli": ("main", "build_parser"),
}

# Functions that get a call counter in a ``counts`` process.
COUNTED: dict[str, tuple[str, ...]] = {
    "projective": ("incident",),
    "mathon_arcs": ("conics_disjoint", "conic_points"),
    "flocks": ("section_trace",),
}

# Methods of finite_field.GF that get a call counter in a ``counts`` process.
GF_COUNTED = ("mul", "inv", "trace")


def package_modules() -> dict[str, Any]:
    """Every submodule of arcflock except the ``__main__`` entry point."""
    pkg = importlib.import_module("arcflock")
    mods = {"": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            mods[info.name] = importlib.import_module(f"arcflock.{info.name}")
    return mods


def find_caches(mods: dict[str, Any]) -> dict[str, Any]:
    """``module.function`` -> lru_cache object, for every cache in the package."""
    caches = {}
    for modname, mod in mods.items():
        if not modname:
            continue
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)):
                owner = getattr(value, "__module__", "").rpartition(".")[2]
                if owner == modname:
                    caches[f"{modname}.{attr}"] = value
    return caches


def cache_stats(caches: dict[str, Any]) -> dict[str, dict[str, int]]:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return out


class Tracer:
    """Span and counter recorder for one process; spans stay in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._cells: dict[str, list[int]] = {}
        self.work: dict[str, float] = {}
        self.absent: list[str] = []
        self.caches: dict[str, Any] = {}

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_wrapper(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        cell = [0]
        self._cells[name] = cell

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, kind: str) -> None:
        """Wrap every ``spans`` or ``counts`` target the package has; note the rest."""
        mods = package_modules()
        self.caches = find_caches(mods)
        if kind == "spans":
            hooks = self._work_hooks()
            for modname, fnames in SPANNED.items():
                for fname in fnames:
                    name = f"{modname}.{fname}"
                    self._name_id(name)
                    self._replace(mods, modname, fname, lambda fn, n=name: self.span_wrapper(
                        n, fn, hooks.get(n)))
            return
        for modname, fnames in COUNTED.items():
            for fname in fnames:
                name = f"{modname}.{fname}"
                self._replace(mods, modname, fname, lambda fn, n=name: self.count_wrapper(n, fn))
        gf_cls = getattr(mods.get("finite_field"), "GF", None)
        for meth in GF_COUNTED:
            name = f"finite_field.{meth}"
            orig = getattr(gf_cls, meth, None) if gf_cls is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            setattr(gf_cls, meth, self.count_wrapper(name, orig))

    def _replace(self, mods, modname, fname, make) -> None:
        mod = mods.get(modname)
        orig = getattr(mod, fname, None) if mod is not None else None
        if orig is None or not callable(orig):
            self.absent.append(f"{modname}.{fname}")
            return
        wrapper = make(orig)
        for other in mods.values():
            for attr, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, attr, wrapper)

    def _work_hooks(self) -> dict[str, Callable[[tuple, Any], None]]:
        """Computed work counts, derived from a wrapped call's arguments and result."""
        work = self.work
        caches = self.caches

        def incidences(args, report):
            # every point of the set is checked against its q + 1 lines
            work["mathon_arcs.verify_maximal_arc.incidences"] = (
                work.get("mathon_arcs.verify_maximal_arc.incidences", 0)
                + report.size * (report.q + 1)
            )

        cone_cache = caches.get("flocks.cone_points")
        seen = {"misses": 0}

        def points_scanned(args, result):
            # one full PG(3,q) scan per computed (not cached) cone
            gf = args[0]
            if cone_cache is None:
                fresh = 1
            else:
                misses = cone_cache.cache_info().misses
                fresh, seen["misses"] = misses - seen["misses"], misses
            q = gf.q
            work["flocks.cone_points.points_scanned"] = (
                work.get("flocks.cone_points.points_scanned", 0)
                + fresh * (q * q * q + q * q + q + 1)
            )

        return {
            "mathon_arcs.verify_maximal_arc": incidences,
            "flocks.cone_points": points_scanned,
        }

    # -- results ----------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: self time, total time and calls; plus counters."""
        n = len(self.span_start)
        starts, ends, parents, names = (
            self.span_start,
            self.span_end,
            self.span_parent,
            self.span_name,
        )
        covered = [0.0] * n
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                covered[p] += ends[sid] - starts[sid]
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for sid in range(n):
            nid = names[sid]
            dur = ends[sid] - starts[sid]
            self_s[nid] += dur - covered[sid]
            total_s[nid] += dur
            calls[nid] += 1
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            out[name] = {"s": self_s[nid], "total_s": total_s[nid], "calls": calls[nid]}
        for name, cell in self._cells.items():
            out.setdefault(name, {})["calls"] = cell[0]
        for key, value in self.work.items():
            name, _, field = key.rpartition(".")
            out.setdefault(name, {})[field] = value
        return out

    def write_spans(self, path: str) -> None:
        """Spans as tab-separated name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[sid]]}\t{self.span_start[sid]!r}"
                    f"\t{self.span_end[sid]!r}\t{self.span_parent[sid]}\n"
                )
