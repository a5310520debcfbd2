"""Command-line interface for building, converting and verifying arcs and flocks.

Subcommands
-----------
construct denniston      degree-d Denniston arc from alpha and lam-subgroup generators
construct mathon-extend  degree-2d arc through the trace-condition system, by one
                         search.double_spec call: --rho must be a valid solution,
                         else the least valid one is taken
verify                   re-verify an arc or flock JSON file against the oracles
convert                  arc-to-flock | flock-to-arc | chain
project                  the projection flock of an arc from the nuclear point --p
                         (default 1,0,1,0)
search                   solve the trace system for every (H, lambda_d) pair and
                         verify the one example arc that search_field attaches
rank                     rank/solution-count analysis of the same systems

Every subcommand prints JSON by default (sorted keys, compact separators,
one trailing newline, so identical inputs give byte-identical output) or a
short text summary with --format text.  The exit status is 0 exactly when
every verification verdict in the output is true, 1 when some verdict
fails, and 2 for malformed inputs or arguments.

Each subcommand handler writes nothing: it returns (payload, lines, ok), whose
lines are lazy and read only for --format text.  main alone writes, once, through
_emit (stdout or --out); ok maps to the exit status, a ValueError or OSError to 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Optional

from .finite_field import GF, make_field

# Each command imports the modules it runs, so a process compiles no others.
if TYPE_CHECKING:
    from .flocks import PartialFlock
    from .mathon_arcs import MathonArc
    from .search import SearchRecord


def _parse_elements(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part, 0) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse element list {text!r}: {exc}") from None


def _span_generators(gf: GF, gens: tuple[int, ...]) -> tuple[int, ...]:
    """Close a generator list under addition; generators must be nonzero."""
    if any(g == 0 for g in gens):
        raise ValueError("0 generates nothing: drop it from the generator list")
    return tuple(sorted(gf.additive_span(gens)))


def _load_input(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("input must be a JSON object")
    return obj


#: the key that marks a bare arc or flock object
_MARKER = {"arc": "conics", "flock": "planes"}

_NOT_FOUND = {
    ("arc",): "no arc found in input: need 'conics' or an 'arc' wrapper",
    ("flock",): "no flock found in input: need 'planes' or a 'flock' wrapper",
    ("arc", "flock"): "input is neither an arc (conics) nor a flock (planes)",
}


def _unwrap(obj: dict, *kinds: str) -> tuple[str, dict]:
    """The first of kinds found in a payload: a bare object or one wrapped under its kind."""
    for kind in kinds:
        if _MARKER[kind] in obj:
            return kind, obj
        if isinstance(obj.get(kind), dict):
            return kind, obj[kind]
    raise ValueError(_NOT_FOUND[kinds])


def _emit(payload: dict, lines: Iterable[str], ok: bool, args: argparse.Namespace) -> int:
    """Write the payload as JSON, or the lines as text; the exit status, 0 exactly when ok."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


#: what a command hands to _emit: the JSON payload, the text lines and the verdict
Output = tuple[dict, Iterable[str], bool]


def _arc_verify_payload(arc: MathonArc) -> Output:
    """The arc block: the arc's JSON and its line-scan report."""
    from . import mathon_arcs as ma

    report = ma.verify_maximal_arc(arc.gf, ma.arc_points(arc), arc.degree)
    hist = dict(sorted(report.histogram.items()))
    lines = chain(
        [f"arc: q={arc.gf.q} degree={arc.degree} conics={len(arc.conics)}"],
        (f"  conic alpha={c.alpha} beta={c.beta} lam={c.lam}" for c in arc.conics),
        [f"verification: size={report.size} expected={report.expected_size}"
         f" histogram={hist} verdict={'PASS' if report.verdict else 'FAIL'}"],
    )
    return {"arc": ma.arc_to_json(arc), "report": report.to_json()}, lines, report.verdict


def _flock_verify_payload(F: PartialFlock) -> Output:
    """The flock block: the flock's JSON, its section-oracle report and classification."""
    from . import flocks as fl

    flock_json = fl.flock_to_json(F)
    report = fl.verify_partial_flock(F)
    cls = {key: flock_json[key] for key in ("additive", "linear")}
    payload = {"flock": flock_json, "report": report.to_json(), "classification": cls}
    return payload, chain(
        [f"flock: q={F.gf.q} planes={F.size} additive={cls['additive']} linear={cls['linear']}"],
        (f"  plane {list(p)}" for p in F.planes),
        [f"verification: sections={list(report.section_sizes)}"
         f" verdict={'PASS' if report.verdict else 'FAIL'}"],
    ), report.verdict


# -- construct ---------------------------------------------------------------------


def _cmd_construct_denniston(args: argparse.Namespace) -> Output:
    from . import mathon_arcs as ma

    gf = make_field(args.h, args.modulus)
    lam_set = _span_generators(gf, _parse_elements(args.A))
    arc = ma.denniston_arc(gf, args.alpha, tuple(x for x in lam_set if x != 0))
    return _arc_verify_payload(arc)


def _cmd_construct_mathon_extend(args: argparse.Namespace) -> Output:
    from . import search as se

    gf = make_field(args.h, args.modulus)
    spec = se.GroupSpec(gf, _span_generators(gf, _parse_elements(args.H)), args.lambda_d)
    record, rho, arc = se.double_spec(spec, args.rho)
    payload, lines, ok = _arc_verify_payload(arc)
    payload.update(rho=rho, search=record.to_json())
    head = f"trace system: rank={record.rank} valid_rho={record.num_rho_valid} rho={rho}"
    return payload, chain([head], lines), ok


# -- verify / convert / project -----------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> Output:
    kind, obj = _unwrap(_load_input(args.input), "arc", "flock")
    if kind == "arc":
        from . import mathon_arcs as ma

        payload, lines, ok = _arc_verify_payload(ma.arc_from_json(obj))
    else:
        from . import flocks as fl

        payload, lines, ok = _flock_verify_payload(fl.flock_from_json(obj))
    del payload[kind]  # the input object itself is not repeated
    return {"kind": kind, **payload}, chain([f"kind: {kind}"], lines), ok


def _cmd_convert(args: argparse.Namespace) -> Output:
    from . import flocks as fl
    from . import mathon_arcs as ma

    obj = _load_input(args.input)
    if args.direction == "flock-to-arc":
        return _arc_verify_payload(fl.flock_to_arc(fl.flock_from_json(_unwrap(obj, "flock")[1])))
    arc = ma.arc_from_json(_unwrap(obj, "arc")[1])
    if args.direction == "arc-to-flock":
        return _flock_verify_payload(fl.arc_to_flock(arc))
    # chain
    raw = fl.project_arc(arc)
    additive = fl.geometric_to_additive(raw)
    algebraic = fl.arc_to_flock(arc)
    ok = additive == algebraic
    additive_json = fl.flock_to_json(additive)
    payload = {
        "raw": fl.flock_to_json(raw),
        "additive": additive_json,
        "algebraic": additive_json if ok else fl.flock_to_json(algebraic),
        "chain_equals_algebraic": ok,
    }
    return payload, chain(
        (f"{name} planes: {[list(p) for p in F.planes]}"
         for name, F in (("raw", raw), ("additive", additive))),
        [f"chain equals algebraic: {'PASS' if ok else 'FAIL'}"],
    ), ok


def _cmd_project(args: argparse.Namespace) -> Output:
    from . import flocks as fl
    from . import mathon_arcs as ma
    from . import projective as pg

    arc = ma.arc_from_json(_unwrap(_load_input(args.input), "arc")[1])
    p = fl.DEFAULT_PROJECTION_POINT if args.p is None else _parse_elements(args.p)
    payload, lines, ok = _flock_verify_payload(fl.project_arc(arc, p))
    payload["projection_point"] = list(pg.normalize(arc.gf, p))
    return payload, lines, ok


# -- search / rank ------------------------------------------------------------------


def _record_line(r: SearchRecord) -> str:
    return (
        f"H={{{','.join(map(str, r.H))}}} lambda_d={r.lambda_d}"
        f" epsilon={r.epsilon} rank={r.rank}"
        f" prefilter={r.num_rho_prefilter} valid={r.num_rho_valid}"
        f"{' example' if r.example_arc else ''}"
    )


def _cmd_search(args: argparse.Namespace) -> Output:
    from . import search as se

    gf = make_field(args.h, args.modulus)
    records = se.search_field(gf, args.d)
    example = next((r.example_arc for r in records if r.example_arc), None)
    example_report, ok = None, True
    if example is not None:
        block, _, ok = _arc_verify_payload(example)
        example_report = block["report"]
    payload = {
        "q": gf.q,
        "d": args.d,
        "records": [r.to_json() for r in records],
        "example_report": example_report,
        "summary": {
            "pairs": len(records),
            "with_valid_rho": sum(1 for r in records if r.num_rho_valid > 0),
            "rank_histogram": dict(sorted(Counter(str(r.rank) for r in records).items())),
            "guaranteed_degree": se.guaranteed_degree(gf.h),
        },
    }
    return payload, chain(
        [f"search q={gf.q} |H|={args.d}: {len(records)} pairs"],
        map(_record_line, records),
        [f"summary: with_valid_rho={payload['summary']['with_valid_rho']}"
         f" rank_histogram={payload['summary']['rank_histogram']}"],
        [] if example is None else [f"example arc verdict: {'PASS' if ok else 'FAIL'}"],
    ), ok


def _rank_line(row: dict) -> str:
    return (
        f"H={{{','.join(map(str, row['H']))}}} lambda_d={row['lambda_d']} rank={row['rank']}"
        f" solutions={row['solution_count']} independent={row['independent']}"
    )


def _cmd_rank(args: argparse.Namespace) -> Output:
    from . import search as se

    gf = make_field(args.h, args.modulus)
    records = [
        # mu = 0 solves the conditions when epsilon = 0, but gives no rho
        {"H": list(r.H), "lambda_d": r.lambda_d, "epsilon": r.epsilon, "rank": r.rank,
         "solution_count": r.num_rho_prefilter + (r.epsilon == 0),
         "independent": r.rank == len(r.H) - 1}
        for r in se.search_field(gf, args.d)
    ]
    payload = {
        "q": gf.q,
        "d": args.d,
        "records": records,
        "rank_histogram": dict(sorted(Counter(str(r["rank"]) for r in records).items())),
        "guaranteed_degree": se.guaranteed_degree(gf.h),
    }
    return payload, chain(
        [f"rank analysis q={gf.q} |H|={args.d}"],
        map(_rank_line, records),
        [f"rank_histogram={payload['rank_histogram']}"],
    ), True


# -- parser ------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--out", help="write output to this file instead of stdout")


def _add_field(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--h", type=int, required=True, help="field degree: q = 2^h")
    sub.add_argument(
        "--modulus",
        type=lambda s: int(s, 0),
        default=None,
        help="irreducible modulus as a bitmask int (default: least such)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcflock",
        description="maximal arcs in PG(2,2^h) and partial flocks of the quadratic cone",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    construct = subs.add_parser("construct", help="build an arc")
    csubs = construct.add_subparsers(dest="kind", required=True)

    den = csubs.add_parser("denniston", help="Denniston arc from a lam subgroup")
    _add_field(den)
    den.add_argument("--alpha", type=lambda s: int(s, 0), required=True)
    den.add_argument(
        "--A", required=True, help="comma-separated generators of the lam subgroup"
    )
    _add_common(den)
    den.set_defaults(func=_cmd_construct_denniston)

    ext = csubs.add_parser(
        "mathon-extend", help="degree-2d arc from the trace-condition system"
    )
    _add_field(ext)
    ext.add_argument(
        "--H", required=True, help="comma-separated generators of the subgroup H"
    )
    ext.add_argument("--lambda-d", dest="lambda_d", type=lambda s: int(s, 0), required=True)
    ext.add_argument(
        "--rho",
        type=lambda s: int(s, 0),
        default=None,
        help="explicit solution rho (default: the least valid one)",
    )
    _add_common(ext)
    ext.set_defaults(func=_cmd_construct_mathon_extend)

    ver = subs.add_parser("verify", help="re-verify an arc or flock JSON file")
    ver.add_argument("input", help="path to a JSON file, or - for stdin")
    _add_common(ver)
    ver.set_defaults(func=_cmd_verify)

    conv = subs.add_parser("convert", help="move between arcs and flocks")
    conv.add_argument(
        "--direction",
        required=True,
        choices=("arc-to-flock", "flock-to-arc", "chain"),
    )
    conv.add_argument("input", help="path to a JSON file, or - for stdin")
    _add_common(conv)
    conv.set_defaults(func=_cmd_convert)

    proj = subs.add_parser("project", help="projection flock of an arc")
    proj.add_argument("input", help="path to an arc JSON file, or - for stdin")
    proj.add_argument("--p", default=None, help="projection point, e.g. 1,0,1,0")
    _add_common(proj)
    proj.set_defaults(func=_cmd_project)

    sea = subs.add_parser("search", help="trace-system search over all (H, lambda_d)")
    _add_field(sea)
    sea.add_argument("--d", type=int, required=True, help="order of the subgroup H")
    _add_common(sea)
    sea.set_defaults(func=_cmd_search)

    rnk = subs.add_parser("rank", help="rank analysis of the trace systems")
    _add_field(rnk)
    rnk.add_argument("--d", type=int, required=True, help="order of the subgroup H")
    _add_common(rnk)
    rnk.set_defaults(func=_cmd_rank)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _emit(*args.func(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
