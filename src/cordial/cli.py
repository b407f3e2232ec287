"""Command-line front end.

Exit codes: 0 when the checked property holds (or a witness was found),
1 when it fails (no witness), 2 on input errors.  Reports are key-value
text by default or JSON with --json.  Graph arguments accept a file
path, ``-`` for stdin, or a generator name like ``petersen`` or
``path:10``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, Union

from .bounds import bounds_record, max_edges, verify_bound
from .engine import _over_ceiling, is_cordial, is_orientable
from .graphs import _GENERATORS, Digraph, Graph, named, parse_text, to_text
from .quasigroup import CordialInstance, _refuse_oversize, is_subset_q_cordial, parse_cayley_text
from .search import (
    SymmetryMode,
    _census_size,
    noncordial_orientations,
    scan_alternating_paths,
    tournament_survey,
)


@dataclass
class RunReport:
    """Structured result of one CLI invocation."""

    command: str
    inputs: dict
    verdicts: dict
    timing_seconds: float

    def to_json(self) -> str:
        # Not asdict, which deep-copies every value: a search report can
        # list 2^14 orientations.
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(**{f.name: data[f.name] for f in fields(cls)})

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        lines += [f"input.{k}: {_fmt(v)}" for k, v in self.inputs.items()]
        lines += [f"{k}: {_fmt(v)}" for k, v in self.verdicts.items()]
        lines.append(f"timing_seconds: {self.timing_seconds}")
        return "\n".join(lines)


def _fmt(value) -> str:
    """One report value as text.  Module level: a recursive nested function
    is a reference cycle, left for the cyclic collector on every call."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(x) for x in value) if value else "(none)"
    return str(value)


def _resolve_source(source: str, size: Callable[[int, int], object]) -> Union[Graph, Digraph]:
    """Load a graph or digraph from a file, stdin, or a generator name.

    A generator's counts, n >= 2 vertices and m edges, first go to the
    command's size rule ``size(n, m)``, which can refuse them unbuilt.
    """
    if source == "-":
        return parse_text(sys.stdin.read())
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            return parse_text(fh.read())
    name, sep, num = source.partition(":")
    try:
        n = int(num) if sep else None
    except ValueError:
        raise ValueError(f"bad vertex count in {source!r}") from None
    edges = _GENERATORS.get(name, (None, None))[1]
    if edges is not None and n is not None and n > 1:
        size(n, edges(n))
    try:
        return named(name, n)
    except ValueError as exc:
        raise ValueError(
            f"{source!r} is neither a file nor a generator: {exc}"
        ) from None


def _as_digraph(obj: Union[Graph, Digraph]) -> Digraph:
    if isinstance(obj, Digraph):
        return obj
    if obj.edge_count == 0:
        return Digraph(obj.vertex_count, ())
    raise ValueError("expected arcs ('u > v' lines), found undirected edges")


def _as_graph(obj: Union[Graph, Digraph]) -> Graph:
    if isinstance(obj, Graph):
        return obj
    raise ValueError("expected undirected edges ('u v' lines), found arcs")


def _cmd_check_digraph(args):
    d = _as_digraph(_resolve_source(args.source, _over_ceiling))
    inputs = {"source": args.source, "vertices": d.vertex_count, "arcs": d.arc_count}
    report = is_cordial(d)
    if report is None:
        return 1, inputs, {"cordial": False, "detail": "no cordial labeling"}, None
    verdicts = {
        "cordial": True,
        "labeling": report.labeling.bit_string(),
        "gamma": list(report.gamma),
    }
    return 0, inputs, verdicts, None


def _cmd_check_graph(args):
    g = _as_graph(_resolve_source(args.source, _over_ceiling))
    inputs = {"source": args.source, "vertices": g.vertex_count, "edges": g.edge_count}
    witness = is_orientable(g)
    if witness is None:
        return 1, inputs, {"orientable": False, "detail": "no orientation is cordial"}, None
    verdicts = {
        "orientable": True,
        "labeling": witness.labeling.bit_string(),
        "orientation": witness.orientation.bit_string(),
        "gamma": list(witness.gamma),
    }
    return 0, inputs, verdicts, None


def _cmd_search(args):
    if args.fix_first_arc and args.fix_first_label:
        mode = SymmetryMode.BOTH
    elif args.fix_first_arc:
        mode = SymmetryMode.FIX_FIRST_ARC
    elif args.fix_first_label:
        mode = SymmetryMode.FIX_FIRST_LABEL
    else:
        mode = SymmetryMode.NONE
    g = _as_graph(_resolve_source(args.source, lambda n, m: _census_size(n, m, mode.fix_arc)))
    rep = noncordial_orientations(g, mode)
    inputs = {"source": args.source, "symmetry": mode.value}
    verdicts = {
        "orientations_scanned": rep.total_orientations_scanned,
        "noncordial_count": rep.failing.bit_count(),
        "noncordial": [o.bit_string() for o in rep.noncordial],
        "wall_time_seconds": round(rep.wall_time, 6),
    }
    return (1 if rep.failing else 0), inputs, verdicts, None


def _cmd_gen(args):
    obj = named(args.name, args.n)
    return 0, {}, {}, to_text(obj)


def _cmd_scan_alternating(args):
    failing = scan_alternating_paths(args.nmax)
    inputs = {"nmax": args.nmax}
    verdicts = {"noncordial_n": failing}
    return (0 if not failing else 1), inputs, verdicts, None


def _cmd_tournaments(args):
    survey = tournament_survey(args.n)
    inputs = {"n": args.n}
    verdicts = {"total": survey.total, "noncordial_count": survey.noncordial_count}
    return (0 if survey.noncordial_count == 0 else 1), inputs, verdicts, None


def _cmd_bounds(args):
    rec = bounds_record(args.n)
    inputs = {"n": args.n}
    verdicts = {
        "z": rec.z,
        "bichromatic_capacity": rec.bichromatic_capacity,
        "e_max": rec.e_max,
        "in_stated_range": rec.in_stated_range,
    }
    return 0, inputs, verdicts, None


def _cmd_verify_bound(args):
    rep = verify_bound(args.n)
    inputs = {"n": args.n}
    verdicts = {
        "graphs_checked": rep.graphs_checked,
        "violations": len(rep.violations),
        "tight_witness_found": rep.tight_witness is not None,
        "tight_edges": max_edges(args.n),
    }
    if rep.tight_witness is not None:
        verdicts["tight_labeling"] = rep.tight_witness.labeling.bit_string()
        verdicts["tight_orientation"] = rep.tight_witness.orientation.bit_string()
    ok = not rep.violations and rep.tight_witness is not None
    return (0 if ok else 1), inputs, verdicts, None


def _cmd_qcheck(args):
    try:
        subset = tuple(int(x) for x in args.subset.split(","))
    except ValueError:
        raise ValueError(f"bad label subset {args.subset!r}") from None
    d = _as_digraph(_resolve_source(args.source, lambda n, m: _refuse_oversize(n, len(subset))))
    with open(args.table, encoding="utf-8") as fh:
        table = parse_cayley_text(fh.read())
    instance = CordialInstance(table, subset)
    inputs = {"source": args.source, "table": args.table, "subset": list(subset)}
    witness = is_subset_q_cordial(d, instance)
    if witness is None:
        return 1, inputs, {"cordial": False, "detail": "no cordial labeling"}, None
    display = [instance.table.display(x) for x in witness]
    return 0, inputs, {"cordial": True, "labels": list(witness), "display": display}, None


def _cmd_verify_paper(args):
    from .verify import all_checks

    results = all_checks(args.only or None)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name}  ({res.elapsed:.2f}s)  {res.details}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    table = "\n".join(lines)
    inputs = {"only": args.only or []}
    verdicts = {
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "elapsed_seconds": round(r.elapsed, 3),
                "details": r.details,
            }
            for r in results
        ],
        "all_passed": passed == len(results),
    }
    code = 0 if passed == len(results) else 1
    return code, inputs, verdicts, table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cordial",
        description="Check (2,3)-cordial labelings and (2,3)-orientability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, json_flag=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, json=False)
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = add("check-digraph", _cmd_check_digraph, "test a digraph for a cordial labeling")
    p.add_argument("source", help="file, '-' for stdin, or generator NAME[:N]")

    p = add("check-graph", _cmd_check_graph, "test a graph for a cordial orientation")
    p.add_argument("source", help="file, '-' for stdin, or generator NAME[:N]")

    p = add("search", _cmd_search, "list orientations with no cordial labeling")
    p.add_argument("source", help="file, '-' for stdin, or generator NAME[:N]")
    p.add_argument("--fix-first-arc", action="store_true", help="pin orientation bit 0")
    p.add_argument("--fix-first-label", action="store_true", help="pin vertex 0's label")

    p = add("gen", _cmd_gen, "print a named graph in edge-list format", json_flag=False)
    p.add_argument("name", choices=list(_GENERATORS))
    p.add_argument("n", nargs="?", type=int, default=None)

    p = add("scan-alternating", _cmd_scan_alternating, "scan alternating paths up to NMAX")
    p.add_argument("nmax", type=int)

    p = add("tournaments", _cmd_tournaments, "census of tournaments on N vertices")
    p.add_argument("n", type=int)

    p = add("bounds", _cmd_bounds, "evaluate the edge-count bound quantities")
    p.add_argument("n", type=int)

    p = add("verify-bound", _cmd_verify_bound, "exhaustively test the edge bound")
    p.add_argument("n", type=int)

    p = add("qcheck", _cmd_qcheck, "quasigroup cordiality over a table file")
    p.add_argument("source", help="digraph file, '-' for stdin, or generator NAME[:N]")
    p.add_argument("--table", required=True, help="operation table file")
    p.add_argument("--subset", required=True, help="comma-separated vertex labels")

    p = add("verify-paper", _cmd_verify_paper, "run the bundled verification suite")
    p.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named check (repeatable)",
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.

    A parser is cyclic garbage that only the cyclic collector frees, and
    building one takes about 2 ms, so ``run`` does not build one per call.
    Parsing reads the parser and changes nothing in it.
    """
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    t0 = time.perf_counter()
    # Formatting is inside too: str() refuses an int of over 4,300 digits.
    try:
        code, inputs, verdicts, override = args.handler(args)
        if override is not None and not args.json:
            text = override.removesuffix("\n")
        else:
            report = RunReport(
                command=args.command,
                inputs=inputs,
                verdicts=verdicts,
                timing_seconds=round(time.perf_counter() - t0, 6),
            )
            text = report.to_json() if args.json else report.to_text()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout (``| head``): send the rest to os.devnull
        # so the flush at exit cannot fail again, and keep the exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
