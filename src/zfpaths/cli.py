"""Command-line interface: thin adapters over the library, JSON on stdout.

Graphs are given as graph6 literals, file paths, or builtin names such as
K4, P7, C5, K3,3 and fig8:1,1,1,1,1.  Each subcommand's handler returns its
JSON document and a human-readable note (`verify` and `diff` also their exit
status), and `main` is the one writer: it resolves the graph input, prints
the document as one line on stdout and the note on stderr, or, on an error,
nothing on stdout and the error on stderr with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import harness
from .chains import chains_for
from .drawing import (
    build_parallel_drawing,
    drawing_to_json_obj,
    render,
    search_drawing,
)
from .errors import UsageError, ZfError
from .forcing import closure, forcing_number, total_forcing_number
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    fig8_graph,
    parse_graph6,
    path_graph,
    read_graph6_file,
    enumerate_connected_subcubic,
    encode_graph6,
)
from .nullity import DEFAULT_BUDGET, NullityCertificate, classify, maximize_nullity

_BUILTIN_RE = re.compile(r"^(K|P|C)(\d+)$")
_BIPARTITE_RE = re.compile(r"^K(\d+),(\d+)$")
_FIG8_RE = re.compile(r"^fig8:(\d+(?:,\d+){4})$")


def resolve_graph(text) -> Graph:
    """Builtin name, file path, or graph6 literal, in that order.  A builtin
    name below its family's fixed bound, such as C2, is a usage error, as is
    a text that is none of the three."""
    try:
        m = _FIG8_RE.match(text)
        if m:
            return fig8_graph([int(t) for t in m.group(1).split(",")])
        m = _BIPARTITE_RE.match(text)
        if m:
            return complete_bipartite(int(m.group(1)), int(m.group(2)))
        m = _BUILTIN_RE.match(text)
        if m:
            kind, n = m.group(1), int(m.group(2))
            if kind == "K":
                return complete_graph(n)
            if kind == "P":
                return path_graph(n)
            return cycle_graph(n)
    except ZfError as exc:
        raise UsageError(f"builtin {text!r}: {exc}") from exc
    if os.path.exists(text):
        graphs = read_graph6_file(text)
        if len(graphs) != 1:
            raise UsageError(f"file {text} holds {len(graphs)} graphs; expected exactly one")
        return graphs[0]
    try:
        return parse_graph6(text)
    except ZfError as exc:
        raise UsageError(f"input {text!r} is no builtin, file, or graph6 record: {exc}") from exc


def _parse_budget(text):
    m = re.match(r"^([1-9]\d*)x([1-9]\d*)$", text)
    if not m:
        raise UsageError(f"budget must look like 50x2000, both parts at least 1, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _int_at_least(option, low):
    def integer(text):
        value = int(text)
        if value < low:
            raise UsageError(f"{option} must be at least {low}, got {value}")
        return value

    return integer


def _parse_checks(text):
    checks = tuple(text.split(","))
    unknown = set(checks) - set(harness.ALL_CHECKS)
    if unknown:
        raise UsageError(f"unknown checks: {sorted(unknown)}")
    return checks


def _parse_set(text):
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise UsageError(f"vertex set must be comma-separated integers, got {text!r}") from None


def _cmd_fnum(g, args):
    f, witness = forcing_number(g)
    return {"f": f, "witness": list(witness)}, f"forcing number {f} of a graph on {g.n} vertices"


def _cmd_tfnum(g, args):
    ft, witness = total_forcing_number(g)
    note = f"total forcing number {ft} of a graph on {g.n} vertices"
    return {"f_t": ft, "witness": list(witness)}, note


def _cmd_closure(g, args):
    run = closure(g, _parse_set(args.set))
    document = {
        "initial": sorted(run.initial),
        "layers": [sorted(layer) for layer in run.layers],
        "step_of": {str(v): s for v, s in sorted(run.step_of.items())},
        "events": [list(e) for e in run.events],
        "derived": sorted(run.derived),
        "complete": run.complete,
    }
    return document, f"derived {len(run.derived)}/{g.n} vertices in {len(run.steps)} steps"


def _cmd_chains(g, args):
    if args.set is not None:
        colored = _parse_set(args.set)
    else:
        colored = forcing_number(g)[1]
    cs = chains_for(g, colored)
    return cs.to_json(), f"{len(cs.chains)} chains, {cs.trivial_count()} trivial"


def _cmd_draw(g, args):
    d = build_parallel_drawing(g)
    note = f"{d.k}-row drawing of a graph on {g.n} vertices"
    if not args.out:
        # realize has verified d, so the document needs no second check by render
        return drawing_to_json_obj(d), note
    ext = os.path.splitext(args.out)[1].lstrip(".").lower()
    fmt = ext if ext in ("svg", "dot") else "json"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render(d, fmt) + "\n")
    return {"out": args.out, "format": fmt}, note


def _cmd_classify(g, args):
    cls = classify(g)
    return cls.to_json_obj(), f"class {cls.tag}"


def _cmd_nullity(g, args):
    result = maximize_nullity(g, args.target, budget=args.budget, seed=args.seed)
    if isinstance(result, NullityCertificate):
        return result.to_json_obj(), f"certified nullity {result.k} (gap {result.gap:.2e})"
    keys = ("target", "best_k", "left_pattern", "stalled")
    return {"achieved": False, **{k: getattr(result, k) for k in keys}}, (
        f"target {result.target} not achieved; best certified {result.best_k}; "
        f"of {result.restarts} restarts, {result.stalled} stalled short of the zero "
        f"threshold and {result.left_pattern} reached it below the weight floor"
    )


def _cmd_search_draw(g, args):
    d = search_drawing(g, args.k)
    if d is None:
        return {"found": False, "k": args.k}, f"no drawing with at most {args.k} rows exists"
    document = drawing_to_json_obj(d)
    document["found"] = True
    return document, f"found a {d.k}-row drawing"


def _cmd_verify(args):
    if (args.nmax is None) == (args.corpus is None):
        raise UsageError("give exactly one of --nmax or --corpus")
    if args.resume and not args.out:
        raise UsageError("--resume needs --out, the records file to resume from")
    source = args.nmax if args.nmax is not None else args.corpus
    report = harness.run_suite(
        source,
        checks=args.checks,
        resume=args.resume,
        out_path=args.out,
        seed=args.seed,
        nullity_budget=args.budget,
    )
    document = {
        "corpus": report.corpus_id,
        "graphs": report.cursor,
        "totals": report.totals,
        "violations": [list(v) for v in report.violations],
        "warnings": [list(w) for w in report.warnings],
    }
    note = (
        f"{report.cursor} graphs, {report.totals.get('skipped', 0)} skipped, "
        f"{len(report.violations)} violations, {len(report.warnings)} warnings"
    )
    return document, note, 0 if report.ok else 1


def _cmd_diff(args):
    first, second = (harness.read_records(path)[0] for path in (args.first, args.second))
    lines = harness.diff_records(first, second)
    document = {"first": args.first, "second": args.second, "records": [len(first), len(second)]}
    note = f"{len(lines)} differences between the records"
    return {**document, "same": not lines, "differences": lines}, note, 1 if lines else 0


def _cmd_enumerate(args):
    graphs = enumerate_connected_subcubic(args.n)
    document = {"n": args.n, "count": len(graphs), "graphs": [encode_graph6(g) for g in graphs]}
    return document, f"{len(graphs)} connected graphs of max degree 3 on {args.n} vertices"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zfpaths",
        description="Forcing numbers, chain decompositions, parallel-path drawings, nullity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, graph=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=fn)
        if graph:
            p.add_argument("input")
        return p

    add("fnum", _cmd_fnum, help="minimum forcing set")
    add("tfnum", _cmd_tfnum, help="minimum total forcing set")
    p = add("closure", _cmd_closure, help="run the forcing process from a set")
    p.add_argument("--set", required=True, help="comma-separated vertex ids")
    p = add("chains", _cmd_chains, help="forcing chains of a minimum (or given) set")
    p.add_argument("--set", default=None)
    p = add("draw", _cmd_draw, help="build and render a parallel-path drawing")
    p.add_argument("--out", default=None, help="an .svg or .dot name picks that format; else JSON")
    add("classify", _cmd_classify, help="forcing number / maximum nullity class")
    p = add("nullity", _cmd_nullity, help="certified nullity lower bound")
    p.add_argument("--target", type=_int_at_least("--target", 1), required=True)
    p.add_argument("--budget", type=_parse_budget, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=_int_at_least("--seed", 0), default=0)
    p = add("search-draw", _cmd_search_draw, help="exact search for a drawing with at most k rows")
    p.add_argument("--k", type=_int_at_least("--k", 1), required=True)
    p = add("verify", _cmd_verify, graph=False, help="batch theorem verification")
    p.add_argument("--nmax", type=_int_at_least("--nmax", 1), default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--checks", type=_parse_checks, default=harness.ALL_CHECKS)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_int_at_least("--seed", 0), default=0)
    p.add_argument("--budget", type=_parse_budget, default=DEFAULT_BUDGET)
    p = add(
        "diff", _cmd_diff, graph=False, help="compare two verify --out record files, timings aside"
    )
    p.add_argument("first")
    p.add_argument("second")
    p = add(
        "enumerate", _cmd_enumerate, graph=False, help="connected subcubic graphs up to isomorphism"
    )
    p.add_argument("--n", type=_int_at_least("--n", 1), required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # argument type functions raise UsageError while parsing
        args = parser.parse_args(argv)
        if "input" in args:
            result = args.handler(resolve_graph(args.input), args)
        else:
            result = args.handler(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ZfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document, note, *status = result
    print(json.dumps(document))
    print(note, file=sys.stderr)
    return status[0] if status else 0


if __name__ == "__main__":
    sys.exit(main())
