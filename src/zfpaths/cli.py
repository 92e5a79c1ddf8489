"""Command-line interface: thin adapters over the library, JSON on stdout.

Graphs are given as graph6 literals, file paths, or builtin names such as
K4, P7, C5, K3,3 and fig8:1,1,1,1,1.  Human-readable notes go to stderr;
stdout carries exactly one JSON document per invocation.
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
from .nullity import NullityCertificate, classify, maximize_nullity

_BUILTIN_RE = re.compile(r"^(K|P|C)(\d+)$")
_BIPARTITE_RE = re.compile(r"^K(\d+),(\d+)$")
_FIG8_RE = re.compile(r"^fig8:(\d+(?:,\d+){4})$")


def resolve_graph(text) -> Graph:
    """Builtin name, file path, or graph6 literal, in that order."""
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


def _parse_set(text):
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise UsageError(f"vertex set must be comma-separated integers, got {text!r}") from None


def _cmd_fnum(args):
    g = resolve_graph(args.input)
    f, witness = forcing_number(g)
    print(json.dumps({"f": f, "witness": list(witness)}))
    print(f"forcing number {f} of a graph on {g.n} vertices", file=sys.stderr)
    return 0


def _cmd_tfnum(args):
    g = resolve_graph(args.input)
    ft, witness = total_forcing_number(g)
    print(json.dumps({"f_t": ft, "witness": list(witness)}))
    print(f"total forcing number {ft} of a graph on {g.n} vertices", file=sys.stderr)
    return 0


def _cmd_closure(args):
    g = resolve_graph(args.input)
    run = closure(g, _parse_set(args.set))
    payload = {
        "initial": sorted(run.initial),
        "layers": [sorted(layer) for layer in run.layers],
        "step_of": {str(v): s for v, s in sorted(run.step_of.items())},
        "events": [list(e) for e in run.events],
        "derived": sorted(run.derived),
        "complete": run.complete,
    }
    print(json.dumps(payload))
    print(
        f"derived {len(run.derived)}/{g.n} vertices in {len(run.layers) - 1} steps",
        file=sys.stderr,
    )
    return 0


def _cmd_chains(args):
    g = resolve_graph(args.input)
    if args.set is not None:
        colored = _parse_set(args.set)
    else:
        colored = forcing_number(g)[1]
    cs = chains_for(g, colored)
    print(json.dumps(cs.to_json()))
    print(f"{len(cs.chains)} chains, {cs.trivial_count()} trivial", file=sys.stderr)
    return 0


def _cmd_draw(args):
    g = resolve_graph(args.input)
    d = build_parallel_drawing(g)
    ext = os.path.splitext(args.out or "")[1].lstrip(".").lower()
    fmt = ext if ext in ("svg", "dot") else "json"
    text = render(d, fmt)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        text = json.dumps({"out": args.out, "format": fmt})
    print(text)
    print(f"{d.k}-row drawing of a graph on {g.n} vertices", file=sys.stderr)
    return 0


def _cmd_classify(args):
    g = resolve_graph(args.input)
    cls = classify(g)
    print(json.dumps(cls.to_json_obj()))
    print(f"class {cls.tag}", file=sys.stderr)
    return 0


def _cmd_nullity(args):
    g = resolve_graph(args.input)
    result = maximize_nullity(g, args.target, budget=args.budget, seed=args.seed)
    if isinstance(result, NullityCertificate):
        print(json.dumps(result.to_json_obj()))
        print(f"certified nullity {result.k} (gap {result.gap:.2e})", file=sys.stderr)
    else:
        keys = ("target", "best_k", "left_pattern", "stalled")
        print(json.dumps({"achieved": False, **{k: getattr(result, k) for k in keys}}))
        print(
            f"target {result.target} not achieved; best certified {result.best_k}; "
            f"of {result.restarts} restarts, {result.stalled} stalled short of the zero "
            f"threshold and {result.left_pattern} reached it below the weight floor",
            file=sys.stderr,
        )
    return 0


def _cmd_search_draw(args):
    g = resolve_graph(args.input)
    d = search_drawing(g, args.k)
    if d is None:
        print(json.dumps({"found": False, "k": args.k}))
        print(f"no drawing with at most {args.k} rows exists", file=sys.stderr)
    else:
        obj = drawing_to_json_obj(d)
        obj["found"] = True
        print(json.dumps(obj))
        print(f"found a {d.k}-row drawing", file=sys.stderr)
    return 0


def _cmd_verify(args):
    if (args.nmax is None) == (args.corpus is None):
        raise UsageError("give exactly one of --nmax or --corpus")
    if args.resume and not args.out:
        raise UsageError("--resume needs --out, the records file to resume from")
    source = args.nmax if args.nmax is not None else args.corpus
    checks = tuple(args.checks.split(",")) if args.checks is not None else harness.ALL_CHECKS
    report = harness.run_suite(
        source,
        checks=checks,
        resume=args.resume,
        out_path=args.out,
        seed=args.seed,
        nullity_budget=args.budget,
    )
    payload = {
        "corpus": report.corpus_id,
        "graphs": report.cursor,
        "totals": report.totals,
        "violations": [list(v) for v in report.violations],
        "warnings": [list(w) for w in report.warnings],
    }
    print(json.dumps(payload))
    print(
        f"{report.cursor} graphs, {report.totals.get('skipped', 0)} skipped, "
        f"{len(report.violations)} violations, "
        f"{len(report.warnings)} warnings",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_diff(args):
    first, second = (harness.read_records(path)[0] for path in (args.first, args.second))
    lines = harness.diff_records(first, second)
    payload = {"first": args.first, "second": args.second, "records": [len(first), len(second)]}
    print(json.dumps({**payload, "same": not lines, "differences": lines}))
    print(f"{len(lines)} differences between the records", file=sys.stderr)
    return 1 if lines else 0


def _cmd_enumerate(args):
    graphs = enumerate_connected_subcubic(args.n)
    payload = {"n": args.n, "count": len(graphs), "graphs": [encode_graph6(g) for g in graphs]}
    print(json.dumps(payload))
    print(f"{len(graphs)} connected graphs of max degree 3 on {args.n} vertices", file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zfpaths",
        description="Forcing numbers, chain decompositions, parallel-path drawings, nullity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=fn)
        return p

    p = add("fnum", _cmd_fnum, help="minimum forcing set")
    p.add_argument("input")
    p = add("tfnum", _cmd_tfnum, help="minimum total forcing set")
    p.add_argument("input")
    p = add("closure", _cmd_closure, help="run the forcing process from a set")
    p.add_argument("input")
    p.add_argument("--set", required=True, help="comma-separated vertex ids")
    p = add("chains", _cmd_chains, help="forcing chains of a minimum (or given) set")
    p.add_argument("input")
    p.add_argument("--set", default=None)
    p = add("draw", _cmd_draw, help="build and render a parallel-path drawing")
    p.add_argument("input")
    p.add_argument("--out", default=None, help="an .svg or .dot name picks that format; else JSON")
    p = add("classify", _cmd_classify, help="forcing number / maximum nullity class")
    p.add_argument("input")
    p = add("nullity", _cmd_nullity, help="certified nullity lower bound")
    p.add_argument("input")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--budget", type=_parse_budget, default=(50, 2000))
    p.add_argument("--seed", type=_int_at_least("--seed", 0), default=0)
    p = add("search-draw", _cmd_search_draw, help="exact search for a drawing with at most k rows")
    p.add_argument("input")
    p.add_argument("--k", type=_int_at_least("--k", 1), required=True)
    p = add("verify", _cmd_verify, help="batch theorem verification")
    p.add_argument("--nmax", type=_int_at_least("--nmax", 1), default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--checks", default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_int_at_least("--seed", 0), default=0)
    p.add_argument("--budget", type=_parse_budget, default=(50, 2000))
    p = add("diff", _cmd_diff, help="compare two verify --out record files, timings aside")
    p.add_argument("first")
    p.add_argument("second")
    p = add("enumerate", _cmd_enumerate, help="connected subcubic graphs up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # argument type functions raise UsageError while parsing
        args = parser.parse_args(argv)
        return args.handler(args)
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


if __name__ == "__main__":
    sys.exit(main())
