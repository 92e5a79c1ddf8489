"""Batch theorem verification over graph corpora with resumable JSONL output.

Each graph yields one record; theorem violations fail the suite because the
theorems are ground truth, so a violation can only mean an implementation
bug.  The nullity reach-check is failing; the over-run to one above the
classified m runs where m < F (the figure-8 family) and only warns.  A
package error raised while checking one graph is recorded as a violation of
that graph, and the run goes on.

T_iff checks one direction here: F = 3 gives a 3-row drawing, which
`realize` has verified.  The converse, that no graph with another forcing
number has a 3-row drawing, is left to the exact `search_drawing` tests,
which cover every graph with n <= 8.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field

from .chains import chains_for, check_order_lemmas
from .drawing import build_parallel_drawing, leftmost_set
from .errors import UnsupportedInputError, ZfError
from .forcing import forcing_number, is_forcing_set, total_forcing_number
from .graphs import (
    ISO_CAP,
    Graph,
    canonical_form,
    disjoint_union,
    encode_graph6,
    enumerate_connected_subcubic,
    path_graph,
    read_graph6_file,
)
from .nullity import DEFAULT_BUDGET, NullityCertificate, classify, maximize_nullity

ALL_CHECKS = ("T_iff", "T_fmk", "C_ft", "P_left", "L_order", "E_bounds")
_HARNESS_N_CAP = 12


@dataclass
class SuiteReport:
    corpus_id: str
    totals: dict = field(default_factory=dict)  # records per tag, skipped ones under "skipped"
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    records: dict = field(default_factory=dict)
    cursor: int = 0

    @property
    def ok(self):
        return not self.violations


def _graph_key(g: Graph):
    return canonical_form(g) if g.n <= ISO_CAP else encode_graph6(g)


def _builtin_corpus(n_max):
    graphs = []
    for n in range(1, n_max + 1):
        graphs.extend(enumerate_connected_subcubic(n))
    # disconnected path unions cover the total-forcing sharpness cases and
    # the union-of-paths side of the classification (one copy of P2 is
    # already in the n = 2 enumeration); a union of j edges has 2j vertices
    for j in range(2, 5):
        if 2 * j <= n_max:
            graphs.append(disjoint_union([path_graph(2)] * j))
    return graphs


def read_records(path):
    """Records of a JSONL records file keyed by graph, and the byte length of
    its whole lines; the file is only read.

    A last line without its newline was torn by a run killed mid-write and
    is left out.  Any other line that does not parse raises OSError.
    """
    with open(path, "rb") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith(b"\n"):
        lines.pop()
    records = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            records[rec["graph"]] = rec
        except (ValueError, KeyError, TypeError) as exc:
            raise OSError(f"corrupt records file {path}, line {lineno}: {exc}") from exc
    return records, sum(map(len, lines))


def _load_done(path):
    """Records of an earlier run, keyed by graph (see `read_records`).

    A torn last line is cut from the file, so that appended records start on
    a line of their own.
    """
    if not (path and os.path.exists(path)):
        return {}
    done, whole = read_records(path)
    if os.path.getsize(path) > whole:
        with open(path, "r+b") as fh:
            fh.truncate(whole)
    return done


def run_suite(
    source,
    checks=ALL_CHECKS,
    resume=False,
    out_path=None,
    seed=0,
    nullity_budget=DEFAULT_BUDGET,
) -> SuiteReport:
    """Run the selected theorem checks over a corpus.

    source is either an int (built-in enumeration up to that order) or a
    path to a graph6 file.  Records append to out_path as JSONL, one line
    per graph keyed by canonical form, each with the sorted checks, the seed
    and the nullity budget that made it; with resume=True, a graph whose
    record was made under the same three is folded in without recomputation,
    and so is every later copy of a graph the corpus lists twice.  A record
    made under others, or one that lacks them, is made again and appended,
    and `read_records` keeps the later line.
    """
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise UnsupportedInputError(f"unknown checks: {sorted(unknown)}")
    made_by = {"checks": sorted(set(checks)), "seed": seed, "budget": list(nullity_budget)}
    if isinstance(source, int):
        graphs = _builtin_corpus(source)
        corpus_id = f"builtin:{source}"
    else:
        graphs = read_graph6_file(source)
        corpus_id = f"file:{os.path.basename(source)}:{len(graphs)}"
    done = _load_done(out_path) if resume else {}
    report = SuiteReport(corpus_id=corpus_id)
    sink = open(out_path, "a" if resume else "w", encoding="utf-8") if out_path else None
    try:
        for g in graphs:
            key = _graph_key(g)
            rec = done.get(key)
            if rec is None or any(rec.get(k) != v for k, v in made_by.items()):
                rec = done[key] = _check_one(g, key, made_by)
                if sink:
                    sink.write(json.dumps(rec) + "\n")
                    sink.flush()
            report.records[key] = rec
            report.cursor += 1
            tag = "skipped" if rec.get("skipped") else rec.get("tag")
            if tag:
                report.totals[tag] = report.totals.get(tag, 0) + 1
            for v in rec.get("violations", ()):
                report.violations.append((key, v))
            for w in rec.get("warnings", ()):
                report.warnings.append((key, w))
    finally:
        if sink:
            sink.close()
    return report


def _check_one(g: Graph, key, made_by):
    rec = {
        "graph": key,
        "n": g.n,
        **made_by,
        "f": None,
        "f_t": None,
        "tag": None,
        "m_certified": None,
        "drawing_ok": None,
        "timings": {},
        "violations": [],
        "warnings": [],
        "skipped": False,
    }
    if g.n == 0 or g.max_degree() > 3 or g.n > _HARNESS_N_CAP:
        rec["skipped"] = True
        return rec
    # one bad graph must not end the run: record the error and carry on
    try:
        _run_checks(g, key, rec)
    except ZfError as exc:
        rec["violations"].append(f"check aborted: {type(exc).__name__}: {exc}")
    return rec


def _run_checks(g: Graph, key, rec):
    """Fill in rec by the checks, seed and nullity budget that it lists."""
    checks, nullity_budget = rec["checks"], rec["budget"]
    graph_seed = rec["seed"] + zlib.crc32(key.encode("ascii")) % 65536

    t0 = time.perf_counter()
    f, witness = forcing_number(g)
    rec["f"] = f
    if all(g.degree(v) > 0 for v in range(g.n)):
        rec["f_t"] = total_forcing_number(g)[0]
    rec["timings"]["forcing_ms"] = round((time.perf_counter() - t0) * 1000, 3)

    t0 = time.perf_counter()
    cls = classify(g)
    rec["tag"] = cls.tag
    rec["timings"]["classify_ms"] = round((time.perf_counter() - t0) * 1000, 3)

    drawing = None
    if "T_iff" in checks or "P_left" in checks or "C_ft" in checks:
        t0 = time.perf_counter()
        if f <= 3:
            try:
                # realize verified it, and F = 3 gives exactly three rows
                drawing = build_parallel_drawing(g)
                rec["drawing_ok"] = True
            except ZfError as exc:
                rec["drawing_ok"] = False
                rec["violations"].append(f"drawing construction failed: {exc}")
        if "T_iff" in checks and f == 3 and not rec["drawing_ok"]:
            rec["violations"].append("T_iff: no verified 3-row drawing despite f=3")
        rec["timings"]["drawing_ms"] = round((time.perf_counter() - t0) * 1000, 3)

    if "P_left" in checks and drawing is not None:
        left = leftmost_set(drawing)
        if not is_forcing_set(g, left):
            rec["violations"].append(f"P_left: leftmost set {sorted(left)} does not force")
        if len(left) < f:
            rec["violations"].append("P_left: leftmost set smaller than the forcing number")

    if "C_ft" in checks and rec["f_t"] is not None:
        if drawing is not None and rec["f_t"] > 2 * drawing.k:
            rec["violations"].append(
                f"C_ft: total forcing {rec['f_t']} exceeds twice the {drawing.k}-row drawing"
            )
        comps = g.components()
        if all(len(c) == 2 for c in comps):
            if rec["f_t"] != 2 * len(comps):
                rec["violations"].append(
                    f"C_ft: union of {len(comps)} edges should have total forcing {2 * len(comps)}"
                )

    if "L_order" in checks:
        t0 = time.perf_counter()
        broken = check_order_lemmas(chains_for(g, witness))
        if broken:
            rec["violations"].append(f"L_order: {broken[:3]}")
        rec["timings"]["lemmas_ms"] = round((time.perf_counter() - t0) * 1000, 3)

    if "E_bounds" in checks:
        if g.is_connected() and 2 * f > g.n + 2:
            rec["violations"].append(f"E_bounds: f={f} above n/2+1")
        if rec["f_t"] is not None and not f <= rec["f_t"] <= 2 * f:
            rec["violations"].append(f"E_bounds: f_t={rec['f_t']} outside [f, 2f]")
        if g.edge_count == 0 and f != g.n:
            rec["violations"].append("E_bounds: edgeless graph must have f = n")

    if "T_fmk" in checks and cls.m is not None:
        t0 = time.perf_counter()
        result = maximize_nullity(g, cls.m, budget=nullity_budget, seed=graph_seed)
        if isinstance(result, NullityCertificate):
            rec["m_certified"] = result.k
        else:
            rec["violations"].append(
                f"T_fmk: optimizer reached only {result.best_k}, classification says {cls.m}"
            )
        # certify issues no certificate above F on the hosts checked here
        # (subcubic, n <= 12), so the over-run can succeed only where m < F
        if cls.m < f:
            over = maximize_nullity(g, cls.m + 1, budget=nullity_budget, seed=graph_seed)
            if isinstance(over, NullityCertificate):
                rec["warnings"].append(
                    f"T_fmk over-run: certified {cls.m + 1} above classified {cls.m}"
                )
        rec["timings"]["nullity_ms"] = round((time.perf_counter() - t0) * 1000, 3)


def diff_records(a: dict, b: dict) -> list:
    """Field-level differences between two record sets keyed by graph.

    Timings are ignored: they never reproduce, and determinism claims are
    about everything else.
    """
    lines = []
    for key in sorted(set(a) | set(b)):
        ra = a.get(key)
        rb = b.get(key)
        if ra is None or rb is None:
            lines.append(f"{key}: present only in {'second' if ra is None else 'first'} run")
            continue
        for fieldname in sorted(set(ra) | set(rb)):
            if fieldname == "timings":
                continue
            va, vb = ra.get(fieldname), rb.get(fieldname)
            if va != vb:
                lines.append(f"{key} {fieldname}: {va!r} != {vb!r}")
    return lines
