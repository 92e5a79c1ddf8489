"""Benchmark for zfpaths, run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-n8 --seed 1 --seconds 34 --trace 0

It makes the workload's inputs from the seed, starts worker processes that
drive the program through zfpaths.cli.main with the arguments a user would
type, checks every output against the oracles in this directory, and prints
one JSON line: correct, attempted, failed and the metrics.  With --trace 0
the metrics are the end-to-end ones (graphs_per_s, setup_s, peak_rss_mb);
with --trace 1 they are the per-layer figures of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

WORKERS = 2  # processes that run passes, one after another
PROBES = 5  # extra processes that only set up, for the set-up median
DEADLINE_S = 170  # every worker is stopped by then

STRUCTURE_CHECKS = "T_iff,P_left,C_ft,L_order,E_bounds"
STRUCTURE_GRAPHS = 400
# The structure corpus is the same for every seed.  Seeded corpora met the
# drawing fault below on 2 of 57 seeds, which would make the number of
# failed graphs depend on the seed.
STRUCTURE_SEED = 0
# An F = 3 graph on which build_parallel_drawing fails ("no feasible position
# for vertex 3"), although 93 % of its relabellings draw.  It ends the corpus,
# so that the fault is counted in every run until it is mended.
DRAWING_FAULT = "KaGS?O@s?H@o"
VERIFY_STRIDE = 20
OVERRUN_BUDGET = "2x2000"

TAGS = {1: "Path_FM1", 2: "TwoParallel_FM2", 3: "ThreeParallel_FM3"}
NULLITY_OF_TAG = {"Path_FM1": 1, "TwoParallel_FM2": 2, "ThreeParallel_FM3": 3, "Beyond": None}


def _write_graph6(path, graphs):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(oracles.encode_graph6(*g) + "\n" for g in graphs))


def _with_forcing(graphs):
    """Each graph with its oracle forcing and total forcing numbers."""
    out = []
    for n, edges in graphs:
        isolated = any(m == 0 for m in oracles.adjacency(n, edges))
        f_t = None if isolated else oracles.total_forcing_number(n, edges)
        out.append((n, edges, oracles.forcing_number(n, edges), f_t))
    return out


def _verified(first, expected, problems):
    """(index, record) of every graph the verify run carried through without
    a violation, after checking n, f and f_t against the oracle; and the
    number of graphs that failed."""
    run = first["runs"][0]
    records = first["records"]
    if run["code"] not in (0, 1) or len(records) != len(expected):
        problems.append(f"verify: exit {run['code']}, {len(records)} records for {len(expected)} graphs")
        return [], len(expected)
    passed = []
    for i, (rec, (n, _, f, f_t)) in enumerate(zip(records, expected)):
        if rec["violations"] or rec["skipped"]:
            continue
        if (rec["n"], rec["f"], rec["f_t"]) != (n, f, f_t):
            problems.append(f"graph {i}: n, f, f_t = {rec['n']}, {rec['f']}, {rec['f_t']}; oracle {n}, {f}, {f_t}")
        passed.append((i, rec))
    failed = len(expected) - len(passed)
    if (run["payload"] or {}).get("graphs") != len(expected) or run["code"] != (1 if failed else 0):
        problems.append(f"verify: exit {run['code']} with summary {run['payload']}")
    return passed, failed


def _prepare_verify(seed, work):
    """The n <= 8 corpus of `zfpaths verify --nmax 8` (every connected subcubic
    graph plus the unions of 1..4 disjoint edges), every VERIFY_STRIDE-th graph
    in graph6 order.  The whole corpus takes about 120 s, longer than a run."""
    corpus = []
    for level in oracles.connected_subcubic_levels(8):
        corpus += sorted(level, key=lambda g: oracles.encode_graph6(*g))
    corpus += [(2 * j, [(2 * i, 2 * i + 1) for i in range(j)]) for j in range(1, 5)]
    graphs = corpus[::VERIFY_STRIDE]
    path = os.path.join(work, "verify-n8.g6")
    _write_graph6(path, graphs)
    records = os.path.join(work, "verify-n8.jsonl")
    expected = _with_forcing(graphs)

    def check(first, problems):
        passed, failed = _verified(first, expected, problems)
        for i, rec in passed:
            f = expected[i][2]
            tag = TAGS.get(f, "Beyond")  # no figure-8 graph has fewer than 10 vertices
            m = NULLITY_OF_TAG[tag]
            if rec["tag"] != tag or rec["m_certified"] != m or (m is not None and m > f):
                problems.append(f"graph {i}: tag {rec['tag']} m {rec['m_certified']}, oracle F {f}")
        return failed

    argv = ["verify", "--corpus", path, "--out", records]
    return {"argvs": [argv], "input": path, "records": records, "graphs": len(graphs)}, check


def _prepare_structure(seed, work):
    lines = inputs.structure_corpus(STRUCTURE_SEED, STRUCTURE_GRAPHS - 1) + [DRAWING_FAULT]
    path = os.path.join(work, "structure-n12.g6")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))
    records = os.path.join(work, "structure-n12.jsonl")
    expected = _with_forcing([oracles.parse_graph6(line) for line in lines])

    def check(first, problems):
        passed, failed = _verified(first, expected, problems)
        for i, rec in passed:
            if (rec["drawing_ok"] is True) != (expected[i][2] <= 3):
                problems.append(f"graph {i}: drawing_ok {rec['drawing_ok']}, oracle F {expected[i][2]}")
        return failed

    argv = ["verify", "--corpus", path, "--checks", STRUCTURE_CHECKS, "--out", records]
    return {"argvs": [argv], "input": path, "records": records, "graphs": len(lines)}, check


def _prepare_enumerate(seed, work):
    count = oracles.A112410[7]

    def check(first, problems):
        run = first["runs"][0]
        if run["code"] != 0:
            return count
        payload = run["payload"] or {}
        graphs = [oracles.parse_graph6(g) for g in payload.get("graphs", [])]
        if payload.get("count") != count or len(graphs) != count:
            problems.append(f"enumerate: {len(graphs)} graphs, want {count}")
        for g in graphs:
            if g[0] != 8 or not oracles.is_connected(*g) or oracles.max_degree(*g) > 3:
                problems.append(f"enumerate: {oracles.encode_graph6(*g)} is no connected subcubic 8-vertex graph")
        if oracles.count_isomorphism_classes(graphs) != len(graphs):
            problems.append("enumerate: two output graphs are isomorphic")
        return 0

    return {"argvs": [["enumerate", "--n", "8"]], "input": None, "records": None, "graphs": count}, check


def _prepare_overrun(seed, work):
    graphs = [oracles.pendant_five_cycle(lengths) for lengths in inputs.FIG8_LENGTHS]
    argvs = [
        ["nullity", oracles.encode_graph6(*g), "--target", "3", "--budget", OVERRUN_BUDGET,
         "--seed", str(seed)]
        for g in graphs
    ]

    def check(first, problems):
        failed = 0
        for g, run in zip(graphs, first["runs"]):
            # the paper gives maximum nullity 2 on this family, so 3 is unreachable
            if oracles.forcing_number(*g) != 3 or oracles.max_degree(*g) != 3:
                problems.append(f"{oracles.encode_graph6(*g)} is not a figure-8 instance with F = 3")
            if run["code"] != 0:
                failed += 1
                continue
            payload = run["payload"] or {}
            if payload.get("achieved") is not False or payload.get("target") != 3:
                problems.append(f"nullity {oracles.encode_graph6(*g)}: {payload}")
        return failed

    return {"argvs": argvs, "input": None, "records": None, "graphs": len(graphs)}, check


WORKLOADS = {
    "verify-n8": _prepare_verify,
    "structure-n12": _prepare_structure,
    "enumerate-n8": _prepare_enumerate,
    "nullity-overrun": _prepare_overrun,
}


PER_LAYER = list(LAYER_METRICS) + ["harness.records_bytes"]


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def _spawn(job, path, env, started):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise TimeoutError("no time left to start a worker")
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), path, repr(t_spawn)],
        env=env, timeout=timeout, stdin=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(job["report"], "r", encoding="utf-8") as fh:
        return json.load(fh)


def _worker_env():
    env = dict(os.environ)
    env.pop("ZF_SEED", None)  # the CLI would let it override --seed
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run(args):
    started = time.monotonic()
    if not os.path.isfile(os.path.join("src", "zfpaths", "cli.py")):
        print("perfbench: run from the root of a zfpaths checkout (no src/zfpaths/cli.py here)",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(work, exist_ok=True)
    base, check = WORKLOADS[args.workload](args.seed, work)
    env = _worker_env()
    want_src = os.path.join(os.path.abspath("src"), "zfpaths")

    reports = []
    for i in range(WORKERS):
        job = dict(base, probe=False, trace=args.trace, seconds=args.seconds / WORKERS,
                   report=os.path.join(work, f"worker{i}.json"),
                   spans=os.path.join(work, f"spans{i}.jsonl"))
        reports.append(_spawn(job, os.path.join(work, f"job{i}.json"), env, started))
    setups = [r["setup_s"] for r in reports]
    for i in range(0 if args.trace else PROBES):
        job = dict(base, probe=True, trace=0, seconds=0,
                   report=os.path.join(work, f"probe{i}.json"))
        setups.append(_spawn(job, os.path.join(work, f"probe-job{i}.json"), env, started)["setup_s"])

    problems = []
    for r in reports:
        if os.path.realpath(r["zfpaths"]) != os.path.realpath(want_src):
            problems.append(f"imported zfpaths from {r['zfpaths']}, not {want_src}")
        if not r["repeats"]:
            problems.append("a later pass gave other outputs than the first")
        if r["first"] != reports[0]["first"]:
            problems.append("two workers gave different outputs")
    passes = sum(len(r["pass_s"]) for r in reports)
    failed = check(reports[0]["first"], problems) * passes

    per_pass = base["graphs"]
    attempted = per_pass * passes
    # all graphs over all timed wall time: the host's slow and fast stretches
    # weigh by their length, where a median of passes jumps to whichever
    # stretch covered more passes
    graphs_per_s = attempted / sum(t for r in reports for t in r["pass_s"])
    if args.trace:
        layers = [fig for r in reports for fig in r["layers"]]
        metrics = {}
        for name in PER_LAYER:
            value = statistics.median(fig[name] for fig in layers)
            unit = _layer_unit(name)
            metrics[name] = {"value": int(value) if unit != "s" and value == int(value) else value,
                             "unit": unit}
    else:
        metrics = {
            "graphs_per_s": {"value": graphs_per_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reports), "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(result, problems=problems[:50], graphs_per_pass=per_pass,
                  pass_s=[r["pass_s"] for r in reports], setup_s=setups,
                  graphs_per_s=graphs_per_s, wall_s=time.monotonic() - started)
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} graphs in "
          f"{passes} passes, "
          f"{graphs_per_s:.4g} graphs/s, details in {work}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # turn a termination request into an exception, so that subprocess.run
    # stops the running worker on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
