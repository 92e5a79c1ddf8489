"""One process that runs a workload's passes through zfpaths.cli.main.

Started by run.py with a job file.  It reports set-up time (from the
parent's clock reading taken just before this process was started), the
wall time of every pass, the outputs of its first pass, whether later
passes repeated them, its peak resident set, and, when traced, the
per-layer figures of every pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _lru_caches():
    """Every lru-cached function of the program, looked up before tracing wraps them."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "zfpaths":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def _strip_timings(path):
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for rec in records:
        rec.pop("timings", None)
    return records


def _run_pass(cli, job):
    outputs = []
    for argv in job["argvs"]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception:  # a crash is that operation's failure, not the benchmark's
                traceback.print_exc()
                code = None
        outputs.append({"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    return outputs


def _digest(job, outputs):
    """What the pass produced, minus timings: the thing later passes must repeat."""
    result = {"runs": [{"code": o["code"], "payload": _last_json(o["stdout"])} for o in outputs]}
    if job.get("records"):
        result["records"] = _strip_timings(job["records"])
    return result


def _last_json(text):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    spawned = float(sys.argv[2])
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    import zfpaths.cli as cli

    if job.get("input"):
        with open(job["input"], "r", encoding="ascii") as fh:
            fh.read()
    setup_s = time.monotonic() - spawned
    report = {"setup_s": setup_s, "zfpaths": os.path.dirname(cli.__file__)}
    if job["probe"]:
        _write(job, report)
        return

    caches = _lru_caches()
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    budget = job["seconds"]
    pass_s, layers, first, repeats = [], [], None, True
    started = time.perf_counter()
    while True:
        for fn in caches:  # every pass starts as a fresh process would
            fn.cache_clear()
        first_span = len(tracer.spans) if tracer else 0
        counts_before = dict(tracer.counts) if tracer else None
        t0 = time.perf_counter()
        outputs = _run_pass(cli, job)
        pass_s.append(time.perf_counter() - t0)
        if tracer:
            figures = tracer.metrics(first_span, counts_before)
            figures["harness.records_bytes"] = (
                os.path.getsize(job["records"]) if job.get("records") else 0
            )
            layers.append(figures)
        digest = _digest(job, outputs)
        if first is None:
            first = digest
            report["stderr"] = [o["stderr"][-2000:] for o in outputs if o["code"] != 0]
        elif digest != first:
            repeats = False
        elapsed = time.perf_counter() - started
        # start another pass only if at least half of it fits in the budget
        if elapsed + 0.5 * min(pass_s) > budget:
            break
    report.update(
        pass_s=pass_s,
        first=first,
        repeats=repeats,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        layers=layers,
    )
    if tracer:
        with open(job["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    _write(job, report)


def _write(job, report):
    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
