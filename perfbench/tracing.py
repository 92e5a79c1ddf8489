"""Spans and counts recorded around the program's public functions.

install() replaces each traced function under every name a zfpaths module
binds it to, so calls through `from .forcing import forcing_number` and
through `harness.run_suite` alike pass the wrapper.  Spans stay in memory;
the worker writes them out when its run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# (module, function, span name): functions whose calls are recorded as spans.
SPANS = (
    ("graphs", "enumerate_connected_subcubic", "graphs.enumerate"),
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("forcing", "forcing_number", "forcing.forcing_number"),
    ("forcing", "total_forcing_number", "forcing.total_forcing_number"),
    ("chains", "chains_for", "chains.chains_for"),
    ("chains", "check_order_lemmas", "chains.check_order_lemmas"),
    ("chains", "eliminate_bad", "chains.eliminate_bad"),
    ("chains", "eliminate_unfavorite", "chains.eliminate_unfavorite"),
    ("drawing", "build_parallel_drawing", "drawing.build_parallel_drawing"),
    ("drawing", "build_standard_drawing", "drawing.build_standard_drawing"),
    ("drawing", "verify_drawing", "drawing.verify_drawing"),
    ("nullity", "classify", "nullity.classify"),
    ("nullity", "maximize_nullity", "nullity.maximize_nullity"),
    ("nullity", "certify", "nullity.certify"),
    ("harness", "run_suite", "harness.run_suite"),
    ("cli", "main", "cli.main"),
)

# Functions called too often for a span each: only their calls are counted.
COUNTS = (
    ("forcing", "is_forcing_set", "forcing.is_forcing_set_calls"),
    ("nullity", "jacobi_eigenvalues", "nullity.jacobi_calls"),
)

# Per-layer metric -> (kind, span or counter name).  "total" is the time
# inside the outermost calls, "self" excludes the time of child spans.
LAYER_METRICS = {
    "graphs.enumerate_s": ("total", "graphs.enumerate"),
    "graphs.canonical_form_calls": ("calls", "graphs.canonical_form"),
    "graphs.canonical_form_s": ("total", "graphs.canonical_form"),
    "forcing.forcing_number_s": ("total", "forcing.forcing_number"),
    "forcing.total_forcing_number_s": ("total", "forcing.total_forcing_number"),
    "forcing.is_forcing_set_calls": ("count", "forcing.is_forcing_set_calls"),
    "chains.chains_for_s": ("total", "chains.chains_for"),
    "chains.check_order_lemmas_s": ("total", "chains.check_order_lemmas"),
    "chains.eliminate_bad_s": ("total", "chains.eliminate_bad"),
    "chains.eliminate_unfavorite_s": ("total", "chains.eliminate_unfavorite"),
    "drawing.build_parallel_drawing_s": ("total", "drawing.build_parallel_drawing"),
    "drawing.build_standard_drawing_s": ("total", "drawing.build_standard_drawing"),
    "drawing.verify_drawing_s": ("total", "drawing.verify_drawing"),
    "nullity.classify_s": ("total", "nullity.classify"),
    "nullity.maximize_nullity_s": ("total", "nullity.maximize_nullity"),
    "nullity.maximize_nullity_calls": ("calls", "nullity.maximize_nullity"),
    "nullity.certify_calls": ("calls", "nullity.certify"),
    "nullity.certify_s": ("total", "nullity.certify"),
    "nullity.jacobi_calls": ("count", "nullity.jacobi_calls"),
    "nullity.eigh_matrices": ("count", "nullity.eigh_matrices"),
    "harness.run_suite_self_s": ("self", "harness.run_suite"),
    "cli.main_self_s": ("self", "cli.main"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._open = []

    def wrap_span(self, name, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def wrap_count(self, name, fn, weight=None):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += weight(*args) if weight else 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every traced function of the already imported zfpaths modules."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zfpaths"]
        for mod, fn, name in SPANS:
            original = getattr(sys.modules[f"zfpaths.{mod}"], fn)
            _rebind(modules, original, self.wrap_span(name, original))
        for mod, fn, name in COUNTS:
            original = getattr(sys.modules[f"zfpaths.{mod}"], fn)
            _rebind(modules, original, self.wrap_count(name, original))
        import numpy

        # counted at numpy's boundary in matrices, so a stacked call counts each one
        numpy.linalg.eigh = self.wrap_count(
            "nullity.eigh_matrices", numpy.linalg.eigh, _matrices_in
        )

    def metrics(self, first_span=0, counts_before=None):
        """Per-layer figures over the spans from first_span on and the counts
        gathered since the counts_before snapshot."""
        spans = self.spans[first_span:]
        base = first_span
        names = [s[0] for s in spans]
        child_time = [0.0] * len(spans)
        outermost = [True] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= base:
                child_time[parent - base] += end - start
            p = parent
            while p >= base:
                if names[p - base] == name:
                    outermost[i] = False
                    break
                p = spans[p - base][3]
        out = {}
        before = counts_before or {}
        for metric, (kind, name) in LAYER_METRICS.items():
            if kind == "count":
                out[metric] = self.counts.get(name, 0) - before.get(name, 0)
                continue
            picked = [i for i, n in enumerate(names) if n == name]
            if kind == "calls":
                out[metric] = len(picked)
            elif kind == "total":
                out[metric] = sum(spans[i][2] - spans[i][1] for i in picked if outermost[i])
            else:
                out[metric] = sum(spans[i][2] - spans[i][1] - child_time[i] for i in picked)
        return out


def _rebind(modules, original, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _matrices_in(a, *_, **__):
    import numpy

    return math.prod(numpy.shape(a)[:-2])
