"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
The advisory "never certifies one above the classified nullity at tenfold
budget" sub-check runs at standard budget by default; set ZF_FULL_ADVISORY=1
to run the full tenfold version (slow by construction: it can only exhaust).
The exhaustive tier over every connected subcubic graph with n = 9 and 10
runs only with ZF_TIER=10 (about a minute).
"""

import os
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import eigenvalue_gradient_errors, random_graph, sequential_closure
from zfpaths.chains import chains_for, check_order_lemmas
from zfpaths.drawing import (
    StandardDrawing,
    build_parallel_drawing,
    build_standard_drawing,
    leftmost_set,
    realize,
    verify_drawing,
)
from zfpaths.errors import UnsupportedInputError
from zfpaths.forcing import closure, forcing_number, is_forcing_set, total_forcing_number
from zfpaths.graphs import (
    Graph,
    canonical_form,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    encode_graph6,
    enumerate_connected_subcubic,
    fig8_graph,
    is_induced_path,
    parse_graph6,
    path_graph,
)
from zfpaths.harness import run_suite
from zfpaths.nullity import NullityCertificate, classify, maximize_nullity

NULLITY_BUDGET = (50, 2000)
FIG8_INSTANCES = (
    (1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1),
    (2, 2, 1, 1, 1),
    (2, 1, 2, 1, 1),
    (3, 1, 1, 1, 1),
    (1, 2, 2, 1, 1),
)


@contextmanager
def criterion(name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < limit_s
    print(f"\nACCEPTANCE {name}: {'PASS' if within else 'FAIL (over time)'} "
          f"({elapsed:.1f}s, limit {limit_s}s)")
    assert within, f"{name} took {elapsed:.1f}s, limit {limit_s}s"


def corpus(n_max=8):
    for n in range(1, n_max + 1):
        yield from enumerate_connected_subcubic(n)


def test_criterion_1_forcing_landmarks():
    with criterion("criterion 1 (forcing landmarks)", 1.0):
        for n in range(1, 11):
            assert forcing_number(path_graph(n))[0] == 1
        assert forcing_number(complete_graph(4))[0] == 3
        assert forcing_number(complete_bipartite(3, 3))[0] == 4


def test_criterion_2_bound_equations():
    with criterion("criterion 2 (bound equations, n <= 8)", 120.0):
        violations = []
        for g in corpus():
            f = forcing_number(g)[0]
            if 2 * f > g.n + 2:
                violations.append(("upper", encode_graph6(g)))
            if all(g.degree(v) > 0 for v in range(g.n)):
                ft = total_forcing_number(g)[0]
                if not f <= ft <= 2 * f:
                    violations.append(("total", encode_graph6(g)))
        assert violations == []


def test_criterion_3_three_parallel_iff():
    with criterion("criterion 3 (three parallel paths iff F=3)", 300.0):
        violations = []
        for g in corpus():
            f = forcing_number(g)[0]
            if f == 3:
                d = build_standard_drawing(g)
                if d.k != 3 or verify_drawing(d):
                    violations.append(("drawing", encode_graph6(g)))
                if not is_forcing_set(g, leftmost_set(d)):
                    violations.append(("leftmost", encode_graph6(g)))
            else:
                try:
                    build_standard_drawing(g)
                    violations.append(("accepted", encode_graph6(g)))
                except UnsupportedInputError:
                    pass
        assert violations == []


def test_criterion_4_classification():
    with criterion("criterion 4 (classification and nullity)", 600.0):
        violations = []
        for g in corpus():
            f = forcing_number(g)[0]
            if f == 1:
                if canonical_form(g) != canonical_form(path_graph(g.n)):
                    violations.append(("nonpath", encode_graph6(g)))
            elif f == 2:
                d = build_parallel_drawing(g)
                if d.k != 2 or verify_drawing(d):
                    violations.append(("two-row", encode_graph6(g)))
            elif f == 3:
                cls = classify(g)
                result = maximize_nullity(g, cls.m, budget=NULLITY_BUDGET, seed=2024)
                if not isinstance(result, NullityCertificate):
                    violations.append(("reach", encode_graph6(g), cls.m))
        for lengths in FIG8_INSTANCES:
            g = fig8_graph(lengths)
            assert g.n <= 12
            cls = classify(g)
            if cls.tag != "Figure8_F3M2":
                violations.append(("tag", lengths))
                continue
            reach = maximize_nullity(g, 2, budget=NULLITY_BUDGET, seed=2024)
            if not isinstance(reach, NullityCertificate):
                violations.append(("fig8 reach", lengths))
            # advisory sub-check at standard budget; tenfold version is opt-in
            over = maximize_nullity(g, 3, budget=NULLITY_BUDGET, seed=2024)
            if isinstance(over, NullityCertificate):
                violations.append(("fig8 exceeded", lengths))
        assert violations == []


@pytest.mark.skipif(
    not os.environ.get("ZF_FULL_ADVISORY"),
    reason="tenfold advisory budget only runs with ZF_FULL_ADVISORY=1",
)
def test_criterion_4_advisory_tenfold_budget():
    restarts, iters = NULLITY_BUDGET
    for lengths in FIG8_INSTANCES[:5]:
        g = fig8_graph(lengths)
        over = maximize_nullity(g, 3, budget=(10 * restarts, iters), seed=2024)
        assert not isinstance(over, NullityCertificate)


@pytest.mark.skipif(
    os.environ.get("ZF_TIER") != "10",
    reason="exhaustive n = 9 and 10 tier only runs with ZF_TIER=10",
)
def test_tier_10_every_check_through_ten_vertices():
    # class counts from OEIS A112410
    assert [len(enumerate_connected_subcubic(n)) for n in (9, 10)] == [531, 1733]
    report = run_suite(10)
    assert report.violations == []
    # 2,571 connected graphs, and the unions of two, three and four edges
    assert report.cursor == 2574
    # the pendant five-cycle with paths of length one is the only figure-8 graph
    assert report.totals.get("Figure8_F3M2") == 1


def test_criterion_5_total_forcing_sharpness():
    with criterion("criterion 5 (total forcing sharpness)", 30.0):
        for j in range(1, 5):
            g = disjoint_union([path_graph(2)] * j)
            assert total_forcing_number(g)[0] == 2 * j
        for g in corpus():
            if forcing_number(g)[0] != 3 or g.n < 2:
                continue
            d = build_standard_drawing(g)
            assert total_forcing_number(g)[0] <= 2 * d.k


def test_criterion_6_property_suite(rng):
    with criterion("criterion 6 (property suite)", 120.0):
        # synchronous vs sequential closure on 500 random instances
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 9))
            start = rng.sample(range(g.n), rng.randint(0, g.n))
            assert closure(g, start).derived == sequential_closure(g, start)
        # eigenvalue rows of the Newton Jacobian vs central finite differences, 100 points
        errors = eigenvalue_gradient_errors(
            np.random.default_rng(2024), enumerate_connected_subcubic(6)
        )
        assert len(errors) == 100 and max(errors) <= 1e-5
        # graph6 round-trip over the full corpus
        for g in corpus():
            assert parse_graph6(encode_graph6(g)) == g
        # chain invariants and order scans, zero violations
        for g in corpus():
            k, wit = forcing_number(g)
            cs = chains_for(g, wit)
            assert sorted(v for c in cs.chains for v in c) == list(range(g.n))
            for c in cs.chains:
                assert is_induced_path(g, c)
            if g.edge_count:
                assert cs.trivial_count() <= len(cs.origin) - 1
            assert check_order_lemmas(cs) == []


def test_criterion_7_figure_fidelity():
    with criterion("criterion 7 (figure fidelity)", 1.0):
        # the complete graph on five vertices as four parallel paths:
        # rows v1 | v2 | v3 v4 | v5, x adapted to unit row spacing
        k5 = complete_graph(5)
        d = StandardDrawing(
            rows=((0,), (1,), (2, 3), (4,)),
            x={0: Fraction(1), 1: Fraction(1), 2: Fraction(0), 3: Fraction(4), 4: Fraction(-4, 5)},
            host=k5,
        )
        assert not verify_drawing(d)
        left = leftmost_set(d)
        assert len(left) == 4
        assert is_forcing_set(k5, left)

        # ladder with two thick merges plus a lone top vertex, then the split
        thick_ladder = Graph(
            14,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
             (7, 8), (8, 9), (9, 10), (10, 11), (11, 12),
             (0, 9), (0, 10), (12, 4), (12, 5), (11, 1), (13, 8), (13, 2), (13, 3)],
        )
        d67 = realize(thick_ladder, ((13,), tuple(range(7)), tuple(range(7, 13))))
        assert not verify_drawing(d67)
        assert d67.x[4] != d67.x[5] and d67.x[9] != d67.x[10]
