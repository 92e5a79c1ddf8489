import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from conftest import brute_drawing_ok, fraction_solve, random_graph, subcubic_n8

from zfpaths import drawing
from zfpaths.chains import chains_for
from zfpaths.drawing import (
    StandardDrawing,
    _draw,
    _row_structures,
    _solve,
    build_parallel_drawing,
    build_standard_drawing,
    drawing_to_json_obj,
    leftmost_set,
    realize,
    render,
    search_drawing,
    verify_drawing,
)
from zfpaths.errors import ContractError, InternalLogicError, UnsupportedInputError
from zfpaths.forcing import forcing_number, is_forcing_set
from zfpaths.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    encode_graph6,
    enumerate_connected_subcubic,
    fig8_graph,
    parse_graph6,
    path_graph,
)

# K5 with the row structure of the four-parallel-path drawing:
# rows v1 | v2 | v3 v4 | v5, coordinates adapted to unit row spacing
K5 = complete_graph(5)
K5_ROWS = ((0,), (1,), (2, 3), (4,))
K5_X = {0: Fraction(1), 1: Fraction(1), 2: Fraction(0), 3: Fraction(4), 4: Fraction(-4, 5)}

# ladder-plus-lone-vertex construction with two thick merges: rows are the
# chains (0..6), (7..12) and the lone 13; 12 sits on (4,5), 0 sits on (9,10)
THICK_LADDER = Graph(
    14,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
     (7, 8), (8, 9), (9, 10), (10, 11), (11, 12),
     (0, 9), (0, 10), (12, 4), (12, 5), (11, 1), (13, 8), (13, 2), (13, 3)],
)


def test_verify_k5_four_row_drawing():
    d = StandardDrawing(rows=K5_ROWS, x=K5_X, host=K5)
    assert not verify_drawing(d)
    left = leftmost_set(d)
    assert left == {0, 1, 2, 4}
    assert len(left) == 4
    assert is_forcing_set(K5, left)


def test_verify_detects_swapped_pair():
    x = dict(K5_X)
    x[2], x[3] = x[3], x[2]
    d = StandardDrawing(rows=K5_ROWS, x=x, host=K5)
    assert verify_drawing(d)


def test_a_segment_may_cross_the_path_of_a_row_it_spans():
    # verify_drawing checks cross-row segments against each other and against
    # vertices, not against the path edges inside a row.  On Ds[ (F = 3) the
    # segment 2-4 from row 0 to row 2 meets row 1 at x = 1/2, on its edge 0-3,
    # and the drawing is valid
    g = parse_graph6("Ds[")
    assert forcing_number(g)[0] == 3 and {(0, 3), (2, 4)} <= set(g.edges)
    d = StandardDrawing(rows=((2,), (0, 3), (1, 4)), x={0: 0, 1: 0, 2: 0, 3: 1, 4: 1}, host=g)
    assert d.x[0] < Fraction(d.x[2] + d.x[4], 2) < d.x[3]
    assert verify_drawing(d) == []


def test_verify_detects_crossing():
    # two segments between two rows in inverted order must cross
    g = Graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)])
    d = StandardDrawing(
        rows=((0, 1), (2, 3)),
        x={0: Fraction(0), 1: Fraction(1), 2: Fraction(0), 3: Fraction(1)},
        host=g,
    )
    assert any("cross" in v for v in verify_drawing(d))


def test_verify_one_row_path():
    d = StandardDrawing(
        rows=((0, 1, 2),), x={i: Fraction(i) for i in range(3)}, host=path_graph(3)
    )
    assert not verify_drawing(d)


def test_verify_catches_vertex_on_segment():
    # vertex 1 sits exactly on the long segment 0-2
    g = Graph(3, [(0, 2)])
    d = StandardDrawing(
        rows=((0,), (1,), (2,)),
        x={0: Fraction(0), 1: Fraction(0), 2: Fraction(0)},
        host=g,
    )
    assert any("passes through" in v for v in verify_drawing(d))


def _random_drawing(rng):
    """Rows that are induced paths, random cross-row edges, and x increasing
    along each row from a small integer range, so that vertical, collinear
    and touching segments are common."""
    n, k = rng.randint(2, 8), rng.randint(2, 4)
    verts = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), min(k, n) - 1))
    rows = tuple(tuple(verts[a:b]) for a, b in zip([0, *cuts], [*cuts, n]))
    row_of = {v: i for i, row in enumerate(rows) for v in row}
    edges = [e for row in rows for e in zip(row, row[1:])]
    edges += [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if row_of[u] != row_of[v] and rng.random() < 0.35
    ]
    x = {}
    for row in rows:
        xs = sorted(rng.sample(range(max(3, len(row))), len(row)))
        x.update(zip(row, map(Fraction, xs)))
    g = Graph(n, edges)
    return g, StandardDrawing(rows=rows, x=x, host=g)


def test_verify_agrees_with_the_definition_on_degenerate_drawings():
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(2000):
        g, d = _random_drawing(rng)
        ok = not verify_drawing(d)
        assert ok == brute_drawing_ok(g, d), (g.edges, d.rows, d.x)
        verdicts.append(ok)
    # both verdicts are common, so neither side of the check is vacuous
    assert 400 < sum(verdicts) < 1600


def test_verify_reports_a_row_chord_once():
    # the chord 0-2 makes the row no induced path, and nothing else is reported
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    d = StandardDrawing(rows=((0, 1, 2),), x={v: Fraction(v) for v in range(3)}, host=g)
    assert verify_drawing(d) == ["row 0 (0, 1, 2) is not an induced path"]
    assert not brute_drawing_ok(g, d)


def test_verify_rows_that_do_not_partition_give_that_message_alone():
    # row (0, 1, 2) is no induced path of K4, vertex 3 is in no row and no
    # vertex has x: the partition rule fails first, and nothing else is read
    d = StandardDrawing(rows=((0, 1, 2),), x={}, host=complete_graph(4))
    assert verify_drawing(d) == ["rows do not partition the vertex set"]
    # a vertex in two rows breaks the partition as well
    d = StandardDrawing(rows=((0, 1), (1, 2)), x={}, host=path_graph(3))
    assert verify_drawing(d) == ["rows do not partition the vertex set"]


def test_verify_names_vertices_without_x():
    d = StandardDrawing(rows=((0, 1, 2),), x={0: Fraction(0), 2: Fraction(2)}, host=path_graph(3))
    assert verify_drawing(d) == ["vertices without x coordinate: [1]"]


def test_verify_two_segments_along_one_ray():
    # 0-1 and 0-2 leave 0 straight down; the nearer end 1 lies on 0-2
    g = Graph(3, [(0, 1), (0, 2)])
    d = StandardDrawing(rows=((0,), (1,), (2,)), x={v: Fraction(0) for v in range(3)}, host=g)
    assert verify_drawing(d) == ["segment 0-2 passes through vertex 1"]
    assert not brute_drawing_ok(g, d)


def test_verify_end_touching_another_segment():
    # 1-3 ends at 1, which lies on 0-2; the segments share no end
    g = Graph(4, [(0, 3), (0, 2), (1, 3)])
    d = StandardDrawing(
        rows=((0, 3), (1,), (2,)),
        x={0: Fraction(0), 1: Fraction(0), 2: Fraction(0), 3: Fraction(1)},
        host=g,
    )
    assert verify_drawing(d) == ["segment 0-2 passes through vertex 1"]
    assert not brute_drawing_ok(g, d)


# F = 3 graphs with row orders, the pipeline's among them, that a greedy
# left-to-right placement of the top row cannot draw; all of them draw
LADDER_ORDER_GRAPHS = ("KaGS?O@s?H@o", "KIG?K?W[?H@H", "JP@A_OK?hQ?", "M?GH?gOgA@_O@WA`?")


@pytest.mark.parametrize("code", LADDER_ORDER_GRAPHS)
def test_drawing_tries_every_row_order(code):
    base = parse_graph6(code)
    rng = random.Random(20261018)
    graphs = [base]
    for _ in range(50):
        perm = list(range(base.n))
        rng.shuffle(perm)
        graphs.append(base.relabel(perm))
    for g in graphs:
        d = build_parallel_drawing(g)
        assert d.k == 3
        assert not verify_drawing(d)


@pytest.mark.parametrize(
    "g, rows",
    [
        # fewest trivial chains: the two singletons never form the ladder pair
        (complete_graph(4), ((2,), (0, 3), (1,))),
        # most cross edges: three two-vertex chains
        (parse_graph6("EsPo"), ((1, 4), (0, 3), (2, 5))),
        # every pair has two cross edges: the smaller heads decide
        (parse_graph6("KaGS?O@s?H@o"), ((3, 5, 10, 8, 7), (0, 6, 11, 4, 2), (1, 9))),
    ],
)
def test_standard_drawing_ladder_pair(g, rows):
    # the third chain on top, then the ladder pair
    assert build_standard_drawing(g).rows == rows


def test_realize_draws_pipeline_row_order():
    # the pipeline's row order for this graph, on which a greedy left-to-right
    # placement of the top row finds no position for vertex 3
    g = parse_graph6("KaGS?O@s?H@o")
    d = realize(g, ((3, 5, 10, 8, 7), (0, 6, 11, 4, 2), (1, 9)))
    assert d.rows == ((3, 5, 10, 8, 7), (0, 6, 11, 4, 2), (1, 9))
    assert not verify_drawing(d)
    assert is_forcing_set(g, leftmost_set(d))


def test_realize_returns_none_without_a_drawing():
    # segments 0-3 and 1-2 invert between the rows, whatever the coordinates
    g = Graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)])
    assert realize(g, ((0, 1), (2, 3))) is None
    assert realize(g, ((0, 1), (3, 2))) is not None
    # rows that are not induced paths, or do not partition the vertices
    assert realize(g, ((0, 1, 2, 3),)) is None
    assert realize(g, ((0, 1), (2,))) is None


def test_realize_raises_when_solve_refuses_a_consistent_gap_choice(monkeypatch):
    # a consistent gap choice always has coordinates, so a refusal is a fault
    monkeypatch.setattr(drawing, "_solve", lambda n, inequalities: None)
    g = Graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)])
    with pytest.raises(InternalLogicError, match="consistent gap choice .* has no coordinates"):
        realize(g, ((0, 1), (3, 2)))


def _on_smallest_grid(x):
    return all(type(v) is int for v in x) and min(x) == 0 and math.gcd(*x) == 1


def test_solve_proves_infeasible_systems():
    # x0 > x1 and x1 > x0 sum to 0 > 0; the zero vector alone reads 0 > 0
    assert _solve(2, [(1, -1), (-1, 1)]) is None
    assert _solve(1, [(0,)]) is None
    x = _solve(2, [(1, -1)])
    assert x[0] > x[1]
    assert type(x) is list and _on_smallest_grid(x)


@pytest.mark.parametrize(
    "n, rows, x",
    [
        # x0 is eliminated first: x0 > x1 bounds it from below only
        (2, [(1, -1)], [1, 0]),
        # and x1 > x0 from above only, at ceil(0) - 1 = -1 before the shift
        (2, [(-1, 1)], [0, 1]),
        # x1 < x2 = 0 gives x1 = -1; then x0 lies in (x2, 3 x2 - 2 x1) = (0, 2),
        # where the integer 1 fits
        (3, [(1, 0, -1), (-1, -2, 3)], [2, 0, 1]),
        # x1 = -1, and x0 in (-1, 0) takes the midpoint -1/2: X and D double
        (3, [(1, -1, 0), (-1, 0, 1)], [1, 0, 2]),
        # x2 = -1; x1 in (-1, -1/2) takes -3/4, which multiplies X and D by 4;
        # x0 in (-3/4, -1/4) takes -1/2 = -2/4, on that grid already: d = 1
        (4, [(-1, -1, 1, 1), (0, 1, -1, 0), (1, -1, 0, 0)], [2, 1, 0, 4]),
        # x2 is in no row and keeps 0
        (3, [(1, -1, 0)], [1, 0, 0]),
    ],
)
def test_solve_back_substitution_branches(n, rows, x):
    assert _solve(n, rows) == fraction_solve(n, rows) == x
    assert all(sum(map(int.__mul__, a, x)) > 0 for a in rows)


def _random_row(rng, n, translation_invariant):
    a = [rng.randint(-2, 2) for _ in range(n)]
    if translation_invariant:
        a[-1] -= sum(a)  # a·1 = 0, so shifting x keeps a·x
    return tuple(a)


def test_solve_matches_the_fraction_oracle_on_feasible_systems(rng):
    # rows oriented so that a·p > 0 at a random integer point p; the rows sum
    # to 0, as the realizer's do, so the shifted x must satisfy them too
    for _ in range(500):
        n = rng.randint(2, 7)
        p = [rng.randint(-4, 4) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 8)):
            a = _random_row(rng, n, True)
            side = sum(map(int.__mul__, a, p))
            if side:
                rows.append(a if side > 0 else tuple(-c for c in a))
        x = _solve(n, rows)
        assert x == fraction_solve(n, rows), rows
        assert _on_smallest_grid(x) or not rows, rows
        assert all(sum(map(int.__mul__, a, x)) > 0 for a in rows), rows


def test_solve_matches_the_fraction_oracle_on_unconstrained_systems(rng):
    outcomes = {True: 0, False: 0}
    for _ in range(500):
        n = rng.randint(1, 6)
        rows = [_random_row(rng, n, False) for _ in range(rng.randint(1, 6))]
        x = _solve(n, rows)
        assert x == fraction_solve(n, rows), rows
        outcomes[x is None] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_draw_raises_when_the_rows_have_no_drawing():
    # all four segments between the rows of K4 cannot avoid a crossing
    with pytest.raises(InternalLogicError, match=r"no drawing with rows \(\(0, 1\), \(2, 3\)\)"):
        _draw(complete_graph(4), ((0, 1), (2, 3)))


def test_standard_drawing_raises_when_no_row_order_draws(monkeypatch):
    tried = []

    def refuse(g, rows):
        tried.append(rows)

    monkeypatch.setattr(drawing, "realize", refuse)
    with pytest.raises(InternalLogicError, match="draw in no row order"):
        build_standard_drawing(complete_graph(4))
    # each chain once in the middle row, the ladder pair's first chain first
    assert tried == [((2,), (0, 3), (1,)), ((0, 3), (1,), (2,)), ((1,), (2,), (0, 3))]


@pytest.mark.parametrize(
    "g, rows",
    [
        # 3 meets all of the path 0-1-2: a fan, not one slot of a ladder
        (Graph(4, [(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)]), ((0, 1, 2), (3,))),
        # 0 has non-consecutive neighbors 2 and 4 across
        (Graph(5, [(0, 1), (2, 3), (3, 4), (0, 2), (0, 4)]), ((0, 1), (2, 3, 4))),
        # a singleton third row with three neighbors in the two rows below
        (
            Graph(5, [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 1), (4, 3)]),
            ((4,), (0, 1), (2, 3)),
        ),
        # a lone vertex with both neighbors inside the single inner section
        (Graph(5, [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (4, 1)]), ((4,), (0, 1), (2, 3))),
        # a third row with no edge to the other two
        (Graph(6, [(0, 1), (2, 3), (0, 2), (1, 3), (4, 5)]), ((4, 5), (0, 1), (2, 3))),
    ],
)
def test_realize_draws_rows_the_ladder_refused(g, rows):
    # a ladder of the paper's Figure 6 (one slot per vertex or merged pair of
    # one row, vertical segments to the other) has no place for these rows;
    # realize draws each with exactly these rows
    d = realize(g, rows)
    assert d is not None and d.rows == rows
    assert not verify_drawing(d)


# -- figure 6 / figure 7 construction ---------------------------------------------


def test_thick_ladder_chain_set_matches_figure():
    from zfpaths.chains import chains_for

    cs = chains_for(THICK_LADDER, [0, 7, 13])
    assert cs.chains == (tuple(range(7)), tuple(range(7, 13)), (13,))


def test_thick_ladder_thick_split_drawing_verifies():
    # 13 has three edges into the two rows below
    d = realize(THICK_LADDER, ((13,), tuple(range(7)), tuple(range(7, 13))))
    assert d.rows == ((13,), tuple(range(7)), tuple(range(7, 13)))
    assert not verify_drawing(d)
    # the thick pairs end up split into distinct coordinates
    assert d.x[4] != d.x[5] and d.x[9] != d.x[10]


def test_thick_ladder_full_pipeline():
    assert forcing_number(THICK_LADDER)[0] == 3
    d = build_standard_drawing(THICK_LADDER)
    assert d.k == 3
    assert not verify_drawing(d)


# -- full pipeline ------------------------------------------------------------------


def test_build_standard_drawing_k4():
    d = build_standard_drawing(complete_graph(4))
    assert d.k == 3
    assert sorted(len(r) for r in d.rows) == [1, 1, 2]
    assert not verify_drawing(d)


def test_build_standard_drawing_fig8_instance():
    g = fig8_graph([1, 1, 1, 1, 1])
    d = build_standard_drawing(g)
    assert d.k == 3
    assert not verify_drawing(d)


def test_build_standard_drawing_rejects_wrong_f():
    with pytest.raises(UnsupportedInputError):
        build_standard_drawing(path_graph(5))
    with pytest.raises(UnsupportedInputError):
        build_standard_drawing(complete_graph(5))


def test_build_parallel_drawing_rejects_inputs_outside_its_contract():
    with pytest.raises(UnsupportedInputError, match="parallel drawings need maximum degree <= 3"):
        build_parallel_drawing(complete_graph(5))
    with pytest.raises(UnsupportedInputError, match="forcing number 4 exceeds 3"):
        build_parallel_drawing(complete_bipartite(3, 3))


def test_build_standard_drawing_edgeless():
    d = build_standard_drawing(Graph(3))
    assert d.k == 3
    assert not verify_drawing(d)


def test_build_standard_drawing_disconnected():
    g = disjoint_union([cycle_graph(4), Graph(1)])
    assert forcing_number(g)[0] == 3
    d = build_standard_drawing(g)
    assert not verify_drawing(d)


@pytest.mark.parametrize(
    "code",
    [
        "HHcAPHP",      # a later midpoint must clear an earlier row-1 anchor
        "IAq_`QASG",
        "KDD@C?c?qO?D",
        "KJICOQ@???g`",
        "I?aQAHWGO",    # repair output needs a non-synchronous schedule
    ],
)
def test_pipeline_regressions_beyond_corpus(code):
    g = parse_graph6(code)
    assert forcing_number(g)[0] == 3
    d = build_standard_drawing(g)
    assert not verify_drawing(d)
    assert is_forcing_set(g, leftmost_set(d))


def test_pipeline_on_small_corpus():
    for n in range(1, 8):
        for g in enumerate_connected_subcubic(n):
            k, _ = forcing_number(g)
            if k != 3:
                continue
            d = build_standard_drawing(g)
            assert d.k == 3
            assert not verify_drawing(d)
            assert is_forcing_set(g, leftmost_set(d))


def test_pipeline_drawings_sit_on_the_smallest_integer_grid():
    # from n = 2 on, some x is nonzero, so the grid has gcd 1
    for n in range(2, 8):
        for g in enumerate_connected_subcubic(n):
            if forcing_number(g)[0] > 3:
                continue
            xs = list(build_parallel_drawing(g).x.values())
            assert all(type(x) is int for x in xs), g.edges
            assert min(xs) == 0 and math.gcd(*xs) == 1, g.edges


def test_parallel_drawing_rows_match_forcing_number():
    for g in (path_graph(6), cycle_graph(5), complete_graph(4)):
        k, _ = forcing_number(g)
        d = build_parallel_drawing(g)
        assert d.k == k
        assert is_forcing_set(g, leftmost_set(d))


def test_unrepaired_chains_of_every_minimum_forcing_set_draw():
    # the chains of a forcing set of size F = 3, as they are, draw with one of
    # them as the middle row; the outer two swap by a top-bottom mirror
    graphs = sets = 0
    for g in subcubic_n8():
        if forcing_number(g)[0] != 3:
            continue
        graphs += 1
        for s in itertools.combinations(range(g.n), 3):
            if is_forcing_set(g, s):
                sets += 1
                a, b, c = chains_for(g, s).chains
                orders = ((b, a, c), (a, b, c), (a, c, b))
                assert any(realize(g, rows) is not None for rows in orders), (g, s)
    assert (graphs, sets) == (150, 2368)


# -- search -------------------------------------------------------------------------


def test_search_single_row_path():
    d = search_drawing(path_graph(6), 1)
    assert d is not None and d.k == 1


def test_search_k5_reproduces_four_parallel_paths():
    d = search_drawing(K5, 4)
    assert d is not None
    assert d.k == 4
    assert sorted(len(r) for r in d.rows) == [1, 1, 1, 2]
    assert not verify_drawing(d)
    assert is_forcing_set(K5, leftmost_set(d))


def test_search_k6_has_no_drawing():
    # induced paths of K6 have at most two vertices, and no partition of
    # them into at most six rows draws
    for k in range(1, 7):
        assert search_drawing(complete_graph(6), k) is None


def test_search_three_rows_implies_forcing_bound():
    # any found 3-row drawing bounds the forcing number by 3
    for code in ("Cs", "C~"):
        g = parse_graph6(code)
        d = search_drawing(g, 3)
        assert d is not None
        assert forcing_number(g)[0] <= 3
        assert is_forcing_set(g, leftmost_set(d))


def test_search_converse_no_three_rows_beyond_three():
    # forcing number >= 4 means no drawing with at most three rows
    beyond = [
        g
        for n in range(1, 9)
        for g in enumerate_connected_subcubic(n)
        if forcing_number(g)[0] >= 4
    ]
    assert len(beyond) == 17
    for g in beyond:
        assert search_drawing(g, 3) is None


def test_every_three_row_drawing_has_forcing_leftmost_set():
    drawn = 0
    for n in range(1, 7):
        for g in enumerate_connected_subcubic(n):
            if forcing_number(g)[0] != 3:
                continue
            for rows in _row_structures(g, 3):
                d = realize(g, rows)
                if d is not None:
                    drawn += 1
                    assert d.k == 3
                    assert is_forcing_set(g, leftmost_set(d))
    assert drawn > 0


def test_search_with_no_rows_finds_nothing():
    assert search_drawing(path_graph(3), 0) is None


def test_search_size_cap():
    with pytest.raises(UnsupportedInputError, match="search capped at n = 8"):
        search_drawing(Graph(9), 3)


# -- rendering ------------------------------------------------------------------------


def test_render_svg_path():
    d = build_parallel_drawing(path_graph(3))
    svg = render(d, "svg")
    assert svg.count("<circle") == 3
    assert svg.count("<line") == 2


def test_render_svg_k4():
    d = build_standard_drawing(complete_graph(4))
    svg = render(d, "svg")
    assert svg.count("<circle") == 4
    assert svg.count("<line") == 6


def test_render_dot_has_pinned_positions():
    d = build_parallel_drawing(path_graph(3))
    dot = render(d, "dot")
    assert 'pos="' in dot and dot.strip().startswith("graph")


def test_render_json_round_trip():
    # the stored rows and integer x rebuild the drawing, with no decoder
    d = build_standard_drawing(complete_graph(4))
    obj = json.loads(render(d, "json"))
    assert list(obj) == ["rows", "x", "edges", "k"] and obj["k"] == 3
    x = {int(v): int(text.removesuffix("/1")) for v, text in obj["x"].items()}
    host = Graph(len(x), [tuple(e) for e in obj["edges"]])
    assert StandardDrawing(rows=tuple(map(tuple, obj["rows"])), x=x, host=host) == d


def test_render_refuses_a_rational_or_negative_drawing():
    # K5_X verifies, but render draws int x >= 0 only, as realize returns
    # them; 5 * K5_X is integer with x = -4, which would leave the svg canvas
    rational = StandardDrawing(rows=K5_ROWS, x=K5_X, host=K5)
    negative = StandardDrawing(rows=K5_ROWS, x={v: int(5 * x) for v, x in K5_X.items()}, host=K5)
    for d in (rational, negative):
        assert not verify_drawing(d)
        for fmt in ("svg", "dot", "json"):
            with pytest.raises(ContractError, match="x are not all ints >= 0"):
                render(d, fmt)


def test_render_draws_int_x_as_given():
    # K5_X shifted by 4/5 and scaled by 10 is integer, off the smallest grid
    # (gcd 2), and svg and dot keep every x as it is
    x = {v: int((val + Fraction(4, 5)) * 10) for v, val in K5_X.items()}
    assert x == {0: 18, 1: 18, 2: 8, 3: 48, 4: 0}
    d = StandardDrawing(rows=K5_ROWS, x=x, host=K5)
    svg, dot = render(d, "svg"), render(d, "dot")
    for i, row in enumerate(K5_ROWS):
        for v in row:
            assert f'<circle cx="{50 + 40 * x[v]}" cy="{50 + 100 * i}"' in svg
            assert f'{v} [pos="{x[v]},{3 - i}!"];' in dot


def test_render_refuses_invalid_drawing():
    bad = StandardDrawing(
        rows=((0, 1), (2, 3)),
        x={0: Fraction(0), 1: Fraction(1), 2: Fraction(0), 3: Fraction(1)},
        host=Graph(4, [(0, 3), (1, 2)]),
    )
    with pytest.raises(ContractError):
        render(bad, "svg")


def test_render_rejects_an_unknown_format():
    d = build_parallel_drawing(path_graph(3))
    with pytest.raises(ContractError, match="unknown render format 'png'"):
        render(d, "png")


# sha256 over one line per F <= 3 graph of `conftest.subcubic_n8`, in file
# order: its graph6 code and drawing_to_json_obj(build_parallel_drawing(g)) as
# compact sorted-key JSON.  Both digests were computed with `drawing._solve`
# patched to the Fraction back-substitution that `conftest.fraction_solve`
# keeps, so a change to the solver's arithmetic that moves any coordinate
# fails here.
_PARALLEL_DRAWINGS_DIGEST = "89001a5fb6fe7cb37284296fbaecc1ce0ca1cd07e7e0cee43076e3acb667c62e"
# The same over 200 seeded random connected subcubic F <= 3 graphs with
# n = 11 and 12, where the midpoints nest deeper and the grids are wider.
_PARALLEL_DRAWINGS_N12_DIGEST = "79a2ecd87bee6f16083432f3a25310005677312b42579bdec0711addae5f6daf"


def _pinned_drawing_line(g):
    """The digest line of g's drawing, once the drawing is checked: its rows
    are the chains of the witness as they are, in some order, it verifies,
    and its leftmost set is the witness, which forces."""
    d = build_parallel_drawing(g)
    witness = forcing_number(g)[1]
    assert sorted(d.rows) == sorted(chains_for(g, witness).chains), g.edges
    assert not verify_drawing(d)
    assert leftmost_set(d) == frozenset(witness) and is_forcing_set(g, leftmost_set(d))
    obj = [encode_graph6(g), drawing_to_json_obj(d)]
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def test_parallel_drawing_coordinates_are_pinned():
    digest, count = hashlib.sha256(), 0
    for g in subcubic_n8():
        if forcing_number(g)[0] <= 3:
            digest.update(_pinned_drawing_line(g))
            count += 1
    assert count == 290
    assert digest.hexdigest() == _PARALLEL_DRAWINGS_DIGEST


def test_parallel_drawing_coordinates_are_pinned_at_n_11_and_12():
    rng, digest, count = random.Random(4101), hashlib.sha256(), 0
    while count < 200:
        g = random_graph(rng, rng.choice((11, 12)), p=0.35, max_degree=3)
        if g.is_connected() and forcing_number(g)[0] <= 3:
            digest.update(_pinned_drawing_line(g))
            count += 1
    assert digest.hexdigest() == _PARALLEL_DRAWINGS_N12_DIGEST
