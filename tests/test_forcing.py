import itertools

import pytest

from conftest import random_graph, sequential_closure
from zfpaths.errors import InvalidVertexError, UnsupportedInputError
from zfpaths.forcing import closure, forcing_number, is_forcing_set, total_forcing_number
from zfpaths.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    encode_graph6,
    enumerate_connected_subcubic,
    path_graph,
)


def test_closure_path_from_endpoint():
    out = closure(path_graph(4), [0])
    assert [sorted(l) for l in out.layers] == [[0], [1], [2], [3]]
    assert out.complete


def test_closure_stalls_on_k4():
    out = closure(complete_graph(4), [0])
    assert [sorted(l) for l in out.layers] == [[0]]
    assert not out.complete


def test_closure_synchronous_layers_and_events():
    out = closure(cycle_graph(4), [0, 1])
    assert [sorted(l) for l in out.layers] == [[0, 1], [2, 3]]
    assert set(out.events) == {(1, 2, 1), (0, 3, 1)}
    assert out.complete


def test_closure_from_empty_set():
    out = closure(path_graph(3), [])
    assert out.layers == (frozenset(),)
    assert out.derived == frozenset() and out.events == ()
    assert not out.complete


def test_closure_keeps_both_forcers_of_one_vertex():
    # 0 and 2 each have 1 as their one uncolored neighbor in step 1
    out = closure(path_graph(3), {0, 2})
    assert out.steps == (((0, 1), (2, 1)),)
    assert out.events == ((0, 1, 1), (2, 1, 1))
    assert out.layers == (frozenset({0, 2}), frozenset({1}))
    assert out.step_of == {0: 0, 1: 1, 2: 0}
    assert out.complete


def test_closure_of_nothing_on_a_cycle():
    out = closure(cycle_graph(4), ())
    assert out.steps == () and out.events == () and out.step_of == {}
    assert out.layers == (frozenset(),)
    assert not out.complete


def test_run_views_agree_with_the_steps(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9))
        run = closure(g, rng.sample(range(g.n), rng.randint(0, g.n)))
        layers = run.layers
        assert layers[0] == run.initial and all(layers[1:])
        # disjoint layers whose union is the derived set
        assert frozenset().union(*layers) == run.derived
        assert sum(map(len, layers)) == len(run.derived)
        step_of = run.step_of
        assert all(step_of[v] == t for t, layer in enumerate(layers) for v in layer)
        for u, v, t in run.events:
            assert v in g.neighbors(u) and step_of[u] < t and v in layers[t]
        assert run.complete == (run.derived == frozenset(range(g.n)))


def test_closure_rejects_bad_vertex():
    with pytest.raises(InvalidVertexError):
        closure(path_graph(3), [5])


def test_is_forcing_set_examples():
    assert not is_forcing_set(path_graph(5), [2])
    assert is_forcing_set(complete_graph(4), [0, 1, 2])
    for s in itertools.combinations(range(6), 3):
        assert not is_forcing_set(complete_bipartite(3, 3), s)


def test_forcing_numbers():
    assert forcing_number(path_graph(7)) == (1, (0,))
    assert forcing_number(complete_graph(4))[0] == 3
    assert forcing_number(complete_bipartite(3, 3))[0] == 4


def test_forcing_number_witness_is_lex_smallest():
    k, witness = forcing_number(cycle_graph(6))
    assert k == 2
    assert witness == (0, 1)  # adjacent pair; opposite pairs never force a cycle
    assert not is_forcing_set(cycle_graph(6), [0, 3])


def test_forcing_number_edgeless():
    assert forcing_number(Graph(3)) == (3, (0, 1, 2))
    assert forcing_number(Graph(1)) == (1, (0,))


def test_total_forcing_examples():
    assert total_forcing_number(path_graph(4)) == (2, (0, 1))
    assert total_forcing_number(cycle_graph(4))[0] == 2
    assert total_forcing_number(disjoint_union([path_graph(2)] * 3))[0] == 6


def brute_total_forcing(g):
    """The minimum size, then the lexicographically smallest subset with no
    isolated vertex that the sequential oracle completes."""
    for k in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), k):
            if all(set(g.neighbors(v)) & set(s) for v in s):
                if sequential_closure(g, s) == frozenset(range(g.n)):
                    return k, s


def test_total_forcing_matches_brute_force():
    graphs = [g for n in range(2, 8) for g in enumerate_connected_subcubic(n)]
    graphs += [disjoint_union([path_graph(2)] * j) for j in range(2, 5)]
    for g in graphs:
        assert total_forcing_number(g) == brute_total_forcing(g), encode_graph6(g)


def test_total_forcing_rejects_isolated_vertices():
    with pytest.raises(UnsupportedInputError, match=r"isolated vertices \[2\]"):
        total_forcing_number(Graph(3, [(0, 1)]))


def test_forcing_numbers_reject_the_empty_graph():
    with pytest.raises(InvalidVertexError):
        forcing_number(Graph(0))
    with pytest.raises(InvalidVertexError):
        total_forcing_number(Graph(0))


def test_schedule_independence(rng):
    # synchronous derived set equals the greedy sequential oracle's
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 9))
        start = rng.sample(range(g.n), rng.randint(0, g.n))
        assert closure(g, start).derived == sequential_closure(g, start)


def test_closure_monotone_in_start_set(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8))
        small = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        extra = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        assert closure(g, small).derived <= closure(g, small | extra).derived


def test_bounds_on_small_corpus():
    # F <= F_t <= 2F and F <= n/2 + 1, checked lightly here (fully in acceptance)
    for n in range(2, 6):
        for g in enumerate_connected_subcubic(n):
            f = forcing_number(g)[0]
            ft = total_forcing_number(g)[0]
            assert f <= ft <= 2 * f
            assert 2 * f <= g.n + 2
