import collections
import hashlib
import itertools
import json
import random

import pytest

from conftest import random_graph, sequential_closure, subcubic_n8
from zfpaths import forcing
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


def test_is_forcing_set_agrees_with_both_closures(rng):
    # isolated vertices, disconnected graphs and the empty set all occur
    seen = collections.Counter()
    for _ in range(600):
        g = random_graph(rng, rng.randint(1, 9), p=rng.choice((0.15, 0.4)))
        start = rng.sample(range(g.n), rng.randint(0, g.n))
        expected = sequential_closure(g, start) == frozenset(range(g.n))
        assert is_forcing_set(g, start) == expected == closure(g, start).complete
        seen["isolated"] += any(g.degree(v) == 0 for v in range(g.n))
        seen["disconnected"] += not g.is_connected()
        seen["empty set"] += not start
        seen["forcing"] += expected
    assert all(seen[key] >= 20 for key in ("isolated", "disconnected", "empty set", "forcing")), seen


def test_is_forcing_set_rejects_bad_vertex():
    with pytest.raises(InvalidVertexError, match=r"vertex 5 outside 0\.\.2"):
        is_forcing_set(path_graph(3), [0, 5])
    with pytest.raises(InvalidVertexError, match=r"vertex -1 outside 0\.\.2"):
        is_forcing_set(path_graph(3), [-1])


def closures_started(monkeypatch, search, g):
    """`search(g)`, and the start set of each closure that it runs, as a
    sorted tuple; pass a cached search unwrapped, so that it runs."""
    started, derived = [], forcing._derived

    def recording(adj, mask, todo):
        started.append(tuple(v for v in range(g.n) if mask >> v & 1))
        return derived(adj, mask, todo)

    monkeypatch.setattr(forcing, "_derived", recording)
    return search(g), started


def test_forcing_number_closes_each_prefix_once(monkeypatch):
    # the empty prefix and the six singletons fail on C6, then the prefix
    # (0,) is closed once and (0, 1) forces
    result, started = closures_started(monkeypatch, forcing_number.__wrapped__, cycle_graph(6))
    assert result == (2, (0, 1))
    assert started == [()] + [(v,) for v in range(6)] + [(0,), (0, 1)]


def test_a_failed_try_rules_out_the_siblings_outside_its_fort(monkeypatch):
    # on the star with center 3, {0} colors {0, 3}: the fort {1, 2} left
    # uncolored rules out 3 as a last vertex, and (0, 1) is closed from {0, 3}
    star = Graph(4, [(0, 3), (1, 3), (2, 3)])
    result, started = closures_started(monkeypatch, forcing_number.__wrapped__, star)
    assert result == (2, (0, 1))
    assert started == [(), (0,), (1,), (2,), (0,), (0, 1, 3)]


def test_total_forcing_closes_only_admissible_prefixes(monkeypatch):
    # no single vertex is total, so size 1 runs no closure; the prefix (0,)
    # of P4 already forces, and 1 is the one last vertex that keeps 0 covered
    g = path_graph(4)
    assert forcing_number(g) == (1, (0,))
    result, started = closures_started(monkeypatch, total_forcing_number, g)
    assert result == (2, (0, 1))
    assert started == [(0,)]


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


def brute_force_corpus(rng, isolated):
    """300 random graphs with n <= 10, with an isolated vertex only when
    `isolated`.  The counts assert that disconnected graphs, degrees above
    3, n = 10 and, when asked for, isolated vertices each occur."""
    graphs, seen = [], collections.Counter()
    while len(graphs) < 300:
        g = random_graph(rng, rng.randint(1, 10), p=rng.choice((0.15, 0.3, 0.5)))
        has_isolated = any(g.degree(v) == 0 for v in range(g.n))
        if has_isolated and not isolated:
            continue
        graphs.append(g)
        seen["isolated"] += has_isolated
        seen["disconnected"] += not g.is_connected()
        seen["degree above 3"] += g.max_degree() > 3
        seen["n = 10"] += g.n == 10
    assert all(seen[key] >= 10 for key in ("disconnected", "degree above 3", "n = 10")), seen
    assert (seen["isolated"] >= 10) == isolated, seen
    return graphs


def brute_forcing(g):
    """The minimum size, then the lexicographically smallest subset that the
    sequential oracle completes."""
    for k in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), k):
            if sequential_closure(g, s) == frozenset(range(g.n)):
                return k, s


def test_forcing_number_matches_brute_force(rng):
    graphs = [g for n in range(1, 8) for g in enumerate_connected_subcubic(n)]
    graphs += [disjoint_union([path_graph(2)] * j) for j in range(2, 5)]
    graphs += brute_force_corpus(rng, isolated=True)
    for g in graphs:
        assert forcing_number(g) == brute_forcing(g), encode_graph6(g)


def brute_total_forcing(g):
    """The minimum size, then the lexicographically smallest subset with no
    isolated vertex that the sequential oracle completes."""
    for k in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), k):
            if all(set(g.neighbors(v)) & set(s) for v in s):
                if sequential_closure(g, s) == frozenset(range(g.n)):
                    return k, s


def test_total_forcing_matches_brute_force(rng):
    graphs = [g for n in range(2, 8) for g in enumerate_connected_subcubic(n)]
    graphs += [disjoint_union([path_graph(2)] * j) for j in range(2, 5)]
    graphs += brute_force_corpus(rng, isolated=False)
    for g in graphs:
        assert total_forcing_number(g) == brute_total_forcing(g), encode_graph6(g)


# sha256 over one line per graph: its graph6 code, forcing_number and
# total_forcing_number (null at n = 1) as compact JSON, for the 307 graphs of
# `conftest.subcubic_n8` in file order, then 200 seeded random
# connected subcubic graphs with n = 11 and 12.  Computed with the search
# that tested every subset by `is_forcing_set`, so a search that skips a
# subset it should not, or tries them in another order, fails here.
_FORCING_WITNESSES_DIGEST = "3601d884f1cfbdba8c1ffbbc711b13e8dc1def7b6fd649e00da2af961781e09f"


def test_forcing_witnesses_are_pinned():
    graphs = subcubic_n8()
    assert len(graphs) == 307
    rng = random.Random(4101)
    while len(graphs) < 307 + 200:
        g = random_graph(rng, rng.choice((11, 12)), p=0.35, max_degree=3)
        if g.is_connected():
            graphs.append(g)
    digest = hashlib.sha256()
    for g in graphs:
        line = [encode_graph6(g), forcing_number(g), total_forcing_number(g) if g.n > 1 else None]
        digest.update(json.dumps(line, separators=(",", ":")).encode() + b"\n")
    assert digest.hexdigest() == _FORCING_WITNESSES_DIGEST


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
