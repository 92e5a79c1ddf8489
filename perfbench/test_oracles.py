"""Landmark checks of the benchmark's oracles: python3 -m pytest perfbench"""

import random

import oracles


def test_forcing_landmarks():
    for n in range(1, 9):
        assert oracles.forcing_number(*oracles.path(n)) == 1
    for n in range(3, 9):
        assert oracles.forcing_number(*oracles.cycle(n)) == 2
    assert oracles.forcing_number(*oracles.complete(4)) == 3
    assert oracles.forcing_number(*oracles.complete_bipartite(3, 3)) == 4


def test_total_forcing_landmarks():
    for n in range(2, 9):
        assert oracles.total_forcing_number(*oracles.path(n)) == 2
    for n in range(3, 9):
        assert oracles.total_forcing_number(*oracles.cycle(n)) == 2
    assert oracles.total_forcing_number(*oracles.complete(4)) == 3
    assert oracles.total_forcing_number(*oracles.complete_bipartite(3, 3)) == 4
    # a union of k disjoint edges needs both ends of every edge
    for k in range(1, 4):
        assert oracles.total_forcing_number(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]) == 2 * k


def test_pendant_five_cycle_has_forcing_number_three():
    n, edges = oracles.pendant_five_cycle((1, 1, 1, 1, 1))
    assert (n, len(edges), oracles.max_degree(n, edges)) == (10, 10, 3)
    assert oracles.forcing_number(n, edges) == 3


def test_isomorphism_relabelled_and_distinct_cubic_graphs():
    rng = random.Random(7)
    n, edges = oracles.pendant_five_cycle((2, 1, 2, 1, 1))
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = (n, [(perm[u], perm[v]) for u, v in edges])
    assert oracles.isomorphic((n, edges), relabelled)
    prism = (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    k33 = oracles.complete_bipartite(3, 3)
    # both 3-regular on six vertices, so colour refinement alone cannot tell them apart
    assert oracles.invariant(*prism) == oracles.invariant(*k33)
    assert not oracles.isomorphic(prism, k33)
    assert oracles.count_isomorphism_classes([prism, k33, relabelled, (n, edges)]) == 3


def test_enumeration_matches_known_counts():
    for n, count in enumerate(oracles.A112410[:7], 1):
        graphs = oracles.connected_subcubic(n)
        assert len(graphs) == count
        assert all(oracles.is_connected(*g) and oracles.max_degree(*g) <= 3 for g in graphs)


def test_graph6_round_trip():
    for g in oracles.connected_subcubic(5) + [oracles.pendant_five_cycle((3, 1, 1, 1, 1))]:
        normalised = sorted((min(u, v), max(u, v)) for u, v in g[1])
        assert oracles.parse_graph6(oracles.encode_graph6(*g)) == (g[0], normalised)
    assert oracles.encode_graph6(*oracles.complete(4)) == "C~"
