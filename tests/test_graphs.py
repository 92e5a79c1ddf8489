import hashlib
import itertools
from collections import defaultdict

import pytest

from conftest import brute_canonical_form, random_graph, subcubic_n8
from zfpaths.errors import GraphFormatError, InvalidVertexError, UnsupportedInputError
from zfpaths.graphs import (
    Graph,
    canonical_form,
    complete_graph,
    cycle_graph,
    disjoint_union,
    encode_graph6,
    enumerate_connected_subcubic,
    fig8_graph,
    is_induced_path,
    parse_graph6,
    path_graph,
)


# -- graph basics ------------------------------------------------------------


def test_graph_normalizes_edges():
    g = Graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.adjacent(0, 2) and g.adjacent(2, 0)
    assert not g.adjacent(0, 1)
    assert repr(g) == "Graph(n=3, edges=[(0, 2), (1, 2)])"
    assert eval(repr(g), {"Graph": Graph}) == g


def test_graph_rejects_loops_and_bad_ids():
    with pytest.raises(InvalidVertexError):
        Graph(3, [(1, 1)])
    with pytest.raises(InvalidVertexError):
        Graph(3, [(0, 3)])
    with pytest.raises(InvalidVertexError, match="nonnegative, got -1"):
        Graph(-1)
    with pytest.raises(InvalidVertexError, match="permutation"):
        path_graph(3).relabel([0, 0, 1])


def test_builders_reject_bad_input():
    with pytest.raises(InvalidVertexError, match="at least 3 vertices"):
        cycle_graph(2)
    for lengths in ([1, 1, 1, 1], [1, 1, 1, 1, 1, 1], [1, 1, 0, 1, 1]):
        with pytest.raises(InvalidVertexError, match="five pendant path lengths"):
            fig8_graph(lengths)


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (2, 3)])
    assert not g.is_connected()
    assert g.components() == [(0, 1), (2, 3), (4,)]
    assert path_graph(6).is_connected()


# -- graph6 codec -------------------------------------------------------------


def test_parse_known_records():
    # decoded by hand from the format definition
    assert parse_graph6("C~") == complete_graph(4)
    assert parse_graph6("Ch") == path_graph(4)
    assert parse_graph6("@") == Graph(1)


def test_encode_known_records():
    assert encode_graph6(complete_graph(4)) == "C~"
    assert encode_graph6(path_graph(4)) == "Ch"
    assert encode_graph6(Graph(1)) == "@"


def test_parse_errors_name_offsets():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph6("C")  # too short for n=4
    assert exc.value.offset == 1
    with pytest.raises(GraphFormatError) as exc:
        parse_graph6("C~~")  # trailing garbage
    assert exc.value.offset == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_graph6("C" + chr(30))  # character below 63
    assert exc.value.offset == 1
    with pytest.raises(UnsupportedInputError, match="needs n <= 62, got 63"):
        encode_graph6(Graph(63))
    # "Aa" is n = 2 with its one edge bit set and a padding bit set after it
    cases = (("", "empty", 0), ("C\u00e9", "non-ASCII", 1), ("Aa", "padding", 1))
    for text, message, offset in cases:
        with pytest.raises(GraphFormatError, match=message) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset
    assert parse_graph6("A_") == path_graph(2)


def test_codec_round_trip_on_corpus():
    for n in range(1, 7):
        for g in enumerate_connected_subcubic(n):
            assert parse_graph6(encode_graph6(g)) == g


# -- induced paths ------------------------------------------------------------


def test_induced_path_examples():
    c4 = cycle_graph(4)
    assert is_induced_path(c4, (0, 1, 2))
    assert not is_induced_path(c4, (0, 1, 2, 3))  # 0-3 chord closes the cycle
    assert not is_induced_path(complete_graph(4), (0, 1, 2))
    assert is_induced_path(c4, (2,))
    assert is_induced_path(c4, ())


def test_induced_path_rejects_repeats():
    with pytest.raises(InvalidVertexError, match=r"repeated vertex in sequence \(0, 1, 0\)"):
        is_induced_path(cycle_graph(4), (0, 1, 0))


def test_induced_path_matches_naive_scan(rng):
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 7))
        size = rng.randint(0, g.n)
        seq = tuple(rng.sample(range(g.n), size))
        naive = all(
            g.adjacent(seq[i], seq[j]) == (j == i + 1)
            for i in range(len(seq))
            for j in range(i + 1, len(seq))
        )
        assert is_induced_path(g, seq) == naive


# -- canonical forms ------------------------------------------------------------


def test_canonical_form_is_relabeling_invariant():
    p3a = Graph(3, [(0, 1), (1, 2)])
    p3b = Graph(3, [(0, 2), (2, 1)])
    assert canonical_form(p3a) == canonical_form(p3b)
    assert canonical_form(Graph(3, [(0, 1), (1, 2), (0, 2)])) != canonical_form(p3a)


def test_canonical_form_c5_all_relabelings():
    c5 = cycle_graph(5)
    forms = {
        canonical_form(c5.relabel(list(perm)))
        for perm in itertools.permutations(range(5))
    }
    assert len(forms) == 1


def test_canonical_form_matches_brute_force(rng):
    graphs = []
    for n in range(5):  # every labeled graph on up to 4 vertices
        pairs = list(itertools.combinations(range(n), 2))
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            graphs.append(Graph(n, [p for p, b in zip(pairs, bits) if b]))
    for n in range(1, 7):
        graphs.extend(enumerate_connected_subcubic(n))
    for _ in range(60):
        # a random core, then an isolated vertex and an open or closed twin
        n = rng.randint(3, 5)
        core = random_graph(rng, n, p=rng.random())
        v = rng.randrange(n)
        edges = list(core.edges) + [(u, n + 1) for u in core.neighbors(v)]
        if rng.random() < 0.5:
            edges.append((v, n + 1))
        perm = list(range(n + 2))
        rng.shuffle(perm)
        graphs.append(Graph(n + 2, edges).relabel(perm))
    keys = [canonical_form(g) for g in graphs]
    brute = [brute_canonical_form(g) for g in graphs]
    # two keys are equal exactly when the brute-force minima are
    assert len(set(keys)) == len(set(brute)) == len(set(zip(keys, brute)))
    # and each key is a relabeling of its graph
    for key, form in zip(keys, brute):
        assert brute_canonical_form(parse_graph6(key)) == form, key


def test_canonical_form_keeps_every_class_key_under_relabeling(rng):
    for n in range(1, 9):
        for g in enumerate_connected_subcubic(n):
            key = canonical_form(g)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == key


def _refinement_key(g):
    """The edge count and the sorted vertex signatures of every round of
    colour refinement from the degrees, until the classes stop splitting."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    colors = [len(vs) for vs in nbrs]
    rounds = []
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in vs))) for v, vs in enumerate(nbrs)]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        rounds.append(tuple(sorted(sigs)))
        if len(table) == len(set(colors)):
            return g.edge_count, tuple(rounds)
        colors = [table[s] for s in sigs]


def _refinement_ties(n):
    """Groups of enumerated classes that colour refinement alone cannot split."""
    groups = defaultdict(list)
    for g in enumerate_connected_subcubic(n):
        groups[_refinement_key(g)].append(g)
    return [group for group in groups.values() if len(group) > 1]


def test_canonical_form_splits_graphs_that_refinement_cannot():
    assert [len(group) for group in _refinement_ties(6)] == [2, 2, 2]
    assert sum(len(group) for group in _refinement_ties(8)) == 33
    for n in (6, 7, 8):
        for group in _refinement_ties(n):
            assert len({canonical_form(g) for g in group}) == len(group)


_PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, 5 + i) for i in range(5)],
)
# each key checked to be a relabeling of its graph by networkx
_N10_KEYS = [
    (_PETERSEN, "IsP@PGXD_"),
    (disjoint_union([path_graph(2)] * 5), "I`?G?C??G"),
    (Graph(10), "I????????"),
]


def test_canonical_form_pins_ten_vertex_keys(rng):
    import networkx as nx

    def to_nx(g):
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges)
        return h

    for g, key in _N10_KEYS:
        assert canonical_form(g) == key
        assert nx.is_isomorphic(to_nx(g), to_nx(parse_graph6(key)))
        for _ in range(5):
            perm = list(range(10))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == key


def test_canonical_form_size_cap():
    with pytest.raises(UnsupportedInputError, match="capped at n = 10, got 11"):
        canonical_form(Graph(11))


# -- enumeration ------------------------------------------------------------------


def test_enumeration_small_counts():
    # connected graphs of maximum degree at most 3, by vertex count: OEIS A112410
    counts = [len(enumerate_connected_subcubic(n)) for n in range(1, 10)]
    assert counts == [1, 1, 2, 6, 10, 29, 64, 194, 531]
    assert {g.edge_count for g in enumerate_connected_subcubic(3)} == {2, 3}  # P3, K3


def test_enumeration_bounds():
    with pytest.raises(UnsupportedInputError, match="1 <= n <= 10, got 0"):
        enumerate_connected_subcubic(0)
    with pytest.raises(UnsupportedInputError, match="1 <= n <= 10, got 11"):
        enumerate_connected_subcubic(11)


def test_enumeration_output_cannot_be_changed_by_a_caller():
    # every call shares the cached result, so a caller that could grow it
    # would change what each later call, and the built-in corpus, holds
    graphs = enumerate_connected_subcubic(3)
    with pytest.raises(AttributeError):
        graphs.append(graphs[0])
    assert len(enumerate_connected_subcubic(3)) == 2


def test_enumeration_soundness():
    for n in range(1, 7):
        graphs = enumerate_connected_subcubic(n)
        forms = [canonical_form(g) for g in graphs]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)
        for g in graphs:
            assert g.n == n
            assert g.is_connected()
            assert g.max_degree() <= 3


def test_enumeration_completeness_up_to_five():
    # independent oracle: filter every labeled graph on n vertices
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        expected = set()
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            g = Graph(n, [p for p, b in zip(pairs, bits) if b])
            if g.is_connected() and g.max_degree() <= 3:
                expected.add(canonical_form(g))
        got = {canonical_form(g) for g in enumerate_connected_subcubic(n)}
        assert got == expected


def test_enumeration_has_the_classes_of_the_frozen_corpus():
    graphs = [g for n in range(1, 9) for g in enumerate_connected_subcubic(n)]
    frozen = subcubic_n8()
    assert len(graphs) == len(frozen) == 307
    assert {canonical_form(g) for g in graphs} == {canonical_form(g) for g in frozen}


# sha256 of the graph6 records of enumerate_connected_subcubic(k), k = 1..8,
# concatenated; the classes are the frozen corpus's (test above), so this
# fails on a changed representative or order
_ENUM_DIGEST = "fa9b5aae3e492a2144590bc65b55ad3ae394f013391acaa751ef6a13ccb86eb8"


def test_enumeration_output_is_pinned():
    records = "".join(encode_graph6(g) for n in range(1, 9) for g in enumerate_connected_subcubic(n))
    assert hashlib.sha256(records.encode()).hexdigest() == _ENUM_DIGEST
