import itertools
import signal

import pytest

from zfpaths.chains import (
    ChainSet,
    _rebuild,
    bad_vertices,
    chains_for,
    check_order_lemmas,
    eliminate_bad,
    eliminate_unfavorite,
    extract_chains,
    sequentially_realizable,
    unfavorite_vertices,
)
from zfpaths.errors import (
    ContractError,
    InternalLogicError,
    InvalidVertexError,
    UnsupportedInputError,
)
from zfpaths.forcing import ForcingRun, closure, forcing_number, is_forcing_set
from zfpaths.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_connected_subcubic,
    is_induced_path,
    parse_graph6,
    path_graph,
)

# x adjacent to a and c, non-consecutive on the chain (y,a,b,c); w hangs off x
BAD_EXAMPLE = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 1), (4, 3), (4, 5)])

# x=0 heads (0,1,2); a=3 heads (3,4,5); d=6 heads (6,7,8); segment 4-6
# witnesses x unfavorite: x-3, x-7 with 3 < 4 on one chain and 6 < 7 on the other
FIG3_EXAMPLE = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8), (0, 3), (0, 7), (4, 6)])


def _hand_built(g, seqs):
    return ChainSet(host=g, chains=tuple(seqs))


def _links(cs):
    return [link for c in cs.chains for link in zip(c, c[1:])]


def _run_links(run):
    return {(u, v) for u, v, _ in run.events}


def test_extract_single_chain_on_path():
    cs = chains_for(path_graph(4), [0])
    assert list(cs.chains) == [(0, 1, 2, 3)]


def test_extract_lowest_id_tie_break_on_k4():
    cs = chains_for(complete_graph(4), [0, 1, 2])
    assert list(cs.chains) == [(0, 3), (1,), (2,)]
    assert cs.trivial_count() == 2


def test_extract_cycle_chains():
    cs = chains_for(cycle_graph(6), [0, 1])
    assert list(cs.chains) == [(0, 5, 4), (1, 2, 3)]


def test_extract_requires_complete_outcome():
    with pytest.raises(ContractError, match="needs a complete forcing run"):
        extract_chains(closure(cycle_graph(6), [0, 3]))


def test_extract_refuses_a_forcer_with_two_successors():
    # a forged run in which 1 forces both ends of P3: no chain holds 0
    run = ForcingRun(path_graph(3), frozenset({1}), (((1, 0), (1, 2)),), True)
    with pytest.raises(InternalLogicError, match="admit no chronological sequence"):
        extract_chains(run)


def test_extract_stops_a_walk_around_a_cycle_of_forces():
    # a forged run in which 0 and 1 force each other: the walk stops after
    # n + 1 vertices and the vertex count refuses the chain; the alarm turns
    # an endless walk into a failure instead of a hang
    run = ForcingRun(path_graph(2), frozenset({0}), (((0, 1), (1, 0)),), True)

    def endless(signum, frame):
        raise TimeoutError("extract_chains did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, endless)
    signal.alarm(1)
    try:
        with pytest.raises(InternalLogicError, match=r"chains \(\(0, 1, 0\),\) admit no"):
            extract_chains(run)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_chain_set_serialization():
    cs = chains_for(complete_graph(4), [0, 1, 2])
    assert cs.to_json() == {"origin": [0, 1, 2], "chains": [[0, 3], [1], [2]]}


def test_chain_order_relation():
    cs = chains_for(path_graph(4), [0])
    assert cs.chains == ((0, 1, 2, 3),)
    assert cs.pos[0] < cs.pos[3]
    assert cs.owner[2] == 0


def test_partition_and_induced_path_invariants(rng):
    for n in range(2, 7):
        for g in enumerate_connected_subcubic(n):
            k, wit = forcing_number(g)
            cs = chains_for(g, wit)
            seen = sorted(v for c in cs.chains for v in c)
            assert seen == list(range(g.n))
            assert {c[0] for c in cs.chains} == set(wit)
            for c in cs.chains:
                assert is_induced_path(g, c)
            assert set(_links(cs)) <= _run_links(closure(g, wit))
            if g.edge_count:
                assert cs.trivial_count() <= len(cs.origin) - 1


# -- defect detectors -----------------------------------------------------------


def test_bad_vertices_on_trees_empty(rng):
    for n in range(2, 8):
        for g in enumerate_connected_subcubic(n):
            if g.edge_count != g.n - 1:
                continue
            k, wit = forcing_number(g)
            assert bad_vertices(chains_for(g, wit)) == {}


def test_bad_vertices_k4_single_nontrivial_chain():
    assert bad_vertices(chains_for(complete_graph(4), [0, 1, 2])) == {}


def test_bad_vertex_detected():
    cs = chains_for(BAD_EXAMPLE, [0, 4])
    assert list(cs.chains) == [(0, 1, 2, 3), (4, 5)]
    # the first of 4's non-consecutive neighbors 1 and 3 on chain 0
    assert bad_vertices(cs) == {4: (0, 1)}


def test_bad_vertex_split_across_a_third_chain():
    # 0 meets the chain (4, 5, 6) at positions 0 and 2
    g = Graph(7, [(0, 1), (2, 3), (4, 5), (5, 6), (0, 4), (0, 6)])
    assert bad_vertices(_hand_built(g, [(0, 1), (2, 3), (4, 5, 6)])) == {0: (2, 4)}


def test_unfavorite_needs_three_nontrivial_chains():
    assert unfavorite_vertices(chains_for(complete_graph(4), [0, 1, 2])) == {}


def test_unfavorite_detected_in_witness_graph():
    cs = chains_for(FIG3_EXAMPLE, [0, 3, 6])
    assert list(cs.chains) == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    assert bad_vertices(cs) == {}
    # fan inversion 3-0-7 over the segment 4-6: 0 moves onto chain 1 after 3
    assert unfavorite_vertices(cs) == {0: (1, 3)}


def test_unfavorite_empty_without_witness_segment():
    g = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8), (0, 3), (0, 7)])
    cs = chains_for(g, [0, 3, 6])
    assert unfavorite_vertices(cs) == {}


# -- repairs ---------------------------------------------------------------------


def test_eliminate_bad_fixed_point_returns_same_object():
    cs = chains_for(complete_graph(4), [0, 1, 2])
    assert eliminate_bad(cs) is cs


def test_eliminate_bad_frozen_example():
    g = parse_graph6("EsXo")
    cs = chains_for(g, (0, 1, 2))
    # 1 moves onto chain (0, 3, 5) after its first neighbor there, 0
    assert bad_vertices(cs) == {1: (0, 0)}
    fixed = eliminate_bad(cs)
    assert bad_vertices(fixed) == {}
    assert sorted(fixed.origin) == [0, 2, 3]
    assert list(fixed.chains) == [(0, 1, 4), (2,), (3, 5)]
    assert is_forcing_set(g, fixed.origin)
    # oracle: some size-3 forcing set admits a bad-free extraction
    assert any(
        is_forcing_set(g, s) and not bad_vertices(chains_for(g, s))
        for s in itertools.combinations(range(g.n), 3)
    )


def test_eliminate_bad_two_stage_rewrite():
    # the only graph with n <= 7 whose minimum-witness chains need the second
    # stage: moving head 2 onto chain (0, 3, 6) makes head 1 bad, so 1 moves too
    g = parse_graph6("FsP`g")
    cs = chains_for(g, forcing_number(g)[1])
    assert list(cs.chains) == [(0, 3, 6), (1, 4), (2, 5)]
    assert bad_vertices(cs) == {2: (0, 0)}
    fixed = eliminate_bad(cs)
    assert list(fixed.chains) == [(0, 1, 4), (2, 5), (3, 6)]
    assert sorted(fixed.origin) == [0, 2, 3]
    assert bad_vertices(fixed) == {}


def test_eliminate_bad_requires_three_chains():
    with pytest.raises(UnsupportedInputError):
        eliminate_bad(chains_for(BAD_EXAMPLE, [0, 4]))


@pytest.mark.parametrize(
    "repair, name", [(eliminate_bad, "bad-vertex"), (eliminate_unfavorite, "unfavorite")]
)
def test_repairs_reject_a_host_of_degree_four(repair, name):
    k5 = complete_graph(5)
    with pytest.raises(UnsupportedInputError, match=f"{name} repair needs maximum degree <= 3"):
        repair(chains_for(k5, forcing_number(k5)[1]))


def test_eliminate_unfavorite_requires_three_chains():
    with pytest.raises(UnsupportedInputError, match="unfavorite repair is proved only for three"):
        eliminate_unfavorite(chains_for(cycle_graph(6), [0, 1]))


def test_eliminate_unfavorite_requires_no_bad():
    g = parse_graph6("EsXo")
    with pytest.raises(ContractError):
        eliminate_unfavorite(chains_for(g, (0, 1, 2)))


def test_eliminate_unfavorite_on_witness_graph():
    cs = chains_for(FIG3_EXAMPLE, [0, 3, 6])
    fixed = eliminate_unfavorite(cs)
    assert unfavorite_vertices(fixed) == {}
    assert bad_vertices(fixed) == {}
    assert list(fixed.chains) == [(3, 0, 1, 2), (4, 5), (6, 7, 8)]
    assert is_forcing_set(FIG3_EXAMPLE, fixed.origin)


def test_repair_may_need_a_different_force_schedule():
    # the rewrite output here contains the link 3->8, which is no force of
    # the synchronous run of the new origin (8 is forced earlier via 4), yet
    # a one-at-a-time schedule realizes it; repairs are validated by that rule
    g = parse_graph6("I?aQAHWGO")
    cs = chains_for(g, forcing_number(g)[1])
    fixed = eliminate_bad(cs)
    assert bad_vertices(fixed) == {}
    assert list(fixed.chains) == [(0, 4), (2, 9, 7, 1, 6), (5, 3, 8)]
    assert sequentially_realizable(fixed)
    run_links = _run_links(closure(g, fixed.origin))
    assert [link for link in _links(fixed) if link not in run_links] == [(3, 8)]
    assert is_forcing_set(g, fixed.origin)


def test_repair_pipeline_over_corpus():
    # every F=3 graph up to n=7 repairs to a defect-free chain set of the same size
    for n in range(3, 8):
        for g in enumerate_connected_subcubic(n):
            k, wit = forcing_number(g)
            if k != 3:
                continue
            cs = chains_for(g, wit)
            fixed = eliminate_unfavorite(eliminate_bad(cs))
            assert bad_vertices(fixed) == {}
            assert unfavorite_vertices(fixed) == {}
            assert len(fixed.origin) == 3
            assert is_forcing_set(g, fixed.origin)
            assert sequentially_realizable(fixed)
            assert check_order_lemmas(fixed) == []


# -- the chain rule ----------------------------------------------------------------


def test_a_link_along_a_non_edge_does_not_fire():
    # star with centre 0: 1-3 is no edge, and the heads {0, 1} do not force
    g = complete_bipartite(1, 3)
    assert not sequentially_realizable(_hand_built(g, [(0, 2), (1, 3)]))
    assert not is_forcing_set(g, {0, 1})
    assert sequentially_realizable(_hand_built(g, [(1, 0), (2,), (3,)]))
    # a link whose target is colored already never fires
    assert not sequentially_realizable(_hand_built(g, [(0,), (1, 0), (2,), (3,)]))
    with pytest.raises(InvalidVertexError):
        sequentially_realizable(_hand_built(g, [(-1, 0), (2,), (3,)]))


def test_an_empty_chain_is_refused_not_crashed_on():
    assert not sequentially_realizable(_hand_built(path_graph(2), [(0, 1), ()]))
    with pytest.raises(InternalLogicError, match="admit no chronological sequence"):
        _rebuild(path_graph(2), [(0, 1), ()])


def _reference_valid(cs):
    """Partition, induced paths, and a schedule on the colored set in which
    u forces v once every other neighbor of u is colored."""
    g = cs.host
    if sorted(v for c in cs.chains for v in c) != list(range(g.n)):
        return False
    if not all(is_induced_path(g, c) for c in cs.chains):
        return False
    colored = set(cs.origin)
    pointer = [1] * len(cs.chains)
    while len(colored) < g.n:
        fired = False
        for i, c in enumerate(cs.chains):
            j = pointer[i]
            if j < len(c) and all(w in colored for w in g.neighbors(c[j - 1]) if w != c[j]):
                colored.add(c[j])
                pointer[i] = j + 1
                fired = True
        if not fired:
            return False
    return True


def _random_chain_sets(g, rng):
    """Extracted chains of a random forcing set, then the same chains with a
    vertex repeated, dropped or swapped with another, or a chain reversed or
    cut in two."""
    while True:
        subset = rng.sample(range(g.n), rng.randint(1, g.n))
        if is_forcing_set(g, subset):
            break
    chains = [list(c) for c in chains_for(g, subset).chains]
    yield chains
    for _ in range(8):
        seqs = [list(c) for c in chains]
        c = rng.choice(seqs)
        v = rng.randrange(g.n)
        op = rng.randrange(6)
        if op == 0:
            c.insert(rng.randint(0, len(c)), v)  # repeat v
        elif op == 1:
            c[rng.randrange(len(c))] = v  # repeat v, drop what it replaced
        elif op == 2 and len(c) > 1:
            c.pop(rng.randrange(len(c)))  # drop a vertex
        elif op == 3:
            c.reverse()
        elif op == 4:
            d = rng.choice(seqs)  # swap two vertices
            a, b = rng.randrange(len(c)), rng.randrange(len(d))
            c[a], d[b] = d[b], c[a]
        else:
            cut = rng.randint(1, len(c))  # cut a chain in two
            seqs.append(c[cut:])
            del c[cut:]
        yield [c for c in seqs if c]


def test_validate_matches_partition_induced_paths_and_schedule(rng):
    verdicts = []
    for n in range(1, 8):
        for g in enumerate_connected_subcubic(n):
            for _ in range(5):
                for seqs in _random_chain_sets(g, rng):
                    cs = ChainSet(host=g, chains=tuple(sorted(map(tuple, seqs))))
                    try:
                        _rebuild(cs.host, cs.chains)
                        valid = True
                    except InternalLogicError:
                        valid = False
                    assert valid == _reference_valid(cs), cs.chains
                    verdicts.append(valid)
    assert 1000 < verdicts.count(True) and 1000 < verdicts.count(False)


# -- order lemmas ----------------------------------------------------------------


def test_order_lemmas_pass_on_corpus():
    for n in range(1, 7):
        for g in enumerate_connected_subcubic(n):
            k, wit = forcing_number(g)
            assert check_order_lemmas(chains_for(g, wit)) == []


def test_order_lemmas_single_chain_vacuous():
    assert check_order_lemmas(chains_for(path_graph(5), [0])) == []


def test_order_lemmas_k4():
    assert check_order_lemmas(chains_for(complete_graph(4), [0, 1, 2])) == []


def test_order_lemmas_flag_inverting_pair():
    g = Graph(4, [(0, 1), (2, 3), (0, 3), (1, 2)])
    violations = check_order_lemmas(_hand_built(g, [(0, 1), (2, 3)]))
    assert violations == [("no_inverting_pair", (0, 3, 1, 2))]


def test_order_lemmas_flag_inverting_triple():
    g = Graph(6, [(0, 1), (2, 3), (4, 5), (0, 3), (2, 5), (1, 4)])
    violations = check_order_lemmas(_hand_built(g, [(0, 1), (2, 3), (4, 5)]))
    assert ("no_inverting_triple", (0, 3, 2, 5, 1, 4)) in violations
    assert {name for name, _ in violations} == {"no_inverting_triple"}
