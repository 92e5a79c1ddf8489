"""Metamorphic checks over disjoint unions.  F, F_t and M add over the
components of a graph, and the pipeline draws a union as it draws any graph
with F <= 3; the built-in corpus holds only the unions of 2, 3 and 4 edges."""

import itertools

from zfpaths.chains import chains_for, sequentially_realizable
from zfpaths.drawing import build_parallel_drawing
from zfpaths.forcing import forcing_number, total_forcing_number
from zfpaths.graphs import disjoint_union, enumerate_connected_subcubic
from zfpaths.nullity import classify


def test_forcing_numbers_and_nullity_add_over_a_disjoint_union():
    parts = [g for n in range(1, 7) for g in enumerate_connected_subcubic(n)]
    unions = drawn = 0
    for a, b in itertools.combinations_with_replacement(parts, 2):
        g = disjoint_union([a, b])
        unions += 1
        f, witness = forcing_number(g)
        assert f == forcing_number(a)[0] + forcing_number(b)[0], (a, b)
        # total forcing is undefined on K1, the one part with an isolated vertex
        if a.n > 1 and b.n > 1:
            f_t = total_forcing_number(a)[0] + total_forcing_number(b)[0]
            assert total_forcing_number(g)[0] == f_t, (a, b)
        m = classify(g).m
        if m is not None:
            assert m == classify(a).m + classify(b).m, (a, b)
        if f <= 3:
            assert build_parallel_drawing(g).k == f, (a, b)
            drawn += 1
        assert sequentially_realizable(chains_for(g, witness)), (a, b)
    assert (unions, drawn) == (1225, 201)
