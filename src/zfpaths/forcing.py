"""The forcing (color-change) process and exact forcing numbers.

The process is synchronous: at each step every colored vertex with exactly
one non-colored neighbor fires, and all newly colored vertices form one
layer.  Every candidate forcer of a newly colored vertex is recorded, since
chain extraction later picks one per vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidVertexError, IsolatedVertexError
from .graphs import Graph


@dataclass(frozen=True)
class ForcingRun:
    """Transcript of one synchronous forcing process."""

    initial: frozenset
    layers: tuple  # tuple of frozensets, layers[0] == initial
    step_of: dict  # vertex -> step index; absent means never colored
    events: tuple  # (forcer, forced, step) triples, every candidate forcer


@dataclass(frozen=True)
class ForcingOutcome:
    run: ForcingRun
    derived: frozenset
    complete: bool
    host: Graph


def closure(g: Graph, colored) -> ForcingOutcome:
    """Run the synchronous forcing process from the given initial set."""
    initial = frozenset(colored)
    for v in initial:
        g._check(v)
    full = (1 << g.n) - 1
    colored_mask = 0
    for v in initial:
        colored_mask |= 1 << v
    layers = [initial]
    step_of = {v: 0 for v in initial}
    events = []
    step = 0
    while True:
        step += 1
        fires = []
        mask = colored_mask
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            uncol = g.neighbors_mask(u) & ~colored_mask
            if uncol and uncol & (uncol - 1) == 0:
                fires.append((u, uncol.bit_length() - 1))
        if not fires:
            break
        layer = set()
        for u, v in fires:
            events.append((u, v, step))
            layer.add(v)
        for v in layer:
            colored_mask |= 1 << v
            step_of[v] = step
        layers.append(frozenset(layer))
    derived = frozenset(step_of)
    run = ForcingRun(initial=initial, layers=tuple(layers), step_of=step_of, events=tuple(events))
    return ForcingOutcome(run=run, derived=derived, complete=colored_mask == full, host=g)


def is_forcing_set(g: Graph, colored) -> bool:
    return closure(g, colored).complete


@lru_cache(maxsize=None)
def forcing_number(g: Graph):
    """Minimum forcing set size with the lexicographically smallest witness.

    Sizes are tried in increasing order and, within a size, subsets in
    lexicographic order of their sorted vertex vectors, so the first hit is
    the canonical witness.
    """
    if g.n < 1:
        raise InvalidVertexError("forcing number needs at least one vertex")
    for k in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if is_forcing_set(g, subset):
                return k, subset
    raise AssertionError("unreachable: V(G) always forces")


@lru_cache(maxsize=None)
def total_forcing_number(g: Graph):
    """Minimum forcing set inducing a subgraph with no isolated vertex."""
    isolated = [v for v in range(g.n) if g.degree(v) == 0]
    if isolated:
        raise IsolatedVertexError(
            f"total forcing is undefined with isolated vertices {isolated}"
        )
    for k in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            inside = set(subset)
            if any(not (g.neighbors_mask(v) & _mask(inside)) for v in subset):
                continue
            if is_forcing_set(g, subset):
                return k, subset
    raise AssertionError("unreachable: V(G) is a total forcing set when min degree >= 1")


def _mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m
