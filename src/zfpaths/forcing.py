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

from .errors import InvalidVertexError, UnsupportedInputError
from .graphs import Graph


@dataclass(frozen=True)
class ForcingRun:
    """Transcript of one synchronous forcing process on `host`.  Every step
    colors something, so `layers[t]`, the vertices colored at step t, is
    nonempty for t >= 1 and `layers[0] == initial`."""

    host: Graph
    initial: frozenset
    steps: tuple  # per step, its (forcer, forced) pairs, every candidate forcer in ascending order
    complete: bool

    @property
    def events(self):  # (forcer, forced, step) triples
        return tuple((u, v, t) for t, pairs in enumerate(self.steps, 1) for u, v in pairs)

    @property
    def layers(self):
        return (self.initial,) + tuple(frozenset(v for _, v in pairs) for pairs in self.steps)

    @property
    def step_of(self):  # vertex -> step index; absent means never colored
        return {v: t for t, layer in enumerate(self.layers) for v in layer}

    @property
    def derived(self):
        return self.initial.union(*self.layers)


def closure(g: Graph, colored) -> ForcingRun:
    """Run the synchronous forcing process on g from the given initial set."""
    initial = frozenset(colored)
    for v in initial:
        g._check(v)
    colored_mask = 0
    for v in initial:
        colored_mask |= 1 << v
    steps = []
    while True:
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
        steps.append(tuple(fires))
        for _, v in fires:
            colored_mask |= 1 << v
    complete = colored_mask == (1 << g.n) - 1
    return ForcingRun(g, initial, tuple(steps), complete)


def is_forcing_set(g: Graph, colored) -> bool:
    return closure(g, colored).complete


def _least_forcing_set(g: Graph, smallest, admissible):
    """The first subset that passes `admissible` (tried first: it is cheaper
    than a closure) and forces, by size from `smallest` up, then in
    lexicographic order, so the first hit is the canonical witness."""
    for k in range(smallest, g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if admissible(subset) and is_forcing_set(g, subset):
                return k, subset
    raise AssertionError("unreachable: the search ends by V(G), which forces")


@lru_cache(maxsize=None)
def forcing_number(g: Graph):
    """Minimum forcing set size with the lexicographically smallest witness."""
    if g.n < 1:
        raise InvalidVertexError("forcing number needs at least one vertex")
    return _least_forcing_set(g, 1, lambda subset: True)


@lru_cache(maxsize=None)
def total_forcing_number(g: Graph):
    """Minimum forcing set inducing a subgraph with no isolated vertex, and
    its lexicographically smallest witness.  Every such set is a forcing
    set, so the search starts at size F(G)."""
    isolated = [v for v in range(g.n) if g.degree(v) == 0]
    if isolated:
        raise UnsupportedInputError(f"total forcing is undefined with isolated vertices {isolated}")

    def no_isolated(subset):
        inside = 0
        for v in subset:
            inside |= 1 << v
        return all(g.neighbors_mask(v) & inside for v in subset)

    return _least_forcing_set(g, forcing_number(g)[0], no_isolated)
