"""The forcing (color-change) process and exact forcing numbers.

The process is synchronous: at each step every colored vertex with exactly
one non-colored neighbor fires, and all newly colored vertices form one
layer.  Every candidate forcer of a newly colored vertex is recorded, since
chain extraction later picks one per vertex.  The forcing-set search needs
only the derived set, which does not depend on the order of the forces.
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
    colored_mask = 0
    for v in initial:
        g._check(v)
        colored_mask |= 1 << v
    adj = g._adj
    steps = []
    while True:
        fires = []
        mask = colored_mask
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            uncol = adj[u] & ~colored_mask
            if uncol and uncol & (uncol - 1) == 0:
                fires.append((u, uncol.bit_length() - 1))
        if not fires:
            break
        steps.append(tuple(fires))
        for _, v in fires:
            colored_mask |= 1 << v
    complete = colored_mask == (1 << g.n) - 1
    return ForcingRun(g, initial, tuple(steps), complete)


def _derived(adj, mask, todo):
    """The derived set of `mask` on the adjacency masks `adj`, where `todo`
    holds every vertex of `mask` that may fire.  Only a newly colored vertex
    and its colored neighbors can newly fire, so they are the ones put back
    on the worklist; for the same reason, a caller that adds one vertex to a
    derived set passes that vertex and its colored neighbors."""
    while todo:
        low = todo & -todo
        todo ^= low
        uncol = adj[low.bit_length() - 1] & ~mask
        if uncol and uncol & (uncol - 1) == 0:
            mask |= uncol
            todo |= uncol | (adj[uncol.bit_length() - 1] & mask)
    return mask


def is_forcing_set(g: Graph, colored) -> bool:
    mask = 0
    for v in colored:
        g._check(v)
        mask |= 1 << v
    return _derived(g._adj, mask, mask) == (1 << g.n) - 1


def _least_forcing_set(g: Graph, smallest, total):
    """The first forcing set by size from `smallest` up, then in
    lexicographic order, so the first hit is the canonical witness; with
    `total`, the first whose induced subgraph has no isolated vertex.

    Each subset of size k is a (k - 1)-prefix P, in `combinations` order,
    and a last vertex v > max(P) picked from the mask `cand`.  P is closed
    once.  If it forces, so does P + v for the lowest v in `cand` (only a
    total search gets here).  A v inside closure(P) adds nothing to it; any
    other v is closed from closure(P) + v, which has the same closure as
    P + v.  A failed try leaves V - closure(P + v) uncolored, a fort that P
    misses, so only a sibling inside it can still force (Fast & Hicks,
    Discrete Appl. Math. 250 (2018)).  Every skipped subset is thus proven
    not to force, or not to be total.
    """
    adj, n = g._adj, g.n
    full = (1 << n) - 1
    for k in range(smallest, n + 1):
        for prefix in itertools.combinations(range(n), k - 1):
            p = 0
            for u in prefix:
                p |= 1 << u
            cand = full & -(2 << prefix[-1]) if prefix else full
            if total:
                # v needs a neighbor in P, and so does each vertex of P that has none there
                near = 0
                for u in prefix:
                    near |= adj[u]
                    if not adj[u] & p:
                        cand &= adj[u]
                cand &= near
            if not cand:
                continue
            c = _derived(adj, p, p)
            if c == full:
                return k, prefix + ((cand & -cand).bit_length() - 1,)
            cand &= ~c
            while cand:
                low = cand & -cand
                reached = _derived(adj, c | low, low | adj[low.bit_length() - 1] & c)
                if reached == full:
                    return k, prefix + (low.bit_length() - 1,)
                cand &= ~reached
    raise AssertionError("unreachable: the search ends by V(G), which forces")


@lru_cache(maxsize=None)
def forcing_number(g: Graph):
    """Minimum forcing set size with the lexicographically smallest witness."""
    if g.n < 1:
        raise InvalidVertexError("forcing number needs at least one vertex")
    return _least_forcing_set(g, 1, total=False)


def total_forcing_number(g: Graph):
    """Minimum forcing set inducing a subgraph with no isolated vertex, and
    its lexicographically smallest witness.  Every such set is a forcing
    set, so the search starts at size F(G)."""
    isolated = [v for v in range(g.n) if g.degree(v) == 0]
    if isolated:
        raise UnsupportedInputError(f"total forcing is undefined with isolated vertices {isolated}")
    return _least_forcing_set(g, forcing_number(g)[0], total=True)
