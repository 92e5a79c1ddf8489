"""Reference answers the benchmark checks the program against.

Nothing here imports zfpaths: graphs are (n, edges) pairs, adjacency is a
tuple of neighbour bitmasks, and every answer comes from a plain exhaustive
search that shares no code with the program under test.
"""

from __future__ import annotations

import itertools

# Connected graphs with maximum degree at most 3 on n = 1..8 vertices,
# counted up to isomorphism (OEIS A112410).
A112410 = (1, 1, 2, 6, 10, 29, 64, 194)


def adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def parse_graph6(text):
    """(n, sorted edge list) of a single-byte-size graph6 record."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 size byte out of range in {text!r}")
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"graph6 body byte out of range in {text!r}")
        bits.extend((val >> s) & 1 for s in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs):
        raise ValueError(f"graph6 record {text!r} is too short")
    return n, sorted(p for p, b in zip(pairs, bits) if b)


def encode_graph6(n, edges):
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def is_connected(n, edges):
    if n <= 1:
        return True
    adj = adjacency(n, edges)
    seen = frontier = 1
    while frontier:
        nxt = 0
        for u in range(n):
            if frontier >> u & 1:
                nxt |= adj[u]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def max_degree(n, edges):
    return max((m.bit_count() for m in adjacency(n, edges)), default=0)


def _closes(adj, colored, full):
    """Colour one vertex at a time: any coloured vertex with exactly one
    uncoloured neighbour forces it.  True when everything ends up coloured."""
    while colored != full:
        for u, nbrs in enumerate(adj):
            if colored >> u & 1:
                rest = nbrs & ~colored
                if rest and not rest & (rest - 1):
                    colored |= rest
                    break
        else:
            return False
    return True


def forcing_number(n, edges):
    """Smallest k such that some k-subset of the vertices forces the graph."""
    adj = adjacency(n, edges)
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            if _closes(adj, sum(1 << v for v in subset), full):
                return k
    raise ValueError("a graph with no vertices has no forcing number")


def total_forcing_number(n, edges):
    """Smallest forcing set whose induced subgraph has no isolated vertex."""
    adj = adjacency(n, edges)
    if any(m == 0 for m in adj):
        raise ValueError("total forcing needs every vertex to have a neighbour")
    full = (1 << n) - 1
    for k in range(2, n + 1):
        for subset in itertools.combinations(range(n), k):
            mask = sum(1 << v for v in subset)
            if all(adj[v] & mask for v in subset) and _closes(adj, mask, full):
                return k
    raise ValueError("unreachable: the whole vertex set is a total forcing set")


def _refine(n, adj):
    """Stable colour classes of 1-dimensional Weisfeiler-Leman refinement."""
    colors = [m.bit_count() for m in adj]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in range(n) if adj[v] >> w & 1)))
            for v in range(n)
        ]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new, tuple(sorted(sigs))
        colors = new


def invariant(n, edges):
    """An isomorphism invariant: equal for isomorphic graphs."""
    return n, len(edges), _refine(n, adjacency(n, edges))[1]


def isomorphic(g, h):
    """Backtracking isomorphism test between two (n, edges) graphs."""
    (n, ge), (m, he) = g, h
    if n != m or len(ge) != len(he):
        return False
    ga, ha = adjacency(n, ge), adjacency(n, he)
    gc, gsig = _refine(n, ga)
    hc, hsig = _refine(n, ha)
    if gsig != hsig:
        return False
    order = sorted(range(n), key=lambda v: (gc.count(gc[v]), gc[v]))
    image = [-1] * n
    used = 0

    def extend(i):
        nonlocal used
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or hc[w] != gc[v]:
                continue
            if any((ga[v] >> u & 1) != (ha[w] >> image[u] & 1) for u in order[:i]):
                continue
            image[v] = w
            used |= 1 << w
            if extend(i + 1):
                return True
            used &= ~(1 << w)
            image[v] = -1
        return False

    return extend(0)


def count_isomorphism_classes(graphs):
    """Number of isomorphism classes among (n, edges) graphs."""
    buckets = {}
    for g in graphs:
        reps = buckets.setdefault(invariant(*g), [])
        if not any(isomorphic(g, r) for r in reps):
            reps.append(g)
    return sum(len(r) for r in buckets.values())


def connected_subcubic_levels(n):
    """For k = 1..n, one (k, edges) graph per isomorphism class of connected
    graphs on k vertices with maximum degree at most 3, grown one vertex at a
    time."""
    levels = [[(1, [])]]
    for size in range(2, n + 1):
        buckets = {}
        for m, edges in levels[-1]:
            degree = [a.bit_count() for a in adjacency(m, edges)]
            free = [u for u in range(m) if degree[u] < 3]
            for r in (1, 2, 3):
                for attach in itertools.combinations(free, r):
                    cand = (size, sorted(edges + [(u, m) for u in attach]))
                    reps = buckets.setdefault(invariant(*cand), [])
                    if not any(isomorphic(cand, h) for h in reps):
                        reps.append(cand)
        levels.append([g for reps in buckets.values() for g in reps])
    return levels


def connected_subcubic(n):
    return connected_subcubic_levels(n)[-1]


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def complete(n):
    return n, list(itertools.combinations(range(n), 2))


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def pendant_five_cycle(lengths):
    """The figure-8 family: a five-cycle with a pendant path at every vertex."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    nxt = 5
    for i, length in enumerate(lengths):
        prev = i
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, edges
