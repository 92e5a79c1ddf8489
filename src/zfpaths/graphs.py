"""Simple undirected graphs: representation, graph6 codec, predicates, enumeration.

Vertex ids are dense integers 0..n-1.  Graphs are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import GraphFormatError, InvalidVertexError, UnsupportedInputError


class Graph:
    """A simple undirected graph on vertices 0..n-1 with set-semantics edges."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise InvalidVertexError(f"vertex count must be nonnegative, got {n}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise InvalidVertexError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u},{v}) outside 0..{n - 1}")
            norm.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = tuple(sorted(norm))
        adj = [0] * n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = tuple(adj)

    # -- basic queries ---------------------------------------------------

    def adjacent(self, u, v):
        self._check(u)
        self._check(v)
        return bool(self._adj[u] >> v & 1)

    def neighbors(self, u):
        self._check(u)
        return tuple(_mask_bits(self._adj[u]))

    def degree(self, u):
        self._check(u)
        return self._adj[u].bit_count()

    def max_degree(self):
        return max((m.bit_count() for m in self._adj), default=0)

    @property
    def edge_count(self):
        return len(self.edges)

    def _check(self, u):
        if not (0 <= u < self.n):
            raise InvalidVertexError(f"vertex {u} outside 0..{self.n - 1}")

    # -- structure -------------------------------------------------------

    def is_connected(self):
        return len(self.components()) <= 1

    def components(self):
        """Vertex sets of connected components, each sorted, ordered by minimum."""
        unseen = set(range(self.n))
        comps = []
        while unseen:
            root = min(unseen)
            comp = {root}
            stack = [root]
            while stack:
                u = stack.pop()
                for v in _mask_bits(self._adj[u]):
                    if v not in comp:
                        comp.add(v)
                        stack.append(v)
            comps.append(tuple(sorted(comp)))
            unseen -= comp
        return comps

    def relabel(self, perm):
        """New graph with vertex u renamed perm[u]."""
        if sorted(perm) != list(range(self.n)):
            raise InvalidVertexError("relabeling must be a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def _mask_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- constructors for common families ------------------------------------


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise InvalidVertexError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, itertools.combinations(range(n), 2))


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def fig8_graph(lengths):
    """Five-cycle 0..4 with a pendant path of the given length at each cycle vertex."""
    if len(lengths) != 5 or any(l < 1 for l in lengths):
        raise InvalidVertexError("need five pendant path lengths, each >= 1")
    edges = [(i, (i + 1) % 5) for i in range(5)]
    nxt = 5
    for i, length in enumerate(lengths):
        prev = i
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def disjoint_union(graphs):
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


# -- graph6 codec ----------------------------------------------------------


def _pair_order(n):
    """Upper-triangle pairs in graph6 bit order (column-major by larger endpoint)."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def parse_graph6(text):
    """Decode a single graph6 record (single-byte size form, n <= 62)."""
    if not text:
        raise GraphFormatError("empty graph6 record", offset=0)
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("non-ASCII byte in graph6 record", offset=exc.start) from None
    for off, byte in enumerate(raw):
        if not 63 <= byte <= 126:
            raise GraphFormatError(f"character {byte!r} outside printable range 63..126", offset=off)
    if raw[0] == 126:
        raise UnsupportedInputError("multi-byte graph6 size form (n > 62) is not supported")
    n = raw[0] - 63
    pairs = _pair_order(n)
    nbody = -(-len(pairs) // 6)  # ceil division
    body = raw[1:]
    if len(body) < nbody:
        raise GraphFormatError(
            f"record too short: need {nbody} body characters, got {len(body)}", offset=len(raw)
        )
    if len(body) > nbody:
        raise GraphFormatError("trailing garbage after graph6 record", offset=1 + nbody)
    bits = []
    for byte in body:
        val = byte - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    for extra, bit in enumerate(bits[len(pairs):]):
        if bit:
            raise GraphFormatError("nonzero padding bit", offset=1 + (len(pairs) + extra) // 6)
    edges = [pair for pair, bit in zip(pairs, bits) if bit]
    return Graph(n, edges)


def encode_graph6(g):
    """Encode a graph with n <= 62 as a single graph6 record."""
    if g.n > 62:
        raise UnsupportedInputError(f"graph6 single-byte size form needs n <= 62, got {g.n}")
    bits = [g._adj[j] >> i & 1 for i, j in _pair_order(g.n)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + g.n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def read_graph6_file(path):
    """Graphs from a file with one graph6 record per line; '#' lines are comments.

    A non-ASCII byte or a malformed record raises GraphFormatError, and an
    oversized record UnsupportedInputError, with its line number.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    graphs = []
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"non-ASCII byte on line {lineno}", offset=exc.start) from None
        if not line or line.startswith("#"):
            continue
        try:
            graphs.append(parse_graph6(line))
        except (GraphFormatError, UnsupportedInputError) as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
    return graphs


# -- induced paths ---------------------------------------------------------


def is_induced_path(g, seq):
    """True iff consecutive members are adjacent and no others are.

    A single vertex and the empty sequence count as induced paths.
    """
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        raise InvalidVertexError(f"repeated vertex in sequence {seq}")
    for u in seq:
        g._check(u)
    bits = [1 << u for u in seq]
    inside = sum(bits)
    for i, u in enumerate(seq):
        # the members adjacent to u are exactly the ones beside it
        if g._adj[u] & inside != sum(bits[max(i - 1, 0) : i + 2]) - bits[i]:
            return False
    return True


# -- canonical keys (individualization-refinement) ------------------------

ISO_CAP = 10


def _equitable(edges, colors, powers):
    """Refine a colouring (colours below n) until its classes stop splitting.

    Each round gives every vertex the rank of (its colour, its number of
    neighbours of each colour), the numbers read as one base-(n + 1)
    integer, which `powers` spells out.  So the ranks do not depend on the
    labelling, and each class splits in place.
    """
    top = powers[-1]
    count = len(set(colors))
    while True:
        sigs = [c * top for c in colors]
        for u, v in edges:
            sigs[u] += powers[colors[v]]
            sigs[v] += powers[colors[u]]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [table[s] for s in sigs]
        if len(table) == count:
            return colors
        count = len(table)


def _powers(n):
    """The place values of `_equitable`'s base-(n + 1) signatures."""
    return [(n + 1) ** i for i in range(n + 1)]


def _least_leaf(edges, adj, root, powers):
    """Graph6 columns and labelling of the least leaf of the search tree.

    The root is the equitable refinement of the degrees, which the caller
    has computed with `powers`.  A node whose colouring has a class of two
    or more vertices has a child for each vertex of its first smallest such
    class: that vertex individualized (kept below the rest of its class),
    then refined.  The tree does not depend on the labelling, so neither
    does the least leaf.  At a leaf every vertex has a colour of its own,
    which is its label; column j holds the edges from label j to labels
    0..j-1, label 0 as the top bit, so column lists order as the graph6
    strings do.
    """
    n = len(adj)
    best = labels = None
    stack = [root]
    while stack:
        colors = stack.pop()
        cells = [[] for _ in range(n)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        cell = min((cell for cell in cells if len(cell) > 1), key=len, default=None)
        if cell is None:
            columns = [0] * n
            for u, v in edges:
                a, b = sorted((colors[u], colors[v]))
                columns[b] |= 1 << (b - 1 - a)
            if best is None or columns < best:
                best, labels = columns, colors
            continue
        c, tried = colors[cell[0]], []
        for v in cell:
            # swapping v with a tried twin (same neighbours apart from each
            # other) is an automorphism that keeps this colouring, so it maps
            # the twin's subtree onto v's, leaf for leaf
            if any(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in tried):
                continue
            tried.append(v)
            split = [x + (x > c or (x == c and w != v)) for w, x in enumerate(colors)]
            stack.append(_equitable(edges, split, powers))
    return best, labels


def canonical_form(g):
    """The graph relabelled by the least leaf of `_least_leaf`, as graph6.

    Equal strings characterize isomorphic graphs.  Capped at n = ISO_CAP,
    as far as the exhaustive tiers check the keys.
    """
    if g.n > ISO_CAP:
        raise UnsupportedInputError(f"canonical_form capped at n = {ISO_CAP}, got {g.n}")
    powers = _powers(g.n)
    root = _equitable(g.edges, [a.bit_count() for a in g._adj], powers)
    return encode_graph6(g.relabel(_least_leaf(g.edges, g._adj, root, powers)[1]))


# -- exhaustive enumeration of connected subcubic graphs -------------------


def _connected_without(adj, v):
    """True iff the connected graph of masks `adj` stays connected without v."""
    rest = ((1 << len(adj)) - 1) ^ (1 << v)
    seen = frontier = adj[v] & -adj[v]
    while frontier:
        reach = 0
        for u in _mask_bits(frontier):
            reach |= adj[u]
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen == rest


def _deletion_root(edges, adj, x, powers):
    """The root colouring of `_least_leaf` if no vertex of a lower root
    colour than x can be deleted from the connected graph, else None.

    A vertex can be deleted if the graph stays connected without it.
    """
    degrees = [a.bit_count() for a in adj]
    # `_equitable` ranks colours by degree first, so a deletable vertex of a
    # lower degree than x rules x out before any refinement
    if any(d < degrees[x] and _connected_without(adj, v) for v, d in enumerate(degrees)):
        return None
    root = _equitable(edges, degrees, powers)
    # the vertices of a lower degree were ruled out above
    if any(
        root[v] < root[x] and d == degrees[x] and _connected_without(adj, v)
        for v, d in enumerate(degrees)
    ):
        return None
    return root


@lru_cache(maxsize=None)
def enumerate_connected_subcubic(n):
    """One representative per isomorphism class of connected graphs with max degree <= 3.

    A candidate is a representative on n - 1 vertices with a new vertex x
    attached to 1..3 of its vertices of degree < 3.  Only candidates in
    which x is a canonical deletion are keyed (McKay, "Isomorph-free
    exhaustive generation", 1998): no vertex of a lower root colour than x
    can be deleted, leaving the graph connected (`_deletion_root`).  Every
    class still has such a candidate.  The root colouring does not depend
    on the labelling.  In any graph H of the class, let y be a deletable
    vertex of the lowest colour; H - y is connected and subcubic, so it is
    isomorphic to a representative on n - 1 vertices, and x attached to the
    image of y's neighbours is a candidate isomorphic to H, with x in y's
    place, so of y's colour.  Each class keeps its first such candidate in
    build order, found by its key's columns from `_least_leaf`; a candidate
    is an edge tuple and adjacency masks, and only the kept ones become
    graphs.  The output is sorted by key, so the order is deterministic and
    n is capped at ISO_CAP.  It is a tuple, since every call shares the
    cached result.
    """
    if not 1 <= n <= ISO_CAP:
        raise UnsupportedInputError(f"built-in generator handles 1 <= n <= {ISO_CAP}, got {n}")
    if n == 1:
        return (Graph(1),)
    powers = _powers(n)
    kept = {}
    for g in enumerate_connected_subcubic(n - 1):
        eligible = [u for u in range(g.n) if g.degree(u) < 3]
        for size in (1, 2, 3):
            for subset in itertools.combinations(eligible, size):
                edges = g.edges + tuple((u, g.n) for u in subset)
                adj = [a | (u in subset) << g.n for u, a in enumerate(g._adj)]
                adj.append(sum(1 << u for u in subset))
                root = _deletion_root(edges, adj, g.n, powers)
                if root is not None:
                    kept.setdefault(tuple(_least_leaf(edges, adj, root, powers)[0]), edges)
    return tuple(Graph(n, kept[key]) for key in sorted(kept))
