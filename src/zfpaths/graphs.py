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

    def neighbors_mask(self, u):
        self._check(u)
        return self._adj[u]

    def neighbors(self, u):
        return tuple(_mask_bits(self.neighbors_mask(u)))

    def degree(self, u):
        return self.neighbors_mask(u).bit_count()

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
    pairs = _pair_order(g.n)
    bits = [1 if g.adjacent(i, j) else 0 for i, j in pairs]
    while len(bits) % 6:
        bits.append(0)
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
    for i, u in enumerate(seq):
        for j in range(i + 1, len(seq)):
            want = j == i + 1
            if g.adjacent(u, seq[j]) != want:
                return False
    return True


# -- canonical forms (exact search for the minimum relabeling) -------------

ISO_CAP = 10


@lru_cache(maxsize=None)
def canonical_form(g):
    """Minimum graph6 encoding over all vertex relabelings.

    Equal strings characterize isomorphic graphs.  The search assigns labels
    0, 1, 2, ... in turn.  In graph6 bit order, column j holds the edges
    from label j to labels 0..j-1, so it depends only on the vertices that
    hold labels 0..j, and the minimum string extends a prefix that is
    minimal at every depth.  Every partial labeling whose columns so far are
    minimal is kept and extended by every unlabeled vertex.  Capped at
    n = ISO_CAP: the number of tied labelings grows fast on symmetric
    graphs such as long cycles.  Cached, so a graph that the enumeration
    has sorted by its form is keyed again for free.
    """
    if g.n > ISO_CAP:
        raise UnsupportedInputError(f"canonical_form capped at n = {ISO_CAP}, got {g.n}")
    adj = g._adj
    # u and v are twins when their neighborhoods agree apart from each
    # other (same open or same closed neighborhood)
    twins = [
        sum(1 << u for u in range(v) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
        for v in range(g.n)
    ]
    states = [((), (1 << g.n) - 1)]  # (labeled vertices in label order, unlabeled mask)
    for _ in range(g.n):
        best, extended = None, []
        for prefix, free in states:
            for v in _mask_bits(free):
                # swapping v with an unlabeled twin is an automorphism that
                # fixes the labeled prefix, so the earlier twin's subtree
                # holds the same strings
                if twins[v] & free:
                    continue
                column = 0
                for u in prefix:
                    column = column << 1 | adj[v] >> u & 1
                if best is None or column < best:
                    best, extended = column, []
                if column == best:
                    extended.append((prefix + (v,), free & ~(1 << v)))
        states = extended
    # the labeling maps new label -> original vertex, so relabel by its inverse
    inverse = [0] * g.n
    for label, orig in enumerate(states[0][0]):
        inverse[orig] = label
    return encode_graph6(g.relabel(inverse))


# -- exhaustive enumeration of connected subcubic graphs -------------------

def _refine(g):
    """Colour refinement from the degrees, until the classes stop splitting.

    Returns the stable colour of each vertex and the sorted signatures of
    every round.  Colours are numbered by sorted signature, so isomorphic
    graphs get equal signatures and an isomorphism maps each vertex to one
    of the same colour.
    """
    nbrs = [tuple(_mask_bits(m)) for m in g._adj]
    colors = [len(vs) for vs in nbrs]
    rounds = []
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in vs))) for v, vs in enumerate(nbrs)]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        rounds.append(tuple(sorted(sigs)))
        if len(table) == len(set(colors)):
            return colors, tuple(rounds)
        colors = [table[s] for s in sigs]


def _isomorphic(g, g_colors, h, h_colors):
    """Exact test for two graphs with equal refinement signatures.

    Backtracks over maps that send the vertices of g, smallest colour class
    first, to unused vertices of h of the same colour, keeping adjacency to
    every vertex mapped so far.
    """
    order = sorted(range(g.n), key=lambda v: (g_colors.count(g_colors[v]), g_colors[v]))
    ga, ha = g._adj, h._adj
    image = []

    def extend(depth, used):
        if depth == g.n:
            return True
        v = order[depth]
        for w in range(h.n):
            if used >> w & 1 or h_colors[w] != g_colors[v]:
                continue
            if all(ga[v] >> u & 1 == ha[w] >> x & 1 for u, x in zip(order, image)):
                image.append(w)
                if extend(depth + 1, used | 1 << w):
                    return True
                image.pop()
        return False

    return extend(0, 0)


@lru_cache(maxsize=None)
def enumerate_connected_subcubic(n):
    """One representative per isomorphism class of connected graphs with max degree <= 3.

    Built by repeatedly attaching a new vertex to 1..3 existing vertices of
    degree < 3 (every connected graph has a build order of this shape).  A
    candidate is kept unless it is isomorphic to a kept graph with the same
    edge count and the same colour-refinement signatures (`_refine`); inside
    such a group `_isomorphic` decides exactly.  Each class keeps its first
    candidate in build order, and the output is sorted by canonical form,
    so the order is deterministic and n is capped at ISO_CAP.
    """
    if not 1 <= n <= ISO_CAP:
        raise UnsupportedInputError(f"built-in generator handles 1 <= n <= {ISO_CAP}, got {n}")
    if n == 1:
        return [Graph(1)]
    buckets = {}
    for g in enumerate_connected_subcubic(n - 1):
        eligible = [u for u in range(g.n) if g.degree(u) < 3]
        for size in (1, 2, 3):
            for subset in itertools.combinations(eligible, size):
                cand = Graph(g.n + 1, list(g.edges) + [(u, g.n) for u in subset])
                colors, rounds = _refine(cand)
                kept = buckets.setdefault((cand.edge_count, rounds), [])
                if not any(_isomorphic(h, hc, cand, colors) for h, hc in kept):
                    kept.append((cand, colors))
    return sorted((h for kept in buckets.values() for h, _ in kept), key=canonical_form)
