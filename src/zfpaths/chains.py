"""Forcing chains: extraction, defect detection, and repair rewrites.

A complete forcing run partitions the vertices into |F| chains, one per
initially colored vertex, each an induced path.  A chain is the tuple of
its vertices read from its head, and a chain set is its host and its
chains, sorted by head; its origin is the set of heads.  It also holds the
position and owner chain of each vertex and the cross edges between chains,
and runs the chain-order scans.  Forcing chains are defined by a
chronological list of forces, one at a time, not by the time steps of a
synchronous run.  A chain set is valid when its chains hold n vertices in
all and such a list colors every vertex, each force by the rule `closure`
applies; `sequentially_realizable` is that rule, and `_rebuild`, the one
constructor of a checked chain set, applies it to extracted and repaired
chain sets alike.

Two kinds of defect can block a parallel-path drawing: a vertex with two
non-consecutive neighbors in another non-trivial chain ("bad"), and a
vertex whose two cross neighbors are witnessed by an inverting segment
between the other two chains ("unfavorite").  One scan per defect finds
each such vertex with its witness, the chain and neighbor that the repair
rewrite moves the offending head onto; each round strictly shrinks the
defect count.  No other module checks these conditions.  The repairs are
the paper's argument that some minimum forcing set has chains that draw;
they are kept and tested here, but the drawing pipeline does not run them,
because the chains of the witness draw as they are in one of three row
orders, which `drawing.build_standard_drawing` checks on every graph it
draws.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ContractError, InternalLogicError, UnsupportedInputError
from .forcing import ForcingRun, closure, forcing_number
from .graphs import Graph, _mask_bits


@dataclass(frozen=True)
class ChainSet:
    host: Graph
    chains: tuple  # vertex tuples, each read from its head, sorted by head

    @property
    def origin(self) -> frozenset:
        return frozenset(c[0] for c in self.chains)

    @cached_property
    def pos(self):
        return {v: p for c in self.chains for p, v in enumerate(c)}

    @cached_property
    def owner(self):
        return {v: i for i, c in enumerate(self.chains) for v in c}

    @cached_property
    def cross(self):
        """{(i, j): the edges (u, v) with u in chain i and v in chain j != i}."""
        cross = {ij: [] for ij in itertools.permutations(range(len(self.chains)), 2)}
        for i, c in enumerate(self.chains):
            for u in c:
                for v in _mask_bits(self.host._adj[u]):
                    j = self.owner.get(v, i)
                    if j != i:
                        cross[i, j].append((u, v))
        return cross

    def nontrivial(self):
        """Indices of the chains with more than one vertex."""
        return [i for i, c in enumerate(self.chains) if len(c) > 1]

    def trivial_count(self):
        return len(self.chains) - len(self.nontrivial())

    def to_json(self):
        return {"origin": sorted(self.origin), "chains": [list(c) for c in self.chains]}

    def inverting_pairs(self, i, j):
        """Cross edges (u, v), (u2, v2) from chain i to j with u before u2
        but v2 before v."""
        pos = self.pos
        for u, v in self.cross[i, j]:
            for u2, v2 in self.cross[i, j]:
                if pos[u] < pos[u2] and pos[v2] < pos[v]:
                    yield u, v, u2, v2

    def inverting_triples(self, i, j, k):
        """(a, b, c, d, x, y): cross edges a-b (i to j), c-d (j to k) and x-y
        (i to k) with c before b, x after a and y before d."""
        pos = self.pos
        for a, b in self.cross[i, j]:
            for c, d in self.cross[j, k]:
                if pos[c] < pos[b]:
                    for x, y in self.cross[i, k]:
                        if pos[x] > pos[a] and pos[y] < pos[d]:
                            yield a, b, c, d, x, y

    def split(self, u, j):
        """Sorted positions of u's neighbors in chain j when two of them are
        at least two apart, else an empty list."""
        ps = sorted(self.pos[v] for v in _mask_bits(self.host._adj[u]) if self.owner.get(v) == j)
        return ps if any(q - p >= 2 for p, q in zip(ps, ps[1:])) else []

    def fan_inversions(self, x, j, k):
        """(a, b, c, d): neighbors a of x in chain j and b in chain k,
        with a cross edge c-d from j to k where c is after a and d before b."""
        pos = self.pos
        nbrs = tuple(_mask_bits(self.host._adj[x]))
        for a in nbrs:
            if self.owner.get(a) != j:
                continue
            for b in nbrs:
                if self.owner.get(b) != k:
                    continue
                for c, d in self.cross[j, k]:
                    if pos[c] > pos[a] and pos[d] < pos[b]:
                        yield a, b, c, d


def extract_chains(run: ForcingRun) -> ChainSet:
    """Chains of a complete forcing run, resolving forcer ties by lowest id."""
    if not run.complete:
        raise ContractError("chain extraction needs a complete forcing run")
    # a step lists a vertex's forcers in ascending order, so the lowest comes last
    forcer = {v: u for pairs in run.steps for u, v in reversed(pairs)}
    succ = {u: v for v, u in forcer.items()}
    chains = []
    for f in sorted(run.initial):
        seq = [f]
        # past n vertices the forces close a cycle, and `_rebuild`'s count refuses the chains
        while seq[-1] in succ and len(seq) <= run.host.n:
            seq.append(succ[seq[-1]])
        chains.append(tuple(seq))
    return _rebuild(run.host, chains)


def chains_for(g: Graph, colored) -> ChainSet:
    """Convenience: closure then extraction on one host graph."""
    return extract_chains(closure(g, colored))


@lru_cache(maxsize=1)
def forcing_chains(g: Graph) -> ChainSet:
    """The chains of `forcing_number(g)`'s witness.  The harness asks for one
    graph's chains twice in a row, for the drawing and for L_order, so one
    entry is enough; `chains_for` takes lists and is not cached."""
    return chains_for(g, forcing_number(g)[1])


def _rebuild(host: Graph, chains) -> ChainSet:
    """The one constructor of a checked chain set: the chains, sorted by head,
    hold n vertices in all and `sequentially_realizable` colors every one.  A
    repeated or missing vertex breaks the count, and so does a forcer given
    two successors; a chord, or a link that is no edge, stalls the walk."""
    cs = ChainSet(host=host, chains=tuple(sorted(chains, key=lambda c: c[:1])))
    if sum(map(len, cs.chains)) != host.n or not sequentially_realizable(cs):
        raise InternalLogicError(f"chains {cs.chains} admit no chronological sequence of forces")
    return cs


def sequentially_realizable(cs: ChainSet):
    """Whether some one-force-at-a-time schedule realizes exactly these chains.

    A link u -> v fires when v is the one uncolored neighbor of u, the rule
    `closure` applies, and the chains are realized when every link fires and
    every vertex ends colored.  Greedy firing is sound and complete here: a
    link's precondition, once met, holds until its target is colored, so
    firing order never changes the verdict.  Every link fired is a legal
    force, so True also proves that the heads form a forcing set.  A chain
    with no vertex has no head, and no chain set holding one is realized.
    """
    if not all(cs.chains):
        return False
    host = cs.host
    for v in cs.pos:
        host._check(v)
    colored = sum(1 << v for v in cs.origin)
    pointer = [1] * len(cs.chains)
    fired = True
    while fired:
        fired = False
        for i, c in enumerate(cs.chains):
            j = pointer[i]
            if j < len(c) and host._adj[c[j - 1]] & ~colored == 1 << c[j]:
                colored |= 1 << c[j]
                pointer[i] = j + 1
                fired = True
    return colored == (1 << host.n) - 1 and pointer == [len(c) for c in cs.chains]


# -- defect detectors -------------------------------------------------------


def _heads_only(cs: ChainSet, found, kind):
    if cs.host.max_degree() <= 3:
        for v in found:
            if cs.pos[v] != 0:
                raise InternalLogicError(
                    f"{kind} vertex {v} is not the head of its chain (degree cap 3)"
                )
    return found


def bad_vertices(cs: ChainSet):
    """{bad vertex: (j, a)} over the vertices of a non-trivial chain with two
    non-consecutive neighbors in another non-trivial chain j; a is the first
    of them, in the lowest such chain j."""
    found = {}
    for i, j in itertools.permutations(cs.nontrivial(), 2):
        for v in cs.chains[i]:
            if v not in found:
                ps = cs.split(v, j)
                if ps:
                    found[v] = (j, cs.chains[j][ps[0]])
    return _heads_only(cs, found, "bad")


def unfavorite_vertices(cs: ChainSet):
    """{unfavorite vertex: (j, a)} over the vertices with cross neighbors in
    two other non-trivial chains j and k witnessed by a later/earlier segment
    between those chains; a is the neighbor in chain j of the first such fan
    inversion found, over chain pairs (j, k) in lexicographic order."""
    nontrivial = cs.nontrivial()
    found = {}
    for i in nontrivial:
        for j, k in itertools.permutations([c for c in nontrivial if c != i], 2):
            for x in cs.chains[i]:
                if x not in found:
                    fan = next(cs.fan_inversions(x, j, k), None)
                    if fan:
                        found[x] = (j, fan[0])
    return _heads_only(cs, found, "unfavorite")


# -- repair rewrites --------------------------------------------------------


def _head_rewrite(cs: ChainSet, x, j, a):
    """Move head x of its chain onto chain j after its vertex a.

    With R1 the chain of x and R2 chain j, the new chains are x'R2 (suffix
    from the successor of a) and R2-prefix-through-a + R1.
    """
    i = cs.owner[x]
    r1, r2 = cs.chains[i], cs.chains[j]
    pa = cs.pos[a]
    rest = [c for k, c in enumerate(cs.chains) if k not in (i, j)]
    return _rebuild(cs.host, rest + [r2[pa + 1 :], r2[: pa + 1] + r1])


def eliminate_bad(cs: ChainSet) -> ChainSet:
    """A chain set for a same-size forcing set with no bad vertex.

    Repeats the head rewrite on the smallest bad vertex; when the rewrite
    makes the third head bad, a second-stage rewrite moves that head as
    well.  Each round must strictly decrease the bad count.
    """
    if cs.host.max_degree() > 3:
        raise UnsupportedInputError("bad-vertex repair needs maximum degree <= 3")
    if len(cs.origin) != 3:
        raise UnsupportedInputError("bad-vertex repair is proved only for three chains")
    current, bad = cs, bad_vertices(cs)
    while bad:
        x = min(bad)
        j, a = bad[x]
        third = [c for k, c in enumerate(current.chains) if k not in (current.owner[x], j)]
        rewritten = _head_rewrite(current, x, j, a)
        after = bad_vertices(rewritten)
        if len(after) < len(bad):
            current, bad = rewritten, after
            continue
        # Second stage: the rewrite made the remaining head bad; move it too.
        if len(third) != 1 or len(third[0]) == 1:
            raise InternalLogicError("bad count failed to drop with no third head to move")
        z = third[0][0]
        if z not in after:
            raise InternalLogicError("bad count failed to drop yet third head is not bad")
        second = _head_rewrite(rewritten, z, *after[z])
        after = bad_vertices(second)
        if len(after) >= len(bad):
            raise InternalLogicError("two-stage rewrite did not decrease the bad count")
        current, bad = second, after
    return current


def eliminate_unfavorite(cs: ChainSet) -> ChainSet:
    """A chain set with no unfavorite vertex, preserving the no-bad property."""
    if cs.host.max_degree() > 3:
        raise UnsupportedInputError("unfavorite repair needs maximum degree <= 3")
    if len(cs.origin) != 3:
        raise UnsupportedInputError("unfavorite repair is proved only for three chains")
    if bad_vertices(cs):
        raise ContractError("unfavorite repair requires a chain set with no bad vertex")
    current, unfav = cs, unfavorite_vertices(cs)
    while unfav:
        x = min(unfav)
        rewritten = _head_rewrite(current, x, *unfav[x])
        if bad_vertices(rewritten):
            raise InternalLogicError("unfavorite rewrite introduced a bad vertex")
        after = unfavorite_vertices(rewritten)
        if len(after) >= len(unfav):
            raise InternalLogicError("unfavorite rewrite did not decrease the count")
        current, unfav = rewritten, after
    return current


# -- order lemmas -----------------------------------------------------------


def check_order_lemmas(cs: ChainSet) -> list:
    """Exhaustive scans of the two chain-order facts; violations indicate bugs.

    Checked facts: segments between a chain pair never invert, and the
    three-chain mixed configuration never inverts either.  Returns the
    violations, each ("no_inverting_pair", (u, v, u2, v2)) or
    ("no_inverting_triple", (a, b, c, d, x, y)); the list is empty when
    both facts hold.  That a cross neighbor of a forcing vertex is colored
    before the vertex it forces is what `sequentially_realizable` checks on
    every chain set.
    """
    violations = []
    count = len(cs.chains)
    # the (j, i) scan finds the (i, j) inversions again, mirrored
    for i, j in itertools.combinations(range(count), 2):
        violations.extend(("no_inverting_pair", w) for w in cs.inverting_pairs(i, j))
    for i, j, k in itertools.permutations(range(count), 3):
        violations.extend(("no_inverting_triple", w) for w in cs.inverting_triples(i, j, k))
    return violations
