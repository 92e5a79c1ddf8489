"""Standard drawings of parallel-path graphs with exact geometry.

Rows are horizontal lines at integer heights (top row 0, increasing
downward).  Edges inside a row run along the row; edges between rows are
straight segments.  A drawing is valid when no two segments intersect
outside a shared endpoint and no segment passes through a third vertex.
Intersection tests are exact orientation signs, in int arithmetic on a
realized drawing and Fraction arithmetic on a hand-built rational one.

Coordinates come from one engine, `realize`, which either draws given rows
on the smallest integer grid or proves that no coordinates can: the
three-row pipeline, drawings with one or two rows and the k-row search all
call it.  `realize` verifies each drawing it returns, once, so its callers
do not verify again; `render` verifies whatever it is given, because a
drawing may come from elsewhere.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .chains import chains_for, eliminate_bad, eliminate_unfavorite
from .errors import ContractError, InternalLogicError, UnsupportedInputError
from .forcing import forcing_number
from .graphs import Graph, is_induced_path


@dataclass(frozen=True)
class StandardDrawing:
    rows: tuple  # tuple of vertex tuples, top to bottom
    x: dict  # vertex -> int from `realize`; int or Fraction in a hand-built drawing
    host: Graph

    @property
    def k(self):
        return len(self.rows)


# -- exact geometry core ----------------------------------------------------


def _orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _in_box(a, b, p):
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


# -- drawing verification ---------------------------------------------------


_NO_PARTITION = "rows do not partition the vertex set"


def _row_violations(g: Graph, rows) -> list:
    """Why the rows break the rule: a partition of 0..n-1 into non-empty induced paths."""
    if sorted(v for row in rows for v in row) != list(range(g.n)):
        return [_NO_PARTITION]
    return [f"row {i} is empty" for i, row in enumerate(rows) if not row] + [
        f"row {i} {row} is not an induced path"
        for i, row in enumerate(rows)
        if not is_induced_path(g, row)
    ]


def verify_drawing(d: StandardDrawing) -> list:
    """Exact check of d against its own host: the violations, empty when d is valid.

    The rows must keep `_row_violations`'s rule, with x strictly increasing
    along each; otherwise the geometry is not examined.  Then no vertex may
    lie on a cross-row segment it does not end, and two segments without a
    common end may not cross.  Those two scans decide every other defect:
    rows sit at distinct heights, so no two vertices coincide; a segment
    that touches another, or two segments that leave a common end along one
    ray, put a vertex on a segment.
    """
    violations = _row_violations(d.host, d.rows)
    if violations[:1] == [_NO_PARTITION]:
        return violations
    missing = [v for row in d.rows for v in row if v not in d.x]
    if missing:
        return [f"vertices without x coordinate: {missing}"]
    for i, row in enumerate(d.rows):
        for u, v in zip(row, row[1:]):
            if not d.x[u] < d.x[v]:
                violations.append(f"x not increasing along row {i} at {u},{v}")
    if violations:
        return violations
    points = {v: (d.x[v], i) for i, row in enumerate(d.rows) for v in row}
    segments = [(u, v) for u, v in d.host.edges if points[u][1] != points[v][1]]
    for (a1, b1), (a2, b2) in itertools.combinations(segments, 2):
        if {a1, b1} & {a2, b2}:
            continue
        p1, p2, p3, p4 = points[a1], points[b1], points[a2], points[b2]
        if (
            _orient(p3, p4, p1) * _orient(p3, p4, p2) < 0
            and _orient(p1, p2, p3) * _orient(p1, p2, p4) < 0
        ):
            violations.append(f"segments {a1}-{b1} and {a2}-{b2} cross")
    for a, b in segments:
        pa, pb = points[a], points[b]
        for w, pw in points.items():
            if w not in (a, b) and _orient(pa, pb, pw) == 0 and _in_box(pa, pb, pw):
                violations.append(f"segment {a}-{b} passes through vertex {w}")
    return violations


def leftmost_set(d: StandardDrawing):
    """The minimum-x vertex of each row."""
    return frozenset(min(row, key=lambda v: d.x[v]) for row in d.rows if row)


# -- the exact realizer --------------------------------------------------------


def realize(g: Graph, rows):
    """A verified drawing of g with these rows, or None when the rows break
    `_row_violations`'s rule or no gap choice is consistent.

    Each row is an induced path, read left to right.  A segment that spans
    several rows meets each row between its ends inside one gap of that row:
    before the first vertex, between two vertices, or after the last.  Two
    straight segments keep one left-right order between their first and last
    shared rows, where one is at its own end vertex, so the row positions fix
    it.  `_fill_gaps` picks the gaps depth first, pruning a choice once its
    orders disagree.  One consistent choice decides: any x with the row orders
    and each crossing point strictly inside its gap draws no crossing, and such
    x exists.  Three segments in one gap never order cyclically, as the row
    positions rule it out at their first or last common row, where not all
    three end at one vertex.  So the choice is a planar hierarchical drawing, a
    level per row, with the row edges along the levels, where no rule involves
    them.  Eades, Feng, Lin & Nagamochi (Algorithmica 44, 2006) straighten it,
    keeping each level's order of vertices and edges, for any number of rows;
    so a refusal of the exact `_solve` is an InternalLogicError.
    """
    rows = tuple(tuple(row) for row in rows)
    if not rows or _row_violations(g, rows):
        return None
    place = {}  # vertex -> (row, 2 * position + 1); gap j of a row is 2 * j
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            place[v] = (i, 2 * j + 1)
    segments = [
        (u, v) if place[u] < place[v] else (v, u)
        for u, v in g.edges
        if place[u][0] != place[v][0]
    ]
    tracks = []  # per segment, per row: its place there, None if unknown
    for u, v in segments:
        track = [None] * len(rows)
        for w in (u, v):
            track[place[w][0]] = place[w][1]
        tracks.append(track)
    slots = [
        (s, r)
        for s, (u, v) in enumerate(segments)
        for r in range(place[u][0] + 1, place[v][0])
    ]
    pairs = itertools.combinations(tracks, 2)  # before the walk, each track holds its ends
    if any(_disagree(s, t) for s, t in pairs) or not _fill_gaps(rows, tracks, slots, 0):
        return None
    x = _solve(g.n, _inequalities(rows, segments, tracks, place))
    if x is None:
        raise InternalLogicError(f"a consistent gap choice for rows {rows} has no coordinates")
    drawing = _integer_grid(StandardDrawing(rows=rows, x=dict(enumerate(x)), host=g))
    violations = verify_drawing(drawing)
    if violations:
        raise InternalLogicError(f"realized drawing failed verification: {violations[:3]}")
    return drawing


def _fill_gaps(rows, tracks, slots, depth):
    """Fill in the gap of each slot (segment, row) from `depth` on, depth first:
    True at the first consistent choice, else False with those slots cleared."""
    if depth == len(slots):
        return True
    s, r = slots[depth]
    for gap in range(len(rows[r]) + 1):
        tracks[s][r] = 2 * gap
        # only a track with a place at row r can gain a new disagreement
        if not any(_disagree(tracks[s], t) for t in tracks if t[r] is not None):
            if _fill_gaps(rows, tracks, slots, depth + 1):
                return True
    tracks[s][r] = None
    return False


def _disagree(s, t):
    """True when two segment tracks are known to be in both left-right orders."""
    signs = 0
    for p, q in zip(s, t):
        if p is not None and q is not None and p != q:
            signs |= 1 if p < q else 2
    return signs == 3


def _inequalities(rows, segments, tracks, place):
    """Integer vectors a with a·x > 0: row orders and crossing points inside gaps."""
    n = len(place)

    def vec(*terms):
        a = [0] * n
        for c, v in terms:
            a[v] += c
        return tuple(a)

    out = [vec((1, v), (-1, u)) for row in rows for u, v in zip(row, row[1:])]
    for (u, v), track in zip(segments, tracks):
        a, b = place[u][0], place[v][0]
        for r in range(a + 1, b):
            gap = track[r] // 2
            # (b - a) times the crossing point at row r
            cross = ((b - r, u), (r - a, v))
            if gap > 0:
                out.append(vec(*cross, (a - b, rows[r][gap - 1])))
            if gap < len(rows[r]):
                out.append(vec(*((-c, w) for c, w in cross), (b - a, rows[r][gap])))
    return out


def _primitive(a):
    d = gcd(*a)
    return tuple(c // d for c in a) if d else None


def _solve(n, inequalities):
    """Rational x with a·x > 0 for every integer vector a, or None if none exists.

    Fourier–Motzkin elimination: each combined row is divided by the gcd of
    its entries and duplicates are dropped; a row that cancels to zero reads
    0 > 0.  Back-substitution then puts each variable inside the open
    interval left by the rows of its stage.
    """
    current = {_primitive(a) for a in inequalities}
    if None in current:
        return None
    stages = []
    remaining = set(range(n))
    while remaining:
        i = min(remaining, key=lambda i: (_growth(current, i), i))
        remaining.remove(i)
        stages.append((i, current))
        nxt = {a for a in current if not a[i]}
        for p in (a for a in current if a[i] > 0):
            for q in (a for a in current if a[i] < 0):
                c = _primitive(tuple(p[i] * qk - q[i] * pk for pk, qk in zip(p, q)))
                if c is None:
                    return None
                nxt.add(c)
        current = nxt
    x = [Fraction(0)] * n
    for i, stage in reversed(stages):
        lo = hi = None
        for a in stage:
            if a[i]:
                bound = Fraction(-sum(c * xk for c, xk in zip(a, x)), a[i])
                if a[i] > 0:
                    lo = bound if lo is None else max(lo, bound)
                else:
                    hi = bound if hi is None else min(hi, bound)
        x[i] = _between(lo, hi)
    return x


def _growth(rows, i):
    """How many more rows eliminating variable i leaves than it takes."""
    pos = sum(1 for a in rows if a[i] > 0)
    neg = sum(1 for a in rows if a[i] < 0)
    return pos * neg - pos - neg


def _between(lo, hi):
    """The integer nearest an open interval's finite end inside it, else its midpoint."""
    if lo is not None:
        x = Fraction(floor(lo) + 1)
    elif hi is not None:
        x = Fraction(ceil(hi) - 1)
    else:
        return Fraction(0)
    return x if hi is None or x < hi else (lo + hi) / 2


def _integer_grid(d: StandardDrawing) -> StandardDrawing:
    """The drawing with int x, shifted so its least value is 0, then scaled onto
    the smallest integer grid.  The map is affine with one positive scale on
    every row, so it keeps every orientation sign, and with them the verdict
    of `verify_drawing`."""
    lo = min(d.x.values())
    scale = lcm(*(x.denominator for x in d.x.values()))
    ints = {v: int((x - lo) * scale) for v, x in d.x.items()}
    step = gcd(*ints.values()) or 1
    return StandardDrawing(
        rows=d.rows, x={v: val // step for v, val in ints.items()}, host=d.host
    )


def _draw(g: Graph, rows) -> StandardDrawing:
    d = realize(g, rows)
    if d is None:
        raise InternalLogicError(f"no drawing with rows {rows}")
    return d


# -- full pipeline ------------------------------------------------------------


def build_standard_drawing(g: Graph) -> StandardDrawing:
    """Three-row drawing of a graph with maximum degree <= 3 and forcing number 3.

    Pipeline: minimum forcing set, chain extraction, both repairs, then one
    row order for every chain shape: the third chain on top of the ladder
    pair (the two chains with the fewest trivial members, then the most
    cross edges), drawn by `realize`.  The chains are not prechecked: the
    repairs exit with no bad or unfavorite vertex, and rows with an
    inverting segment pair or triple have no drawing.  InternalLogicError
    means that row order has no drawing at all, which the theorem rules out.
    """
    if g.max_degree() > 3:
        raise UnsupportedInputError("standard drawings need maximum degree <= 3")
    k, witness = forcing_number(g)
    if k != 3:
        raise UnsupportedInputError(f"forcing number is {k}, not 3")
    cs = chains_for(g, witness)
    cs = eliminate_bad(cs)
    cs = eliminate_unfavorite(cs)
    i, j = _ladder_pair(cs)
    third = next(c for k, c in enumerate(cs.chains) if k not in (i, j))
    return _draw(g, (third, cs.chains[i], cs.chains[j]))


def _ladder_pair(cs):
    """Indices of the chain pair with the fewest trivial chains, then the
    most cross edges; ties favor smaller head ids, which are smaller indices
    because the chains are sorted by head."""
    return min(
        itertools.combinations(range(len(cs.chains)), 2),
        key=lambda ij: (
            sum(len(cs.chains[k]) == 1 for k in ij),
            -len(cs.cross[ij]),
            ij,
        ),
    )


def build_parallel_drawing(g: Graph) -> StandardDrawing:
    """Drawing with forcing_number(g) rows for any subcubic g with F <= 3."""
    if g.max_degree() > 3:
        raise UnsupportedInputError("parallel drawings need maximum degree <= 3")
    k, witness = forcing_number(g)
    if k in (1, 2):
        return _draw(g, chains_for(g, witness).chains)
    if k == 3:
        return build_standard_drawing(g)
    raise UnsupportedInputError(f"forcing number {k} exceeds 3")


# -- exact search for general k ------------------------------------------------

_SEARCH_CAP = 8


def search_drawing(g: Graph, k):
    """A drawing of g with at most k rows, or None when none exists.

    Every row structure (an ordered tuple of at most k induced paths, each
    read left to right, that partition the vertices) goes to `realize` in
    lexicographic order, skipping mirror images of structures that failed,
    so None is a proof; the search is capped at n = 8.
    """
    if g.n > _SEARCH_CAP:
        raise UnsupportedInputError(f"search capped at n = {_SEARCH_CAP}")
    if g.n == 0 or k < 1:
        return None
    tried = set()
    for rows in _row_structures(g, k):
        if rows in tried:
            continue
        d = realize(g, rows)
        if d is not None:
            return d
        # mirrored left-right or top-bottom, a structure draws just as well
        mirrored = tuple(row[::-1] for row in rows)
        tried.update((mirrored, rows[::-1], mirrored[::-1]))
    return None


def _row_structures(g: Graph, k):
    verts = frozenset(range(g.n))

    def sequences(avail):
        for start in sorted(avail):
            stack = [(start,)]
            while stack:
                seq = stack.pop()
                yield seq
                for nxt in sorted(avail - set(seq), reverse=True):
                    if g.adjacent(seq[-1], nxt) and all(
                        not g.adjacent(v, nxt) for v in seq[:-1]
                    ):
                        stack.append(seq + (nxt,))

    def rec(avail, acc):
        if not avail:
            yield tuple(acc)
            return
        if len(acc) == k:
            return
        for seq in sequences(avail):
            acc.append(seq)
            yield from rec(avail - set(seq), acc)
            acc.pop()

    yield from rec(verts, [])


# -- rendering ----------------------------------------------------------------


def render(d: StandardDrawing, fmt="json"):
    """Serialize a drawing that `verify_drawing` passes as svg, dot, or json
    text; svg and dot put it on the smallest integer grid first, as `realize` does."""
    violations = verify_drawing(d)
    if violations:
        raise ContractError(f"refusing to render an invalid drawing: {violations[:3]}")
    if fmt == "json":
        return json.dumps(drawing_to_json_obj(d))
    if fmt not in ("svg", "dot"):
        raise ContractError(f"unknown render format {fmt!r}")
    grid = _integer_grid(d)
    row = {v: i for i, r in enumerate(d.rows) for v in r}
    return _render_svg(grid, row) if fmt == "svg" else _render_dot(grid, row)


def drawing_to_json_obj(d: StandardDrawing):
    return {
        "rows": [list(row) for row in d.rows],
        "x": {str(v): f"{x.numerator}/{x.denominator}" for v, x in sorted(d.x.items())},
        "edges": [list(e) for e in d.host.edges],
        "k": d.k,
    }


_PX_STEP = 40
_PX_MARGIN = 50


def _render_svg(d, row):
    width = 2 * _PX_MARGIN + _PX_STEP * max(d.x.values())
    height = 2 * _PX_MARGIN + 100 * (len(d.rows) - 1)

    def px(v):
        return _PX_MARGIN + _PX_STEP * d.x[v], _PX_MARGIN + 100 * row[v]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for u, v in d.host.edges:
        (x1, y1), (x2, y2) = px(u), px(v)
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="2"/>'
        )
    for v in sorted(d.x):
        cx, cy = px(v)
        lines.append(f'<circle cx="{cx}" cy="{cy}" r="9" fill="white" stroke="black"/>')
        lines.append(
            f'<text x="{cx}" y="{cy + 4}" font-size="10" text-anchor="middle">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def _render_dot(d, row):
    lines = ["graph drawing {", "  node [shape=circle];"]
    for v in sorted(d.x):
        y = len(d.rows) - 1 - row[v]
        lines.append(f'  {v} [pos="{d.x[v]},{y}!"];')
    for u, v in d.host.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
