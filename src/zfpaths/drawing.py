"""Standard drawings of parallel-path graphs with exact rational geometry.

Rows are horizontal lines at integer heights (top row 0, increasing
downward); every vertex gets a rational x coordinate.  Edges inside a row
run along the row; edges between rows are straight segments.  A drawing is
valid when no two segments intersect outside a shared endpoint and no
segment passes through a third vertex.  All intersection tests use
Fraction arithmetic; there is no tolerance anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .chains import Chain, OrderIndex, chains_for, eliminate_bad, eliminate_unfavorite
from .errors import (
    ContractError,
    DrawingConstructionError,
    InternalLogicError,
    NotLadderDrawableError,
    UnsupportedInputError,
    UnsupportedSizeError,
)
from .forcing import forcing_number
from .graphs import Graph, is_induced_path


@dataclass(frozen=True)
class StandardDrawing:
    rows: tuple  # tuple of vertex tuples, top to bottom
    x: dict  # vertex -> Fraction
    host: Graph

    @property
    def k(self):
        return len(self.rows)

    def row_of(self, v):
        for i, row in enumerate(self.rows):
            if v in row:
                return i
        raise KeyError(v)

    def point(self, v):
        return (self.x[v], Fraction(self.row_of(v)))

    def __eq__(self, other):
        return (
            isinstance(other, StandardDrawing)
            and self.rows == other.rows
            and self.x == other.x
            and self.host == other.host
        )


@dataclass
class DrawingReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok


# -- exact geometry core ----------------------------------------------------


def _orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _in_box(a, b, p):
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_intersect(p1, p2, p3, p4):
    """Closed-segment intersection, including touching points."""
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0) and d1 and d2) and ((d3 > 0) != (d4 > 0) and d3 and d4):
        return True
    if d1 == 0 and _in_box(p3, p4, p1):
        return True
    if d2 == 0 and _in_box(p3, p4, p2):
        return True
    if d3 == 0 and _in_box(p1, p2, p3):
        return True
    if d4 == 0 and _in_box(p1, p2, p4):
        return True
    return False


def _geometry_violations(segments, points):
    """Crossing and pass-through defects among straight segments.

    segments: iterable of (id_a, id_b) endpoint labels; points maps labels to
    exact (x, y) pairs.  Segments sharing an endpoint may meet only there.
    """
    out = []
    segs = list(segments)
    for (a1, b1), (a2, b2) in itertools.combinations(segs, 2):
        shared = {a1, b1} & {a2, b2}
        if len(shared) == 2:
            out.append(f"duplicate segment {a1}-{b1}")
            continue
        if len(shared) == 1:
            s = shared.pop()
            p = points[b1 if a1 == s else a1]
            q = points[b2 if a2 == s else a2]
            sp = points[s]
            if _orient(sp, p, q) == 0 and (
                (p[0] - sp[0]) * (q[0] - sp[0]) + (p[1] - sp[1]) * (q[1] - sp[1]) > 0
            ):
                out.append(f"segments {a1}-{b1} and {a2}-{b2} overlap beyond shared {s}")
        elif _segments_intersect(points[a1], points[b1], points[a2], points[b2]):
            out.append(f"segments {a1}-{b1} and {a2}-{b2} cross")
    for a, b in segs:
        pa, pb = points[a], points[b]
        for w, pw in points.items():
            if w in (a, b):
                continue
            if _orient(pa, pb, pw) == 0 and _in_box(pa, pb, pw):
                out.append(f"segment {a}-{b} passes through vertex {w}")
    return out


# -- drawing verification ---------------------------------------------------


def verify_drawing(g: Graph, d: StandardDrawing) -> DrawingReport:
    """Exact validity check: rows, order, and segment geometry."""
    report = DrawingReport()
    flat = [v for row in d.rows for v in row]
    if sorted(flat) != list(range(g.n)):
        report.violations.append("rows do not partition the vertex set")
        return report
    missing = [v for v in flat if v not in d.x]
    if missing:
        report.violations.append(f"vertices without x coordinate: {missing}")
        return report
    row_index = {}
    for i, row in enumerate(d.rows):
        if not row:
            report.violations.append(f"row {i} is empty")
        for v in row:
            row_index[v] = i
    for i, row in enumerate(d.rows):
        try:
            if not is_induced_path(g, row):
                report.violations.append(f"row {i} {row} is not an induced path")
        except Exception as exc:  # repeated vertex etc.
            report.violations.append(f"row {i} invalid: {exc}")
        for u, v in zip(row, row[1:]):
            if not d.x[u] < d.x[v]:
                report.violations.append(f"x not increasing along row {i} at {u},{v}")
    for u, v in g.edges:
        if row_index[u] == row_index[v]:
            row = d.rows[row_index[u]]
            if abs(row.index(u) - row.index(v)) != 1:
                report.violations.append(f"row edge {u}-{v} joins non-consecutive vertices")
    if report.violations:
        return report
    points = {v: (d.x[v], Fraction(row_index[v])) for v in flat}
    coincident = {}
    for v, p in points.items():
        if p in coincident:
            report.violations.append(f"vertices {coincident[p]} and {v} coincide")
        coincident[p] = v
    segments = [(u, v) for u, v in g.edges if row_index[u] != row_index[v]]
    report.violations.extend(_geometry_violations(segments, points))
    return report


def leftmost_set(d: StandardDrawing):
    """The minimum-x vertex of each row."""
    return frozenset(min(row, key=lambda v: d.x[v]) for row in d.rows if row)


# -- parallel-path property checks ------------------------------------------


def check_parallel_properties(g: Graph, p1, p2, p3):
    """Violations of the six structural conditions a chain triple must meet
    before the two-row ladder can be extended by the third row."""
    index = OrderIndex(g, (p1, p2, p3))
    paths = index.seqs
    violations = []
    if len(paths[0]) < 2 or len(paths[1]) < 2:
        violations.append((1, "first two paths must each have two vertices"))
    if len(paths[2]) == 1 and g.degree(paths[2][0]) > 2:
        violations.append((2, f"singleton third path {paths[2][0]} has degree > 2"))
    for i, j in itertools.combinations(range(3), 2):
        violations.extend((3, w) for w in index.inverting_pairs(i, j))
    for i, j, k in itertools.permutations(range(3), 3):
        violations.extend((4, w) for w in index.inverting_triples(i, j, k))
    for i, j in itertools.permutations(range(3), 2):
        violations.extend((5, (u, j)) for u in paths[i] if index.split(u, j))
    for i, j, k in itertools.permutations(range(3), 3):
        if j < k:
            for x in paths[i]:
                violations.extend((6, (x, *w)) for w in index.fan_inversions(x, j, k))
    return violations


# -- ladder drawings ---------------------------------------------------------


@dataclass(frozen=True)
class LadderDrawing:
    host: Graph
    top: tuple  # original top vertex sequence
    bottom: tuple
    top_slots: tuple  # tuples of 1 or 2 vertices, merged pairs kept in row order
    bottom_slots: tuple
    thick_vertices: tuple  # merged consecutive pairs
    thick_edges: tuple  # (vertex, merged pair)
    segments: tuple  # (top slot index, bottom slot index), left to right
    x_top: tuple  # Fraction per top slot
    x_bottom: tuple


def _pair_property_check(index: OrderIndex):
    """Properties 3 and 5 restricted to one chain pair; raise when violated."""
    for u, v, u2, v2 in index.inverting_pairs(0, 1):
        raise NotLadderDrawableError(
            f"inverting segment pair {u}-{v}, {u2}-{v2}", violation=((u, v), (u2, v2))
        )
    for i, j in ((0, 1), (1, 0)):
        for u in index.seqs[i]:
            if index.split(u, j):
                raise NotLadderDrawableError(
                    f"vertex {u} has non-consecutive neighbors across the ladder",
                    violation=(u,),
                )


def _merge_slots(index: OrderIndex, s):
    """Slots of sequence s after gluing pairs that share a neighbor in the other."""
    seq = index.seqs[s]
    merged_at = {}
    for u in index.seqs[1 - s]:
        nbrs = [v for v in index.host.neighbors(u) if index.owner.get(v) == s]
        # split neighbors were already refused by _pair_property_check
        if len(nbrs) == 3:
            raise NotLadderDrawableError(
                f"vertex {u} has three neighbors across the ladder", violation=(u,)
            )
        if len(nbrs) == 2:
            i, j = sorted(index.pos[v] for v in nbrs)
            if i in merged_at:
                raise NotLadderDrawableError(
                    f"vertices {seq[i]},{seq[j]} claimed by two thick merges",
                    violation=(seq[i], seq[j]),
                )
            merged_at[i] = (seq[i], seq[j], u)
    slots = []
    thick_pairs = []
    thick_edges = []
    i = 0
    while i < len(seq):
        if i in merged_at:
            v1, v2, u = merged_at[i]
            if i + 1 in merged_at:
                raise NotLadderDrawableError(
                    f"overlapping thick merges at {v1},{v2}", violation=(v1, v2)
                )
            slots.append((v1, v2))
            thick_pairs.append((v1, v2))
            thick_edges.append((u, (v1, v2)))
            i += 2
        else:
            slots.append((seq[i],))
            i += 1
    return slots, thick_pairs, thick_edges


def ladder_drawing(g: Graph, r1, r2) -> LadderDrawing:
    """Two-row drawing of a chain pair with vertical segments and thick merges."""
    t = tuple(r1.seq if isinstance(r1, Chain) else r1)
    b = tuple(r2.seq if isinstance(r2, Chain) else r2)
    if set(t) & set(b):
        raise ContractError("ladder chains must be vertex disjoint")
    if not is_induced_path(g, t) or not is_induced_path(g, b):
        raise ContractError("ladder chains must be induced paths")
    index = OrderIndex(g, (t, b))
    _pair_property_check(index)
    bottom_slots, thick_b, edges_b = _merge_slots(index, 1)
    top_slots, thick_t, edges_t = _merge_slots(index, 0)
    slot_of = {}
    for i, s in enumerate(top_slots):
        for v in s:
            slot_of[v] = (0, i)
    for i, s in enumerate(bottom_slots):
        for v in s:
            slot_of[v] = (1, i)
    segments = sorted({(slot_of[u][1], slot_of[v][1]) for u, v in index.cross[0, 1]})
    for (t1, b1), (t2, b2) in itertools.combinations(segments, 2):
        if t1 == t2 or b1 == b2:
            raise InternalLogicError("slot carries two distinct ladder segments")
        if (t1 < t2) != (b1 < b2):
            raise InternalLogicError("ladder segments invert despite property check")
    x_top, x_bottom = _ladder_coordinates(top_slots, bottom_slots, segments)
    return LadderDrawing(
        host=g,
        top=t,
        bottom=b,
        top_slots=tuple(top_slots),
        bottom_slots=tuple(bottom_slots),
        thick_vertices=tuple(thick_t + thick_b),
        thick_edges=tuple(edges_t + edges_b),
        segments=tuple(segments),
        x_top=tuple(x_top),
        x_bottom=tuple(x_bottom),
    )


def _ladder_coordinates(top_slots, bottom_slots, segments):
    """Integer x per slot: matched segment endpoints share x, rows increase."""
    x_top = [None] * len(top_slots)
    x_bottom = [None] * len(bottom_slots)
    if not segments:
        for i in range(len(top_slots)):
            x_top[i] = Fraction(i)
        for i in range(len(bottom_slots)):
            x_bottom[i] = Fraction(i)
        return x_top, x_bottom
    cursor = None
    prev_t = prev_b = -1
    for ti, bi in segments:
        gap_t = ti - prev_t - 1
        gap_b = bi - prev_b - 1
        if cursor is None:
            x_seg = Fraction(max(gap_t, gap_b))
        else:
            x_seg = cursor + max(gap_t, gap_b) + 1
        for step, idx in enumerate(range(prev_t + 1, ti)):
            x_top[idx] = x_seg - (gap_t - step)
        for step, idx in enumerate(range(prev_b + 1, bi)):
            x_bottom[idx] = x_seg - (gap_b - step)
        x_top[ti] = x_seg
        x_bottom[bi] = x_seg
        cursor = x_seg
        prev_t, prev_b = ti, bi
    for step, idx in enumerate(range(prev_t + 1, len(top_slots))):
        x_top[idx] = cursor + step + 1
    for step, idx in enumerate(range(prev_b + 1, len(bottom_slots))):
        x_bottom[idx] = cursor + step + 1
    return x_top, x_bottom


# -- placing the third row ---------------------------------------------------


class _SweepState:
    """Mutable rows-1-and-2 state while the top row is placed left to right."""

    def __init__(self, ladder: LadderDrawing, seq):
        self.host = ladder.host
        self.rows = (tuple(seq), ladder.top, ladder.bottom)
        self.top_slots = list(ladder.top_slots)
        self.bottom_slots = list(ladder.bottom_slots)
        self.x_top = list(ladder.x_top)
        self.x_bottom = list(ladder.x_bottom)
        self.verticals = list(ladder.segments)
        self.slot_of = {}
        for i, s in enumerate(self.top_slots):
            for v in s:
                self.slot_of[v] = (1, i)
        for i, s in enumerate(self.bottom_slots):
            for v in s:
                self.slot_of[v] = (2, i)
        self.placed = []  # (vertex, Fraction x) on row 0, in order

    # slot pseudo ids keep shared-endpoint semantics during construction
    def _points(self):
        pts = {}
        for i, x in enumerate(self.x_top):
            pts[("t", i)] = (x, Fraction(1))
        for i, x in enumerate(self.x_bottom):
            pts[("b", i)] = (x, Fraction(2))
        for v, x in self.placed:
            pts[("z", v)] = (x, Fraction(0))
        return pts

    def _segments(self):
        segs = [(("t", ti), ("b", bi)) for ti, bi in self.verticals]
        for v, _ in self.placed:
            segs.extend(self._down_segments(v))
        return segs

    def _down_segments(self, v):
        # a vertex adjacent to both members of a thick pair yields one segment
        segs = []
        for w in self.host.neighbors(v):
            loc = self.slot_of.get(w)
            if loc is None:
                continue
            row, idx = loc
            seg = (("z", v), ("t", idx) if row == 1 else ("b", idx))
            if seg not in segs:
                segs.append(seg)
        return segs

    def down_targets(self, v):
        """(mid slot indices, long targets) of v; long = (slot idx, side)."""
        mids = []
        longs = []
        for w in self.host.neighbors(v):
            loc = self.slot_of.get(w)
            if loc is None:
                continue
            row, idx = loc
            if row == 1:
                if idx not in mids:
                    mids.append(idx)
            else:
                slot = self.bottom_slots[idx]
                side = slot.index(w) if len(slot) == 2 else None
                if (idx, side) not in longs:
                    longs.append((idx, side))
        return mids, longs

    def strip01_bottoms(self):
        """Row-1 anchor values of all placed top-row segments.

        Yields (value, kind, key): slot anchors for edges into the middle
        row, midpoint anchors for edges through to the bottom row.
        """
        for v, x in self.placed:
            mids, longs = self.down_targets(v)
            for idx in mids:
                yield self.x_top[idx], "slot", idx
            for idx, _ in longs:
                yield (x + self.x_bottom[idx]) / 2, "mid", (v, idx)

    def placed_longs(self):
        for v, x in self.placed:
            _, longs = self.down_targets(v)
            for idx, _ in longs:
                yield v, idx, (x + self.x_bottom[idx]) / 2

    def vertical_xs(self):
        return sorted(self.x_top[ti] for ti, _ in self.verticals)

    def try_place(self, v, x):
        self.placed.append((v, x))
        ok = not _geometry_violations(self._segments(), self._points())
        if not ok:
            self.placed.pop()
        return ok


def _flank_interval(state: _SweepState, w_idx, member_side):
    """Open interval between the verticals flanking a bottom slot."""
    bx = state.x_bottom[w_idx]
    lo, hi = None, None
    for x in state.vertical_xs():
        if x < bx and (lo is None or x > lo):
            lo = x
        if x > bx and (hi is None or x < hi):
            hi = x
    if member_side == 0:
        hi = bx if hi is None else min(hi, bx)
    elif member_side == 1:
        lo = bx if lo is None else max(lo, bx)
    return lo, hi, bx


def _feasible_interval(state: _SweepState, v, prev_x):
    """Exact open interval of workable x positions for v.

    All crossing constraints are linear in x(v): the midpoint of an edge down
    to the bottom row must stay strictly between the flanking verticals,
    strictly above every earlier row-1 anchor, and ordered against earlier
    midpoints the same way the bottom endpoints are ordered.  Returns
    (lo, hi, blocked) where blocked lists the middle-row slots whose edges
    from v would invert an earlier anchor whatever x(v) is.
    """
    mids, longs = state.down_targets(v)
    lows = []
    highs = []
    blocked = []
    if prev_x is not None:
        lows.append(prev_x)
    anchors = list(state.strip01_bottoms())
    for idx in mids:
        ux = state.x_top[idx]
        for value, kind, key in anchors:
            if kind == "slot" and key == idx:
                continue  # fan into the same slot
            if value >= ux:
                blocked.append(ux)  # fixed inversion: only moving the slot helps
    for idx, side in longs:
        lo_f, hi_f, bx = _flank_interval(state, idx, side)
        if lo_f is not None:
            lows.append(2 * lo_f - bx)
        if hi_f is not None:
            highs.append(2 * hi_f - bx)
        for value, _, _ in anchors:
            lows.append(2 * value - bx)
        for _, w_idx, m in state.placed_longs():
            if w_idx == idx:
                continue  # shared bottom endpoint
            if state.x_bottom[w_idx] < bx:
                lows.append(2 * m - bx)
            else:
                highs.append(2 * m - bx)
    lo = max(lows) if lows else None
    hi = min(highs) if highs else None
    return lo, hi, blocked


def _candidate_positions(lo, hi, extra_first=()):
    """Deterministic trial x values inside an open interval, leftmost first.

    Later top-row vertices only ever need room to the right, so the sweep
    prefers the smallest workable position.
    """
    cands = [c for c in extra_first if (lo is None or c > lo) and (hi is None or c < hi)]
    if hi is None:
        base = lo if lo is not None else Fraction(-2)
        steps = (Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 4)
        cands.extend(base + d for d in steps)
    else:
        base = lo if lo is not None else min(hi - 4, Fraction(-2))
        width = hi - base
        for num, den in ((1, 16), (1, 8), (1, 4), (3, 8), (1, 2), (5, 8), (3, 4), (7, 8), (15, 16)):
            cands.append(base + width * Fraction(num, den))
    seen = set()
    out = []
    for c in cands:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _sweep_top_row(ladder: LadderDrawing, seq):
    """Place `seq` as row 0 above the ladder, left to right.

    Each vertex gets the leftmost workable position inside its exact
    feasibility interval.  A vertex with an empty interval, a fixed
    inverted constraint or no candidate that keeps the drawing valid
    raises DrawingConstructionError."""
    state = _SweepState(ladder, seq)
    for v in seq:
        prev_x = state.placed[-1][1] if state.placed else None
        lo, hi, blocked = _feasible_interval(state, v, prev_x)
        if blocked or (lo is not None and hi is not None and lo >= hi):
            raise DrawingConstructionError(f"no feasible position for vertex {v}", vertex=v)
        first = []
        if len(seq) == 1:
            mids, longs = state.down_targets(v)
            first = [state.x_bottom[idx] for idx, _ in longs]
            if not longs and mids:
                # no bottom-row edge to pin vertically: center over the span
                xs = [state.x_top[i] for i in mids]
                first.append((min(xs) + max(xs)) / 2)
        candidates = _candidate_positions(lo, hi, extra_first=first)
        if not any(
            state.try_place(v, x) for x in candidates if prev_x is None or x > prev_x
        ):
            raise DrawingConstructionError(f"no feasible position for vertex {v}", vertex=v)
    return state


def _split_and_finish(state: _SweepState):
    """Split thick slots symmetrically and emit the standard drawing."""
    xs = set(state.x_top) | set(state.x_bottom) | {x for _, x in state.placed}
    for v, zx in state.placed:
        for w in state.host.neighbors(v):
            loc = state.slot_of.get(w)
            if loc and loc[0] == 2:
                xs.add((zx + state.x_bottom[loc[1]]) / 2)
    ordered = sorted(xs)
    gaps = [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
    eps = min(gaps) / 4 if gaps else Fraction(1, 4)
    coords = {}
    for slots, xrow in ((state.top_slots, state.x_top), (state.bottom_slots, state.x_bottom)):
        for slot, x in zip(slots, xrow):
            if len(slot) == 1:
                coords[slot[0]] = x
            else:
                coords[slot[0]] = x - eps
                coords[slot[1]] = x + eps
    for v, x in state.placed:
        coords[v] = x
    drawing = StandardDrawing(rows=state.rows, x=coords, host=state.host)
    report = verify_drawing(state.host, drawing)
    if not report.ok:
        raise InternalLogicError(
            f"constructed drawing failed verification: {report.violations[:3]}"
        )
    return _integer_grid(drawing)


def _integer_grid(d: StandardDrawing) -> StandardDrawing:
    """Affine rescale of x to the smallest integer grid; geometry is preserved."""
    xs = list(d.x.values())
    lo = min(xs)
    denoms = [x.denominator for x in xs]
    scale = lcm(*denoms) if len(denoms) > 1 else denoms[0]
    ints = {v: int((x - lo) * scale) for v, x in d.x.items()}
    g = 0
    for val in ints.values():
        g = gcd(g, val)
    if g > 1:
        ints = {v: val // g for v, val in ints.items()}
    out = StandardDrawing(
        rows=d.rows, x={v: Fraction(val) for v, val in ints.items()}, host=d.host
    )
    report = verify_drawing(d.host, out)
    if not report.ok:
        raise InternalLogicError("integer rescale broke the drawing; affine map bug")
    return out


def place_third(g: Graph, ladder: LadderDrawing, r3) -> StandardDrawing:
    """Extend a ladder drawing by the third chain as the new top row."""
    seq = tuple(r3.seq if isinstance(r3, Chain) else r3)
    if len(seq) == 1:
        deg_into = sum(1 for w in g.neighbors(seq[0]) if w in set(ladder.top) | set(ladder.bottom))
        if deg_into > 2:
            raise ContractError(
                f"singleton third chain {seq[0]} has {deg_into} ladder neighbors (max 2)"
            )
    else:
        violations = check_parallel_properties(g, ladder.top, ladder.bottom, seq)
        if violations:
            raise ContractError(f"parallel-path properties violated: {violations[:3]}")
    return _split_and_finish(_sweep_top_row(ladder, seq))


# -- full pipeline ------------------------------------------------------------


def build_standard_drawing(g: Graph) -> StandardDrawing:
    """Three-row drawing of a graph with maximum degree <= 3 and forcing number 3.

    Pipeline: minimum forcing set, chain extraction, both repairs, then one
    construction for every chain shape: two chains as a ladder, the third
    swept in above it.  The ladder pair is tried both ways up, then each
    other chain as the swept row, up to six row orders in all; the last
    construction error is raised if none of them draws.
    """
    if g.max_degree() > 3:
        raise UnsupportedInputError("standard drawings need maximum degree <= 3")
    k, witness = forcing_number(g)
    if k != 3:
        raise UnsupportedInputError(f"forcing number is {k}, not 3")
    cs = chains_for(g, witness)
    cs = eliminate_bad(cs)
    cs = eliminate_unfavorite(cs)
    p1, p2 = _ladder_pair(g, cs.chains)
    p3 = next(c for c in cs.chains if c is not p1 and c is not p2)
    if not cs.trivial_count():
        violations = check_parallel_properties(g, p1.seq, p2.seq, p3.seq)
        if violations:
            raise InternalLogicError(
                f"repaired chains violate parallel-path properties: {violations[:3]}"
            )
    for top, bottom, swept in sorted(
        itertools.permutations((p1, p2, p3)), key=lambda t: t[2] is not p3
    ):
        try:
            ladder = ladder_drawing(g, top, bottom)
            return _split_and_finish(_sweep_top_row(ladder, swept.seq))
        except (DrawingConstructionError, NotLadderDrawableError) as exc:
            last_error = exc
    raise last_error


def _ladder_pair(g: Graph, chains):
    """The chain pair with the fewest trivial chains, then the most cross
    edges; ties favor smaller head ids."""
    best = None
    for c1, c2 in itertools.combinations(chains, 2):
        count = sum(1 for u in c1.seq for v in g.neighbors(u) if v in c2)
        key = (c1.trivial + c2.trivial, -count, c1.head, c2.head)
        if best is None or key < best[0]:
            best = (key, (c1, c2))
    return best[1]


def build_parallel_drawing(g: Graph) -> StandardDrawing:
    """Drawing with forcing_number(g) rows for any subcubic g with F <= 3."""
    if g.max_degree() > 3:
        raise UnsupportedInputError("parallel drawings need maximum degree <= 3")
    k, witness = forcing_number(g)
    if k == 1:
        cs = chains_for(g, witness)
        seq = cs.chains[0].seq
        d = StandardDrawing(
            rows=(seq,), x={v: Fraction(i) for i, v in enumerate(seq)}, host=g
        )
        report = verify_drawing(g, d)
        if not report.ok:
            raise InternalLogicError(f"path drawing failed: {report.violations}")
        return d
    if k == 2:
        cs = chains_for(g, witness)
        c1, c2 = cs.chains
        xs = {}
        for c in (c1, c2):
            for i, v in enumerate(c.seq):
                xs[v] = Fraction(i)
        d = StandardDrawing(rows=(c1.seq, c2.seq), x=xs, host=g)
        report = verify_drawing(g, d)
        if not report.ok:
            raise InternalLogicError(f"two-row drawing failed: {report.violations[:3]}")
        return d
    if k == 3:
        return build_standard_drawing(g)
    raise UnsupportedInputError(f"forcing number {k} exceeds 3")


# -- best-effort search for general k ----------------------------------------

_SEARCH_CAP = 8


def search_drawing(g: Graph, k, budget=20000):
    """Bounded search for a k-row standard drawing; found results are verified
    exactly, not-found is only advisory.

    Row structures (ordered tuples of induced-path sequences partitioning the
    vertices) are tried in lexicographic order, first on the integer grid,
    then on grids refined to 1/2 and 1/4.  Structures whose equal-span
    segments invert under the fixed row orders are rejected outright, since
    no coordinates can help them.  Every tentative vertex placement costs one
    unit of budget.
    """
    if g.n > _SEARCH_CAP:
        raise UnsupportedSizeError(f"search capped at n = {_SEARCH_CAP}")
    if g.n == 0 or k < 1:
        return None
    remaining = [budget]
    for denom in (1, 2, 4):
        for rows in _row_structures(g, k):
            if remaining[0] <= 0:
                return None
            if _order_forced_inversion(g, rows):
                continue
            d = _grid_realize(g, rows, denom, remaining)
            if d is not None:
                return _integer_grid(d)
    return None


def _order_forced_inversion(g: Graph, rows):
    """True when two segments with the same row span must invert, whatever the
    coordinates, because the row orders already cross them."""
    row_index = {}
    pos = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            row_index[v] = i
            pos[v] = j
    by_span = {}
    for u, v in g.edges:
        ru, rv = row_index[u], row_index[v]
        if ru == rv:
            continue
        if ru > rv:
            u, v = v, u
            ru, rv = rv, ru
        by_span.setdefault((ru, rv), []).append((u, v))
    for segs in by_span.values():
        for (u1, v1), (u2, v2) in itertools.combinations(segs, 2):
            if u1 == u2 or v1 == v2:
                continue
            if (pos[u1] < pos[u2]) != (pos[v1] < pos[v2]):
                return True
    return False


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


_NODE_CAP = 4000


def _grid_realize(g: Graph, rows, denom, remaining):
    """Depth-first x assignment on a fixed grid with incremental exact checks.

    The grid spans [0, 2n] so integer solutions are not squeezed out; each
    structure gets at most _NODE_CAP placements per resolution.
    """
    row_index = {}
    order = []
    for i, row in enumerate(rows):
        for v in row:
            row_index[v] = i
            order.append(v)
    grid = [Fraction(i, denom) for i in range(2 * g.n * denom + 1)]
    coords = {}
    segments = []
    nodes = [min(_NODE_CAP, remaining[0])]

    def place(idx):
        if nodes[0] <= 0:
            return None
        if idx == len(order):
            d = StandardDrawing(rows=tuple(rows), x=dict(coords), host=g)
            return d if verify_drawing(g, d).ok else None
        v = order[idx]
        row = rows[row_index[v]]
        pos_in_row = row.index(v)
        min_x = coords[row[pos_in_row - 1]] if pos_in_row else None
        for x in grid:
            if min_x is not None and x <= min_x:
                continue
            nodes[0] -= 1
            remaining[0] -= 1
            if nodes[0] <= 0 or remaining[0] <= 0:
                return None
            coords[v] = x
            new_segs = [
                (v, w)
                for w in g.neighbors(v)
                if w in coords and row_index[w] != row_index[v]
            ]
            if _partial_ok(new_segs):
                segments.extend(new_segs)
                result = place(idx + 1)
                if result is not None:
                    return result
                del segments[len(segments) - len(new_segs) :]
            del coords[v]
        return None

    def _partial_ok(new_segs):
        pts = {w: (coords[w], Fraction(row_index[w])) for w in coords}
        return not _geometry_violations(segments + new_segs, pts)

    return place(0)


# -- rendering ----------------------------------------------------------------


def render(d: StandardDrawing, fmt="json"):
    """Serialize a verified drawing as svg, dot, or json text."""
    report = verify_drawing(d.host, d)
    if not report.ok:
        raise ContractError(f"refusing to render an invalid drawing: {report.violations[:3]}")
    if fmt == "json":
        return _render_json(d)
    if fmt == "svg":
        return _render_svg(d)
    if fmt == "dot":
        return _render_dot(d)
    raise ContractError(f"unknown render format {fmt!r}")


def drawing_to_json_obj(d: StandardDrawing):
    return {
        "rows": [list(row) for row in d.rows],
        "x": {str(v): f"{x.numerator}/{x.denominator}" for v, x in sorted(d.x.items())},
        "edges": [list(e) for e in d.host.edges],
        "k": d.k,
    }


def drawing_from_json_obj(obj) -> StandardDrawing:
    rows = tuple(tuple(r) for r in obj["rows"])
    n = sum(len(r) for r in rows)
    host = Graph(n, [tuple(e) for e in obj["edges"]])
    x = {}
    for key, val in obj["x"].items():
        num, den = val.split("/")
        x[int(key)] = Fraction(int(num), int(den))
    return StandardDrawing(rows=rows, x=x, host=host)


def _render_json(d):
    import json

    return json.dumps(drawing_to_json_obj(d))


_PX_STEP = 40
_PX_MARGIN = 50


def _render_svg(d):
    grid = _integer_grid(d)
    xs = {v: int(x) for v, x in grid.x.items()}
    width = 2 * _PX_MARGIN + _PX_STEP * (max(xs.values()) if xs else 0)
    height = 2 * _PX_MARGIN + 100 * (len(d.rows) - 1)

    def px(v):
        return _PX_MARGIN + _PX_STEP * xs[v], _PX_MARGIN + 100 * grid.row_of(v)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for u, v in d.host.edges:
        (x1, y1), (x2, y2) = px(u), px(v)
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="2"/>'
        )
    for v in sorted(xs):
        cx, cy = px(v)
        lines.append(f'<circle cx="{cx}" cy="{cy}" r="9" fill="white" stroke="black"/>')
        lines.append(
            f'<text x="{cx}" y="{cy + 4}" font-size="10" text-anchor="middle">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def _render_dot(d):
    grid = _integer_grid(d)
    lines = ["graph drawing {", "  node [shape=circle];"]
    for v in sorted(grid.x):
        x = int(grid.x[v])
        y = len(d.rows) - 1 - grid.row_of(v)
        lines.append(f'  {v} [pos="{x},{y}!"];')
    for u, v in d.host.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
