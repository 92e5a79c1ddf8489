"""Shared test oracles, deliberately independent of the library internals,
and the finite-difference check of the nullity search's Jacobian."""

import itertools
import os
import random
from fractions import Fraction
from math import ceil, floor, gcd, lcm

import numpy as np
import pytest

from zfpaths.graphs import Graph, encode_graph6, read_graph6_file
from zfpaths.nullity import _jacobian, assemble, edge_ends


def sequential_closure(g: Graph, colored):
    """Greedy one-force-at-a-time closure; the independent schedule oracle."""
    colored = set(colored)
    while True:
        fired = False
        for u in sorted(colored):
            uncolored = [v for v in g.neighbors(u) if v not in colored]
            if len(uncolored) == 1:
                colored.add(uncolored[0])
                fired = True
                break
        if not fired:
            return frozenset(colored)


def brute_drawing_ok(g: Graph, d):
    """Validity of a drawing from the definition; the verifier's oracle.

    The rows must partition the vertices into non-empty induced paths with
    x strictly increasing along each.  Vertex v sits at (x[v], row of v).
    Two cross-row segments P + t(Q - P) and R + s(S - R), 0 <= t, s <= 1,
    may meet only at an end they share, and no vertex may lie on a segment
    it does not end.
    """
    rows = [tuple(row) for row in d.rows]
    if sorted(v for row in rows for v in row) != list(range(g.n)) or not all(rows):
        return False
    if any(v not in d.x for v in range(g.n)):
        return False
    edges = {frozenset(e) for e in g.edges}
    for row in rows:
        for i, j in itertools.combinations(range(len(row)), 2):
            if (frozenset((row[i], row[j])) in edges) != (j == i + 1):
                return False
        if any(not d.x[u] < d.x[v] for u, v in zip(row, row[1:])):
            return False
    at = {v: (Fraction(d.x[v]), Fraction(i)) for i, row in enumerate(rows) for v in row}
    row_of = {v: i for i, row in enumerate(rows) for v in row}
    segments = [(u, v) for u, v in g.edges if row_of[u] != row_of[v]]

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1])

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    def params_on(p, q, w):
        """t with w = p + t(q - p), or None when w is off the line."""
        dv, rel = sub(q, p), sub(w, p)
        return dot(rel, dv) / dot(dv, dv) if cross(rel, dv) == 0 else None

    for u, v in segments:
        for w in range(g.n):
            t = params_on(at[u], at[v], at[w])
            if w not in (u, v) and t is not None and 0 <= t <= 1:
                return False
    for (a, b), (c, e) in itertools.combinations(segments, 2):
        p, q, r, s = at[a], at[b], at[c], at[e]
        dv, ev, rp = sub(q, p), sub(s, r), sub(r, p)
        det = cross(dv, ev)
        if det:
            t, t2 = cross(rp, ev) / det, cross(rp, dv) / det
            if not (0 <= t <= 1 and 0 <= t2 <= 1):
                continue
            lo = hi = t
        elif cross(rp, dv) == 0:
            # collinear: the parameter interval of the second segment on the first
            tr, ts = params_on(p, q, r), params_on(p, q, s)
            lo, hi = max(0, min(tr, ts)), min(1, max(tr, ts))
            if lo > hi:
                continue
        else:
            continue
        if lo < hi:
            return False
        meet = (p[0] + lo * dv[0], p[1] + lo * dv[1])
        if not any(at[w] == meet for w in {a, b} & {c, e}):
            return False
    return True


def fraction_solve(n, inequalities):
    """Fourier–Motzkin elimination in Fractions, then x shifted so its least
    value is 0 and scaled onto the smallest integer grid; the oracle of the
    integer `drawing._solve`, which must return the same x, or None with it.

    Each stage eliminates the remaining variable i with the least
    (growth, i), where growth is how many more rows its elimination leaves
    than it takes.  Back-substitution puts each variable at floor(lo) + 1,
    else ceil(hi) - 1, when that lies inside the open interval (lo, hi) left
    by its stage's rows, else at the midpoint, and at 0 when it has no bound.
    """

    def primitive(a):
        d = gcd(*a)
        return tuple(c // d for c in a) if d else None

    def growth(rows, i):
        pos = sum(1 for a in rows if a[i] > 0)
        neg = sum(1 for a in rows if a[i] < 0)
        return pos * neg - pos - neg

    current = {primitive(a) for a in inequalities}
    if None in current:
        return None
    stages, remaining = [], set(range(n))
    while remaining:
        i = min(remaining, key=lambda i: (growth(current, i), i))
        remaining.remove(i)
        stages.append((i, current))
        nxt = {a for a in current if not a[i]}
        for p in (a for a in current if a[i] > 0):
            for q in (a for a in current if a[i] < 0):
                c = primitive(tuple(p[i] * qk - q[i] * pk for pk, qk in zip(p, q)))
                if c is None:
                    return None
                nxt.add(c)
        current = nxt
    x = [Fraction(0)] * n
    for i, stage in reversed(stages):
        lo = hi = None
        for a in stage:
            if a[i]:
                bound = Fraction(-sum(c * x[k] for k, c in enumerate(a) if c), a[i])
                if a[i] > 0:
                    lo = bound if lo is None else max(lo, bound)
                else:
                    hi = bound if hi is None else min(hi, bound)
        if lo is not None:
            x[i] = Fraction(floor(lo) + 1)
        elif hi is not None:
            x[i] = Fraction(ceil(hi) - 1)
        if hi is not None and not x[i] < hi:
            x[i] = (lo + hi) / 2
    least = min(x, default=0)
    scale = lcm(*(v.denominator for v in x))
    ints = [int((v - least) * scale) for v in x]
    step = gcd(*ints) or 1
    return [v // step for v in ints]


def brute_canonical_form(g: Graph):
    """Minimum graph6 encoding over all n! relabelings; the canonical-form oracle."""
    return min(encode_graph6(g.relabel(p)) for p in itertools.permutations(range(g.n)))


def subcubic_n8():
    """One connected subcubic graph per class with n = 1..8, 307 in all, frozen
    in a file so that digests taken over them do not move when the
    enumeration's representatives or order change."""
    return read_graph6_file(os.path.join(os.path.dirname(__file__), "data", "subcubic_n8.g6"))


def random_graph(rng: random.Random, n, p=0.4, max_degree=None):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    g = Graph(n, edges)
    if max_degree is not None:
        while g.max_degree() > max_degree:
            victims = [e for e in g.edges if g.degree(e[0]) > max_degree or g.degree(e[1]) > max_degree]
            e = rng.choice(victims)
            g = Graph(n, [x for x in g.edges if x != e])
    return g


def eigenvalue_gradient_errors(nprng, pool, points=100, h=1e-5):
    """Vector-relative distance between the diagonal rows (i, i) of the
    Jacobian `_jacobian` returns for the selected eigenvectors and central
    finite differences of the selected eigenvalues lambda_i, at `points`
    random points.

    The target is drawn from 1..n, and the selected eigenvalues are the
    target smallest in absolute value, as in the Newton step.  A point is
    skipped where they are not smooth: two eigenvalues within 1e-3, or the
    target-th and (target+1)-th smallest |eigenvalues| within 1e-3.  The
    perturbed eigenvalues are matched by ascending position, which is stable
    under steps of h when no two eigenvalues lie within 1e-3.
    """
    errors = []
    while len(errors) < points:
        g = pool[nprng.integers(len(pool))]
        ends, m = edge_ends(g), len(g.edges)
        diag = nprng.uniform(-1, 1, g.n)
        w = nprng.uniform(0.5, 1.5, m) * nprng.choice([-1.0, 1.0], m)
        target = int(nprng.integers(1, g.n + 1))
        vals, vecs = np.linalg.eigh(assemble(ends, diag, w))
        by_abs = np.sort(np.abs(vals))
        if np.min(np.diff(vals)) < 1e-3:
            continue
        if target < g.n and by_abs[target] - by_abs[target - 1] < 1e-3:
            continue
        selected = np.argsort(np.abs(vals))[:target]
        i, j = pairs = np.triu_indices(target)
        analytic = _jacobian(ends, vecs[:, selected], pairs)[i == j]
        x = np.concatenate([diag, w])
        fd = np.empty(analytic.shape)
        for c in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[c] += h
            xm[c] -= h
            fp = np.linalg.eigvalsh(assemble(ends, xp[: g.n], xp[g.n :]))[selected]
            fm = np.linalg.eigvalsh(assemble(ends, xm[: g.n], xm[g.n :]))[selected]
            fd[:, c] = (fp - fm) / (2 * h)
        errors.append(np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(fd)))
    return errors


@pytest.fixture
def rng():
    return random.Random(20240811)
