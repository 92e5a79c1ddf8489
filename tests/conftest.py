"""Shared test oracles, deliberately independent of the library internals,
and the finite-difference check of the nullity objective."""

import itertools
import random

import numpy as np
import pytest

from zfpaths.graphs import Graph, encode_graph6
from zfpaths.nullity import _objective, assemble, edge_ends


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


def brute_canonical_form(g: Graph):
    """Minimum graph6 encoding over all n! relabelings; the canonical-form oracle."""
    return min(encode_graph6(g.relabel(p)) for p in itertools.permutations(range(g.n)))


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


def objective_gradient_errors(nprng, pool, points=100, h=1e-5):
    """Vector-relative distance between the gradient `_objective` returns and
    central finite differences of its value, at `points` random points.

    The target is drawn from 1..n.  A point is skipped where the objective is
    not smooth: two eigenvalues within 1e-3, or the target-th and
    (target+1)-th smallest |eigenvalues| within 1e-3.  Every second point has
    one edge weight of magnitude in [2e-4, 8e-4], below the pattern floor
    of 0.05 * max(1, ||A||_F), so both the penalty and the floor's
    dependence on ||A||_F are checked.
    """
    errors = []
    while len(errors) < points:
        g = pool[nprng.integers(len(pool))]
        ends, m = edge_ends(g), len(g.edges)
        diag = nprng.uniform(-1, 1, g.n)
        w = nprng.uniform(0.5, 1.5, m) * nprng.choice([-1.0, 1.0], m)
        if len(errors) % 2:
            i = nprng.integers(m)
            w[i] = np.copysign(nprng.uniform(2e-4, 8e-4), w[i])
        target = int(nprng.integers(1, g.n + 1))
        vals = np.linalg.eigvalsh(assemble(ends, diag, w))
        by_abs = np.sort(np.abs(vals))
        if np.min(np.diff(vals)) < 1e-3:
            continue
        if target < g.n and by_abs[target] - by_abs[target - 1] < 1e-3:
            continue
        x = np.concatenate([diag, w])
        _, gd, gw = _objective(ends, diag, w, target)
        fd = np.empty(len(x))
        for j in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fp = _objective(ends, xp[: g.n], xp[g.n :], target)[0]
            fm = _objective(ends, xm[: g.n], xm[g.n :], target)[0]
            fd[j] = (fp - fm) / (2 * h)
        analytic = np.concatenate([gd, gw])
        errors.append(np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(fd)))
    return errors


@pytest.fixture
def rng():
    return random.Random(20240811)
