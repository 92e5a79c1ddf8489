"""Pattern-constrained symmetric matrices and maximum-nullity estimation.

A pattern matrix for a graph has arbitrary diagonal, nonzero entries on
edges, and exact zeros elsewhere; here it is a diagonal and one weight per
edge, in the order of g.edges.  In floats, nonzero is one rule,
`_in_pattern`: every |weight| is at least 0.045 x max(1, ||A||_F), for a
float spectrum cannot tell a weight far below the matrix scale from zero.
The maximum nullity over pattern matrices is bounded above by the forcing
number; numerical lower bounds are produced here by Newton's method on the
cluster of the target smallest eigenvalues, which solves V^T A V = 0 for
their eigenvectors V.  A restart ends when those eigenvalues lie 1000 times
below the certificate's zero threshold, when ||A||_F diverges, or when its
steps run out.  `certify` applies the pattern rule, then checks the nullity
with an in-house Jacobi eigensolver, independent of the LAPACK path used
inside the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailureError, UnsupportedInputError
from .forcing import forcing_number
from .graphs import Graph

TOL_ZERO = 1e-8  # relative zero threshold for nullity counting
GAP_FACTOR = 10  # certified gap must exceed GAP_FACTOR * TOL_ZERO
_FLOOR_CERTIFY = 0.045  # a pattern matrix has every |weight| >= _FLOOR_CERTIFY * max(1, ||A||_F)
DEFAULT_BUDGET = (50, 2000)  # (restarts, Newton steps per restart)
_OPT_CAP = 32  # the size cap of the search and of its certificates
_MG_CHECK_CAP = 12  # forcing-number cross-check cap inside certificates


def edge_ends(g: Graph):
    """Index arrays (us, vs) of the edge endpoints, in the order of g.edges."""
    return tuple(np.array(g.edges, dtype=np.intp).reshape(-1, 2).T)


def assemble(ends, diag, weights):
    """The symmetric matrix with this diagonal and weights[i] on edge i."""
    us, vs = ends
    n = len(diag)
    a = np.zeros((n, n))
    a.reshape(-1)[:: n + 1] = diag
    a[us, vs] = a[vs, us] = weights
    return a


def _frobenius(diag, weights):
    """||A||_F of the pattern matrix with this diagonal and these edge weights."""
    return math.sqrt(diag @ diag + 2.0 * (weights @ weights))


def _in_pattern(diag, weights):
    """Whether every entry is finite and every |weight| is at least
    _FLOOR_CERTIFY * max(1, ||A||_F), the one rule for a float weight to
    count as nonzero; diag and weights are float arrays."""
    norm = _frobenius(diag, weights)  # nan or inf unless every entry is finite
    return math.isfinite(norm) and np.all(np.abs(weights) >= _FLOOR_CERTIFY * max(1.0, norm))


# -- dense symmetric eigensolver (cyclic Jacobi) -----------------------------

_JACOBI_SWEEPS = 100
_JACOBI_TOL = 1e-12


def jacobi_eigenvalues(a):
    """Ascending eigenvalues by cyclic Jacobi rotations.

    Sweeps rotate away every off-diagonal pair until the off-diagonal norm
    drops below 1e-12 times the Frobenius norm; more than 100 sweeps is a
    convergence failure.  The matrix is worked as rows of Python floats: a
    rotation rewrites two columns, then two rows, entry by entry.
    """
    a = np.array(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericalFailureError("matrix contains non-finite entries")
    n = a.shape[0]
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(n)
    threshold = _JACOBI_TOL * norm
    a = a.tolist()
    for _ in range(_JACOBI_SWEEPS):
        # summing the off-diagonal squares directly avoids the catastrophic
        # cancellation of ||M||_F^2 - ||diag||^2 near convergence
        off = sum(x * x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)
        if math.sqrt(off) < threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) < 1e-300:
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                else:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for row in a:
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * y, s * x + c * y
                row_p, row_q = a[p], a[q]
                a[p] = [c * x - s * y for x, y in zip(row_p, row_q)]
                a[q] = [s * x + c * y for x, y in zip(row_p, row_q)]
                a[p][q] = a[q][p] = 0.0
    else:
        raise NumericalFailureError("Jacobi sweeps did not converge in 100 sweeps")
    return np.sort([a[i][i] for i in range(n)])


# -- nullity maximization -----------------------------------------------------

_CONVERGED = 1e-3  # a restart converges below _CONVERGED * TOL_ZERO * max(1, ||A||_F)
_DIVERGED = 1e12  # a restart is abandoned once ||A||_F exceeds this
_FLOOR_REL = 0.05  # Newton moves |weight| below _FLOOR_REL * max(1, ||A||_F) back above it


@dataclass(frozen=True)
class NullityCertificate:
    host: Graph
    diag: tuple
    weights: tuple  # in the order of host.edges
    k: int
    eigenvalues: tuple  # sorted by absolute value
    gap: float

    def to_json_obj(self):
        return {
            "n": self.host.n,
            "edges": [list(e) for e in self.host.edges],
            "diag": list(self.diag),
            "weights": {f"{u}-{v}": w for (u, v), w in zip(self.host.edges, self.weights)},
            "eigenvalues": list(self.eigenvalues),
            "k": self.k,
            "tol_zero": TOL_ZERO,
        }


@dataclass(frozen=True)
class NotAchieved:
    """Why no restart certified the target: `stalled` restarts ended short of
    the zero threshold (diverged or out of steps), and `left_pattern` reached
    it on an iterate that is not a pattern matrix (`_in_pattern`).  `best_k`
    is the largest nullity below the target that a restart's last iterate
    certified."""

    target: int
    best_k: int
    restarts: int
    left_pattern: int
    stalled: int


def certify(g: Graph, diag, weights, target):
    """Numerical certificate for the nullity k of the matrix with this
    diagonal and weights[i] on edge i of g.edges, or None unless it is a
    pattern matrix (`_in_pattern`) and 1 <= k <= target (1 <= target <= n).

    k counts the eigenvalues from the in-house Jacobi solver, not the
    optimizer's LAPACK path, below TOL_ZERO * max(1, ||A||_F).  The next
    smallest |eigenvalue| must be GAP_FACTOR times that threshold or more,
    and k may not exceed the forcing number on subcubic hosts with n <= 12.
    One spectrum decides every k: the k smallest |eigenvalues| below the
    threshold and the next one at GAP_FACTOR times it hold together only when
    k is the count below.  This is a float check, not a proof.
    """
    if not 1 <= target <= g.n:
        raise ContractError(f"target must lie in 1..{g.n}, got {target}")
    if g.n > _OPT_CAP:
        raise UnsupportedInputError(f"nullity certificates capped at n = {_OPT_CAP}")
    if len(diag) != g.n or len(weights) != len(g.edges):
        raise ContractError("need one diagonal entry per vertex and one weight per edge")
    diag, weights = np.array(diag, dtype=float), np.array(weights, dtype=float)
    if not _in_pattern(diag, weights):
        return None
    arr = assemble(edge_ends(g), diag, weights)
    scale = max(1.0, float(np.linalg.norm(arr)))
    by_abs = sorted(jacobi_eigenvalues(arr), key=abs)
    k = sum(1 for lam in by_abs if abs(lam) < TOL_ZERO * scale)
    if not 1 <= k <= target:
        return None
    gap = abs(by_abs[k]) if k < len(by_abs) else math.inf
    if gap < GAP_FACTOR * TOL_ZERO * scale:
        return None
    if g.max_degree() <= 3 and g.n <= _MG_CHECK_CAP:
        if k > forcing_number(g)[0]:
            return None
    diag, weights = tuple(diag.tolist()), tuple(weights.tolist())
    return NullityCertificate(g, diag, weights, k, eigenvalues=tuple(by_abs), gap=gap)


def _jacobian(ends, vecs, pairs):
    """d(V^T A V)_ij / dx for the pairs (i, j) of V's columns, given as the
    index arrays of np.triu_indices(V.shape[1]), over x = (diag, weights):
    diagonal entry p contributes V[p,i] V[p,j], and edge (u, v), which
    occupies two symmetric entries, V[u,i] V[v,j] + V[v,i] V[u,j].  At an
    eigenvector pair the diagonal rows are the gradients of the eigenvalues."""
    us, vs = ends
    i, j = pairs
    vi, vj = vecs[:, i], vecs[:, j]
    return np.concatenate([vi * vj, vi[us] * vj[vs] + vi[vs] * vj[us]]).T


def _descent(ends, diag, weights, target, iters):
    """Newton's method on V^T A(x) V = 0 (Friedland, Nocedal & Overton, 1987).

    V holds the eigenvectors of the target smallest |eigenvalues| of A(x).
    Each step takes the minimum-norm least-squares dx that zeroes the
    linearized V^T A V, with one extra row per edge weight below the floor
    _FLOOR_REL * max(1, ||A||_F) that moves it to 1.05 times the floor.
    Returns (diag, weights, converged) for the last iterate.  The restart
    ends, converged, once every selected |eigenvalue| is below
    _CONVERGED * TOL_ZERO * max(1, ||A||_F); once ||A||_F exceeds _DIVERGED;
    or after iters steps.
    """
    n = len(diag)
    x = np.concatenate([diag, weights])
    pairs = i, j = np.triu_indices(target)
    for _ in range(iters):
        norm = _frobenius(x[:n], x[n:])
        if not norm <= _DIVERGED:  # also catches nan
            break
        scale = max(1.0, norm)
        vals, vecs = np.linalg.eigh(assemble(ends, x[:n], x[n:]))
        selected = np.argsort(np.abs(vals))[:target]
        if np.all(np.abs(vals[selected]) < _CONVERGED * TOL_ZERO * scale):
            return x[:n], x[n:], True
        floor = _FLOOR_REL * scale
        low = n + np.flatnonzero(np.abs(x[n:]) < floor)
        rows = np.concatenate([_jacobian(ends, vecs[:, selected], pairs), np.eye(len(x))[low]])
        rhs = np.concatenate([
            np.where(i == j, -vals[selected][i], 0.0),
            np.copysign(1.05 * floor, x[low]) - x[low],
        ])
        x = x + np.linalg.lstsq(rows, rhs, rcond=None)[0]
    return x[:n], x[n:], False


def maximize_nullity(g: Graph, target, budget=DEFAULT_BUDGET, seed=0):
    """Lower-bound search: drive the target smallest eigenvalues to zero.

    Runs Newton's method on V^T A V = 0 from random starts with restart seeds
    seed, seed+1, ...; budget is (restarts, Newton steps per restart).  A
    restart's last iterate is certified once, if it is a pattern matrix
    (`_in_pattern`); a converged one that is not counts as left_pattern.
    Returns the first certificate reaching the target, else NotAchieved with
    the best certified k seen.  A certificate is numerical, not a proof (see
    `certify` for what it checks); failure proves nothing.
    """
    if g.n > _OPT_CAP:
        raise UnsupportedInputError(f"nullity optimization capped at n = {_OPT_CAP}")
    if not 1 <= target <= g.n:
        raise ContractError(f"target must lie in 1..{g.n}")
    restarts, iters = budget
    ends = edge_ends(g)
    m = len(g.edges)
    best_k = left_pattern = stalled = 0
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        diag = rng.uniform(-1.0, 1.0, g.n)
        weights = rng.uniform(0.5, 1.5, m) * rng.choice([-1.0, 1.0], m)
        diag, weights, converged = _descent(ends, diag, weights, target, iters)
        stalled += not converged
        # certify refuses an iterate outside the pattern too; here it counts as left_pattern
        if not _in_pattern(diag, weights):
            left_pattern += converged
            continue
        cert = certify(g, diag, weights, target)
        if cert is not None:
            if cert.k == target:
                return cert
            best_k = max(best_k, cert.k)
    return NotAchieved(target, best_k, restarts, left_pattern, stalled)


# -- the degree-three family with forcing number 3 and nullity 2 -------------


def is_figure8(g: Graph):
    """Whether g is a 5-cycle whose every vertex carries one pendant path.

    Such a graph is connected with as many edges as vertices, so it has one
    cycle, and its maximum degree is 3.  Its five degree-3 vertices are the
    cycle, each adjacent to two of the others.  Conversely, five vertices
    that each have two neighbors among themselves form a 5-cycle, the one
    cycle of g, and every other vertex has degree at most 2, so what hangs
    off each cycle vertex is one path.
    """
    if g.edge_count != g.n or not g.is_connected() or g.max_degree() > 3:
        return False
    hubs = [v for v in range(g.n) if g.degree(v) == 3]
    return len(hubs) == 5 and all(sum(g.adjacent(v, w) for w in hubs) == 2 for v in hubs)


# -- classification ------------------------------------------------------------


TAG_PATH = "Path_FM1"
TAG_TWO = "TwoParallel_FM2"
TAG_FIG8 = "Figure8_F3M2"
TAG_THREE = "ThreeParallel_FM3"
TAG_BEYOND = "Beyond"


@dataclass(frozen=True)
class Classification:
    tag: str
    f: int
    m: int | None

    def to_json_obj(self):
        return {"tag": self.tag, "f": self.f, "m": self.m}


def classify(g: Graph) -> Classification:
    """Forcing number and exact maximum nullity for subcubic graphs with F <= 3."""
    f = forcing_number(g)[0]
    if g.max_degree() > 3 or f >= 4:
        return Classification(tag=TAG_BEYOND, f=f, m=None)
    if f == 1:
        return Classification(tag=TAG_PATH, f=f, m=1)
    if f == 2:
        return Classification(tag=TAG_TWO, f=f, m=2)
    if is_figure8(g):
        return Classification(tag=TAG_FIG8, f=f, m=2)
    return Classification(tag=TAG_THREE, f=f, m=3)
