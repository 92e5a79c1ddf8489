"""Pattern-constrained symmetric matrices and maximum-nullity estimation.

A pattern matrix for a graph has arbitrary diagonal, nonzero entries on
edges, and exact zeros elsewhere.  The maximum nullity over such matrices
is bounded above by the forcing number; numerical lower bounds are produced
here by Newton's method on the cluster of the target smallest eigenvalues,
which solves V^T A V = 0 for their eigenvectors V.  A restart ends when those
eigenvalues lie 1000 times below the certificate's zero threshold, when
||A||_F diverges, or when its steps run out.  Its last iterate is certified
only if every edge weight clears a hard floor relative to the matrix scale:
without it Newton converges onto near-boundary matrices that the float
certificate cannot tell from pattern matrices.  Certificates are checked with
an in-house Jacobi eigensolver, independent of the LAPACK path used inside
the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailureError, UnsupportedSizeError
from .forcing import forcing_number
from .graphs import Graph

EDGE_MIN = 1e-3  # pattern membership: |weight| >= EDGE_MIN
TOL_ZERO = 1e-8  # relative zero threshold for nullity counting
GAP_FACTOR = 10  # certified gap must exceed GAP_FACTOR * TOL_ZERO
_MG_CHECK_CAP = 12  # forcing-number cross-check cap inside certificates


@dataclass(frozen=True)
class PatternMatrix:
    host: Graph
    diag: tuple
    weights: dict  # (u, v) with u < v -> nonzero weight

    def __post_init__(self):
        if len(self.diag) != self.host.n:
            raise ContractError("diagonal length must equal the vertex count")
        if set(self.weights) != set(self.host.edges):
            raise ContractError("weights must cover exactly the host's edges")
        small = [e for e, w in self.weights.items() if abs(w) < EDGE_MIN]
        if small:
            raise ContractError(f"edge weights below {EDGE_MIN}: {small}")

    def as_array(self):
        weights = [self.weights[e] for e in self.host.edges]
        return assemble(edge_ends(self.host), self.diag, weights)


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


# -- dense symmetric eigensolver (cyclic Jacobi) -----------------------------

_SPECTRUM_CAP = 64
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

_OPT_CAP = 32
_CONVERGED = 1e-3  # a restart converges below _CONVERGED * TOL_ZERO * max(1, ||A||_F)
_DIVERGED = 1e12  # a restart is abandoned once ||A||_F exceeds this
_FLOOR_REL = 0.05  # Newton moves |weight| below _FLOOR_REL * max(1, ||A||_F) back above it
_FLOOR_CERTIFY = 0.045  # certify only if every |weight| >= _FLOOR_CERTIFY * max(1, ||A||_F)


@dataclass(frozen=True)
class NullityCertificate:
    matrix: PatternMatrix
    k: int
    eigenvalues: tuple  # sorted by absolute value
    gap: float

    def to_json_obj(self):
        pm = self.matrix
        return {
            "n": pm.host.n,
            "edges": [list(e) for e in pm.host.edges],
            "diag": list(pm.diag),
            "weights": {f"{u}-{v}": w for (u, v), w in sorted(pm.weights.items())},
            "eigenvalues": list(self.eigenvalues),
            "k": self.k,
            "tol_zero": TOL_ZERO,
        }


@dataclass(frozen=True)
class NotAchieved:
    """Why no restart certified the target: `stalled` restarts ended short of
    the zero threshold (diverged or out of steps), and `left_pattern` reached
    it on an iterate below the hard weight floor.  `best_k` is the largest
    nullity below the target that a restart's last iterate certified."""

    target: int
    best_k: int
    restarts: int
    left_pattern: int
    stalled: int


def certify(pm: PatternMatrix, target):
    """Numerical certificate for the nullity k that pm shows, or None unless
    1 <= k <= target (1 <= target <= n).

    k counts the eigenvalues from the in-house Jacobi solver, not the
    optimizer's LAPACK path, below TOL_ZERO * max(1, ||A||_F).  The next
    smallest |eigenvalue| must be GAP_FACTOR times that threshold or more,
    and k may not exceed the forcing number on subcubic hosts with n <= 12.
    One spectrum decides every k: the k smallest |eigenvalues| below the
    threshold and the next one at GAP_FACTOR times it hold together only when
    k is the count below.  This is a float check, not a proof.
    """
    if not 1 <= target <= pm.host.n:
        raise ContractError(f"target must lie in 1..{pm.host.n}, got {target}")
    if pm.host.n > _SPECTRUM_CAP:
        raise UnsupportedSizeError(f"spectrum capped at n = {_SPECTRUM_CAP}")
    arr = pm.as_array()
    scale = max(1.0, float(np.linalg.norm(arr)))
    by_abs = sorted(jacobi_eigenvalues(arr), key=abs)
    k = sum(1 for lam in by_abs if abs(lam) < TOL_ZERO * scale)
    if not 1 <= k <= target:
        return None
    gap = abs(by_abs[k]) if k < len(by_abs) else math.inf
    if gap < GAP_FACTOR * TOL_ZERO * scale:
        return None
    if pm.host.max_degree() <= 3 and pm.host.n <= _MG_CHECK_CAP:
        if k > forcing_number(pm.host)[0]:
            return None
    return NullityCertificate(matrix=pm, k=k, eigenvalues=tuple(by_abs), gap=gap)


def _frobenius(diag, weights):
    """||A||_F of the pattern matrix with this diagonal and these edge weights."""
    return math.sqrt(diag @ diag + 2.0 * (weights @ weights))


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


def maximize_nullity(g: Graph, target, budget=(50, 2000), seed=0):
    """Lower-bound search: drive the target smallest eigenvalues to zero.

    Runs Newton's method on V^T A V = 0 from random starts with restart seeds
    seed, seed+1, ...; budget is (restarts, Newton steps per restart).  A
    restart's last iterate is certified once, if it is finite and every edge
    weight is at least EDGE_MIN and _FLOOR_CERTIFY * max(1, ||A||_F).
    Returns the first certificate reaching the target, else NotAchieved with
    the best certified k seen.  A certificate is numerical, not a proof (see
    `certify` for what it checks); failure proves nothing.
    """
    if g.n > _OPT_CAP:
        raise UnsupportedSizeError(f"nullity optimization capped at n = {_OPT_CAP}")
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
        # the hard floor: without it Newton converges onto near-boundary
        # matrices whose small weights the float certificate cannot tell
        # from zeros, and forges nullity 3 on figure-8 graphs
        norm = _frobenius(diag, weights)  # nan or inf unless the iterate is finite
        floor = max(EDGE_MIN, _FLOOR_CERTIFY * max(1.0, norm))
        if not (math.isfinite(norm) and np.all(np.abs(weights) >= floor)):
            left_pattern += converged
            continue
        weights_by_edge = dict(zip(g.edges, map(float, weights)))
        pm = PatternMatrix(host=g, diag=tuple(map(float, diag)), weights=weights_by_edge)
        cert = certify(pm, target)
        if cert is not None:
            if cert.k == target:
                return cert
            best_k = max(best_k, cert.k)
    return NotAchieved(
        target=target, best_k=best_k, restarts=restarts, left_pattern=left_pattern, stalled=stalled
    )


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
