import itertools
import math
import random
import warnings

import numpy as np
import pytest

import zfpaths.nullity as nullity
from conftest import eigenvalue_gradient_errors
from zfpaths.errors import ContractError, NumericalFailureError, UnsupportedSizeError
from zfpaths.forcing import forcing_number
from zfpaths.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_connected_subcubic,
    fig8_graph,
    path_graph,
)
from zfpaths.nullity import (
    _CONVERGED,
    _FLOOR_CERTIFY,
    TOL_ZERO,
    Classification,
    NotAchieved,
    NullityCertificate,
    _jacobian,
    assemble,
    certify,
    classify,
    edge_ends,
    is_figure8,
    jacobi_eigenvalues,
    maximize_nullity,
)


def unit_pattern(g, diag=0.0):
    """(g, diagonal, weights) of the matrix with this constant diagonal and
    weight 1 on every edge, as `certify` takes them."""
    return g, (diag,) * g.n, (1.0,) * len(g.edges)


def unit_matrix(g, diag=0.0):
    return assemble(edge_ends(g), *unit_pattern(g, diag)[1:])


# -- pattern matrices -----------------------------------------------------------


def test_certify_checks_the_pattern():
    with pytest.raises(ContractError):
        certify(path_graph(2), (0.0, 0.0), (), 1)
    with pytest.raises(ContractError):
        certify(path_graph(2), (0.0,), (1.0,), 1)
    # a weight far below the matrix scale counts as zero, and a non-finite
    # entry leaves the pattern
    assert certify(path_graph(2), (0.0, 0.0), (1e-9,), 1) is None
    assert certify(path_graph(2), (0.0, math.nan), (1.0,), 1) is None


@pytest.mark.parametrize("b, k", [(0.06, None), (0.07, 1)])
def test_certify_pattern_boundary_on_p3(b, k):
    # ||A||_F = sqrt(2 (1 + b^2)) is about 1.417, so the floor 0.045 ||A||_F
    # is about 0.0638: b = 0.06 lies below it and b = 0.07 above
    cert = certify(path_graph(3), (0.0, 0.0, 0.0), (1.0, b), 3)
    assert (None if cert is None else cert.k) == k


# -- Jacobi spectrum ---------------------------------------------------------------


def test_spectrum_p3():
    vals = jacobi_eigenvalues(unit_matrix(path_graph(3)))
    expected = (-math.sqrt(2), 0.0, math.sqrt(2))
    assert all(abs(a - b) < 1e-10 for a, b in zip(vals, expected))


def test_spectrum_c4():
    vals = jacobi_eigenvalues(unit_matrix(cycle_graph(4)))
    assert all(abs(a - b) < 1e-10 for a, b in zip(vals, (-2.0, 0.0, 0.0, 2.0)))


def test_spectrum_diagonal_only():
    a = assemble(edge_ends(Graph(3)), (2.0, -1.0, 0.5), ())
    assert tuple(jacobi_eigenvalues(a)) == (-1.0, 0.5, 2.0)


def test_jacobi_matches_lapack_on_random_symmetric(rng):
    nprng = np.random.default_rng(5)
    for t in range(72):
        n = 1 + t % 12
        a = nprng.normal(size=(n, n))
        if t % 3 == 0:  # exact zeros exercise the rotation skip, as pattern matrices do
            a[nprng.random((n, n)) < 0.5] = 0.0
        a = (a + a.T) / 2
        mine = jacobi_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        assert np.max(np.abs(mine - ref)) < 1e-9


def test_jacobi_repeated_eigenvalues_of_pattern_matrices():
    # unit C4 has spectrum (-2, 0, 0, 2) and the all-ones K4 (0, 0, 0, 4)
    cases = ((cycle_graph(4), 0.0, (-2, 0, 0, 2)), (complete_graph(4), 1.0, (0, 0, 0, 4)))
    for g, diag, expected in cases:
        a = unit_matrix(g, diag=diag)
        assert np.max(np.abs(jacobi_eigenvalues(a) - expected)) < 1e-12
        assert np.max(np.abs(jacobi_eigenvalues(a) - np.linalg.eigvalsh(a))) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_jacobi_rejects_non_finite_entries(bad):
    a = unit_matrix(cycle_graph(4))
    a[1, 2] = a[2, 1] = bad
    with pytest.raises(NumericalFailureError):
        jacobi_eigenvalues(a)


def test_nullity_counts():
    # a target of n leaves k to the count below the zero threshold
    assert certify(*unit_pattern(path_graph(3)), 3).k == 1
    assert certify(*unit_pattern(cycle_graph(4)), 4).k == 2
    assert certify(*unit_pattern(Graph(3), diag=1.0), 3) is None  # nullity 0


def test_spectrum_size_cap():
    with pytest.raises(UnsupportedSizeError):
        certify(*unit_pattern(Graph(33)), 1)


# -- gradients -----------------------------------------------------------------------


def test_eigenvalue_gradient_matches_finite_differences():
    errors = eigenvalue_gradient_errors(
        np.random.default_rng(42), enumerate_connected_subcubic(6)
    )
    assert len(errors) == 100 and max(errors) <= 1e-5


def _jacobian_by_loops(g, vecs):
    """d(V^T A V)_ij / dx one eigenvector pair and one coordinate at a time:
    coordinate c of x = (diag, weights) moves A by the matrix that
    `assemble` builds from the unit vector e_c, so its column is
    V[:, i]^T E_c V[:, j]."""
    ends, n, t = edge_ends(g), g.n, vecs.shape[1]
    rows = []
    for i in range(t):
        for j in range(i, t):
            row = []
            for c in range(n + len(g.edges)):
                unit = np.zeros(n + len(g.edges))
                unit[c] = 1.0
                row.append(vecs[:, i] @ assemble(ends, unit[:n], unit[n:]) @ vecs[:, j])
            rows.append(row)
    return np.array(rows)


def test_jacobian_matches_loop_reference():
    # covers what finite differences cannot: off-diagonal pairs, and clusters
    # of equal eigenvalues, whose eigenvectors are any basis of the cluster
    nprng = np.random.default_rng(7)
    pool = list(enumerate_connected_subcubic(6)) + [cycle_graph(4), complete_graph(4)]
    for t in range(200):
        g = pool[nprng.integers(len(pool))]
        m = len(g.edges)
        diag = nprng.uniform(-1, 1, g.n)
        w = nprng.uniform(0.5, 1.5, m) * nprng.choice([-1.0, 1.0], m)
        if t % 2:  # unit patterns with a constant diagonal have repeated eigenvalues
            diag, w = np.full(g.n, float(nprng.integers(-1, 2))), np.sign(w)
        vals, vecs = np.linalg.eigh(assemble(edge_ends(g), diag, w))
        target = int(nprng.integers(1, g.n + 1))
        v = vecs[:, np.argsort(np.abs(vals))[:target]]
        got = _jacobian(edge_ends(g), v, np.triu_indices(target))
        assert got.shape == (target * (target + 1) // 2, g.n + m)
        assert np.allclose(got, _jacobian_by_loops(g, v), rtol=1e-12, atol=1e-12)


# -- the optimizer ----------------------------------------------------------------------


def test_maximize_nullity_on_paths():
    for n in (3, 4, 5, 6):
        result = maximize_nullity(path_graph(n), 1, budget=(10, 800), seed=1)
        assert isinstance(result, NullityCertificate)
        assert result.k == 1


def test_maximize_nullity_c4_target_two():
    result = maximize_nullity(cycle_graph(4), 2, budget=(10, 800), seed=1)
    assert isinstance(result, NullityCertificate)
    assert result.k == 2
    assert result.gap >= 10 * TOL_ZERO


def test_maximize_nullity_k4_target_three():
    result = maximize_nullity(complete_graph(4), 3, budget=(10, 1000), seed=1)
    assert isinstance(result, NullityCertificate)
    assert result.k == 3


def _converged(a, target):
    """Every one of the target smallest |eigenvalues| of a lies below the
    threshold at which a Newton restart stops."""
    by_abs = np.sort(np.abs(np.linalg.eigvalsh(a)))
    return by_abs[target - 1] < _CONVERGED * TOL_ZERO * max(1.0, np.linalg.norm(a))


@pytest.mark.parametrize("g, target", [(complete_graph(4), 3), (cycle_graph(4), 2)])
def test_restart_ends_at_the_convergence_threshold(monkeypatch, g, target):
    # each Newton step assembles its iterate once, so the matrices assembled
    # inside a restart are its iterates in order
    iterates, returned = [], []
    assemble_, descent = nullity.assemble, nullity._descent

    def record_assemble(ends, diag, weights):
        iterates[-1].append(assemble_(ends, diag, weights))
        return iterates[-1][-1]

    def record_descent(*args):
        iterates.append([])
        monkeypatch.setattr(nullity, "assemble", record_assemble)
        returned.append(descent(*args))
        monkeypatch.setattr(nullity, "assemble", assemble_)
        return returned[-1]

    monkeypatch.setattr(nullity, "_descent", record_descent)
    result = maximize_nullity(g, target, budget=(10, 1000), seed=1)
    assert isinstance(result, NullityCertificate) and result.k == target
    assert len(returned) == 1  # certified on restart 1
    diag, weights, converged = returned[0]
    assert converged and len(iterates[0]) > 1
    assert np.array_equal(assemble_(edge_ends(g), diag, weights), iterates[0][-1])
    assert _converged(iterates[0][-1], target)
    assert not any(_converged(a, target) for a in iterates[0][:-1])


def test_diverging_restarts_raise_no_warning():
    # every figure-8 target-3 restart runs ||A||_F past the divergence stop;
    # the stop comes before any product can overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = maximize_nullity(fig8_graph((1, 1, 1, 1, 1)), 3, budget=(50, 2000), seed=2024)
    assert isinstance(result, NotAchieved)
    assert result.stalled + result.left_pattern == result.restarts


def test_certify_and_the_search_refuse_a_near_boundary_forgery(monkeypatch):
    # a nullity-3 matrix of the figure-8 graph minus edge e, scaled by 1e12,
    # with weight 1 on e: every weight is nonzero, yet the graph has M = 2;
    # its three smallest eigenvalues are below certify's zero threshold, and
    # weight 1 lies far below the floor 0.045 ||A||_F
    g = fig8_graph((1, 1, 1, 1, 1))
    e = g.edges[0]
    tree = maximize_nullity(Graph(g.n, [f for f in g.edges if f != e]), 3, seed=0)
    tree_weights = dict(zip(tree.host.edges, tree.weights))
    diag = 1e12 * np.array(tree.diag)
    weights = np.array([1.0 if f == e else 1e12 * tree_weights[f] for f in g.edges])
    a = assemble(edge_ends(g), diag, weights)
    assert np.sort(np.abs(jacobi_eigenvalues(a)))[2] < TOL_ZERO * np.linalg.norm(a)
    assert certify(g, diag, weights, 3) is None
    monkeypatch.setattr(nullity, "_descent", lambda *args: (diag, weights, True))
    result = maximize_nullity(g, 3, budget=(1, 2000))
    assert result == NotAchieved(target=3, best_k=0, restarts=1, left_pattern=1, stalled=0)


def test_reach_certificates_sit_above_the_hard_floor():
    # the criterion-4 reach runs on the F = 3 graphs with n <= 7
    for n in range(4, 8):
        for g in enumerate_connected_subcubic(n):
            if forcing_number(g)[0] != 3:
                continue
            cert = maximize_nullity(g, classify(g).m, budget=(50, 2000), seed=2024)
            assert isinstance(cert, NullityCertificate), g.edges
            a = assemble(edge_ends(g), cert.diag, cert.weights)
            floor = _FLOOR_CERTIFY * max(1.0, np.linalg.norm(a))
            assert min(abs(w) for w in cert.weights) >= floor, g.edges


def test_all_ones_matrix_certifies_k4():
    # the rank-one all-ones matrix is a closed-form nullity-3 witness
    cert = certify(*unit_pattern(complete_graph(4), diag=1.0), 3)
    assert cert is not None and cert.k == 3


@pytest.mark.parametrize("k", [-2, 0, 4])
def test_certify_rejects_k_outside_one_to_n(k):
    with pytest.raises(ContractError):
        certify(*unit_pattern(path_graph(3)), k)


def test_certify_reads_k_off_the_spectrum():
    # the unit P3 matrix has nullity 1, which lies within a target of 2
    cert = certify(*unit_pattern(path_graph(3)), 2)
    assert cert is not None and cert.k == 1


def test_not_achieved_carries_best_k():
    result = maximize_nullity(path_graph(4), 2, budget=(3, 200), seed=1)
    assert isinstance(result, NotAchieved)
    assert result.best_k <= 1


def test_certificate_respects_forcing_bound(rng):
    # certified nullity never exceeds the forcing number on subcubic hosts
    for n in range(2, 7):
        for g in enumerate_connected_subcubic(n):
            f = forcing_number(g)[0]
            result = maximize_nullity(g, min(f, g.n), budget=(10, 600), seed=3)
            if isinstance(result, NullityCertificate):
                assert result.k <= f


def test_cycles_and_trees_reach_forcing_number():
    # spot checks of forcing number equaling certified nullity
    for g in (cycle_graph(4), cycle_graph(5), cycle_graph(6)):
        assert isinstance(maximize_nullity(g, 2, budget=(10, 800), seed=5), NullityCertificate)
    for g in (path_graph(5), complete_graph(4)):
        f = forcing_number(g)[0]
        assert isinstance(maximize_nullity(g, f, budget=(10, 1000), seed=5), NullityCertificate)


def test_tree_nullity_matches_forcing():
    # all trees on up to 7 vertices: brute-force F, certified M
    for n in range(2, 8):
        for g in enumerate_connected_subcubic(n):
            if g.edge_count != n - 1:
                continue
            f = forcing_number(g)[0]
            result = maximize_nullity(g, f, budget=(25, 1200), seed=9)
            assert isinstance(result, NullityCertificate), (n, g.edges, f)


# -- family detector -----------------------------------------------------------------------


def test_fig8_minimal_instance():
    assert is_figure8(fig8_graph([1, 1, 1, 1, 1])) is True


def test_fig8_longer_pendants():
    assert is_figure8(fig8_graph([1, 2, 1, 3, 1])) is True


def test_fig8_detects_every_relabeled_instance():
    rng = random.Random(8)
    for lengths in itertools.product((1, 2, 3), repeat=5):
        base = fig8_graph(lengths)
        for _ in range(2):
            perm = list(range(base.n))
            rng.shuffle(perm)
            assert is_figure8(base.relabel(perm)) is True, lengths


def test_fig8_rejects_every_single_edge_change():
    g = fig8_graph((1, 2, 1, 2, 1))
    for e in g.edges:
        assert is_figure8(Graph(g.n, [f for f in g.edges if f != e])) is False
    for u, v in itertools.combinations(range(g.n), 2):
        if not g.adjacent(u, v) and g.degree(u) < 3 and g.degree(v) < 3:
            assert is_figure8(Graph(g.n, g.edges + ((u, v),))) is False


def test_fig8_rejects_plain_cycle():
    assert is_figure8(cycle_graph(5)) is False


def test_fig8_rejects_missing_pendant():
    g = fig8_graph([1, 1, 1, 1, 1])
    pruned = Graph(9, [e for e in g.edges if 9 not in e])
    assert is_figure8(pruned) is False


def test_fig8_rejects_a_pendant_path_that_branches_at_degree_four():
    # the pendant vertex 5 gains three leaves: still one cycle and five
    # degree-3 vertices, but no longer a path at vertex 0
    g = fig8_graph([1, 1, 1, 1, 1])
    assert is_figure8(Graph(13, g.edges + ((5, 10), (5, 11), (5, 12)))) is False


def test_fig8_rejects_six_cycle_variant():
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(i, 6 + i) for i in range(6)]
    assert is_figure8(Graph(12, edges)) is False


# -- classification ----------------------------------------------------------------------------


def test_classify_examples():
    assert classify(path_graph(9)) == Classification(tag="Path_FM1", f=1, m=1)
    assert classify(fig8_graph([1, 1, 1, 1, 1])) == Classification(tag="Figure8_F3M2", f=3, m=2)
    assert classify(complete_bipartite(3, 3)) == Classification(tag="Beyond", f=4, m=None)
    assert classify(cycle_graph(5)) == Classification(tag="TwoParallel_FM2", f=2, m=2)
    assert classify(complete_graph(4)) == Classification(tag="ThreeParallel_FM3", f=3, m=3)


def test_classify_edgeless():
    assert classify(Graph(2)).tag == "TwoParallel_FM2"
    assert classify(Graph(3)).tag == "ThreeParallel_FM3"


def test_classification_reached_below_three():
    # every graph classified with m = 1 or 2 certifies exactly that nullity;
    # together with the acceptance run for f = 3 this covers the claim that no
    # subcubic graph sits one below its classified nullity
    for n in range(1, 9):
        for g in enumerate_connected_subcubic(n):
            cls = classify(g)
            if cls.m is None or cls.f > 2:
                continue
            result = maximize_nullity(g, cls.m, budget=(30, 1500), seed=17)
            assert isinstance(result, NullityCertificate), (n, g.edges, cls)


def test_never_exceeds_classified_m_advisory_sample():
    # advisory half of the classification consistency, on a sample at small
    # budget: the optimizer must fail one above the classified nullity
    samples = [path_graph(5), cycle_graph(5), complete_graph(4), fig8_graph([1, 1, 1, 1, 1])]
    for g in samples:
        cls = classify(g)
        if cls.m is None or cls.m + 1 > g.n:
            continue
        result = maximize_nullity(g, cls.m + 1, budget=(5, 400), seed=17)
        assert isinstance(result, NotAchieved), g.edges


def test_optimizer_certifies_two_on_nonpath_per_size():
    for n in range(4, 9):
        g = cycle_graph(n)
        result = maximize_nullity(g, 2, budget=(20, 1200), seed=13)
        assert isinstance(result, NullityCertificate), n


def test_optimizer_never_two_on_paths_small_budget():
    # advisory sibling of the path characterization, at reduced budget
    for n in (4, 6):
        result = maximize_nullity(path_graph(n), 2, budget=(4, 300), seed=13)
        assert isinstance(result, NotAchieved)
