"""Factorization, log-determinants, the Cholesky adjoint, and PCG."""

import numpy as np
import pytest
import scipy.linalg as la
from scipy import sparse

from spdekit import (BlockPrecision, SpaceTimeGrid, assemble_block_precision,
                     block_diagonal_preconditioner, cholesky_backward,
                     jacobi_preconditioner, log_det_block, pcg_solve,
                     sparse_cholesky)
from spdekit.errors import MaxIterations, NotPositiveDefinite
from spdekit.precision import ObservationSet, apply_precision, \
    posterior_precision

from oracles import random_theta


def test_cholesky_identity():
    fac = sparse_cholesky(sparse.identity(5, format="csr"))
    assert fac.bandwidth == 0
    assert np.array_equal(fac.diagonal, np.ones(5))
    assert fac.logdet() == 0.0


def test_cholesky_two_by_two_hand():
    fac = sparse_cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    lower = fac.as_dense_lower()
    assert lower[0, 0] == pytest.approx(2.0)
    assert lower[1, 0] == pytest.approx(1.0)
    assert lower[1, 1] == pytest.approx(np.sqrt(2.0))
    assert lower[0, 1] == 0.0


def test_cholesky_reconstruction_residual():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((50, 50))
    a = b @ b.T + np.eye(50)
    fac = sparse_cholesky(a)
    lower = fac.as_sparse_lower().toarray()
    resid = np.max(np.abs(a - lower @ lower.T))
    assert resid < 1e-10 * np.max(np.abs(a))


def test_cholesky_not_positive_definite_row():
    a = np.diag([1.0, 1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefinite) as exc:
        sparse_cholesky(a)
    assert exc.value.row == 2


def test_cholesky_rejects_asymmetry():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        sparse_cholesky(a)


def test_solve_identity_and_hand_case():
    fac = sparse_cholesky(np.eye(3))
    b = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(fac.solve(b), b)
    # A = [[4,2],[2,3]], b = (2,1): x = (1/2, 0) by hand elimination
    fac = sparse_cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    x = fac.solve(np.array([2.0, 1.0]))
    assert np.allclose(x, [0.5, 0.0], atol=1e-14)


def test_solve_random_spd_residual():
    rng = np.random.default_rng(1)
    b_mat = rng.standard_normal((40, 40))
    a = b_mat @ b_mat.T + np.eye(40)
    rhs = rng.standard_normal(40)
    x = sparse_cholesky(a).solve(rhs)
    assert np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs) < 1e-9


def _banded_spd(n, p, seed):
    """A well-conditioned SPD matrix of half-bandwidth p: a random
    symmetric band made diagonally dominant."""
    rng = np.random.default_rng(seed)
    a = np.triu(np.tril(rng.uniform(-1.0, 1.0, (n, n)), 0), -p)
    a = a + np.tril(a, -1).T
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + 1.0
    return a


# (n, p): p below the 64-column block width, p = 0, n a multiple of the
# block width or not, trapezoids cut off by n, and a full (p = n - 1) band
@pytest.mark.parametrize("n,p", [(50, 0), (37, 1), (200, 7), (256, 64),
                                 (300, 100), (130, 129)])
@pytest.mark.parametrize("k", [None, 1, 15, 16, 17, 40])
def test_blocked_solve_matches_dense_oracle(n, p, k):
    a = _banded_spd(n, p, seed=n + p)
    fac = sparse_cholesky(a)
    assert fac.bandwidth == p
    rng = np.random.default_rng(k or 0)
    b = rng.standard_normal(n if k is None else (n, k))
    x = fac.solve(b)
    assert x.shape == b.shape
    ref = np.linalg.solve(a, b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_blocked_solve_column_bits_do_not_depend_on_neighbours():
    # every column is solved in a 16-column panel, so its bits are the
    # same alone, at any position of a wider right-hand side, and next to
    # any other columns
    fac = sparse_cholesky(_banded_spd(700, 150, seed=3))
    rng = np.random.default_rng(4)
    for k in (2, 16, 17, 40):
        b = rng.standard_normal((700, k))
        together = fac.solve(b)
        for j in rng.choice(k, size=min(k, 5), replace=False):
            alone = fac.solve(b[:, j])
            assert alone.tobytes() == together[:, j].tobytes()
        others = rng.standard_normal((700, 20))
        others[:, 18] = b[:, 0]
        assert fac.solve(others)[:, 18].tobytes() == together[:, 0].tobytes()


def test_block_preconditioner_is_lapack_banded_solve_per_step():
    g = SpaceTimeGrid(nx=5, ny=4, nt=3)
    q = assemble_block_precision(random_theta(g, 2), g)
    r = np.random.default_rng(5).standard_normal(g.dim)
    out = block_diagonal_preconditioner(q)(r)
    a = q.to_csr()
    for t in range(g.nt):
        part = slice(t * g.m, (t + 1) * g.m)
        band = sparse_cholesky(a[part, part]).band
        expected = la.cho_solve_banded((band, True), r[part])
        assert np.array_equal(out[part], expected)


def _manual_block(grid, diag_value):
    m = grid.m
    eye = sparse.identity(m, format="csr") * diag_value
    return BlockPrecision(grid=grid, matrix=sparse.block_diag(
        [sparse.csr_array(eye)] * grid.nt, format="csr"))


def test_log_det_identity_and_scaled():
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    assert log_det_block(_manual_block(g, 1.0)) == pytest.approx(0.0)
    q2 = _manual_block(g, 2.0)
    assert log_det_block(q2) == pytest.approx(g.dim * np.log(2.0))
    # and the plain factor-level identity: |diag(2) size 3| = 3 log 2
    assert sparse_cholesky(np.diag([2.0, 2.0, 2.0])).logdet() == \
        pytest.approx(3 * np.log(2.0))


def test_log_det_block_diagonal_additivity():
    rng = np.random.default_rng(2)
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    b = rng.standard_normal((g.m, g.m))
    a = b @ b.T + np.eye(g.m)
    q = BlockPrecision(grid=g, matrix=sparse.block_diag(
        [sparse.csr_array(a), sparse.csr_array(a)], format="csr"))
    assert log_det_block(q) == pytest.approx(
        2.0 * sparse_cholesky(a).logdet(), abs=1e-8)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_log_det_blockwise_vs_assembled_vs_dense(seed, p0_mode):
    g = SpaceTimeGrid(nx=5, ny=5, nt=4)
    theta = random_theta(g, seed)
    q = assemble_block_precision(theta, g, p0_mode=p0_mode)
    blockwise = log_det_block(q, method="blockwise")
    assembled = log_det_block(q, method="cholesky")
    sign, dense = np.linalg.slogdet(q.to_csr().toarray())
    assert sign > 0
    assert blockwise == pytest.approx(dense, abs=1e-6)
    assert assembled == pytest.approx(dense, abs=1e-6)


def test_log_det_posterior_falls_back_to_cholesky():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 5)
    q = assemble_block_precision(theta, g)
    mask = np.zeros(g.shape, dtype=bool)
    mask[0, 0, 0] = True
    qp = posterior_precision(q, ObservationSet(g, mask, [1.0], [0.5]))
    with pytest.raises(ValueError, match="blockwise"):
        log_det_block(qp, method="blockwise")
    sign, dense = np.linalg.slogdet(qp.to_csr().toarray())
    assert log_det_block(qp) == pytest.approx(dense, abs=1e-6)


def test_cholesky_backward_scalar():
    a, g = 2.5, 0.7
    lower = np.array([[np.sqrt(a)]])
    out = cholesky_backward(lower, np.array([[g]]))
    assert out[0, 0] == pytest.approx(g / (2 * np.sqrt(a)))


def test_cholesky_backward_identity_factor():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((5, 5))
    sym = np.tril(w) + np.tril(w, -1).T          # ltu-symmetric input
    out = cholesky_backward(np.eye(5), sym)
    assert np.allclose(out, 0.5 * sym, atol=1e-14)


def test_cholesky_backward_exactly_symmetric():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((8, 8))
    a = b @ b.T + np.eye(8)
    fac = sparse_cholesky(a)
    l_bar = np.tril(rng.standard_normal((8, 8)))
    out = cholesky_backward(fac, l_bar)
    assert np.max(np.abs(out - out.T)) < 1e-14


@pytest.mark.parametrize("n", [2, 6, 12, 20])
def test_cholesky_backward_logdet_gradient_fd(n):
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n))
    a = b @ b.T + n * np.eye(n)

    def logdet_via_chol(mat):
        return sparse_cholesky(mat).logdet()

    fac = sparse_cholesky(a)
    l_bar = np.zeros((n, n))
    np.fill_diagonal(l_bar, 2.0 / fac.diagonal)   # d(2 sum log Ljj)/dL
    a_bar = cholesky_backward(fac, l_bar)

    # 1e-5 relative, floored well below the gradient scale so that
    # near-zero entries are not judged against finite-difference noise
    floor = 1e-7 * np.max(np.abs(a_bar))
    for i in range(n):
        for j in range(i + 1):
            h = 1e-5 * (1.0 + abs(a[i, j]))
            pert = np.zeros_like(a)
            pert[i, j] = h
            pert[j, i] = h                        # symmetric perturbation
            fd = (logdet_via_chol(a + pert) - logdet_via_chol(a - pert)) \
                / (2 * h)
            predicted = a_bar[i, j] if i == j else 2.0 * a_bar[i, j]
            assert abs(fd - predicted) <= max(1e-5 * abs(predicted), floor)


def test_pcg_identity_one_iteration():
    b = np.array([1.0, 2.0, 3.0])
    result = pcg_solve(lambda v: v, b)
    assert result.iterations == 1
    assert np.allclose(result.x, b)


def test_pcg_zero_rhs_zero_iterations():
    result = pcg_solve(lambda v: 2 * v, np.zeros(4))
    assert result.iterations == 0
    assert np.array_equal(result.x, np.zeros(4))


def test_pcg_matches_direct_solve_on_posterior():
    g = SpaceTimeGrid(nx=8, ny=8, nt=5)
    theta = random_theta(g, 6)
    q = assemble_block_precision(theta, g)
    rng = np.random.default_rng(0)
    mask = rng.random(g.shape) < 0.3
    n = int(mask.sum())
    obs = ObservationSet(g, mask, rng.standard_normal(n), np.full(n, 0.1))
    qp = posterior_precision(q, obs)
    rhs = np.zeros(g.dim)
    rhs[obs.indices] = obs.values / obs.noise_var

    apply_a = lambda v: apply_precision(qp, v.reshape(g.nt, g.m)).reshape(-1)
    direct = sparse_cholesky(qp.to_csr()).solve(rhs)

    res_plain = pcg_solve(apply_a, rhs, tol=1e-10, max_iter=5000)
    res_jacobi = pcg_solve(apply_a, rhs, tol=1e-10, max_iter=5000,
                           preconditioner=jacobi_preconditioner(
                               qp.to_csr().diagonal()))
    res_block = pcg_solve(apply_a, rhs, tol=1e-10, max_iter=5000,
                          preconditioner=block_diagonal_preconditioner(qp))
    for res in (res_plain, res_jacobi, res_block):
        assert np.max(np.abs(res.x - direct)) < 1e-6
    # performance property, reported not asserted as a hard bound
    print(f"\npcg iterations: plain={res_plain.iterations} "
          f"jacobi={res_jacobi.iterations} block={res_block.iterations}")
    assert res_block.iterations <= res_plain.iterations


def test_pcg_max_iterations_carries_residual():
    rng = np.random.default_rng(7)
    b_mat = rng.standard_normal((30, 30))
    a = b_mat @ b_mat.T + 0.01 * np.eye(30)
    with pytest.raises(MaxIterations) as exc:
        pcg_solve(lambda v: a @ v, rng.standard_normal(30), tol=1e-14,
                  max_iter=2)
    assert exc.value.iterations == 2
    assert exc.value.residual > 0
