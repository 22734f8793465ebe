"""Factorization, log-determinants, the Cholesky adjoint, and PCG."""

import numpy as np
import pytest
import scipy.linalg as la
from scipy import sparse

from spdekit import (BlockPrecision, SpaceTimeGrid, assemble_block_precision,
                     block_diagonal_preconditioner, cholesky_backward,
                     log_det_block, pcg_solve, sparse_cholesky)
from spdekit.errors import MaxIterations, NotPositiveDefinite
from spdekit.linalg import cholesky_banded, lower_band
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
    lower = fac.as_dense_lower()
    resid = np.max(np.abs(a - lower @ lower.T))
    assert resid < 1e-10 * np.max(np.abs(a))


def test_cholesky_not_positive_definite_row():
    a = np.diag([1.0, 1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefinite) as exc:
        sparse_cholesky(a)
    assert exc.value.row == 2


@pytest.mark.parametrize("last", [False, True])
def test_cholesky_failed_pivot_names_the_first_and_last_row(last):
    # a diagonal, and a wide band that LAPACK factors in blocks
    for n, p in [(4, 0), (300, 100)]:
        a = _banded_spd(n, p, seed=7)
        row = n - 1 if last else 0
        a[row, row] = -1.0
        with pytest.raises(NotPositiveDefinite) as exc:
            sparse_cholesky(a)
        assert exc.value.row == row


def test_cholesky_of_a_zero_matrix_fails_at_row_zero():
    with pytest.raises(NotPositiveDefinite) as exc:
        sparse_cholesky(sparse.csr_array((3, 3)))
    assert exc.value.row == 0


def test_cholesky_rejects_asymmetry():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        sparse_cholesky(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cholesky_rejects_a_non_finite_lower_entry(bad):
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, bad], [0.0, bad, 2.0]])
    with pytest.raises(ValueError, match="non-finite"):
        sparse_cholesky(a)


def test_cholesky_sums_duplicate_entries_on_a_copy():
    # [[4, 1], [1, 3]] with its (0, 0) entry stored twice, as 1 + 3
    a = sparse.csr_array((np.array([1.0, 3.0, 1.0, 1.0, 3.0]),
                          np.array([0, 0, 1, 0, 1]), np.array([0, 3, 5])),
                         shape=(2, 2))
    data, indices, indptr = a.data.copy(), a.indices.copy(), a.indptr.copy()
    assert sparse_cholesky(a).logdet() == pytest.approx(np.log(11.0),
                                                        rel=1e-14)
    assert a.nnz == 5
    assert np.array_equal(a.data, data)
    assert np.array_equal(a.indices, indices)
    assert np.array_equal(a.indptr, indptr)


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
_BANDED_CASES = [(50, 0), (37, 1), (200, 7), (256, 64), (300, 100),
                 (130, 129)]


@pytest.mark.parametrize("n,p", _BANDED_CASES)
def test_band_is_read_off_the_dense_matrix(n, p):
    a = _banded_spd(n, p, seed=n + p)
    band = np.zeros((p + 1, n), order="F")
    for k in range(p + 1):
        band[k, :n - k] = a.diagonal(-k)
    for matrix in (a, sparse.csr_array(a), sparse.coo_array(a)):
        assert np.array_equal(lower_band(sparse.csr_array(matrix)), band)
        # dpbtrf called directly factors to scipy's cholesky_banded bits
        fac = sparse_cholesky(matrix)
        assert np.array_equal(fac.band, la.cholesky_banded(band, lower=True))


@pytest.mark.parametrize("n,p", _BANDED_CASES)
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


def _assert_column_bits_stand_alone(fac):
    n = fac.n
    rng = np.random.default_rng(4)
    for k in (2, 16, 17, 40):
        b = rng.standard_normal((n, k))
        together = fac.solve(b)
        for j in rng.choice(k, size=min(k, 5), replace=False):
            alone = fac.solve(b[:, j])
            assert alone.tobytes() == together[:, j].tobytes()
        others = rng.standard_normal((n, 20))
        others[:, 18] = b[:, 0]
        assert fac.solve(others)[:, 18].tobytes() == together[:, 0].tobytes()


def test_blocked_solve_column_bits_do_not_depend_on_neighbours():
    # every column is solved in a 16-column panel, so its bits are the
    # same alone, at any position of a wider right-hand side, and next to
    # any other columns
    _assert_column_bits_stand_alone(
        sparse_cholesky(_banded_spd(700, 150, seed=3)))


def _permuted_banded(n, p, seed):
    """A banded SPD matrix with its unknowns shuffled, as (matrix, perm):
    perm puts unknown i back at its row of the band."""
    band_order = _banded_spd(n, p, seed=seed)
    perm = np.random.default_rng(seed).permutation(n).astype(np.int32)
    return band_order[np.ix_(perm, perm)], band_order, perm


def test_blocked_solve_column_bits_on_a_permuted_factor():
    # the scatter into panels and the gather out of them move values only
    a, band_order, perm = _permuted_banded(700, 150, seed=3)
    fac = cholesky_banded(lower_band(sparse.csr_array(a), perm=perm), perm)
    assert fac.bandwidth == 150
    _assert_column_bits_stand_alone(fac)
    b = np.random.default_rng(6).standard_normal((700, 3))
    ref = np.linalg.solve(a, b)
    assert np.max(np.abs(fac.solve(b) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_permuted_band_is_the_band_of_the_permuted_matrix():
    # under perm, lower_band writes the band of the matrix with unknown i
    # at row perm[i], scaled values included, bit for bit
    a, band_order, perm = _permuted_banded(200, 7, seed=8)
    scale = np.random.default_rng(9).uniform(0.5, 2.0, 200)
    placed = np.empty_like(scale)
    placed[perm] = scale
    assert np.array_equal(
        lower_band(sparse.csr_array(a), scale, perm),
        lower_band(sparse.csr_array(band_order), placed))


def test_permuted_factor_names_the_failing_row_of_the_matrix():
    a, band_order, perm = _permuted_banded(60, 4, seed=10)
    j = 17                                     # an unknown of a
    a[j, j] = -1.0
    with pytest.raises(NotPositiveDefinite) as info:
        cholesky_banded(lower_band(sparse.csr_array(a), perm=perm), perm)
    assert info.value.row == j


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
    blockwise = log_det_block(q)
    assembled = sparse_cholesky(q.to_csr()).logdet()
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
    assert qp.prior is None
    sign, dense = np.linalg.slogdet(qp.to_csr().toarray())
    assert log_det_block(qp) == pytest.approx(dense, abs=1e-6)


def _posterior(g, seed, p0_mode, density=0.2):
    rng = np.random.default_rng(seed)
    mask = rng.random(g.shape) < density
    n = int(mask.sum())
    q = assemble_block_precision(random_theta(g, seed), g, p0_mode=p0_mode)
    return posterior_precision(
        q, ObservationSet(g, mask, rng.standard_normal(n), np.full(n, 0.1)))


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_log_det_block_posterior_past_the_dense_guard(p0_mode):
    # at 24x24x10 (dim 5760 > DENSE_GUARD) the scaled, ordered factor's
    # log-det is the unscaled time-major sparse_cholesky's
    from spdekit.oi import DENSE_GUARD
    g = SpaceTimeGrid(nx=24, ny=24, nt=10)
    assert g.dim > DENSE_GUARD
    qp = _posterior(g, 11, p0_mode)
    ref = sparse_cholesky(qp.to_csr()).logdet()
    assert abs(log_det_block(qp) - ref) <= 1e-13 * abs(ref)


def test_log_det_block_posterior_takes_the_narrower_ordering(monkeypatch):
    # at 6x6x2 with a white start the row-time order's band is p = 26,
    # against 43 time-major, and log_det_block factors in it
    from spdekit import linalg
    widths = []

    def spy(band, *args):
        widths.append(band.shape[0] - 1)
        return cholesky_banded(band, *args)

    monkeypatch.setattr(linalg, "cholesky_banded", spy)
    g = SpaceTimeGrid(nx=6, ny=6, nt=2)
    qp = _posterior(g, 12, "white", density=0.3)
    value = log_det_block(qp)
    assert widths == [26]
    sign, dense = np.linalg.slogdet(qp.to_csr().toarray())
    assert sign > 0 and value == pytest.approx(dense, abs=1e-8)


def test_log_det_block_refuses_an_asymmetric_precision():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    a = assemble_block_precision(random_theta(g, 13), g).to_csr().tolil()
    a[20, 23] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        log_det_block(BlockPrecision(g, sparse.csr_array(a)))


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
    inv_diag = 1.0 / qp.to_csr().diagonal()
    res_jacobi = pcg_solve(apply_a, rhs, tol=1e-10, max_iter=5000,
                           preconditioner=lambda r: inv_diag * r)
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


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_log_det_block_drops_only_a_sweep_it_built(p0_mode, held):
    # a Schur sweep log_det_block builds is dropped once read; one the
    # prior already held for a coming gradient stays; the bits are those
    # of the closed form either way
    from spdekit.precision import _prior_log_det
    g = SpaceTimeGrid(nx=6, ny=5, nt=4)
    theta = random_theta(g, 11)
    opts = dict(p0_mode=p0_mode, burn_in=5)
    q = assemble_block_precision(theta, g, **opts)
    sweep = q.prior.schur_sweep() if held else None
    value = log_det_block(q)
    assert q.prior._sweep is sweep
    assert value == _prior_log_det(assemble_block_precision(theta, g,
                                                            **opts).prior)
