"""Precision-form interpolation against the dense covariance path."""

import numpy as np
import pytest

from spdekit import (ObservationSet, ParamFields, PosteriorSolver,
                     SpaceTimeGrid, assemble_block_precision,
                     dense_trajectory_covariance, oi_solve_dense_oracle,
                     oi_solve_precision, variational_cost_grad)
from spdekit.errors import DimensionGuard, SolveFailure

from oracles import random_theta


def _random_obs(grid, seed, density=0.3, noise=0.1):
    rng = np.random.default_rng(seed)
    mask = rng.random(grid.shape) < density
    n = int(mask.sum())
    return ObservationSet(grid, mask, rng.standard_normal(n),
                          np.full(n, noise))


def test_no_observations_gives_prior_mean():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 0)
    q = assemble_block_precision(theta, g)
    obs = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    x = oi_solve_precision(q, obs)
    assert np.array_equal(x.states, np.zeros((g.nt, g.m)))
    x_dense = oi_solve_dense_oracle(theta, g, obs)
    assert np.array_equal(x_dense.states, np.zeros((g.nt, g.m)))


def test_full_observations_tiny_noise_reproduce_data():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 1)
    q = assemble_block_precision(theta, g)
    rng = np.random.default_rng(2)
    mask = np.ones(g.shape, dtype=bool)
    y = rng.standard_normal(g.dim)
    obs = ObservationSet(g, mask, y, np.full(g.dim, 1e-10))
    x = oi_solve_precision(q, obs)
    assert np.max(np.abs(x.flat - y)) < 1e-4


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("method", ["direct", "pcg"])
def test_precision_matches_dense_oracle(seed, method):
    g = SpaceTimeGrid(nx=6, ny=6, nt=4)
    theta = random_theta(g, seed + 30)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, seed)
    x_prec = oi_solve_precision(q, obs, method=method)
    x_dense = oi_solve_dense_oracle(theta, g, obs)
    assert np.max(np.abs(x_prec.flat - x_dense.flat)) < 1e-8


def test_reflection_symmetry():
    g = SpaceTimeGrid(nx=5, ny=4, nt=3)
    theta = ParamFields.stationary(g, kappa=0.6, h=(1.0, 0.0, 0.7), tau=1.0)
    q = assemble_block_precision(theta, g)
    rng = np.random.default_rng(3)
    mask = rng.random(g.shape) < 0.3
    n = int(mask.sum())
    values = rng.standard_normal(n)
    obs = ObservationSet(g, mask, values, np.full(n, 0.05))
    x = oi_solve_precision(q, obs)

    mask_r = mask[:, :, ::-1].copy()
    dense = np.zeros(g.shape)
    dense.reshape(-1)[obs.indices] = values
    values_r = dense[:, :, ::-1].reshape(-1)[
        np.flatnonzero(mask_r.reshape(-1))]
    obs_r = ObservationSet(g, mask_r, values_r, np.full(n, 0.05))
    x_r = oi_solve_precision(q, obs_r)
    flipped = x.states.reshape(g.shape)[:, :, ::-1].reshape(g.nt, g.m)
    assert np.max(np.abs(x_r.states - flipped)) < 1e-8


def test_dense_path_dimension_guard(monkeypatch):
    g = SpaceTimeGrid(nx=30, ny=30, nt=8)      # dim 7200 > 5000
    theta = ParamFields.stationary(g)
    with pytest.raises(DimensionGuard, match="dense trajectory covariance"):
        dense_trajectory_covariance(theta, g)
    # the guard is read at call time, so a patched guard holds too
    from spdekit import oi
    small = SpaceTimeGrid(nx=4, ny=4, nt=3)    # dim 48
    monkeypatch.setattr(oi, "DENSE_GUARD", 10)
    with pytest.raises(DimensionGuard, match="dense trajectory covariance"):
        dense_trajectory_covariance(ParamFields.stationary(small), small)


def test_posterior_solver_reusable_across_values():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 4)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, 5)
    solver = PosteriorSolver(q, obs)
    x1 = solver.solve()
    assert np.max(np.abs(x1.flat - oi_solve_precision(q, obs).flat)) == 0.0
    new_values = np.ones(obs.n_obs)
    x2 = solver.solve(new_values)
    direct = oi_solve_precision(q, obs.replace_values(new_values))
    assert np.max(np.abs(x2.flat - direct.flat)) < 1e-12


@pytest.mark.parametrize("method", ["direct", "pcg"])
def test_nan_column_fails_typed(method):
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 4)
    obs = _random_obs(g, 5)
    solver = PosteriorSolver(assemble_block_precision(theta, g), obs,
                             method=method)
    values = np.ones((obs.n_obs, 3))
    values[2, 1] = np.nan
    if method == "direct":
        with pytest.raises(SolveFailure) as err:
            solver.solve_columns(values)
        assert err.value.column == 1
    else:
        with pytest.raises(ValueError, match="non-finite"):
            solver.solve_columns(values)


def test_observation_set_rejects_nan_value():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    mask = np.zeros(g.shape, dtype=bool)
    mask[1, 2, 2] = mask[2, 0, 1] = True
    with pytest.raises(ValueError, match="finite"):
        ObservationSet(g, mask, [0.5, np.nan], [0.1, 0.1])


def test_variational_cost_zero_and_decomposition():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 6)
    q = assemble_block_precision(theta, g)
    mask = np.ones(g.shape, dtype=bool)
    obs = ObservationSet(g, mask, np.zeros(g.dim), np.ones(g.dim))
    from spdekit import Trajectory
    (total, data, prior), _ = variational_cost_grad(Trajectory.zeros(g),
                                                    obs, q)
    assert total == 0.0 and data == 0.0 and prior == 0.0

    empty = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    x = Trajectory.from_flat(g, np.random.default_rng(0).standard_normal(g.dim))
    total, data, prior = variational_cost_grad(x, empty, q, lam=2.0)[0]
    assert data == 0.0 and prior > 0.0 and total == prior


def test_cost_minimized_at_solution():
    g = SpaceTimeGrid(nx=5, ny=5, nt=3)
    theta = random_theta(g, 7)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, 8)
    x_star = oi_solve_precision(q, obs)
    best, _, _ = variational_cost_grad(x_star, obs, q, lam=1.0)[0]
    rng = np.random.default_rng(9)
    for _ in range(100):
        delta = 0.1 * rng.standard_normal(g.dim)
        from spdekit import Trajectory
        perturbed = Trajectory.from_flat(g, x_star.flat + delta)
        (cost, _, _), _ = variational_cost_grad(perturbed, obs, q, lam=1.0)
        assert cost >= best - 1e-12


def test_gradient_zero_at_solution():
    g = SpaceTimeGrid(nx=5, ny=5, nt=3)
    theta = random_theta(g, 10)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, 11)
    x_star = oi_solve_precision(q, obs)
    grad = variational_cost_grad(x_star, obs, q, lam=1.0)[1]
    assert np.max(np.abs(grad)) < 1e-6


def test_gradient_matches_finite_differences():
    g = SpaceTimeGrid(nx=4, ny=3, nt=3)
    theta = random_theta(g, 12)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, 13)
    rng = np.random.default_rng(14)
    from spdekit import Trajectory
    x = Trajectory.from_flat(g, rng.standard_normal(g.dim))
    grad = variational_cost_grad(x, obs, q, lam=0.7)[1]
    for k in rng.choice(g.dim, size=12, replace=False):
        h = 1e-6 * (1.0 + abs(x.flat[k]))
        xp = x.flat.copy(); xp[k] += h
        xm = x.flat.copy(); xm[k] -= h
        fp = variational_cost_grad(Trajectory.from_flat(g, xp), obs, q,
                                   0.7)[0][0]
        fm = variational_cost_grad(Trajectory.from_flat(g, xm), obs, q,
                                   0.7)[0][0]
        fd = (fp - fm) / (2 * h)
        assert fd == pytest.approx(grad[k], rel=1e-5, abs=1e-7)


def test_gradient_empty_mask_is_prior_only():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    theta = random_theta(g, 15)
    q = assemble_block_precision(theta, g)
    empty = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    rng = np.random.default_rng(16)
    from spdekit import Trajectory, apply_precision
    x = Trajectory.from_flat(g, rng.standard_normal(g.dim))
    grad = variational_cost_grad(x, empty, q, lam=1.5)[1]
    expect = 2.0 * 1.5 * apply_precision(q, x.states).reshape(-1)
    assert np.max(np.abs(grad - expect)) < 1e-12


def test_cost_at_solver_output_near_direct_optimum():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 17)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, 18)
    x_direct = oi_solve_precision(q, obs, method="direct")
    x_pcg = oi_solve_precision(q, obs, method="pcg", tol=1e-12)
    c_direct, _, _ = variational_cost_grad(x_direct, obs, q)[0]
    c_pcg, _, _ = variational_cost_grad(x_pcg, obs, q)[0]
    assert abs(c_direct - c_pcg) < 1e-10 * max(1.0, abs(c_direct))


def _equilibrated_cholesky(q_post):
    """The product-and-COO recipe the posterior factor used to take:
    diag(s) Q_post diag(s) as two sparse products, then sparse_cholesky
    (COO, symmetry check, band scatter)."""
    from scipy import sparse

    from spdekit.linalg import sparse_cholesky
    a = q_post.to_csr()
    s = sparse.diags_array(1.0 / np.sqrt(a.diagonal()))
    return sparse_cholesky(sparse.csr_array(s @ a @ s))


@pytest.mark.parametrize("case", ["burnin", "white", "tiny_noise"])
def test_posterior_band_is_the_equilibrated_sparse_cholesky(case):
    # the band written straight from the CSR of Q + H^T R^{-1} H factors
    # to the same bits as the product-and-COO path it replaces
    g = SpaceTimeGrid(nx=6, ny=5, nt=4)
    theta = random_theta(g, 41)
    q = assemble_block_precision(
        theta, g, p0_mode="white" if case == "white" else "burnin")
    obs = _random_obs(g, 42)
    if case == "tiny_noise":
        noise = obs.noise_var.copy()
        noise[3] = 1e-12
        obs = ObservationSet(g, obs.mask, obs.values, noise)
    solver = PosteriorSolver(q, obs)
    ref = _equilibrated_cholesky(solver.q_post)
    assert solver._factor.bandwidth == ref.bandwidth
    assert np.array_equal(solver._factor.band, ref.band)


def test_non_positive_definite_posterior_names_its_row():
    from scipy import sparse

    from spdekit import BlockPrecision
    from spdekit.errors import NotPositiveDefinite
    from spdekit.precision import posterior_precision
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    a = assemble_block_precision(random_theta(g, 43), g).to_csr().tolil()
    # a 2x2 principal minor with off-diagonal 2 sqrt(a_ii a_jj) is
    # indefinite: the leading rows stay positive definite, row j fails
    i, j = 20, 23
    a[i, j] = a[j, i] = 2.0 * np.sqrt(a[i, i] * a[j, j])
    q = BlockPrecision(g, sparse.csr_array(a))
    obs = _random_obs(g, 44)
    with pytest.raises(NotPositiveDefinite) as info:
        PosteriorSolver(q, obs)
    with pytest.raises(NotPositiveDefinite) as ref:
        _equilibrated_cholesky(posterior_precision(q, obs))
    assert info.value.row == ref.value.row == j


@pytest.mark.parametrize("row", [30, 71])
def test_empty_posterior_row_names_its_row(row):
    # a hand-built Q with one row and column zeroed, that cell unobserved:
    # the row holds no entry, not even its diagonal, so the factor's
    # diagonal check reports it, typed, before the ordering scan, on a
    # 6x6x2 grid where a full Q would take row-time
    from scipy import sparse

    from spdekit import BlockPrecision
    from spdekit.errors import NotPositiveDefinite
    g = SpaceTimeGrid(nx=6, ny=6, nt=2)
    a = assemble_block_precision(random_theta(g, 47), g).to_csr().tolil()
    a[row, :] = 0.0
    a[:, row] = 0.0
    a = sparse.csr_array(a)
    a.eliminate_zeros()
    assert a.indptr[row] == a.indptr[row + 1]
    q = BlockPrecision(g, a)
    obs = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    with pytest.raises(NotPositiveDefinite) as info:
        PosteriorSolver(q, obs)
    assert info.value.row == row


def test_negative_diagonal_names_its_row_in_both_factors():
    # a hand-built Q with one diagonal entry -1, that cell unobserved: the
    # posterior solver and log_det_block share one factor, which names the
    # row before it takes the Jacobi scale (no sqrt of a negative number)
    from scipy import sparse

    from spdekit import BlockPrecision, log_det_block
    from spdekit.errors import NotPositiveDefinite
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    a = assemble_block_precision(random_theta(g, 43), g).to_csr().tolil()
    a[20, 20] = -1.0
    q = BlockPrecision(g, sparse.csr_array(a))
    obs = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    for call in (lambda: PosteriorSolver(q, obs), lambda: log_det_block(q)):
        with pytest.raises(NotPositiveDefinite) as info:
            call()
        assert info.value.row == 20


def test_non_finite_posterior_entry_is_a_value_error():
    from scipy import sparse

    from spdekit import BlockPrecision
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    a = assemble_block_precision(random_theta(g, 45), g).to_csr().tolil()
    a[23, 20] = a[20, 23] = np.nan
    q = BlockPrecision(g, sparse.csr_array(a))
    with pytest.raises(ValueError, match="non-finite"):
        PosteriorSolver(q, _random_obs(g, 46))


# (nx, ny, nt, dy, h12, alpha): nx = ny, nx > ny (axes swapped) and
# nx < ny, dx != dy, h12 = 0 (the assembled Q drops the ring's zero
# corners), alpha 2 and 4, nt 2 and 10; each ordering wins somewhere
_ORDER_CASES = [(24, 24, 10, 1.0, 0.3, 2), (6, 6, 2, 1.0, 0.3, 2),
                (7, 5, 3, 1.3, 0.0, 2), (16, 12, 2, 1.0, 0.0, 2),
                (12, 9, 10, 0.7, 0.2, 2), (30, 22, 10, 1.0, 0.2, 2),
                (5, 7, 3, 1.0, 0.0, 4), (8, 6, 10, 1.0, 0.2, 4),
                (9, 12, 2, 1.3, 0.2, 4)]


def _order_widths(g, h12, alpha):
    """Half-bandwidths of the posterior time-major and row-time: the ring
    of radius k = alpha/2 in A_t gives Q radius k across a step and 2k
    within one; at h12 = 0 the diagonal neighbours drop out."""
    k = alpha // 2
    corner = k if h12 else 0
    return (g.m + k * g.nx + corner,
            2 * k * g.nt * min(g.nx, g.ny) + 2 * corner)


@pytest.mark.parametrize("nx,ny,nt,dy,h12,alpha", _ORDER_CASES)
def test_posterior_factor_takes_the_narrower_ordering(nx, ny, nt, dy, h12,
                                                      alpha):
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=nt, dy=dy)
    theta = ParamFields.stationary(g, kappa=0.5, m=(0.3, -0.2),
                                   h=(1.0, h12, 0.8), alpha=alpha)
    time_major, row_time = _order_widths(g, h12, alpha)
    obs = _random_obs(g, 47)
    fac = PosteriorSolver(assemble_block_precision(theta, g, p0_mode="white"),
                          obs)._factor
    assert fac.bandwidth == min(time_major, row_time)
    assert (fac.perm is None) == (time_major <= row_time)
    # a burn-in start's dense P_0^-1 keeps it time-major
    fac = PosteriorSolver(assemble_block_precision(theta, g, burn_in=3),
                          obs)._factor
    assert fac.perm is None and fac.bandwidth == time_major


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
@pytest.mark.parametrize("seed", range(3))
def test_both_orderings_agree(monkeypatch, p0_mode, seed):
    from spdekit import linalg
    g = SpaceTimeGrid(nx=7, ny=5, nt=4)
    q = assemble_block_precision(random_theta(g, seed + 50), g,
                                 p0_mode=p0_mode, burn_in=5)
    obs = _random_obs(g, seed + 51)
    values = np.column_stack([obs.values, -obs.values, np.ones(obs.n_obs)])
    solved = {}
    for name, order in (("time-major", lambda a, grid: None),
                        ("row-time", lambda a, grid:
                         linalg._row_time_positions(grid, a.indices.dtype))):
        monkeypatch.setattr(linalg, "_posterior_order", order)
        solver = PosteriorSolver(q, obs)
        assert (solver._factor.perm is None) == (name == "time-major")
        solved[name] = solver.solve_columns(values)
    ref = solved["time-major"]
    assert np.max(np.abs(solved["row-time"] - ref)) \
        <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", range(3))
def test_row_time_factor_matches_dense_oracle(seed):
    # at 6x6x2 the row-time order is the narrower one (p 26 against 43)
    g = SpaceTimeGrid(nx=6, ny=6, nt=2)
    theta = random_theta(g, seed + 60)
    q = assemble_block_precision(theta, g, p0_mode="white")
    obs = _random_obs(g, seed + 61)
    solver = PosteriorSolver(q, obs)
    assert solver._factor.perm is not None
    assert solver._factor.bandwidth == 26
    x_dense = oi_solve_dense_oracle(theta, g, obs, p0_mode="white")
    assert np.max(np.abs(solver.solve().flat - x_dense.flat)) < 1e-8


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_direct_matches_pcg_past_the_dense_guard(p0_mode):
    # at 24x24x10 (dim 5760 > DENSE_GUARD) no dense oracle reaches; the
    # banded factor and PCG agreed to 8.3e-12 (white, row-time, 42 PCG
    # iterations) and 1.9e-12 (burn-in, time-major, 36) relative
    from spdekit.oi import DENSE_GUARD
    g = SpaceTimeGrid(nx=24, ny=24, nt=10)
    assert g.dim > DENSE_GUARD
    q = assemble_block_precision(random_theta(g, 62), g, p0_mode=p0_mode)
    obs = _random_obs(g, 63, density=0.2)
    solver = PosteriorSolver(q, obs)
    assert (solver._factor.perm is None) == (p0_mode == "burnin")
    direct = solver.solve().flat
    pcg = oi_solve_precision(q, obs, method="pcg", tol=1e-12).flat
    assert np.max(np.abs(direct - pcg)) <= 1e-10 * np.max(np.abs(direct))


def test_ordering_scan_is_chunked_and_stops_early(monkeypatch):
    # read in many chunks, the row-time width gives the same choice; a
    # burn-in start's dense first rows end the scan in its first chunk,
    # which holds well under one nnz-sized index array
    import tracemalloc

    from spdekit import linalg
    from spdekit.precision import posterior_precision
    monkeypatch.setattr(linalg, "_SCAN", 1000)
    g = SpaceTimeGrid(nx=16, ny=16, nt=3)
    theta = random_theta(g, 64)
    obs = _random_obs(g, 65)
    white = posterior_precision(
        assemble_block_precision(theta, g, p0_mode="white"), obs).to_csr()
    assert white.nnz > 10 * linalg._SCAN
    assert np.array_equal(linalg._posterior_order(white, g),
                          linalg._row_time_positions(g, white.indices.dtype))
    burnin = posterior_precision(
        assemble_block_precision(theta, g, burn_in=3), obs).to_csr()
    tracemalloc.start()
    try:
        assert linalg._posterior_order(burnin, g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < burnin.nnz, (peak, burnin.nnz)
