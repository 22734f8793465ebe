"""Precision-form interpolation against the dense covariance path."""

import numpy as np
import pytest

from spdekit import (ObservationSet, ParamFields, PosteriorSolver,
                     SpaceTimeGrid, assemble_block_precision,
                     dense_trajectory_covariance, oi_solve_dense_oracle,
                     oi_solve_precision, variational_cost, variational_grad)
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


def test_dense_path_dimension_guard():
    g = SpaceTimeGrid(nx=30, ny=30, nt=8)      # dim 7200 > 5000
    theta = ParamFields.stationary(g)
    with pytest.raises(DimensionGuard):
        dense_trajectory_covariance(theta, g)


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
    total, data, prior = variational_cost(Trajectory.zeros(g), obs, q)
    assert total == 0.0 and data == 0.0 and prior == 0.0

    empty = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    x = Trajectory.from_flat(g, np.random.default_rng(0).standard_normal(g.dim))
    total, data, prior = variational_cost(x, empty, q, lam=2.0)
    assert data == 0.0 and prior > 0.0 and total == prior


def test_cost_minimized_at_solution():
    g = SpaceTimeGrid(nx=5, ny=5, nt=3)
    theta = random_theta(g, 7)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, 8)
    x_star = oi_solve_precision(q, obs)
    best, _, _ = variational_cost(x_star, obs, q, lam=1.0)
    rng = np.random.default_rng(9)
    for _ in range(100):
        delta = 0.1 * rng.standard_normal(g.dim)
        from spdekit import Trajectory
        perturbed = Trajectory.from_flat(g, x_star.flat + delta)
        cost, _, _ = variational_cost(perturbed, obs, q, lam=1.0)
        assert cost >= best - 1e-12


def test_gradient_zero_at_solution():
    g = SpaceTimeGrid(nx=5, ny=5, nt=3)
    theta = random_theta(g, 10)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, 11)
    x_star = oi_solve_precision(q, obs)
    grad = variational_grad(x_star, obs, q, lam=1.0)
    assert np.max(np.abs(grad.flat)) < 1e-6


def test_gradient_matches_finite_differences():
    g = SpaceTimeGrid(nx=4, ny=3, nt=3)
    theta = random_theta(g, 12)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, 13)
    rng = np.random.default_rng(14)
    from spdekit import Trajectory
    x = Trajectory.from_flat(g, rng.standard_normal(g.dim))
    grad = variational_grad(x, obs, q, lam=0.7).flat
    for k in rng.choice(g.dim, size=12, replace=False):
        h = 1e-6 * (1.0 + abs(x.flat[k]))
        xp = x.flat.copy(); xp[k] += h
        xm = x.flat.copy(); xm[k] -= h
        fp, _, _ = variational_cost(Trajectory.from_flat(g, xp), obs, q, 0.7)
        fm, _, _ = variational_cost(Trajectory.from_flat(g, xm), obs, q, 0.7)
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
    grad = variational_grad(x, empty, q, lam=1.5)
    expect = 2.0 * 1.5 * apply_precision(q, x.states).reshape(-1)
    assert np.max(np.abs(grad.flat - expect)) < 1e-12


def test_cost_at_solver_output_near_direct_optimum():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 17)
    q = assemble_block_precision(theta, g)
    obs = _random_obs(g, 18)
    x_direct = oi_solve_precision(q, obs, method="direct")
    x_pcg = oi_solve_precision(q, obs, method="pcg", tol=1e-12)
    c_direct, _, _ = variational_cost(x_direct, obs, q)
    c_pcg, _, _ = variational_cost(x_pcg, obs, q)
    assert abs(c_direct - c_pcg) < 1e-10 * max(1.0, abs(c_direct))
