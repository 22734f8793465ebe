"""Optimal interpolation in precision form, plus its dense covariance oracle.

With a zero prior mean, the posterior mean solves

    (Q + H^T R^{-1} H) x* = H^T R^{-1} y

which reuses the sparse posterior precision, factored once by
``linalg.factor_precision``. The dense path computes the
same thing as x* = P H^T (H P H^T + R)^{-1} y from the trajectory
covariance propagated by brute force; it exists purely as a test oracle
and refuses to run above a dimension guard.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from .errors import DimensionGuard, SolveFailure
from .grid import SpaceTimeGrid, Trajectory
from .linalg import (block_diagonal_preconditioner, factor_precision,
                     pcg_solve)
from .operators import ParamFields, _theta_grid
from .precision import (BlockPrecision, ObservationSet,
                        apply_precision, build_prior, posterior_precision)
from .state_space import burnin_covariance

DENSE_GUARD = 5000
RESIDUAL_TOL = 1e-8


def scatter_obs(obs: ObservationSet, weighted: np.ndarray) -> np.ndarray:
    """H^T applied to observation-space values: (n_obs,) gives a flat
    state, (n_obs, n) gives n flat states as (dim, n) columns."""
    out = np.zeros((obs.grid.dim,) + weighted.shape[1:])
    out[obs.indices] = weighted
    return out


class PosteriorSolver:
    """Factorized posterior precision, reusable across observation values.

    With method "direct", the posterior precision A = Q + H^T R^{-1} H is
    factored once by ``linalg.factor_precision``: Jacobi-scaled, in the
    narrower of two orderings that A's own pattern gives, with
    NotPositiveDefinite naming a failing row of A (A is symmetric by
    construction, so unchecked but for its diagonal and finite values).
    With "pcg", A is kept with a block-diagonal preconditioner. ``prior``
    keeps the prior structure of ``q`` (None if ``q`` was modified after
    assembly), which conditional sampling draws its prior members from.
    """

    def __init__(self, q: BlockPrecision, obs: ObservationSet,
                 method: str = "direct", tol: float = 1e-10):
        if method not in ("direct", "pcg"):
            raise ValueError(f"unknown method {method!r}")
        self.obs = obs
        self.method = method
        self.tol = tol
        self.q_post = posterior_precision(q, obs)
        self.grid = q.grid
        self.prior = q.prior
        self.last_pcg = None
        if method == "direct":
            self._factor = factor_precision(self.q_post.to_csr(), self.grid)
        else:
            self._precond = block_diagonal_preconditioner(self.q_post)

    def _solve_system(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for the (dim, n) columns of rhs; PCG takes one at a time."""
        if self.method == "direct":
            return self._factor.solve(rhs)
        x = np.empty_like(rhs)
        for j in range(rhs.shape[1]):
            result = pcg_solve(
                lambda v: apply_precision(self.q_post, v).reshape(-1),
                np.ascontiguousarray(rhs[:, j]),
                preconditioner=self._precond, tol=self.tol)
            self.last_pcg = result
            x[:, j] = result.x
        return x

    def solve_columns(self, values: np.ndarray) -> np.ndarray:
        """Posterior means, as (dim, n) columns, for the stored mask/noise
        and each column of the (n_obs, n) observed values. A column that
        fails the residual check raises SolveFailure with its index."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != self.obs.n_obs:
            raise ValueError(f"expected ({self.obs.n_obs}, n) values, "
                             f"got shape {values.shape}")
        rhs = scatter_obs(self.obs, values / self.obs.noise_var[:, None])
        rhs_norm = np.linalg.norm(rhs, axis=0)
        # a zero column solves to exact zeros and so leaves a zero residual
        x = self._solve_system(rhs)
        q = self.q_post
        residual = rhs - apply_precision(q, x.reshape(q.nt, q.m, -1)) \
            .reshape(rhs.shape)
        rel = np.linalg.norm(residual, axis=0) / np.where(rhs_norm > 0,
                                                          rhs_norm, 1.0)
        # a NaN residual fails too
        failed = np.flatnonzero(~(rel <= RESIDUAL_TOL))
        if failed.size:
            j = int(failed[0])
            raise SolveFailure(f"posterior solve residual {rel[j]:.3e} "
                               f"exceeds {RESIDUAL_TOL}", column=j)
        return x

    def solve(self, values: np.ndarray | None = None) -> Trajectory:
        """Posterior mean for the stored mask/noise and the given values."""
        obs = self.obs if values is None else self.obs.replace_values(values)
        return Trajectory.from_flat(self.grid,
                                    self.solve_columns(obs.values[:, None]))


def oi_solve_precision(q: BlockPrecision, obs: ObservationSet,
                       method: str = "direct", tol: float = 1e-10
                       ) -> Trajectory:
    """Posterior mean through the sparse precision (zero prior mean)."""
    return PosteriorSolver(q, obs, method=method, tol=tol).solve()


def dense_trajectory_covariance(theta: ParamFields,
                                grid: SpaceTimeGrid | None = None,
                                p0_mode: str = "burnin", sigma0: float = 1.0,
                                burn_in: int = 20) -> np.ndarray:
    """Brute-force (nt*m, nt*m) covariance of the sampling recursion.

    Propagates cross-covariances block by block:
        C[t+1, s] = M_{t+1} C[t, s]            (s <= t)
        C[t+1, t+1] = M_{t+1} C[t, t] M^T + S_{t+1}
    Refuses to run above DENSE_GUARD; a grid given must be theta's.
    """
    grid = _theta_grid(theta, grid)
    if grid.dim > DENSE_GUARD:
        raise DimensionGuard(grid.dim, DENSE_GUARD, "the dense trajectory "
                             "covariance")
    prior = build_prior(theta, p0_mode, sigma0, burn_in)
    transitions, ic = prior.transitions, prior.ic
    m, nt, dt = grid.m, grid.nt, grid.dt
    if ic.mode == "white":
        p0 = ic.sigma0**2 * np.eye(m)
    else:
        p0 = burnin_covariance(ic, transitions[0], dt)
    cov = np.zeros((nt, nt, m, m))
    cov[0, 0] = p0
    for k, step in enumerate(transitions):
        t = k + 1
        g = step.propagate(np.diag(dt * step.noise_scale))
        noise_cov = g @ g.T
        for s in range(t):
            cov[t, s] = step.propagate(cov[t - 1, s])
            cov[s, t] = cov[t, s].T
        m_ct = step.propagate(cov[t - 1, t - 1])
        cov[t, t] = step.propagate(m_ct.T).T + noise_cov
        cov[t, t] = 0.5 * (cov[t, t] + cov[t, t].T)
    return cov.transpose(0, 2, 1, 3).reshape(nt * m, nt * m)


def oi_solve_dense_oracle(theta: ParamFields, grid: SpaceTimeGrid | None,
                          obs: ObservationSet, p0_mode: str = "burnin",
                          sigma0: float = 1.0, burn_in: int = 20
                          ) -> Trajectory:
    """Dense-covariance posterior mean; test oracle only. A grid given must
    be theta's."""
    grid = _theta_grid(theta, grid)
    p = dense_trajectory_covariance(theta, grid, p0_mode=p0_mode,
                                    sigma0=sigma0, burn_in=burn_in)
    if obs.n_obs == 0:
        return Trajectory.zeros(grid)
    idx = obs.indices
    p_ho = p[:, idx]
    s = p_ho[idx] + np.diag(obs.noise_var)
    weights = la.cho_solve(la.cho_factor(s, lower=True), obs.values)
    return Trajectory.from_flat(grid, p_ho @ weights)


def variational_cost_grad(x: Trajectory, obs: ObservationSet,
                          q: BlockPrecision, lam: float = 1.0
                          ) -> tuple[tuple[float, float, float], np.ndarray]:
    """((total, data_term, prior_term), flat gradient) of the interpolation
    cost at x, from one application of Q.

    data_term = sum (y - x_obs)^2 / noise_var,  prior_term = lam * x^T Q x,
    and the gradient in x is exact (it includes the factor 2); it may hold
    non-finite values.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    qx = apply_precision(q, x.states)
    prior = lam * float(np.sum(x.states * qx))
    g = 2.0 * lam * qx.reshape(-1)
    if obs.n_obs:
        resid = obs.values - x.flat[obs.indices]
        data = float(np.sum(resid**2 / obs.noise_var))
        g = g - 2.0 * scatter_obs(obs, resid / obs.noise_var)
    else:
        data = 0.0
    return (data + prior, data, prior), g
