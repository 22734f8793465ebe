"""Likelihood-based estimation of the drift parameters from full trajectories.

The negative log-likelihood of a trajectory x under the prior with
precision Q(theta) is

    nll = 1/2 (x^T Q x - log|Q|) + dim/2 * log(2 pi).

Two gradient modes are provided. "finite_diff" differentiates the nll
numerically (cheap under the stationarity constraint: 7 scalars). "trace"
is the exact adjoint of the assembly; its last link, from d/dL_t to the
per-cell fields, is the transpose of the stencil table that assembles L_t
(``operators.operator_adjoint``). The quadratic term is differentiated
through the step residuals r_t = A_t x_t - x_{t-1}, computed from the
stacked data trajectories. The step log-determinant is closed form, the
GMRF identity (Rue & Held 2005, ch. 2)

    log|S_t^{-1}| = 2 log|det A_t| + sum(log w_t),   w_t = 1/(dt tau_t)^2,

whose adjoint is A_bar = -A_t^{-T} and tau_bar = 1/tau_t, taken from a
dense inverse of A_t. Both terms land on the same per-cell parameter
gradients. The trace mode covers alpha=2 (use finite differences for
higher powers).

Parameter slab 0 never enters the model (transitions run from step 1, and
the burn-in initial condition uses step 1 too), so its gradients are
identically zero.

kappa and tau both scale the marginal variance; from short records they
are only weakly separable (kappa also shapes the correlation, tau does
not). The stationarity flag is the practical remedy: it cuts the problem
to 7 degrees of freedom, which the twin tests recover reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionGuard, DivergedFit, UnsupportedAlpha
from .grid import SpaceTimeGrid, Trajectory
from .linalg import log_det_block
from .operators import ParamFields, operator_adjoint, project_params
from .precision import assemble_block_precision, quadratic_form
from .state_space import (TransitionStep, _burnin_doubling, build_transition,
                          initial_condition)
from .steps import make_step_operator

PARAM_NAMES = ("kappa", "m_u", "m_v", "h11", "h12", "h22", "tau")
FD_GUARD = 5000


@dataclass
class ParamGradients:
    """Per-cell gradients, one (nt, ny, nx) array per parameter field."""

    grid: SpaceTimeGrid
    fields: dict[str, np.ndarray]

    def stationary_vector(self) -> np.ndarray:
        """Reduce to the 7 broadcast degrees of freedom (sum over cells)."""
        return np.array([self.fields[n].sum() for n in PARAM_NAMES])

    def pack(self, names=PARAM_NAMES) -> np.ndarray:
        return np.concatenate([self.fields[n].ravel() for n in names])

    def norm(self) -> float:
        return float(np.sqrt(sum(np.sum(f**2) for f in self.fields.values())))


def _as_list(x) -> list[Trajectory]:
    return list(x) if isinstance(x, (list, tuple)) else [x]


def _stack_states(xs: list[Trajectory]) -> np.ndarray:
    """The trajectories as one (nt, m, n) array, trajectory index last."""
    return np.stack([x.states for x in xs], axis=-1)


def nll(x, theta: ParamFields, p0_mode: str = "burnin", sigma0: float = 1.0,
        burn_in: int = 20, q=None) -> float:
    """Mean negative log-likelihood of one or more trajectories."""
    xs = _as_list(x)
    if q is None:
        q = assemble_block_precision(theta, p0_mode=p0_mode, sigma0=sigma0,
                                     burn_in=burn_in)
    quad = quadratic_form(q, _stack_states(xs)) / len(xs)
    ld = log_det_block(q)
    return 0.5 * (quad - ld) + 0.5 * q.dim * math.log(2.0 * math.pi)


# --- finite-difference gradient ----------------------------------------------

def _fd_gradient(xs, theta, p0_opts, step_scale=1e-5) -> ParamGradients:
    grid = theta.grid
    if grid.dim > FD_GUARD:
        raise DimensionGuard(grid.dim, FD_GUARD)
    fields = {n: np.zeros(grid.shape) for n in PARAM_NAMES}
    arrays = theta.field_arrays()
    for name in PARAM_NAMES:
        base = arrays[name]
        grad = fields[name]
        flat = grad.reshape(-1)
        base_flat = base.reshape(-1)
        for k in range(base_flat.size):
            h = step_scale * (1.0 + abs(base_flat[k]))
            for sign in (+1.0, -1.0):
                pert = base.copy()
                pert.reshape(-1)[k] = base_flat[k] + sign * h
                th = theta.replace_fields(**{name: pert})
                val = nll(xs, th, **p0_opts)
                flat[k] += sign * val / (2.0 * h)
    return ParamGradients(grid, fields)


def _fd_gradient_stationary(xs, theta, p0_opts, step_scale=1e-5) -> np.ndarray:
    arrays = theta.field_arrays()
    out = np.zeros(len(PARAM_NAMES))
    for i, name in enumerate(PARAM_NAMES):
        base = float(arrays[name].reshape(-1)[0])
        h = step_scale * (1.0 + abs(base))
        vals = []
        for sign in (+1.0, -1.0):
            th = theta.replace_fields(
                **{name: np.full(theta.grid.shape, base + sign * h)})
            vals.append(nll(xs, th, **p0_opts))
        out[i] = (vals[0] - vals[1]) / (2.0 * h)
    return out


# --- exact adjoint ("trace") gradient ----------------------------------------

class TrajectoryMoments:
    """Second moments E[x_t x_t^T] and E[x_{t-1} x_t^T] driving the
    quadratic part of the expected-nll gradient.

    From a posterior they are covariance blocks plus the mean outer
    products, which is exactly the expectation step of the classical
    alternating (EM-style) parameter update. From data they are empirical
    means of outer products; the data gradient itself reads the step
    residuals instead and never forms these m x m blocks.
    """

    def __init__(self, diag: list[np.ndarray], cross: list[np.ndarray]):
        self.diag = diag      # nt entries, m x m
        self.cross = cross    # nt-1 entries, E[x_{t-1} x_t^T]

    @classmethod
    def from_posterior(cls, x_star: Trajectory,
                       cov: np.ndarray) -> "TrajectoryMoments":
        grid = x_star.grid
        m, nt = grid.m, grid.nt
        diag, cross = [], []
        for t in range(nt):
            mean = x_star.states[t]
            block = cov[t * m:(t + 1) * m, t * m:(t + 1) * m]
            diag.append(block + np.outer(mean, mean))
            if t > 0:
                prev = x_star.states[t - 1]
                cblock = cov[(t - 1) * m: t * m, t * m:(t + 1) * m]
                cross.append(cblock + np.outer(prev, mean))
        return cls(diag, cross)


def _step_adjoint(step: TransitionStep, inverse: np.ndarray, rx: np.ndarray,
                  r_sq: np.ndarray, theta: ParamFields,
                  grads: dict[str, np.ndarray]) -> None:
    """Add step t's share of the mean-nll gradient to grads.

    The step contributes 1/2 sum(w r_t^2) - 1/2 log|S_t^{-1}|. rx =
    E[r_t x_t^T] and r_sq = E[r_t^2] (per row) carry the quadratic term;
    the log-determinant term is the closed form of the module docstring,
    read from inverse = A_t^{-1}.
    """
    grid = theta.grid
    dt = grid.dt
    tau = step.noise_scale
    w = 1.0 / (dt * tau)**2
    a_bar = w[:, None] * rx - inverse.T
    tau_bar = 1.0 / tau - r_sq / (dt**2 * tau**3)
    grads["tau"][step.t] += tau_bar.reshape(grid.ny, grid.nx)
    operator_adjoint(dt * a_bar, theta, step.t, grads)


def _trace_gradient_from(theta: ParamFields, p0_opts: dict, quadratic,
                         second_moment_0, transitions=None, ic=None
                         ) -> ParamGradients:
    """Shared driver of the data and the moments gradient paths.

    quadratic(step) returns (rx, r_sq) of _step_adjoint for that step;
    second_moment_0() returns E[x_0 x_0^T], read only by the burn-in
    adjoint. transitions and ic may come prebuilt for the same theta.
    """
    if theta.alpha != 2:
        raise UnsupportedAlpha(
            "trace-mode gradients are implemented for alpha=2; "
            "use finite_diff for higher powers")
    grid = theta.grid
    if transitions is None:
        transitions = build_transition(theta, grid)
    if ic is None:
        ic = initial_condition(theta, grid, transitions=transitions,
                               **p0_opts)
    grads = {n: np.zeros(grid.shape) for n in PARAM_NAMES}
    # A_1^{-1} serves step 1 and the burn-in adjoint
    first_inverse = transitions[0].dense_inverse()
    for step in transitions:
        inverse = first_inverse if step is transitions[0] \
            else step.dense_inverse()
        _step_adjoint(step, inverse, *quadratic(step), theta, grads)
    # time-zero marginal: white is parameter-free, burn-in backpropagates
    if ic.mode == "burnin":
        _burnin_adjoint(second_moment_0(), theta, transitions[0], ic, grads,
                        first_inverse)
    return ParamGradients(grid, grads)


def _trace_gradient_moments(moments: TrajectoryMoments, theta: ParamFields,
                            p0_opts: dict) -> ParamGradients:
    """Trace gradient from second moments (the expected-nll path)."""
    def quadratic(step):
        t = step.t
        a_dense = step.a_solve.toarray()
        c_t = moments.cross[t - 1]             # E[x_{t-1} x_t^T]
        am = step.a_solve @ moments.diag[t]
        r_sq = (np.einsum("ij,ij->i", am, a_dense)
                - 2.0 * np.einsum("ij,ij->i", a_dense, c_t)
                + np.diag(moments.diag[t - 1]))
        return am - c_t, r_sq

    return _trace_gradient_from(theta, p0_opts, quadratic,
                                lambda: moments.diag[0])


def _trace_gradient(xs: list[Trajectory], theta: ParamFields, p0_opts: dict,
                    transitions=None, ic=None) -> ParamGradients:
    """Trace gradient from data: rank-n step residuals, no m x m moments."""
    states = _stack_states(xs)                 # (nt, m, n)
    n = len(xs)

    def quadratic(step):
        x_t = states[step.t]
        r = step.a_solve @ x_t - states[step.t - 1]
        return r @ x_t.T / n, np.einsum("ij,ij->i", r, r) / n

    return _trace_gradient_from(theta, p0_opts, quadratic,
                                lambda: states[0] @ states[0].T / n,
                                transitions, ic)


def _burnin_adjoint(second_moment_0, theta, step, ic, grads, prop) -> None:
    """Backpropagate the x_0 marginal through the burn-in doubling.

    prop is M = A_1^{-1}. The forward pass of initial_condition,
    P_B = G_B G_B^T + S_B built by squaring runs (G, S) -> (G G, S + G S G^T)
    and applying them, P <- S + G P G^T, is rerun to record its operations,
    then walked backwards from P_bar = d(nll)/dP_B, with G_bar and the
    symmetric S_bar of the current run:

        apply:   S_bar += P_bar,  G_bar += 2 P_bar G P,  P_bar <- G^T P_bar G
        square:  G_bar <- G_bar G^T + G^T G_bar + 2 S_bar G S,
                 S_bar <- S_bar + G^T S_bar G

    The base run G = M, S = M D M^T gives M_bar = G_bar + 2 S_bar M D and
    D_bar = diag(M^T S_bar M), which feeds tau_1; finally
    A_bar = -M^T M_bar M^T. Each recorded operation is dropped once used.
    """
    grid = theta.grid
    dt = grid.dt
    m = grid.m
    tau1 = step.noise_scale
    noise_var = (dt * tau1)**2
    tape = []
    _burnin_doubling(prop, noise_var, ic.burn_in, tape)

    w_mat = ic.prec
    p_bar = 0.5 * (w_mat - w_mat @ second_moment_0 @ w_mat)
    g_bar = np.zeros((m, m))
    s_bar = np.zeros((m, m))
    while tape:
        kind, g, held = tape.pop()
        if kind == "apply":
            s_bar += p_bar
            pg = p_bar @ g
            if held is None:                   # applied to P = I
                g_bar += 2.0 * pg
            else:
                g_bar += 2.0 * pg @ held
                p_bar = g.T @ pg
                p_bar = 0.5 * (p_bar + p_bar.T)
        else:                                  # held = G S
            g_bar = g_bar @ g.T + g.T @ g_bar + 2.0 * s_bar @ held
            s_bar = s_bar + g.T @ (s_bar @ g)
            s_bar = 0.5 * (s_bar + s_bar.T)

    s_m = s_bar @ prop
    m_bar = g_bar + 2.0 * s_m * noise_var
    tau_bar = np.einsum("ij,ij->j", prop, s_m) * 2.0 * dt**2 * tau1
    a_bar = -prop.T @ m_bar @ prop.T
    grads["tau"][step.t] += tau_bar.reshape(grid.ny, grid.nx)
    operator_adjoint(dt * a_bar, theta, step.t, grads)


def nll_grad(x, theta: ParamFields, mode: str = "finite_diff",
             stationary: bool = False, p0_mode: str = "burnin",
             sigma0: float = 1.0, burn_in: int = 20):
    """Gradient of the mean nll with respect to every parameter entry.

    Returns ParamGradients, or the reduced 7-vector when stationary=True.
    The two modes agree to finite-difference accuracy on small grids.
    """
    p0_opts = dict(p0_mode=p0_mode, sigma0=sigma0, burn_in=burn_in)
    return _gradient(_as_list(x), theta, mode, stationary, p0_opts)


def _gradient(xs, theta, mode, stationary, p0_opts, transitions=None,
              ic=None):
    """nll_grad on a list of trajectories; the trace mode reuses
    transitions and ic when they were prebuilt for the same theta."""
    if mode == "trace":
        grads = _trace_gradient(xs, theta, p0_opts, transitions, ic)
        return grads.stationary_vector() if stationary else grads
    if mode == "finite_diff":
        if stationary:
            return _fd_gradient_stationary(xs, theta, p0_opts)
        return _fd_gradient(xs, theta, p0_opts)
    raise ValueError(f"unknown gradient mode {mode!r}")


def expected_nll_grad(x_star: Trajectory, obs, theta: ParamFields,
                      stationary: bool = False, p0_mode: str = "burnin",
                      sigma0: float = 1.0, burn_in: int = 20,
                      guard: int = FD_GUARD):
    """Gradient of E[nll(x; theta) | y] at the current parameters.

    Replaces the point iterate's outer products with the full posterior
    second moments (mean plus covariance). Fitting parameters to a
    smoothed point estimate alone is biased toward over-dissipative
    parameters; the covariance term removes that bias. Dense posterior
    covariance, so desk-scale grids only.
    """
    grid = theta.grid
    if grid.dim > guard:
        raise DimensionGuard(grid.dim, guard)
    from .precision import assemble_block_precision, posterior_precision
    p0_opts = dict(p0_mode=p0_mode, sigma0=sigma0, burn_in=burn_in)
    q = assemble_block_precision(theta, grid, **p0_opts)
    q_post = posterior_precision(q, obs)
    cov = np.linalg.inv(q_post.to_csr().toarray())
    moments = TrajectoryMoments.from_posterior(x_star, cov)
    grads = _trace_gradient_moments(moments, theta, p0_opts)
    return grads.stationary_vector() if stationary else grads


# --- descent ----------------------------------------------------------------

def _theta_from_stationary(grid, vec, alpha) -> ParamFields:
    return ParamFields.from_arrays(
        grid, *[np.full(grid.shape, float(v)) for v in vec], alpha=alpha)


def _stationary_values(theta) -> np.ndarray:
    return np.array([float(getattr(theta, n).values.reshape(-1)[0])
                     for n in PARAM_NAMES])


def fit_params(trajectories, theta0: ParamFields, step_kind: str = "adam",
               step_params: dict | None = None, max_steps: int = 100,
               stationary: bool = False, grad_mode: str | None = None,
               p0_mode: str = "burnin", sigma0: float = 1.0,
               burn_in: int = 20, callback=None
               ) -> tuple[ParamFields, list[float]]:
    """First-order descent on the mean nll, tracking the best-seen theta.

    grad_mode defaults to finite differences under the stationarity
    constraint and to the exact adjoint otherwise. Every iterate is
    projected back onto the valid parameter set.
    """
    xs = _as_list(trajectories)
    if not xs:
        raise ValueError("need at least one trajectory")
    if grad_mode is None:
        grad_mode = "finite_diff" if stationary else "trace"
    p0_opts = dict(p0_mode=p0_mode, sigma0=sigma0, burn_in=burn_in)
    grid = theta0.grid
    stepper = make_step_operator(step_kind, **(step_params or {"lr": 0.02}))

    def loss_at(theta):
        # the transitions and x_0 marginal built for the loss at theta are
        # reused by the gradient at the same theta
        steps = build_transition(theta, grid)
        q = assemble_block_precision(theta, grid, transitions=steps,
                                     **p0_opts)
        return nll(xs, theta, q=q), (steps, q.prior.ic)

    theta = project_params(theta0)
    best_loss, built = loss_at(theta)
    best_theta = theta
    loss_curve = [best_loss]
    for it in range(max_steps):
        g = _gradient(xs, theta, grad_mode, stationary, p0_opts, *built)
        if stationary:
            vec = _stationary_values(theta)
            new_vec = stepper.update(vec, g)
            theta = project_params(
                _theta_from_stationary(grid, new_vec, theta.alpha))
        else:
            vec = np.concatenate(
                [theta.field_arrays()[n].ravel() for n in PARAM_NAMES])
            new_vec = stepper.update(vec, g.pack())
            parts = new_vec.reshape(len(PARAM_NAMES), *grid.shape)
            theta = project_params(theta.replace_fields(
                **dict(zip(PARAM_NAMES, parts))))
        loss, built = loss_at(theta)
        if not math.isfinite(loss):
            raise DivergedFit(f"non-finite loss at step {it}")
        loss_curve.append(loss)
        if loss < best_loss:
            best_loss, best_theta = loss, theta
        if callback is not None:
            callback(it, loss, theta)
    return best_theta, loss_curve
