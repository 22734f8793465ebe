"""Likelihood-based estimation of the drift parameters from full trajectories.

The negative log-likelihood of a trajectory x under the prior with
precision Q(theta) is

    nll = 1/2 (x^T Q x - log|Q|) + dim/2 * log(2 pi),

and both terms are evaluated in the residual form of the step recursion,
never through Q itself. With r_t = A_t x_t - x_{t-1} and
w_t = 1/(dt tau_t)^2,

    x^T Q x = x_0^T P_0^{-1} x_0 + sum_t sum_i w_t,i r_t,i^2
    log|Q|  = log|P_0^{-1}| + sum_t [2 log|det A_t| + sum(log w_t)],

the second being the GMRF identity log|S_t^{-1}| = 2 log|det A_t| +
sum(log w_t) (Rue & Held 2005, ch. 2; ``precision._prior_log_det``).

Two gradient modes are provided. "finite_diff" differentiates the nll
numerically (cheap when stationary: one direction per field). "trace"
is the exact adjoint of the same residual form: the quadratic term reads
the step residuals of the stacked trajectories, and the step
log-determinant's adjoint is A_bar = -A_t^{-T} and tau_bar = 1/tau_t.
Its last link, from d/dL_t to the per-cell fields, is the transpose of
the stencil table that assembles L_t (``operators.operator_adjoint``),
which reads A_bar only at L_t's stencil pattern; so A_t^{-T} is taken
there alone, from a selected inverse of the block-tridiagonal A_t
(``state_space.selected_inverse``), and the residual products likewise.
The trace mode covers alpha=2 (use finite differences for higher powers).

The expected-nll gradient runs the same data path: E[x x^T] = x* x*^T +
V V^T for a posterior mean x* and a factor V of the posterior covariance,
so the columns [x*, V] stand in for the trajectories.

Parameter slab 0 never enters the model (transitions run from step 1, and
the burn-in initial condition uses step 1 too), so its gradients are
identically zero.

kappa and tau both scale the marginal variance; from short records they
are only weakly separable (kappa also shapes the correlation, tau does
not). The stationarity flag is the practical remedy: it ties each
field's step (every cell moves by the step of the field's gradient, its
cell sum), and the twin tests recover the tied fields reliably. The start
need not be stationary: theta always moves as every cell of the 7 fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionGuard, DivergedFit, UnsupportedAlpha
from .grid import SpaceTimeGrid, Trajectory
from .operators import (ParamFields, _stencil_table, operator_adjoint,
                        project_params)
from .precision import (_prior_log_det, _step_weights,
                        assemble_block_precision, posterior_precision)
from .state_space import (InitialCondition, TransitionStep, _burnin_doubling,
                          build_transition, initial_condition,
                          selected_inverse)
from .steps import make_step_operator

PARAM_NAMES = ("kappa", "m_u", "m_v", "h11", "h12", "h22", "tau")
FD_GUARD = 5000


@dataclass
class ParamGradients:
    """Per-cell gradients, one (nt, ny, nx) array per parameter field."""

    grid: SpaceTimeGrid
    fields: dict[str, np.ndarray]

    def stationary_vector(self) -> np.ndarray:
        """The gradient along each whole field: its sum over cells."""
        return np.array([self.fields[n].sum() for n in PARAM_NAMES])

    def pack(self, names=PARAM_NAMES) -> np.ndarray:
        return np.concatenate([self.fields[n].ravel() for n in names])

    @classmethod
    def unpack(cls, grid: SpaceTimeGrid, vec: np.ndarray) -> "ParamGradients":
        """The inverse of pack over every parameter."""
        parts = vec.reshape(len(PARAM_NAMES), *grid.shape)
        return cls(grid, dict(zip(PARAM_NAMES, parts)))


def _theta_vector(theta: ParamFields) -> np.ndarray:
    """Every cell of the 7 fields, laid out as the per-cell gradients."""
    return ParamGradients(theta.grid, theta.field_arrays()).pack()


def _theta_from_vector(theta: ParamFields, vec: np.ndarray) -> ParamFields:
    """theta with every field set from vec, not projected."""
    return theta.replace_fields(
        **ParamGradients.unpack(theta.grid, vec).fields)


def _tie(g: np.ndarray, grid: SpaceTimeGrid, stationary: bool) -> np.ndarray:
    """The per-cell step direction of a _gradient result: when stationary,
    each field's gradient is shared by all of its cells."""
    return np.repeat(g, grid.dim) if stationary else g


def _as_list(x) -> list[Trajectory]:
    return list(x) if isinstance(x, (list, tuple)) else [x]


def _stack_states(xs: list[Trajectory]) -> np.ndarray:
    """The trajectories as one (nt, m, n) array, trajectory index last."""
    return np.stack([x.states for x in xs], axis=-1)


def nll(x, theta: ParamFields, p0_mode: str = "burnin", sigma0: float = 1.0,
        burn_in: int = 20) -> float:
    """Mean negative log-likelihood of one or more trajectories."""
    steps = build_transition(theta, theta.grid)
    ic = initial_condition(theta, theta.grid, p0_mode=p0_mode, sigma0=sigma0,
                           burn_in=burn_in, transitions=steps)
    return _mean_nll(_stack_states(_as_list(x)), steps, ic, theta.grid.dt)


def _mean_nll(states: np.ndarray, transitions: list[TransitionStep],
              ic: InitialCondition, dt: float) -> float:
    """nll of the (nt, m, n) stack, averaged over its n trajectories, in the
    residual form of the module docstring."""
    nt, m, n = states.shape
    log_det = _prior_log_det(ic, transitions, dt)
    x0 = states[0]
    quad = float(np.sum(x0 * (x0 / ic.sigma0**2 if ic.mode == "white"
                              else ic.prec @ x0)))
    for step in transitions:
        r = step.a_solve @ states[step.t] - states[step.t - 1]
        quad += float(np.sum(_step_weights(step, dt)[:, None] * r * r))
    return 0.5 * (quad / n - log_det) + 0.5 * nt * m * math.log(2.0 * math.pi)


# --- finite-difference gradient ----------------------------------------------

def _fd_gradient(xs, theta, p0_opts, stationary: bool, at_theta=None,
                 step_scale=1e-5) -> np.ndarray:
    """Central differences of the mean nll along each direction: a whole
    field when stationary (so the cell sum of the per-cell gradient), else
    one cell. Per-cell directions are refused above FD_GUARD cells.

    A probe that ``project_params`` would move lies outside the valid set
    and is not evaluated: the difference is then one-sided from theta on
    the side that stays valid, and 0 when neither does (the projection
    would undo a step along that direction). A one-sided difference reads
    the nll at theta from at_theta when the caller has it.
    """
    grid = theta.grid
    if not stationary and grid.dim > FD_GUARD:
        raise DimensionGuard(grid.dim, FD_GUARD)
    arrays = theta.field_arrays()
    out = []
    for name in PARAM_NAMES:
        for cells in [slice(None)] if stationary else range(grid.dim):
            h = step_scale * (1.0 + np.max(np.abs(arrays[name].flat[cells])))
            ends = []
            for shift in (h, -h):
                field = arrays[name].copy()
                field.flat[cells] += shift
                probe = theta.replace_fields(**{name: field})
                ends.append(nll(xs, probe, **p0_opts)
                            if project_params(probe) is probe else None)
            sides = 2 - ends.count(None)
            if sides == 1 and at_theta is None:
                at_theta = nll(xs, theta, **p0_opts)
            up, down = (at_theta if end is None else end for end in ends)
            out.append((up - down) / (sides * h) if sides else 0.0)
    return np.array(out)


# --- exact adjoint ("trace") gradient ----------------------------------------

def _trace_gradient(states: np.ndarray, theta: ParamFields, p0_opts: dict,
                    transitions=None, ic=None) -> ParamGradients:
    """Trace gradient of the mean nll of the (nt, m, n) stack.

    Step t contributes 1/2 mean(sum w r_t^2) - 1/2 log|S_t^{-1}|: the
    quadratic term reads the rank-n residuals r_t, never m x m moments, and
    the log-determinant term is the closed form of the module docstring.
    Both are needed only at L_t's stencil pattern, where the operator
    adjoint reads them: A_bar = w r x_t^T / n - A_t^{-T} there, with A_t^{-1}
    from the selected inverse of every step at once. transitions and ic
    may come prebuilt for the same theta.
    """
    if theta.alpha != 2:
        raise UnsupportedAlpha(
            "trace-mode gradients are implemented for alpha=2; "
            "use finite_diff for higher powers")
    grid = theta.grid
    dt = grid.dt
    n = states.shape[2]
    if transitions is None:
        transitions = build_transition(theta, grid)
    if ic is None:
        ic = initial_condition(theta, grid, transitions=transitions,
                               **p0_opts)
    grads = {name: np.zeros(grid.shape) for name in PARAM_NAMES}
    table = _stencil_table(grid)
    # (A_t^{-T})[rows, indices] = A_t^{-1}[indices, rows]
    inverse_t = selected_inverse(transitions, grid.nx, table.indices,
                                 table.rows)
    for step, inv_t in zip(transitions, inverse_t):
        x_t = states[step.t]
        r = step.a_solve @ x_t - states[step.t - 1]
        tau = step.noise_scale
        rx = _pattern_products(r, x_t, grid) / n
        a_bar = _step_weights(step, dt)[table.rows] * rx - inv_t
        r_sq = np.einsum("ij,ij->i", r, r) / n
        tau_bar = 1.0 / tau - r_sq / (dt**2 * tau**3)
        grads["tau"][step.t] += tau_bar.reshape(grid.ny, grid.nx)
        operator_adjoint(dt * a_bar, theta, step.t, grads)
    # time-zero marginal: white is parameter-free, burn-in backpropagates
    if ic.mode == "burnin":
        _burnin_adjoint(states[0] @ states[0].T / n, theta, transitions[0],
                        ic, grads)
    return ParamGradients(grid, grads)


@functools.lru_cache(maxsize=8)
def _offset_runs(grid: SpaceTimeGrid) -> list:
    """The stencil pattern grouped by offset d = col - row: for each d, its
    slots, the row range [lo, hi) whose pairs (i, i + d) stay inside the
    grid, and each slot's row relative to lo."""
    table = _stencil_table(grid)
    offsets = table.indices - table.rows
    runs = []
    for d in np.unique(offsets):
        slots = np.flatnonzero(offsets == d)
        lo, hi = max(0, -d), grid.m - max(0, d)
        at = table.rows[slots] - lo
        for arr in (slots, at):
            arr.setflags(write=False)
        runs.append((int(d), lo, hi, slots, at))
    return runs


def _pattern_products(r: np.ndarray, x: np.ndarray,
                      grid: SpaceTimeGrid) -> np.ndarray:
    """sum_n r[row_k, n] x[col_k, n] at every stencil slot k, one offset at
    a time: each offset pairs a slice of r with a shifted slice of x, so
    neither a (slots, n) gather nor an m x m product is formed."""
    out = np.empty(_stencil_table(grid).rows.size)
    for d, lo, hi, slots, at in _offset_runs(grid):
        out[slots] = np.einsum("ij,ij->i", r[lo:hi], x[lo + d:hi + d])[at]
    return out


def _burnin_adjoint(second_moment_0, theta, step, ic, grads) -> None:
    """Backpropagate the x_0 marginal through the burn-in doubling.

    With M = A_1^{-1} as the marginal holds it, the forward pass of
    initial_condition, P_B = G_B G_B^T + S_B built by squaring runs
    (G, S) -> (G G, S + G S G^T) and applying them, P <- S + G P G^T, is
    rerun to record its operations, then walked backwards from
    P_bar = d(nll)/dP_B, with G_bar and the symmetric S_bar of the current
    run:

        apply:   S_bar += P_bar,  G_bar += 2 P_bar G P,  P_bar <- G^T P_bar G
        square:  G_bar <- G_bar G^T + G^T G_bar + 2 S_bar G S,
                 S_bar <- S_bar + G^T S_bar G

    The base run G = M, S = M D M^T gives M_bar = G_bar + 2 S_bar M D and
    D_bar = diag(M^T S_bar M), which feeds tau_1; finally
    A_bar = -M^T M_bar M^T, read at the stencil pattern. Each recorded
    operation is dropped once used.
    """
    grid = theta.grid
    dt = grid.dt
    m = grid.m
    prop = ic.prop
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
    table = _stencil_table(grid)
    grads["tau"][step.t] += tau_bar.reshape(grid.ny, grid.nx)
    operator_adjoint(dt * a_bar[table.rows, table.indices], theta, step.t,
                     grads)


def nll_grad(x, theta: ParamFields, mode: str = "finite_diff",
             stationary: bool = False, p0_mode: str = "burnin",
             sigma0: float = 1.0, burn_in: int = 20):
    """Gradient of the mean nll with respect to every parameter entry.

    Returns ParamGradients, or with stationary=True the 7 gradients along
    whole fields (cell sums) at theta, which need not be stationary. The
    two modes agree to finite-difference accuracy on small grids.
    """
    p0_opts = dict(p0_mode=p0_mode, sigma0=sigma0, burn_in=burn_in)
    g = _gradient(_as_list(x), theta, mode, stationary, p0_opts)
    return g if stationary else ParamGradients.unpack(theta.grid, g)


def _reduce(grads: ParamGradients, stationary: bool) -> np.ndarray:
    """Per-cell gradients as one value per field (stationary) or per cell."""
    return grads.stationary_vector() if stationary else grads.pack()


def _gradient(xs, theta, mode, stationary: bool, p0_opts, transitions=None,
              ic=None, loss=None) -> np.ndarray:
    """nll gradient of a list of trajectories, one value per field when
    stationary, else per cell; the trace mode reuses transitions and ic,
    and the finite-difference mode the mean nll loss, when they were
    computed for the same theta."""
    if mode == "trace":
        return _reduce(_trace_gradient(_stack_states(xs), theta, p0_opts,
                                       transitions, ic), stationary)
    if mode == "finite_diff":
        return _fd_gradient(xs, theta, p0_opts, stationary, loss)
    raise ValueError(f"unknown gradient mode {mode!r}")


def expected_nll_grad(x_star: Trajectory, obs, theta: ParamFields,
                      stationary: bool = False, p0_mode: str = "burnin",
                      sigma0: float = 1.0, burn_in: int = 20,
                      guard: int = FD_GUARD):
    """Gradient of E[nll(x; theta) | y] at the current parameters.

    Replaces the point iterate's outer products with the full posterior
    second moments (mean plus covariance). Fitting parameters to a
    smoothed point estimate alone is biased toward over-dissipative
    parameters; the covariance term removes that bias. With the posterior
    covariance C = V V^T (V its Cholesky factor), E[x x^T] = x* x*^T +
    V V^T, so the data gradient over the 1 + dim columns [x*, V], scaled
    by sqrt(1 + dim) to undo its mean, is exactly this gradient. Dense
    posterior covariance, so desk-scale grids only.
    """
    grid = theta.grid
    if grid.dim > guard:
        raise DimensionGuard(grid.dim, guard)
    p0_opts = dict(p0_mode=p0_mode, sigma0=sigma0, burn_in=burn_in)
    q = assemble_block_precision(theta, grid, **p0_opts)
    cov = np.linalg.inv(posterior_precision(q, obs).to_csr().toarray())
    factor = np.linalg.cholesky(cov)
    del cov
    columns = np.concatenate([x_star.flat[:, None], factor], axis=1)
    del factor
    columns *= math.sqrt(columns.shape[1])
    grads = _trace_gradient(columns.reshape(grid.nt, grid.m, -1), theta,
                            p0_opts, q.prior.transitions, q.prior.ic)
    return grads.stationary_vector() if stationary else grads


# --- descent ----------------------------------------------------------------

def fit_params(trajectories, theta0: ParamFields, step_kind: str = "adam",
               step_params: dict | None = None, max_steps: int = 100,
               stationary: bool = False, grad_mode: str | None = None,
               p0_mode: str = "burnin", sigma0: float = 1.0,
               burn_in: int = 20, callback=None
               ) -> tuple[ParamFields, list[float]]:
    """First-order descent on the mean nll, tracking the best-seen theta.

    stationary ties each field's step (the start need not be stationary).
    grad_mode defaults to finite differences when stationary and to the
    exact adjoint otherwise. Every iterate is projected back onto the
    valid parameter set.
    """
    xs = _as_list(trajectories)
    if not xs:
        raise ValueError("need at least one trajectory")
    if grad_mode is None:
        grad_mode = "finite_diff" if stationary else "trace"
    p0_opts = dict(p0_mode=p0_mode, sigma0=sigma0, burn_in=burn_in)
    grid = theta0.grid
    stepper = make_step_operator(step_kind, **(step_params or {"lr": 0.02}))
    states = _stack_states(xs)

    def loss_at(theta):
        # the transitions and x_0 marginal built for the loss at theta are
        # reused by the gradient at the same theta
        steps = build_transition(theta, grid)
        ic = initial_condition(theta, grid, transitions=steps, **p0_opts)
        return _mean_nll(states, steps, ic, grid.dt), (steps, ic)

    theta = project_params(theta0)
    loss, built = loss_at(theta)
    best_loss, best_theta = loss, theta
    loss_curve = [best_loss]
    for it in range(max_steps):
        g = _tie(_gradient(xs, theta, grad_mode, stationary, p0_opts, *built,
                           loss=loss), grid, stationary)
        theta = project_params(
            _theta_from_vector(theta, stepper.update(_theta_vector(theta), g)))
        loss, built = loss_at(theta)
        if not math.isfinite(loss):
            raise DivergedFit(f"non-finite loss at step {it}")
        loss_curve.append(loss)
        if loss < best_loss:
            best_loss, best_theta = loss, theta
        if callback is not None:
            callback(it, loss, theta)
    return best_theta, loss_curve
