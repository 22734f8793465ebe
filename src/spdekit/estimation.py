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
sum(log w_t) (Rue & Held 2005, ch. 2; ``precision._prior_log_det``), with
log|det A_t| the sum of the log-determinants of the Schur blocks of a
forward block sweep of every step (``state_space.schur_sweep``).

The gradient is the exact adjoint of the same residual form at every
power alpha (``_trace_gradient``). The quadratic term reads the step
residuals of the stacked trajectories, and the step log-determinant's
adjoint is A_bar = -A_t^{-T} and tau_bar = 1/tau_t. With k = alpha/2 and
A_t = I + dt L_t^k, the gradient with respect to L_t is

    L_bar = dt sum_{j<k} (L_t^j)^T A_bar (L_t^{k-1-j})^T,

which at k = 1 is dt A_bar. Its last link, from L_bar to the per-cell
fields, is the transpose of the stencil table that assembles L_t
(``operators.operator_adjoint``), which reads L_bar only at L_t's stencil
pattern; the sum then reads A_bar only at the Chebyshev k-ring, A_t's own
pattern. So A_t^{-T} is taken there alone, from a selected inverse of the
block-tridiagonal A_t (``state_space.selected_inverse``), the backward
pass over the same sweep the loss read its log-determinants from, and the
residual products likewise, for every step at once. One J^T product
serves every step. A burn-in start's marginal adjoint walks the
doubling's tape, which the marginal keeps where this gradient follows
(``_burnin_adjoint``). It starts from

    P_bar = 1/2 (W - W x_0 x_0^T W / n) = 1/2 W - 1/2 V V^T,

W = P_B^{-1}, V = W x_0 / sqrt(n), for the (m, n) starts x_0, which is
one dgemm and one dsyrk; like the doubling it holds every symmetric
matrix as an upper triangle on scipy's BLAS, and it forms its A_bar only
at the k-ring, as the steps do. The loss and the gradient read the prior
at theta as one object (``precision.PriorStructure``), and a fit builds
each theta's prior from the last (``precision.build_prior``). It forms
each step's r_t and w_t once per theta (``_step_terms``), and its loss
hands them, and the prior's Schur sweep, on to the adjoint at the same
theta, which drops the sweep once read.

The expected-nll gradient runs the same data path: E[x x^T] = x* x*^T +
V V^T for a posterior mean x* and a factor V of the posterior covariance,
so the columns [x*, V] stand in for the trajectories. It reads the prior
of the caller's precision and builds none of its own.

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
from scipy.linalg.blas import dgemm, dsymm, dsyr2k, dsyrk
from scipy.linalg.lapack import dpotrf, dtrtri

from . import oi
from .errors import DimensionGuard, DivergedFit, NotPositiveDefinite
from .grid import SpaceTimeGrid, Trajectory
from .operators import (ParamFields, _power, _ring_pattern, _slab_features,
                        _stencil_table, operator_adjoint, project_params)
from .precision import (BlockPrecision, PriorStructure, _prior_log_det,
                        _step_weights, build_prior, posterior_precision)
from .state_space import _burnin_doubling, selected_inverse
from .steps import make_step_operator

PARAM_NAMES = ("kappa", "m_u", "m_v", "h11", "h12", "h22", "tau")


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
    """The per-cell step direction of a _reduce result: when stationary,
    each field's gradient is shared by all of its cells."""
    return np.repeat(g, grid.dim) if stationary else g


def _stack_states(x, grid: SpaceTimeGrid) -> np.ndarray:
    """One trajectory, or a list or tuple of them, as one (nt, m, n) array,
    trajectory index last. No trajectory, or one on another grid than the
    parameters' grid, raises ValueError."""
    xs = list(x) if isinstance(x, (list, tuple)) else [x]
    if not xs:
        raise ValueError("need at least one trajectory")
    for traj in xs:
        if traj.grid != grid:
            raise ValueError(f"a trajectory on {traj.grid} does not match "
                             f"the parameters on {grid}")
    return np.stack([traj.states for traj in xs], axis=-1)


def nll(x, theta: ParamFields, p0_mode: str = "burnin", sigma0: float = 1.0,
        burn_in: int = 20) -> float:
    """Mean negative log-likelihood of one or more trajectories."""
    states = _stack_states(x, theta.grid)
    prior = build_prior(theta, p0_mode, sigma0, burn_in)
    return _mean_nll(states, prior, _step_terms(states, prior))


def _step_terms(states: np.ndarray, prior: PriorStructure) -> tuple:
    """The weights w_t and residuals r_t = A_t x_t - x_{t-1} of every step
    of the (nt, m, n) stack, as a (steps, m) and a (steps, m, n) array in
    the order of the prior's steps, slabs 1..N."""
    transitions = prior.transitions
    w = np.array([_step_weights(step, prior.grid.dt) for step in transitions])
    r = np.empty((len(transitions),) + states.shape[1:])
    for s, step in enumerate(transitions):
        np.subtract(step.a_solve @ states[step.t], states[step.t - 1],
                    out=r[s])
    return w, r


def _mean_nll(states: np.ndarray, prior: PriorStructure, terms) -> float:
    """nll of the (nt, m, n) stack under the prior, averaged over its n
    trajectories, in the residual form of the module docstring, from its
    step terms (``_step_terms``)."""
    nt, m, n = states.shape
    log_det = _prior_log_det(prior)
    ic = prior.ic
    x0 = states[0]
    quad = float(np.sum(x0 * (x0 / ic.sigma0**2 if ic.mode == "white"
                              else ic.prec @ x0)))
    for w, r in zip(*terms):
        quad += float(np.sum(w[:, None] * r * r))
    return 0.5 * (quad / n - log_det) + 0.5 * nt * m * math.log(2.0 * math.pi)


# --- exact adjoint ("trace") gradient ----------------------------------------

def _trace_gradient(states: np.ndarray, prior: PriorStructure,
                    terms) -> ParamGradients:
    """Trace gradient of the mean nll of the (nt, m, n) stack under the
    prior, from its step terms (``_step_terms``).

    Step t contributes 1/2 mean(sum w r_t^2) - 1/2 log|S_t^{-1}|: the
    quadratic term reads the rank-n residuals r_t, never m x m moments, and
    the log-determinant term is the closed form of the module docstring.
    Both are needed only at the k-ring pattern of A_t, where the map to
    L_bar reads them: A_bar = w r x_t^T / n - A_t^{-T} there, with A_t^{-1}
    from the selected inverse of every step at once, read from the prior's
    Schur sweep, which the prior then no longer holds, and the residual
    products of every step at once. dt A_bar of every step is one column
    of a (slots, steps) array, the burn-in's added into the first step's
    column; ``_operator_bars`` maps the columns to L_bar at the stencil
    pattern, and one product with J^T maps them all to the fields.
    """
    theta, transitions, ic = prior.theta, prior.transitions, prior.ic
    grid = theta.grid
    dt = grid.dt
    n = states.shape[2]
    k = theta.alpha // 2
    grads = {name: np.zeros(grid.shape) for name in PARAM_NAMES}
    ring = _ring_pattern(grid, k)
    w, r = terms
    # (A_t^{-T})[rows, indices] = A_t^{-1}[indices, rows]
    inverse_t = selected_inverse(prior.take_sweep(), ring.indices, ring.rows)
    # the steps are slabs 1..N, so r[s] pairs with states[s + 1]
    rx = _pattern_products(r, states[1:], ring) / n
    a_bars = dt * (w[:, ring.rows].T * rx - inverse_t.T)
    for step, r_t in zip(transitions, r):
        tau = step.noise_scale
        r_sq = np.einsum("ij,ij->i", r_t, r_t) / n
        tau_bar = 1.0 / tau - r_sq / (dt**2 * tau**3)
        grads["tau"][step.t] += tau_bar.reshape(grid.ny, grid.nx)
    # time-zero marginal: white is parameter-free, burn-in backpropagates
    # through the first step
    if ic.mode == "burnin":
        tau_bar, a_bar = _burnin_adjoint(states[0], transitions[0], ic, dt,
                                         ring)
        grads["tau"][transitions[0].t] += tau_bar.reshape(grid.ny, grid.nx)
        a_bars[:, 0] += dt * a_bar
    ts = [step.t for step in transitions]
    operator_adjoint(_operator_bars(a_bars, theta, ts), theta, ts, grads)
    return ParamGradients(grid, grads)


def _operator_bars(a_bars: np.ndarray, theta: ParamFields, ts) -> np.ndarray:
    """L_bar = sum_{j<k} (L_t^j)^T (dt A_bar) (L_t^{k-1-j})^T at the stencil
    pattern, for each column of a_bars (dt A_bar of slab ts[s] at the
    k-ring pattern). At k = 1 that is a_bars itself.

    The sum runs backwards through the powers P_i = L_t^i of the forward
    product: P_bar starts as dt A_bar, each power i = k-1, ..., 1 adds
    (P_i^T P_bar) at the pattern and passes P_bar L_t^T down, and the last
    P_bar adds itself. L_t comes from the stencil table's one product."""
    k = theta.alpha // 2
    if k == 1:
        return a_bars
    table, ring = _stencil_table(theta.grid), _ring_pattern(theta.grid, k)
    l_values = np.ascontiguousarray((table.jac @ _slab_features(theta,
                                                                ts)).T)
    out = np.empty((table.rows.size, len(ts)))
    for s, values in enumerate(l_values):
        lower = table.operator(values)
        p_bar = ring.matrix(np.ascontiguousarray(a_bars[:, s]))
        l_bar = np.zeros(table.rows.size)
        for i in range(k - 1, 0, -1):
            l_bar += (_power(lower, i).T @ p_bar)[table.rows, table.indices]
            p_bar = p_bar @ lower.T
        out[:, s] = l_bar + p_bar[table.rows, table.indices]
    return out


@functools.lru_cache(maxsize=8)
def _offset_runs(pattern) -> list:
    """A grid pattern grouped by offset d = col - row: for each d, its
    slots, the row range [lo, hi) whose pairs (i, i + d) stay inside the
    grid, and each slot's row relative to lo."""
    m = pattern.indptr.size - 1
    offsets = pattern.indices - pattern.rows
    runs = []
    for d in np.unique(offsets):
        slots = np.flatnonzero(offsets == d)
        lo, hi = max(0, -d), m - max(0, d)
        at = pattern.rows[slots] - lo
        for arr in (slots, at):
            arr.setflags(write=False)
        runs.append((int(d), lo, hi, slots, at))
    return runs


def _pattern_products(r: np.ndarray, x: np.ndarray, pattern) -> np.ndarray:
    """sum_n r[..., row_k, n] x[..., col_k, n] at every slot k of a grid
    pattern, as a (slots, ...) array: (m, n) inputs give one column,
    (steps, m, n) stacks one per step. One offset at a time, over the whole
    stack: each offset pairs a slice of r with a shifted slice of x, so
    neither a (slots, n) gather nor an m x m product is formed."""
    out = np.empty((pattern.rows.size,) + r.shape[:-2])
    for d, lo, hi, slots, at in _offset_runs(pattern):
        out[slots] = np.einsum("...ij,...ij->i...", r[..., lo:hi, :],
                               x[..., lo + d:hi + d, :])[at]
    return out


def _burnin_adjoint(x0: np.ndarray, step, ic, dt: float, ring) -> tuple:
    """(tau_bar of the first step's slab, A_bar of A_1 at the slots of
    ring): the x_0 marginal's share of the gradient of the mean nll of the
    (m, n) starts x0, backpropagated through the burn-in doubling.

    With M = A_1^{-1} as the marginal holds it, the forward pass of
    initial_condition, P_B = G_B G_B^T + S_B built by squaring runs
    (G, S) -> (G G, S + G S G^T) and applying them, P <- S + G P G^T, is
    walked backwards from its recorded operations (the marginal's tape,
    which this takes; a marginal without one runs the doubling again to
    record it). It starts from P_bar = d(nll)/dP_B, which with
    W = P_B^{-1} and V = W x0 / sqrt(n) is
    1/2 (W - W x0 x0^T W / n) = 1/2 W - 1/2 V V^T, and carries G_bar and
    the symmetric S_bar of the current run:

        apply:   S_bar += P_bar,  G_bar += 2 P_bar G P,  P_bar <- G^T P_bar G
        square:  G_bar <- G_bar G^T + G^T G_bar + 2 S_bar G S,
                 S_bar <- S_bar + G^T S_bar G

    As in the forward pass, every symmetric matrix is an upper triangle on
    scipy's BLAS: P_bar is one dsyrk on V that adds 1/2 W, P_bar G and
    S_bar G come from dsymm, G^T P_bar G and S_bar + G^T S_bar G are one
    dsyr2k each, 2 P_bar G P is dsymm on the held triangle P, and
    G_bar's three terms accumulate into one array. The base run
    G = M, S = M D M^T gives M_bar = G_bar + 2 S_bar M D and
    D_bar = diag(M^T S_bar M), which feeds tau_1; A_bar = -M^T M_bar M^T
    is read only at the ring's slots, from M^T M_bar and M. Each recorded
    operation is dropped once used.
    """
    prop = ic.prop
    tau1 = step.noise_scale
    noise_var = (dt * tau1)**2
    tape, ic.tape = ic.tape, None
    if tape is None:
        tape = []
        _burnin_doubling(prop, noise_var, ic.burn_in, tape)

    # ic.prec is exactly symmetric and C-ordered: its transpose is the same
    # matrix, Fortran-ordered as BLAS reads it without a copy
    w_mat = ic.prec.T
    v = dgemm(1.0 / math.sqrt(x0.shape[1]), w_mat, x0.T, trans_b=1)
    p_bar = dsyrk(-0.5, v, beta=0.5, c=w_mat)
    del v
    g_bar = np.zeros((ic.m, ic.m), order="F")
    s_bar = np.zeros((ic.m, ic.m), order="F")
    while tape:
        kind, g, held = tape.pop()
        if kind == "apply":
            s_bar += p_bar
            pg = dsymm(1.0, p_bar, g)
            if held is None:                   # applied to P = I
                g_bar += 2.0 * pg
            else:
                g_bar = dsymm(2.0, held, pg, side=1, beta=1.0, c=g_bar,
                              overwrite_c=1)
                p_bar = dsyr2k(0.5, g, pg, trans=1)
        else:                                  # held = G S
            grown = dgemm(1.0, g_bar, g, trans_b=1)
            grown = dgemm(1.0, g, g_bar, trans_a=1, beta=1.0, c=grown,
                          overwrite_c=1)
            g_bar = dsymm(2.0, s_bar, held, beta=1.0, c=grown, overwrite_c=1)
            s_bar = dsyr2k(0.5, g, dsymm(1.0, s_bar, g), trans=1, beta=1.0,
                           c=s_bar, overwrite_c=1)

    s_m = dsymm(1.0, s_bar, prop)
    m_bar = g_bar + 2.0 * s_m * noise_var
    tau_bar = np.einsum("ij,ij->j", prop, s_m) * 2.0 * dt**2 * tau1
    return tau_bar, -_pattern_products(dgemm(1.0, prop, m_bar, trans_a=1),
                                       prop, ring)


def nll_grad(x, theta: ParamFields, stationary: bool = False,
             p0_mode: str = "burnin", sigma0: float = 1.0, burn_in: int = 20):
    """Gradient of the mean nll with respect to every parameter entry.

    Returns ParamGradients, or with stationary=True the 7 gradients along
    whole fields (cell sums) at theta, which need not be stationary: the
    exact adjoint at every alpha.
    """
    states = _stack_states(x, theta.grid)
    prior = build_prior(theta, p0_mode, sigma0, burn_in, keep_tape=True)
    grads = _trace_gradient(states, prior, _step_terms(states, prior))
    return grads.stationary_vector() if stationary else grads


def _reduce(grads: ParamGradients, stationary: bool) -> np.ndarray:
    """Per-cell gradients as one value per field (stationary) or per cell."""
    return grads.stationary_vector() if stationary else grads.pack()


def _refuse_dense_moments(grid: SpaceTimeGrid) -> None:
    """The expected-moments gradient's DimensionGuard."""
    if grid.dim > oi.DENSE_GUARD:
        raise DimensionGuard(grid.dim, oi.DENSE_GUARD,
                             "the expected-moments gradient's dense "
                             "posterior Cholesky")


def expected_nll_grad(x_star: Trajectory, obs, q: BlockPrecision,
                      stationary: bool = False):
    """Gradient of E[nll(x; theta) | y] at the theta of q's prior.

    Replaces the point iterate's outer products with the full posterior
    second moments (mean plus covariance). Fitting parameters to a
    smoothed point estimate alone is biased toward over-dissipative
    parameters; the covariance term removes that bias. q is the prior
    precision, and its prior (``q.prior``: theta, transitions and x_0
    marginal, tape included) is the one the adjoint reads: nothing of the
    prior is built here. One dense Cholesky of the posterior precision,
    P = L L^T, and one triangular inverse give V = L^{-T} with
    V V^T = P^{-1}, so E[x x^T] = x* x*^T + V V^T and the data gradient
    over the 1 + dim columns [x*, V], scaled by sqrt(1 + dim) to undo its
    mean, is exactly this gradient. Dense in dim^2, so desk-scale grids
    only: above oi.DENSE_GUARD it raises DimensionGuard, and a q without
    its prior, or an x* on another grid than q's, raises ValueError.
    """
    grid = q.grid
    mean = _stack_states(x_star, grid).reshape(-1, 1)
    prior = q.prior
    if prior is None:
        raise ValueError("the expected-moments gradient needs the prior "
                         "structure of q; this precision was modified "
                         "after assembly")
    _refuse_dense_moments(grid)
    # the dense P read in Fortran order is P^T, whose upper triangle is P's
    # lower one: dpotrf overwrites it with L^T (P = L L^T, the triangle
    # below cleared), and dtrtri overwrites that with V = L^{-T}
    dense = posterior_precision(q, obs).to_csr().toarray()
    upper, info = dpotrf(dense.T, lower=0, clean=1, overwrite_a=1)
    if info:
        raise NotPositiveDefinite(info - 1)
    factor = dtrtri(upper, lower=0, overwrite_c=1)[0]
    del dense, upper
    columns = np.concatenate([mean, factor], axis=1)
    del factor
    columns *= math.sqrt(columns.shape[1])
    columns = columns.reshape(grid.nt, grid.m, -1)
    grads = _trace_gradient(columns, prior, _step_terms(columns, prior))
    return grads.stationary_vector() if stationary else grads


# --- descent ----------------------------------------------------------------

def fit_params(trajectories, theta0: ParamFields, step_kind: str = "adam",
               step_params: dict | None = None, max_steps: int = 100,
               stationary: bool = False, p0_mode: str = "burnin",
               sigma0: float = 1.0, burn_in: int = 20, callback=None
               ) -> tuple[ParamFields, list[float]]:
    """First-order descent on the mean nll, tracking the best-seen theta.

    stationary ties each field's step (the start need not be stationary).
    The gradient is the exact adjoint at every alpha. Every iterate is
    projected back onto the valid parameter set.
    """
    grid = theta0.grid
    states = _stack_states(trajectories, grid)
    p0_opts = dict(p0_mode=p0_mode, sigma0=sigma0, burn_in=burn_in)
    stepper = make_step_operator(step_kind, **(step_params or {"lr": 0.02}))
    theta = project_params(theta0)
    # the prior (marginal tape included) and the step terms of the loss at
    # a theta serve the gradient there; the next prior reuses what it can
    prior = build_prior(theta, keep_tape=True, **p0_opts)
    terms = _step_terms(states, prior)
    best_loss, best_theta = _mean_nll(states, prior, terms), theta
    loss_curve = [best_loss]
    for it in range(max_steps):
        g = _tie(_reduce(_trace_gradient(states, prior, terms), stationary),
                 grid, stationary)
        theta = project_params(
            _theta_from_vector(theta, stepper.update(_theta_vector(theta), g)))
        # the last prior's steps live until the new loss is formed: freed
        # first, glibc handed their memory back and faulted it in again
        new = build_prior(theta, keep_tape=True, previous=prior, **p0_opts)
        new_terms = _step_terms(states, new)
        loss = _mean_nll(states, new, new_terms)
        prior, terms = new, new_terms
        if not math.isfinite(loss):
            raise DivergedFit(f"non-finite loss at step {it}")
        loss_curve.append(loss)
        if loss < best_loss:
            best_loss, best_theta = loss, theta
        if callback is not None:
            callback(it, loss, theta)
    return best_theta, loss_curve
