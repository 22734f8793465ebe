"""Iterative interpolation over the augmented (state, parameters) pair.

Each iteration moves the state down the interpolation cost with a
configurable first-order operator,

    x^{k+1} = x^k - step[grad_x J(x^k)],

and, in joint or alternating mode, moves the parameter fields down the
trajectory negative log-likelihood of the current state iterate (the
log-determinant term in the likelihood is what stops the noise scale from
drifting to degeneracy, which the raw quadratic cost would reward). After
every parameter update the fields are projected back onto the valid set.

Q holds the prior it was assembled from (``precision.PriorStructure``),
which the theta gradient reads; a theta update builds the next prior from
the last one with ``precision.build_prior``, as a fit does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedStep
from .estimation import (PARAM_NAMES, _reduce, _refuse_dense_moments,
                         _stack_states, _step_terms, _theta_from_vector,
                         _theta_vector, _tie, _trace_gradient,
                         expected_nll_grad)
from .grid import Trajectory
from .oi import variational_cost_grad
from .operators import ParamFields, project_params
from .precision import BlockPrecision, build_prior, prior_precision
from .steps import make_step_operator


@dataclass
class SolverConfig:
    """Knobs of the iterative solver.

    update_mode: "x_only" freezes theta; "joint" updates both every
    iteration; "alternating" runs x_steps state updates then theta_steps
    parameter updates, repeating (both >= 0, with a positive sum). theta
    descends the nll by its exact adjoint, at every alpha, or with
    theta_expected by the expected-nll gradient. That one reads the cached
    prior and one dense Cholesky of the posterior precision, so it works
    at desk scale only (``run_solver`` refuses it above oi.DENSE_GUARD).
    """

    n_iterations: int = 200
    step: dict = field(default_factory=lambda: {"kind": "adam", "lr": 0.1})
    lam: float = 1.0
    update_mode: str = "x_only"
    x_steps: int = 10
    theta_steps: int = 1
    theta_step: dict = field(default_factory=lambda: {"kind": "plain",
                                                      "lr": 1e-3})
    theta_params: tuple = PARAM_NAMES
    theta_stationary: bool = False
    theta_expected: bool = False
    p0_mode: str = "burnin"
    sigma0: float = 1.0
    burn_in: int = 20

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if min(self.x_steps, self.theta_steps) < 0 \
                or self.x_steps + self.theta_steps < 1:
            raise ValueError("x_steps and theta_steps must be >= 0 with a "
                             "positive sum")
        if self.update_mode not in ("x_only", "joint", "alternating"):
            raise ValueError(f"unknown update_mode {self.update_mode!r}")
        unknown = set(self.theta_params) - set(PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown theta_params {sorted(unknown)}")

    def p0_opts(self) -> dict:
        return dict(p0_mode=self.p0_mode, sigma0=self.sigma0,
                    burn_in=self.burn_in)

    def updates_theta(self) -> bool:
        """Whether a run of n_iterations makes a theta update."""
        return self.update_mode == "joint" or (
            self.update_mode == "alternating" and self.theta_steps > 0
            and self.n_iterations > self.x_steps)


@dataclass
class AugmentedState:
    x: Trajectory
    theta: ParamFields


class PrecisionCache:
    """The prior precision Q of the current theta, and the slabs built so
    far. A new theta's prior is built from the last, with the doubling's
    tape where a theta gradient follows; the old Q goes first, and the
    builder drops the old marginal first, which keeps peak memory down."""

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self._q: BlockPrecision | None = None
        self.total_rebuilds = 0

    def get(self, theta: ParamFields) -> BlockPrecision:
        if self._q is None or self._q.prior.theta is not theta:
            previous = None if self._q is None else self._q.prior
            self._q = None
            prior = build_prior(theta, keep_tape=self.cfg.updates_theta(),
                                previous=previous, **self.cfg.p0_opts())
            self._q = prior_precision(prior)
            self.total_rebuilds += prior.built
        return self._q


@dataclass
class SolverRuntime:
    """Mutable pieces of one run: operators with state plus the Q cache."""

    x_step: object
    theta_step: object
    cache: PrecisionCache
    iteration: int = 0

    @classmethod
    def fresh(cls, cfg: SolverConfig) -> "SolverRuntime":
        return cls(x_step=make_step_operator(**cfg.step),
                   theta_step=make_step_operator(**cfg.theta_step),
                   cache=PrecisionCache(cfg))


def _theta_gradient(x, obs, theta, cfg, runtime) -> np.ndarray:
    """nll gradient at theta, per field under cfg.theta_stationary, else
    per cell; either gradient reads the prior of the cached precision for
    this same theta."""
    q = runtime.cache.get(theta)
    if cfg.theta_expected:
        grads = expected_nll_grad(x, obs, q)
    else:
        states = _stack_states(x, theta.grid)
        grads = _trace_gradient(states, q.prior, _step_terms(states, q.prior))
    return _reduce(grads, cfg.theta_stationary)


def _update_theta(x, obs, theta, cfg, runtime) -> ParamFields:
    """One descent step on the cells of the fields named in
    cfg.theta_params; the other cells get a zero gradient."""
    grid = theta.grid
    selected = np.repeat([n in cfg.theta_params for n in PARAM_NAMES],
                         grid.dim)
    g = np.where(selected, _tie(_theta_gradient(x, obs, theta, cfg, runtime),
                                grid, cfg.theta_stationary), 0.0)
    if not np.all(np.isfinite(g)):
        raise DivergedStep(runtime.iteration, "non-finite theta gradient")
    new_vec = runtime.theta_step.update(_theta_vector(theta), g)
    if not np.all(np.isfinite(new_vec)):
        raise DivergedStep(runtime.iteration, "non-finite theta update")
    return project_params(_theta_from_vector(theta, new_vec))


def _state_gradient(x: Trajectory, obs, q: BlockPrecision, cfg: SolverConfig,
                    iteration: int):
    """(cost terms, flat state gradient) at x; a non-finite gradient raises
    DivergedStep(iteration)."""
    costs, g = variational_cost_grad(x, obs, q, cfg.lam)
    if not np.all(np.isfinite(g)):
        raise DivergedStep(iteration, "non-finite state gradient")
    return costs, g


def _advance(state: AugmentedState, g: np.ndarray, obs, cfg: SolverConfig,
             runtime: SolverRuntime) -> AugmentedState:
    """One iteration from g, the flat state gradient at (state.x,
    state.theta): state update, and (mode permitting) parameter update."""
    new_flat = runtime.x_step.update(state.x.flat, g)
    if not np.all(np.isfinite(new_flat)):
        raise DivergedStep(runtime.iteration, "non-finite state update")
    new_x = Trajectory.from_flat(state.x.grid, new_flat)

    new_theta = state.theta
    if cfg.update_mode == "joint":
        new_theta = _update_theta(new_x, obs, state.theta, cfg, runtime)
    elif cfg.update_mode == "alternating":
        cycle = cfg.x_steps + cfg.theta_steps
        if runtime.iteration % cycle >= cfg.x_steps:
            new_theta = _update_theta(new_x, obs, state.theta, cfg, runtime)
    runtime.iteration += 1
    return AugmentedState(x=new_x, theta=new_theta)


@dataclass
class SolverResult:
    x: Trajectory
    theta: ParamFields
    diagnostics: list[dict]

    def diagnostics_columns(self) -> list[str]:
        return ["iteration", "cost", "data_term", "prior_term", "grad_norm",
                "theta_change", "blocks_rebuilt"]


def run_solver(x0: Trajectory, theta0: ParamFields, obs,
               cfg: SolverConfig) -> SolverResult:
    """Run n_iterations of _advance, recording per-iteration diagnostics.

    With update_mode "x_only" this converges toward the direct posterior
    mean of the frozen parameters. Deterministic: same inputs and config
    give bit-identical outputs. A run whose theta would take the expected
    gradient above oi.DENSE_GUARD raises DimensionGuard before it starts.
    """
    if cfg.theta_expected and cfg.updates_theta():
        _refuse_dense_moments(theta0.grid)
    runtime = SolverRuntime.fresh(cfg)
    state = AugmentedState(x=x0.copy(), theta=project_params(theta0))
    rows: list[dict] = []
    rebuilds_seen = 0
    try:
        # the state gradient at the current state: the gradient computed
        # with the diagnostics of one iteration drives the step of the next,
        # so Q is applied once per iteration
        _, g = _state_gradient(state.x, obs, runtime.cache.get(state.theta),
                               cfg, 0)
        for it in range(cfg.n_iterations):
            prev_theta = state.theta
            state = _advance(state, g, obs, cfg, runtime)
            (total, data, prior), g = _state_gradient(
                state.x, obs, runtime.cache.get(state.theta), cfg, it)
            gnorm = float(np.linalg.norm(g))
            tchange = 0.0
            if state.theta is not prev_theta:
                tchange = float(np.sqrt(sum(
                    np.sum((state.theta.field_arrays()[n]
                            - prev_theta.field_arrays()[n])**2)
                    for n in PARAM_NAMES)))
            rebuilt = runtime.cache.total_rebuilds - rebuilds_seen
            rebuilds_seen = runtime.cache.total_rebuilds
            rows.append(dict(iteration=it, cost=total, data_term=data,
                             prior_term=prior, grad_norm=gnorm,
                             theta_change=tchange, blocks_rebuilt=rebuilt))
    except DivergedStep as exc:
        exc.diagnostics = rows
        raise
    return SolverResult(x=state.x, theta=state.theta, diagnostics=rows)

