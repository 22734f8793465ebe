"""Iterative interpolation over the augmented (state, parameters) pair.

Each iteration moves the state down the interpolation cost with a
configurable first-order operator,

    x^{k+1} = x^k - step[grad_x J(x^k)],

and, in joint or alternating mode, moves the parameter fields down the
trajectory negative log-likelihood of the current state iterate (the
log-determinant term in the likelihood is what stops the noise scale from
drifting to degeneracy, which the raw quadratic cost would reward). After
every parameter update the fields are projected back onto the valid set.

The precision is reassembled lazily: only time slabs whose parameter
values actually changed are rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedStep
from .estimation import (PARAM_NAMES, _Coords, _gradient, expected_nll_grad,
                         nll)
from .grid import Trajectory
from .oi import _cost_flat_grad
from .operators import ParamFields, project_params
from .precision import BlockPrecision, assemble_block_precision
from .state_space import build_transition_step, initial_condition
from .steps import make_step_operator


@dataclass
class SolverConfig:
    """Knobs of the iterative solver.

    update_mode: "x_only" freezes theta; "joint" updates both every
    iteration; "alternating" runs x_steps state updates then theta_steps
    parameter updates, repeating (both >= 0, with a positive sum).
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
    theta_grad_mode: str = "trace"
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


@dataclass
class AugmentedState:
    x: Trajectory
    theta: ParamFields


class PrecisionCache:
    """Rebuilds only the per-step pieces whose parameter slab changed.

    The cached precision carries the transitions and x_0 marginal it was
    assembled from (``BlockPrecision.prior``), so a gradient taken at the
    same theta reads them instead of rebuilding.
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self._keys: list[bytes] | None = None
        self._q: BlockPrecision | None = None
        self.total_rebuilds = 0

    def get(self, theta: ParamFields) -> BlockPrecision:
        grid = theta.grid
        keys = [theta.slab_key(t) for t in range(grid.nt)]
        if self._q is None:
            self._q = assemble_block_precision(theta, grid,
                                               **self.cfg.p0_opts())
            self.total_rebuilds += grid.nt - 1
        else:
            changed = [t for t in range(1, grid.nt)
                       if keys[t] != self._keys[t]]
            if changed:
                prior = self._q.prior
                steps = list(prior.transitions)
                for t in changed:
                    steps[t - 1] = build_transition_step(theta, t, grid)
                ic = prior.ic
                if 1 in changed and self.cfg.p0_mode == "burnin":
                    ic = initial_condition(theta, grid, transitions=steps,
                                           **self.cfg.p0_opts())
                self._q = assemble_block_precision(theta, grid,
                                                   transitions=steps, ic=ic)
            self.total_rebuilds += len(changed)
        self._keys = keys
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


def _theta_gradient(x, obs, theta, cfg, runtime,
                    coords: _Coords) -> np.ndarray:
    """nll gradient at theta as a vector in coords; the trace mode reads the
    transitions and x_0 marginal of the cached precision for this same
    theta."""
    if cfg.theta_expected:
        return coords.reduce(expected_nll_grad(x, obs, theta,
                                               **cfg.p0_opts()))
    prior = runtime.cache.get(theta).prior
    return _gradient([x], theta, cfg.theta_grad_mode, coords, cfg.p0_opts(),
                     prior.transitions, prior.ic)


def _update_theta(x, obs, theta, cfg, runtime) -> ParamFields:
    """One descent step on the parameters named in cfg.theta_params; the
    other coordinates get a zero gradient."""
    coords = _Coords(cfg.theta_stationary)
    g = np.where(coords.select(theta.grid, cfg.theta_params),
                 _theta_gradient(x, obs, theta, cfg, runtime, coords), 0.0)
    if not np.all(np.isfinite(g)):
        raise DivergedStep(runtime.iteration, "non-finite theta gradient")
    new_vec = runtime.theta_step.update(coords.values(theta), g)
    if not np.all(np.isfinite(new_vec)):
        raise DivergedStep(runtime.iteration, "non-finite theta update")
    return project_params(coords.theta(theta, new_vec))


def _state_gradient(x: Trajectory, obs, q: BlockPrecision, cfg: SolverConfig,
                    iteration: int):
    """(cost terms, flat state gradient) at x; a non-finite gradient raises
    DivergedStep(iteration)."""
    costs, g = _cost_flat_grad(x, obs, q, cfg.lam)
    if not np.all(np.isfinite(g)):
        raise DivergedStep(iteration, "non-finite state gradient")
    return costs, g


def solver_step(state: AugmentedState, obs, cfg: SolverConfig,
                runtime: SolverRuntime | None = None) -> AugmentedState:
    """One iteration: state update, and (mode permitting) parameter update."""
    if runtime is None:
        runtime = SolverRuntime.fresh(cfg)
    q = runtime.cache.get(state.theta)
    _, g = _state_gradient(state.x, obs, q, cfg, runtime.iteration)
    return _advance(state, g, obs, cfg, runtime)


def _advance(state: AugmentedState, g: np.ndarray, obs, cfg: SolverConfig,
             runtime: SolverRuntime) -> AugmentedState:
    """solver_step from g, the flat state gradient at (state.x,
    state.theta)."""
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
    """Run n_iterations of solver_step, recording per-iteration diagnostics.

    With update_mode "x_only" this converges toward the direct posterior
    mean of the frozen parameters. Deterministic: same inputs and config
    give bit-identical outputs.
    """
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


def training_loss(x_true: Trajectory, x_star: Trajectory,
                  theta_star: ParamFields, lambda1: float = 1.0,
                  lambda2: float = 1e-3, p0_mode: str = "burnin",
                  sigma0: float = 1.0, burn_in: int = 20
                  ) -> tuple[float, float, float]:
    """(total, reconstruction, prior-likelihood) composite loss.

    The reconstruction term is the mean squared error against the truth;
    the likelihood term is nll(x_true; theta_star).
    """
    if x_true.grid != x_star.grid:
        raise ValueError("trajectories live on different grids")
    l1 = float(np.mean((x_true.states - x_star.states)**2))
    l2 = nll(x_true, theta_star, p0_mode=p0_mode, sigma0=sigma0,
             burn_in=burn_in)
    return lambda1 * l1 + lambda2 * l2, l1, l2
