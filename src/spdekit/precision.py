"""Trajectory precision: the Gram matrix of the step recursion's residuals.

The sampled recursion x_0 ~ N(0, P_0), A_t x_t = x_{t-1} + dt tau_t z_t
(z_t ~ N(0, I), t = 1..N) has residuals r_t = A_t x_t - x_{t-1} that are
independent of each other and of x_0, with precision diag(w_t),
w_t = 1/(dt tau_t)^2. So x^T Q x = x_0^T P_0^{-1} x_0 + sum_t w_t . r_t^2,
the residual form the likelihood evaluates. With r = R x, where block
row t-1 of R holds -I at column block t-1 and A_t at column block t,

    Q = R^T diag(w) R + P_0^{-1} in block (0, 0),

which ``prior_precision`` forms as one sparse product and holds
as one CSR matrix: exactly the inverse covariance of ``sample_prior``
(the dense-oracle tests enforce this). P_0^{-1} enters by one sparse add,
as a CSR matrix whose first m rows read a burn-in start's dense P_0^{-1}
in place (a white start's 1/sigma0^2 on their diagonal) and whose later
rows are empty; the add sums each entry of block (0, 0) once and drops
the exact zeros. Its block-tridiagonal form follows:

    D_0 = P_0^{-1} + diag(w_1)
    D_t = A_t^T diag(w_t) A_t + diag(w_{t+1})     (0 < t < N)
    D_N = A_N^T diag(w_N) A_N
    U_t = -diag(w_{t+1}) A_{t+1}                   (block (t, t+1))

The map x -> (x_0, r) is block lower-triangular with diagonal blocks
I, A_1, ..., A_N, which gives log|Q| in closed form, the GMRF identity
(Rue & Held 2005, ch. 2)

    log|Q| = log|P_0^{-1}| + sum_t [2 log|det A_t| + sum(log w_t)],

which ``_prior_log_det`` evaluates from the transitions and the x_0
marginal alone, without Q: log|det A_t| = sum_i log|det S_i| over the
Schur blocks of the steps' forward block sweep, which the prior holds for
the gradient's selected inverse at the same theta.

The prior at one theta is one object, ``PriorStructure`` (theta, the
steps A_t and the x_0 marginal), made by one builder, ``build_prior``,
which reuses from the prior of a previous theta what did not change. Q,
the likelihood, its gradient and conditional draws all read that object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import DegenerateNoise
from .grid import SpaceTimeGrid, Trajectory
from .operators import ParamFields, _theta_grid
from .state_space import (InitialCondition, SchurSweep, TransitionStep,
                          build_transition, initial_condition, schur_sweep)

_TAU_FLOOR = 1e-8


@dataclass
class PriorStructure:
    """The prior at one theta: theta, the step of each slab 1..N and the x_0
    marginal. ``built`` counts the steps ``build_prior`` made for it; the
    others came from the previous prior.

    The Schur sweep of its steps (``state_space.schur_sweep``) is built on
    first use and held, so the loss's log-determinants and the gradient's
    selected inverse at this theta share one sweep; the gradient takes it
    (``take_sweep``), and so the prior no longer holds it.
    """

    theta: ParamFields
    transitions: list[TransitionStep]
    ic: InitialCondition
    built: int = 0
    _sweep: SchurSweep | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def grid(self) -> SpaceTimeGrid:
        return self.theta.grid

    def schur_sweep(self) -> SchurSweep:
        """The Schur sweep of the steps in blocks of k grid rows (k nx
        cells, k = alpha/2), built on first use and held."""
        if self._sweep is None:
            self._sweep = schur_sweep(self.transitions,
                                      self.theta.alpha // 2 * self.grid.nx)
        return self._sweep

    def take_sweep(self) -> SchurSweep:
        """The Schur sweep, which the prior then no longer holds."""
        sweep, self._sweep = self.schur_sweep(), None
        return sweep


def build_prior(theta: ParamFields, p0_mode: str = "burnin",
                sigma0: float = 1.0, burn_in: int = 20,
                keep_tape: bool = False,
                previous: PriorStructure | None = None) -> PriorStructure:
    """The prior at theta; with keep_tape its marginal keeps the doubling's
    tape for the burn-in adjoint.

    A previous prior on the same grid hands over the step of every slab
    that holds the same bits (``ParamFields.same_slab``), and its marginal
    if built with the same start options, unless a burn-in start's slab 1
    changed. Before a new marginal is built, previous gives up its steps
    and marginal (it is left with none), so that the old ones not handed
    over are freed first. Previous always gives up its Schur sweep.
    """
    grid = theta.grid
    if previous is not None:
        previous._sweep = None
    same = previous is not None and previous.grid == grid \
        and len(previous.transitions) == grid.nt - 1   # else none or spent
    changed = [t for t in range(1, grid.nt)
               if not (same and theta.same_slab(previous.theta, t))]
    steps = list(previous.transitions) if same else [None] * len(changed)
    ic = previous.ic if same else None
    if changed:
        for step in build_transition(theta, grid, slabs=changed):
            steps[step.t - 1] = step
    if ic is None or (ic.mode, ic.sigma0, ic.burn_in) != (
            p0_mode, sigma0, burn_in) or (p0_mode == "burnin"
                                          and 1 in changed):
        if same:
            previous.transitions, previous.ic, ic = [], None, None
        ic = initial_condition(steps[0], grid, p0_mode=p0_mode,
                               sigma0=sigma0, burn_in=burn_in,
                               keep_tape=keep_tape)
    return PriorStructure(theta, steps, ic, built=len(changed))


def _step_weights(step: TransitionStep, dt: float) -> np.ndarray:
    """w_t = 1/(dt tau_t)^2, the precision of step t's residual
    A_t x_t - x_{t-1}; a tau below the floor raises DegenerateNoise(t)."""
    tau = step.noise_scale
    tau_min = float(tau.min()) if tau.size else 0.0
    if tau_min < _TAU_FLOOR:
        raise DegenerateNoise(step.t, tau_min)
    return 1.0 / (dt * tau)**2


def _prior_log_det(prior: PriorStructure, hold_sweep: bool = True
                   ) -> float:
    """log|Q| of the prior by the closed form of the module docstring.

    log|det A_t| comes from the prior's Schur sweep, which it holds for
    the gradient's selected inverse at the same theta; with hold_sweep
    False, a sweep this call builds is dropped once read (one the prior
    held already stays). A white start with sigma0 <= 0 raises
    DegenerateNoise(0), a tau below the floor DegenerateNoise(t), and an
    A_t that is singular, or whose Schur blocks are, SingularTransition(t)
    naming the block row.
    """
    if prior.ic.mode == "white" and prior.ic.sigma0 <= 0:
        raise DegenerateNoise(0, prior.ic.sigma0)
    log_w = [float(np.sum(np.log(_step_weights(step, prior.grid.dt))))
             for step in prior.transitions]
    built = prior._sweep is None
    sweep = prior.schur_sweep()
    if built and not hold_sweep:
        prior._sweep = None
    total = prior.ic.logdet_prec
    for log_abs_det, log_w_t in zip(sweep.log_abs_det, log_w):
        total += 2.0 * log_abs_det + log_w_t
    return float(total)


@dataclass
class BlockPrecision:
    """Symmetric positive-definite block-tridiagonal precision.

    ``matrix`` is Q as one (dim, dim) CSR matrix in the grid's t-major
    ordering: block (t, t) couples the cells of step t, block (t, t+1)
    steps t and t+1, and every other block is zero. ``prior`` is the prior
    Q was assembled from, None once Q is modified (a posterior precision).
    """

    grid: SpaceTimeGrid
    matrix: sparse.csr_array
    prior: PriorStructure | None = None

    def __post_init__(self):
        dim = self.grid.dim
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"precision shape {self.matrix.shape} != "
                             f"({dim}, {dim}) of the grid")

    @property
    def nt(self) -> int:
        return self.grid.nt

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    def to_csr(self) -> sparse.csr_array:
        return self.matrix


@dataclass
class ObservationSet:
    """Mask, values and diagonal noise variances over the space-time grid.

    values/noise_var are ordered like ``np.flatnonzero(mask)`` in the
    global t-major flattening.
    """

    grid: SpaceTimeGrid
    mask: np.ndarray
    values: np.ndarray
    noise_var: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.grid.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} != grid {self.grid.shape}")
        n = int(self.mask.sum())
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        noise = np.asarray(self.noise_var, dtype=np.float64)
        if noise.ndim == 0:
            noise = np.full(n, float(noise))
        self.noise_var = noise.reshape(-1)
        if self.values.shape != (n,) or self.noise_var.shape != (n,):
            raise ValueError(
                f"expected {n} observed values/noise entries, got "
                f"{self.values.shape[0]} and {self.noise_var.shape[0]}")
        if n and not np.all(self.noise_var > 0):
            raise ValueError("noise_var must be strictly positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("observed values must be finite")

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def indices(self) -> np.ndarray:
        """Observed positions in the global flattened ordering."""
        return np.flatnonzero(self.mask.reshape(-1))

    @classmethod
    def from_truth(cls, truth: Trajectory, mask, noise_var,
                   seed: int | None = None) -> "ObservationSet":
        """Subsample a trajectory on a mask and add N(0, R) noise."""
        grid = truth.grid
        mask = np.asarray(mask, dtype=bool)
        vals = truth.flat[np.flatnonzero(mask.reshape(-1))]
        n = vals.shape[0]
        noise = np.asarray(noise_var, dtype=np.float64)
        if noise.ndim == 0:
            noise = np.full(n, float(noise))
        rng = np.random.default_rng(seed)
        vals = vals + np.sqrt(noise) * rng.standard_normal(n)
        return cls(grid, mask, vals, noise)

    def replace_values(self, values: np.ndarray) -> "ObservationSet":
        return ObservationSet(self.grid, self.mask, values, self.noise_var)


def assemble_block_precision(theta: ParamFields,
                             grid: SpaceTimeGrid | None = None,
                             p0_mode: str = "burnin", sigma0: float = 1.0,
                             burn_in: int = 20) -> BlockPrecision:
    """The prior precision Q = R^T diag(w) R + P_0^{-1} at theta; a grid
    given must be theta's."""
    _theta_grid(theta, grid)
    return prior_precision(build_prior(theta, p0_mode, sigma0, burn_in))


def prior_precision(prior: PriorStructure) -> BlockPrecision:
    """Q = R^T diag(w) R + P_0^{-1} of a prior, holding that prior."""
    grid, transitions, ic = prior.grid, prior.transitions, prior.ic
    if ic.mode == "white" and ic.sigma0 <= 0:
        raise DegenerateNoise(0, ic.sigma0)

    m = grid.m
    w = np.concatenate([_step_weights(step, grid.dt) for step in transitions])
    minus_eye = -sparse.identity(m, format="csr")
    blocks = [[None] * grid.nt for _ in transitions]
    for t, step in enumerate(transitions):
        blocks[t][t] = minus_eye
        blocks[t][t + 1] = step.a_solve
    residual = sparse.bmat(blocks, format="csr")
    # residual.T is CSC and so is the product; the CSR copy sorts indices
    gram = sparse.csr_array(residual.T @ (sparse.diags_array(w) @ residual))
    # P_0^{-1} as (dim, dim) CSR over its own values, on the gram's index
    # width: the first m rows hold a dense P_0^{-1}'s rows (no copy) or a
    # white start's 1/sigma0^2 at the diagonal, and the later rows nothing
    index = gram.indices.dtype
    if ic.mode == "white":
        values = np.full(m, 1.0 / ic.sigma0**2)
        cols = np.arange(m, dtype=index)
    else:
        values = ic.prec.reshape(-1)
        cols = np.tile(np.arange(m, dtype=index), m)
    indptr = np.minimum(np.arange(grid.dim + 1, dtype=index), m) \
        * (values.size // m)
    start = sparse.csr_array((values, cols, indptr), shape=gram.shape)
    return BlockPrecision(grid=grid, matrix=gram + start, prior=prior)


def posterior_precision(q: BlockPrecision, obs: ObservationSet
                        ) -> BlockPrecision:
    """Q + H^T R^{-1} H: the observation information on the diagonal.

    Only the diagonal entries of observed cells change; the generator
    metadata is dropped because the result is no longer the recursion
    precision.
    """
    if obs.grid != q.grid:
        raise ValueError("observations live on a different grid")
    add = np.zeros(q.dim)
    add[obs.indices] = 1.0 / obs.noise_var
    return BlockPrecision(grid=q.grid,
                          matrix=q.matrix + sparse.diags_array(add),
                          prior=None)


def apply_precision(q: BlockPrecision, v):
    """Matvec Q v in O(nnz).

    Accepts a Trajectory (returns a Trajectory), an (nt, m) / flat array
    (returns an (nt, m) array), or an (nt, m, n) stack of n trajectories
    (returns the stack of their products, in one sparse product).
    """
    as_traj = isinstance(v, Trajectory)
    states = np.asarray(v.states if as_traj else v, dtype=np.float64)
    states = states.reshape((q.nt, q.m) + states.shape[2:])
    out = (q.matrix @ states.reshape(q.dim, -1)).reshape(states.shape)
    return Trajectory(q.grid, out) if as_traj else out

