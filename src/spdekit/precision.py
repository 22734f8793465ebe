"""Block-tridiagonal trajectory precision assembled from the step recursion.

The joint density of the sampled recursion

    x_0 ~ N(0, P_0),    x_t = M_t x_{t-1} + w_t,   w_t ~ N(0, S_t),

with M_t = A_t^{-1} and S_t = M_t (dt^2 diag(tau_t^2)) M_t^T, has precision
blocks

    D_0 = P_0^{-1} + M_1^T S_1^{-1} M_1
    D_t = S_t^{-1} + M_{t+1}^T S_{t+1}^{-1} M_{t+1}     (0 < t < N)
    D_N = S_N^{-1}
    U_t = -M_{t+1}^T S_{t+1}^{-1}                        (block (t, t+1))

and everything collapses to sparse expressions in A_t:

    S_t^{-1}            = dt^{-2} A_t^T diag(1/tau_t^2) A_t
    M_t^T S_t^{-1} M_t  = dt^{-2} diag(1/tau_t^2)
    M_t^T S_t^{-1}      = dt^{-2} diag(1/tau_t^2) A_t

so Q is, by construction, exactly the inverse covariance of ``sample_prior``
(the dense-oracle tests enforce this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DegenerateNoise
from .grid import SpaceTimeGrid, Trajectory
from .operators import ParamFields
from .state_space import (InitialCondition, TransitionStep, build_transition,
                          initial_condition)

_TAU_FLOOR = 1e-8


@dataclass
class PriorStructure:
    """Generator-side ingredients the precision was assembled from, kept
    for the blockwise log-determinant and for gradients at the same theta."""

    s_inv: list[sparse.csr_array]
    ic: InitialCondition
    transitions: list[TransitionStep]


@dataclass
class BlockPrecision:
    """Symmetric positive-definite block-tridiagonal precision.

    diag[t] are the m x m diagonal blocks; upper[t] couples steps t and
    t+1 (the lower blocks are their transposes). ``prior`` carries the
    generative ingredients when this is an unmodified prior precision.
    """

    grid: SpaceTimeGrid
    diag: list[sparse.csr_array]
    upper: list[sparse.csr_array]
    prior: PriorStructure | None = None

    @property
    def nt(self) -> int:
        return len(self.diag)

    @property
    def m(self) -> int:
        return self.diag[0].shape[0]

    @property
    def dim(self) -> int:
        return self.nt * self.m

    @property
    def nnz(self) -> int:
        return (sum(int(b.nnz) for b in self.diag)
                + 2 * sum(int(b.nnz) for b in self.upper))

    def to_csr(self) -> sparse.csr_array:
        nt = self.nt
        blocks = [[None] * nt for _ in range(nt)]
        for t in range(nt):
            blocks[t][t] = self.diag[t]
        for t in range(nt - 1):
            blocks[t][t + 1] = self.upper[t]
            blocks[t + 1][t] = self.upper[t].T
        out = sparse.bmat(blocks, format="csr")
        return sparse.csr_array(out)


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
                   seed: int | None = None, add_noise: bool = True
                   ) -> "ObservationSet":
        """Subsample a trajectory on a mask, optionally adding N(0, R) noise."""
        grid = truth.grid
        mask = np.asarray(mask, dtype=bool)
        vals = truth.flat[np.flatnonzero(mask.reshape(-1))]
        n = vals.shape[0]
        noise = np.asarray(noise_var, dtype=np.float64)
        if noise.ndim == 0:
            noise = np.full(n, float(noise))
        if add_noise:
            rng = np.random.default_rng(seed)
            vals = vals + np.sqrt(noise) * rng.standard_normal(n)
        return cls(grid, mask, vals, noise)

    def replace_values(self, values: np.ndarray) -> "ObservationSet":
        return ObservationSet(self.grid, self.mask, values, self.noise_var)


def assemble_block_precision(theta: ParamFields,
                             grid: SpaceTimeGrid | None = None,
                             p0_mode: str = "burnin", sigma0: float = 1.0,
                             burn_in: int = 20,
                             transitions: list[TransitionStep] | None = None,
                             ic: InitialCondition | None = None
                             ) -> BlockPrecision:
    """Assemble the prior trajectory precision for the given parameters."""
    grid = grid or theta.grid
    if transitions is None:
        transitions = build_transition(theta, grid)
    if ic is None:
        ic = initial_condition(theta, grid, p0_mode=p0_mode, sigma0=sigma0,
                               burn_in=burn_in, transitions=transitions)
    if ic.mode == "white" and ic.sigma0 <= 0:
        raise DegenerateNoise(0, ic.sigma0)

    dt = grid.dt
    s_inv: list[sparse.csr_array] = []
    cross_diag: list[np.ndarray] = []   # M_t^T S_t^{-1} M_t = diag
    couplings: list[sparse.csr_array] = []
    for step in transitions:
        tau = step.noise_scale
        tau_min = float(tau.min()) if tau.size else 0.0
        if tau_min < _TAU_FLOOR:
            raise DegenerateNoise(step.t, tau_min)
        w = 1.0 / (dt * tau)**2
        a = step.a_solve
        wa = sparse.csr_array(sparse.diags_array(w) @ a)
        si = sparse.csr_array(a.T @ wa)
        si.sum_duplicates(); si.sort_indices(); si.eliminate_zeros()
        s_inv.append(si)
        cross_diag.append(w)
        couplings.append(-wa)

    nt = grid.nt
    diag: list[sparse.csr_array] = []
    first = ic.prec_sparse() + sparse.diags_array(cross_diag[0])
    first = sparse.csr_array(first)
    first.sort_indices()
    diag.append(first)
    for t in range(1, nt - 1):
        block = s_inv[t - 1] + sparse.diags_array(cross_diag[t])
        block = sparse.csr_array(block)
        block.sort_indices()
        diag.append(block)
    diag.append(s_inv[nt - 2])
    upper = couplings
    return BlockPrecision(grid=grid, diag=diag, upper=upper,
                          prior=PriorStructure(s_inv=s_inv, ic=ic,
                                               transitions=list(transitions)))


def posterior_precision(q: BlockPrecision, obs: ObservationSet
                        ) -> BlockPrecision:
    """Add the observation information H^T R^{-1} H to the diagonal.

    Only the diagonal entries of observed cells change; the generator
    metadata is dropped because the result is no longer the recursion
    precision.
    """
    if obs.grid != q.grid:
        raise ValueError("observations live on a different grid")
    m = q.m
    mask2d = obs.mask.reshape(q.nt, m)
    add = np.zeros((q.nt, m))
    add[mask2d] = 1.0 / obs.noise_var
    diag = []
    for t in range(q.nt):
        if np.any(add[t]):
            block = sparse.csr_array(q.diag[t] + sparse.diags_array(add[t]))
            block.sort_indices()
            diag.append(block)
        else:
            diag.append(q.diag[t])
    return BlockPrecision(grid=q.grid, diag=diag, upper=q.upper, prior=None)


def apply_precision(q: BlockPrecision, v):
    """Block-tridiagonal matvec Q v in O(nnz).

    Accepts a Trajectory (returns a Trajectory), an (nt, m) / flat array
    (returns an (nt, m) array), or an (nt, m, n) stack of n trajectories
    (returns the stack of their products, in one pass over the blocks).
    """
    as_traj = isinstance(v, Trajectory)
    states = v.states if as_traj else np.asarray(v, dtype=np.float64)
    states = _as_blocks(q, states)
    out = np.empty_like(states)
    for t in range(q.nt):
        acc = q.diag[t] @ states[t]
        if t + 1 < q.nt:
            acc = acc + q.upper[t] @ states[t + 1]
        if t > 0:
            acc = acc + q.upper[t - 1].T @ states[t - 1]
        out[t] = acc
    return Trajectory(q.grid, out) if as_traj else out


def quadratic_form(q: BlockPrecision, v) -> float:
    """x^T Q x (non-negative, zero only at zero for PD Q); summed over the
    trajectories of an (nt, m, n) stack."""
    states = v.states if isinstance(v, Trajectory) else \
        _as_blocks(q, np.asarray(v, dtype=np.float64))
    return float(np.sum(states * apply_precision(q, states)))


def _as_blocks(q: BlockPrecision, states: np.ndarray) -> np.ndarray:
    """(nt, m) view of one trajectory; an (nt, m, n) stack stays 3-D."""
    if states.ndim == 3:
        return states.reshape(q.nt, q.m, states.shape[2])
    return states.reshape(q.nt, q.m)


def dump_coordinate_triplets(q: BlockPrecision, path) -> None:
    """Write Q as text: header '# n n nnz', then one 'i j value' per line.

    Both triangles are written, 0-based indices, full precision.
    """
    coo = q.to_csr().tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for i, j, val in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {val:.17g}\n")
