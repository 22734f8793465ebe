"""Discrete-time transition structure of the drift operator and prior sampling.

One implicit step propagates x_t to x_{t+1} by solving

    A_{t+1} u = x_t + dt * tau_{t+1} * z,      A_t = I - dt * F_t,

where F_t is the (negative-definite) drift: the assembled slab operator
enters with a minus sign, F_t = -L_t^{alpha/2}, so that A_t = I + dt *
L_t^{alpha/2} and the propagator M_t = A_t^{-1} is contractive. The noise
z is i.i.d. standard normal per cell; the per-step noise map is therefore
T_t = M_t * dt * diag(tau_t). A_t is a stencil matrix, banded in row-major
cell order, and each step keeps one LAPACK banded LU of it: every solve
with M_t, the dense M_t and log|det A_t| read that one factor. At alpha = 2
it is also block tridiagonal, and ``selected_inverse`` reads A_t^{-1} at
the stencil pattern from its block recursion.

Draws are keyed by (base_seed, member_id, stream, step) through a
counter-style seed sequence, and members run together in fixed blocks, so
ensembles are bit-identical whatever the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import SingularTransition
from .grid import SpaceTimeGrid, Trajectory
from .operators import ParamFields, apply_fractional, assemble_fdm_operator

_STREAM_INIT = 0
_STREAM_STEP = 1
_STREAM_OBS = 2  # reserved for pseudo-observation noise


def _keyed_normals(base_seed: int, member_ids, stream: int, step: int,
                   size: int) -> np.ndarray:
    """(size, n) standard normals; column j is keyed by
    (base_seed, member_ids[j], stream, step)."""
    keys = [(int(base_seed), int(i), int(stream), int(step))
            for i in member_ids]
    return np.stack([np.random.default_rng(key).standard_normal(size)
                     for key in keys], axis=1)


# Right-hand-side columns per banded solve. LAPACK dgbtrs updates all of
# its right-hand sides at once (dger); at 24x24 (kl = 25) a 576-column
# identity solve is big enough for OpenBLAS to run it on scipy's thread
# pool, and numpy's burn-in doubling (its own OpenBLAS pool) right after
# it took 0.150 s per call against 0.088 s after an identity solved in
# blocks of 256 columns (medians of 12 alternating calls, 2-core VM, 2
# BLAS threads). The blocked inverse itself took 15.1 ms, against 15.5.
_SOLVE_BLOCK = 256


@dataclass
class TransitionStep:
    """One implicit step: holds A_t = I - dt*F_t and its banded LU.

    A_t is a stencil matrix, banded in row-major cell order. Its LAPACK
    banded LU (dgbtrf) is computed once, on first use, straight from the
    CSR, and serves propagate, dense_inverse (the burn-in's dense M_1) and
    log_abs_det; a zero pivot raises SingularTransition(t) from each of
    them. The trace gradient needs A_t^{-1} only at the stencil pattern and
    reads it from ``selected_inverse``, never from dense_inverse.
    """

    t: int
    a_solve: sparse.csr_array
    noise_scale: np.ndarray  # tau slab, flattened (m,)
    _factor: tuple | None = None  # (lu band, pivots, kl, ku)

    def _banded_lu(self) -> tuple:
        if self._factor is None:
            a = self.a_solve
            rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
            offsets = a.indices - rows                    # j - i
            kl = int(-offsets.min(initial=0))
            ku = int(offsets.max(initial=0))
            # LAPACK band storage ab[kl + ku + i - j, j] = A[i, j], with kl
            # extra rows on top for the fill-in of row pivoting
            ab = np.zeros((2 * kl + ku + 1, a.shape[0]), order="F")
            ab[kl + ku - offsets, a.indices] = a.data
            lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
            if info > 0:
                raise SingularTransition(self.t,
                                         f"zero pivot in row {info - 1}")
            self._factor = (lu, piv, kl, ku)
        return self._factor

    def propagate(self, v: np.ndarray) -> np.ndarray:
        """Apply M_t = A_t^{-1} (2-D inputs solved columnwise)."""
        lu, piv, kl, ku = self._banded_lu()
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            return dgbtrs(lu, kl, ku, v, piv)[0]
        out = np.empty(v.shape)
        for start in range(0, v.shape[1], _SOLVE_BLOCK):
            cols = slice(start, start + _SOLVE_BLOCK)
            out[:, cols] = dgbtrs(lu, kl, ku, v[:, cols], piv)[0]
        return out

    def dense_inverse(self) -> np.ndarray:
        """The dense propagator M_t = A_t^{-1}, computed afresh per call."""
        return self.propagate(np.eye(self.a_solve.shape[0]))

    def log_abs_det(self) -> float:
        """log|det A_t|, the sum of log|U_ii| over the factor's diagonal."""
        lu, _, kl, ku = self._banded_lu()
        return float(np.sum(np.log(np.abs(lu[kl + ku]))))


def transition_from_drift(f_drift, dt: float, t: int = 0,
                          noise_scale=None) -> TransitionStep:
    """Build a step directly from a drift matrix F (A = I - dt*F)."""
    f = sparse.csr_array(f_drift) if not sparse.issparse(f_drift) \
        else f_drift.tocsr()
    n = f.shape[0]
    a = (sparse.identity(n, format="csr") - dt * f).tocsr()
    a.sum_duplicates()
    scale = np.zeros(n) if noise_scale is None else np.asarray(noise_scale)
    return TransitionStep(t=t, a_solve=a, noise_scale=scale)


def build_transition_step(theta: ParamFields, t: int,
                          grid: SpaceTimeGrid | None = None) -> TransitionStep:
    """The TransitionStep of slab t, with F_t = -L_t^{alpha/2}."""
    grid = grid or theta.grid
    core = assemble_fdm_operator(theta, t, grid)
    power = apply_fractional(core, theta.alpha).to_sparse()
    return transition_from_drift(-power, grid.dt, t=t,
                                 noise_scale=theta.tau.values[t].ravel())


def build_transition(theta: ParamFields,
                     grid: SpaceTimeGrid | None = None) -> list[TransitionStep]:
    """One TransitionStep per t = 1..nt-1."""
    grid = grid or theta.grid
    return [build_transition_step(theta, t, grid) for t in range(1, grid.nt)]


def selected_inverse(transitions: list[TransitionStep], nx: int,
                     rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries A_t^{-1}[rows, cols] of every step, as a (steps, k) array.

    In row-major cell order an alpha = 2 step matrix is block tridiagonal,
    with ny block rows of nx x nx blocks; the entries asked for must lie
    in its three block diagonals. They are read from the diagonal and
    first off-diagonal blocks G of A_t^{-1}, which the recursive
    Green's-function form of Takahashi's recursion gives without forming
    the dense inverse, for all steps at once, batched along a step axis:

        S_0 = D_0,  S_i = D_i - A_{i,i-1} S_{i-1}^{-1} A_{i-1,i}
        G_{ny-1}   = S_{ny-1}^{-1}
        G_{i,i+1}  = -S_i^{-1} A_{i,i+1} G_{i+1}
        G_{i+1,i}  = -G_{i+1} A_{i+1,i} S_i^{-1}
        G_i        = S_i^{-1} - G_{i,i+1} A_{i+1,i} S_i^{-1}

    That is O(ny nx^3) per step and no m x m array. A zero pivot of A_t
    raises SingularTransition(t) from the step's banded LU; a singular or
    numerically singular Schur block S_i of a nonsingular A_t (the
    recursion does not pivot across block rows) raises it naming block
    row i.
    """
    m = transitions[0].a_solve.shape[0]
    ny, rem = divmod(m, nx)
    if rem:
        raise ValueError(f"{m} cells do not split into rows of {nx}")
    # blocks[i, d + 1, s] is A_{i, i+d} of step s, for d = -1, 0, 1; the
    # step axis is inside so that each batched product reads contiguous
    # stacks of blocks
    blocks = np.zeros((ny, 3, len(transitions), nx, nx))
    for s, step in enumerate(transitions):
        step._banded_lu()
        a = step.a_solve
        by, bx = np.divmod(np.repeat(np.arange(m), np.diff(a.indptr)), nx)
        cy, cx = np.divmod(a.indices, nx)
        if np.any(np.abs(cy - by) > 1):
            raise ValueError("step matrix is not block tridiagonal "
                             f"with blocks of {nx} cells")
        blocks[by, cy - by + 1, s, bx, cx] = a.data

    lower, diag, upper = blocks[:, 0], blocks[:, 1], blocks[:, 2]
    s_inv = np.empty(diag.shape)
    schur = diag[0]
    for i in range(ny):
        if i:
            schur = diag[i] - lower[i] @ s_inv[i - 1] @ upper[i - 1]
        s_inv[i] = _invert_schur(schur, transitions, i)
    green = np.empty_like(blocks)      # same layout: green[i, d + 1, s]
    green[ny - 1, 1] = s_inv[ny - 1]
    for i in range(ny - 2, -1, -1):
        lower_s = lower[i + 1] @ s_inv[i]          # A_{i+1,i} S_i^{-1}
        green[i, 2] = -(s_inv[i] @ upper[i]) @ green[i + 1, 1]
        green[i + 1, 0] = -green[i + 1, 1] @ lower_s
        green[i, 1] = s_inv[i] - green[i, 2] @ lower_s
    (ry, rx), (cy, cx) = np.divmod(rows, nx), np.divmod(cols, nx)
    if np.any(np.abs(cy - ry) > 1):
        raise ValueError("entries outside the three block diagonals")
    return green[ry, cy - ry + 1, :, rx, cx].T


def _invert_schur(schur: np.ndarray, transitions: list[TransitionStep],
                  i: int) -> np.ndarray:
    """Inverse of each step's Schur block of block row i. A block that is
    singular, or whose 1-norm condition number reaches 1/eps, raises
    SingularTransition for the first such step."""
    try:
        inv = np.linalg.inv(schur)
    except np.linalg.LinAlgError:
        inv = np.empty(schur.shape)
        for s, block in enumerate(schur):
            try:
                inv[s] = np.linalg.inv(block)
            except np.linalg.LinAlgError:
                inv[s] = np.inf
    norm = np.abs(schur).sum(axis=-2).max(axis=-1)
    cond = norm * np.abs(inv).sum(axis=-2).max(axis=-1)
    bad = np.flatnonzero(~(cond < 1.0 / np.finfo(float).eps))
    if bad.size:
        raise SingularTransition(transitions[bad[0]].t,
                                 f"singular Schur block in block row {i}")
    return inv


@dataclass
class Ensemble:
    grid: SpaceTimeGrid
    members: list[Trajectory]
    base_seed: int
    member_ids: list[int]

    @property
    def n_members(self) -> int:
        return len(self.members)

    def stack(self) -> np.ndarray:
        """All members as one (n_members, nt, m) array."""
        return np.stack([mem.states for mem in self.members])


@dataclass
class InitialCondition:
    """The time-zero marginal shared by the sampler and the precision blocks."""

    mode: str                      # "burnin" or "white"
    sigma0: float = 1.0
    burn_in: int = 20
    # always None: P_0 is not held (burnin_covariance rebuilds it); the
    # field stays because perfbench's tracer reads r.cov
    cov: np.ndarray | None = None
    prec: np.ndarray | None = None  # dense (m, m) P_0^{-1}, burnin mode only
    prop: np.ndarray | None = None  # dense (m, m) M = A_1^{-1}, burnin only
    logdet_prec: float = 0.0
    m: int = 0


def initial_condition(theta: ParamFields, grid: SpaceTimeGrid | None = None,
                      p0_mode: str = "burnin", sigma0: float = 1.0,
                      burn_in: int = 20,
                      transitions: list[TransitionStep] | None = None
                      ) -> InitialCondition:
    """Build the x_0 marginal.

    "white" is N(0, sigma0^2 I). "burnin" approximates the stationary
    distribution of the first transition step by propagating unit white
    noise covariance through `burn_in` implicit steps,

        P_k = M (P_{k-1} + D) M^T,    P_0 = I,    D = dt^2 diag(tau_1^2),

    with the dense propagator M = A_1^{-1}. Unrolled, P_B = G_B G_B^T + S_B
    with G_k = M^k and S_k = sum_{j=1..k} M^j D M^{jT}; runs of a and b
    steps compose as (G_a G_b, S_a + G_a S_b G_a^T), so P_B is built from
    the binary digits of B by doubling (`_burnin_doubling`). Its inverse
    becomes the first precision block, so sampler and precision stay
    consistent by construction. The marginal keeps P_B^{-1} and M (which
    the burn-in adjoint reads), not P_B itself; ``burnin_covariance``
    rebuilds that. A singular A_1 raises SingularTransition(1); a negative
    burn_in raises ValueError.
    """
    grid = grid or theta.grid
    m = grid.m
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if p0_mode == "white":
        if sigma0 <= 0:
            # degenerate start is fine for sampling (x0 = 0) but has no
            # precision; callers that need one will reject it
            return InitialCondition(mode="white", sigma0=sigma0, m=m)
        return InitialCondition(mode="white", sigma0=sigma0, m=m,
                                logdet_prec=-2.0 * m * np.log(sigma0))
    if p0_mode != "burnin":
        raise ValueError(f"unknown p0_mode {p0_mode!r}")

    if transitions is None:
        transitions = build_transition(theta, grid)
    step = transitions[0]
    prop = step.dense_inverse()
    cov = _burnin_doubling(prop, (grid.dt * step.noise_scale)**2, burn_in)
    # numpy's LAPACK, not scipy.linalg: numpy and scipy each bundle their
    # own OpenBLAS with its own thread pool. On a 2-core VM with 2 BLAS
    # threads, a scipy potrf right after numpy's dense products took
    # 65-120 ms instead of 1-2 ms per call inside a joint-solve op.
    logdet_prec = -2.0 * float(np.sum(np.log(np.diag(
        np.linalg.cholesky(cov)))))
    prec = np.linalg.inv(cov)
    del cov
    prec = 0.5 * (prec + prec.T)
    return InitialCondition(mode="burnin", sigma0=sigma0, burn_in=burn_in,
                            prec=prec, prop=prop, logdet_prec=logdet_prec,
                            m=m)


def burnin_covariance(ic: InitialCondition, step: TransitionStep,
                      dt: float) -> np.ndarray:
    """The dense P_B of a burn-in marginal, which it does not hold: the
    doubling rerun on its M, for step = A_1 at grid step dt. For dense
    oracles and checks."""
    return _burnin_doubling(ic.prop, (dt * step.noise_scale)**2, ic.burn_in)


def _burnin_doubling(prop: np.ndarray, noise_var: np.ndarray, burn_in: int,
                     tape: list | None = None) -> np.ndarray:
    """P_B = G_B G_B^T + S_B of the burn-in recursion by binary doubling.

    The run (G, S) of 2^k steps squares to (G G, S + G S G^T); each binary
    digit of B set at level k applies that run to the covariance built so
    far, P <- S + G P G^T, starting from P = I at the lowest set digit.
    B = 20 takes 16 dense m x m products where the step-by-step recursion
    takes 40. Given a list, the operations are recorded on it in order for
    estimation._burnin_adjoint: ("square", G, G S) and ("apply", G, P),
    where P is None for the start P = I.
    """
    if burn_in == 0:
        return np.eye(prop.shape[0])
    g = prop
    s = (prop * noise_var) @ prop.T
    s = 0.5 * (s + s.T)
    cov = None
    level = burn_in
    while True:
        if level & 1:
            if tape is not None:
                tape.append(("apply", g, cov))
            cov = s + (g @ g.T if cov is None else g @ cov @ g.T)
            cov = 0.5 * (cov + cov.T)
        level >>= 1
        if not level:
            return cov
        gs = g @ s
        if tape is not None:
            tape.append(("square", g, gs))
        s = s + gs @ g.T
        s = 0.5 * (s + s.T)
        g = g @ g


def propagate(transitions: list[TransitionStep], x0: np.ndarray,
              noises: list[np.ndarray] | np.ndarray, dt: float) -> np.ndarray:
    """Run the recursion from x0 with explicit standard-normal draws.

    noises[k] is the z used for step transitions[k]; the trajectory is
    linear in (x0, noises), which the linearity tests rely on. An (m, n)
    start with (m, n) draws runs n trajectories at once and returns an
    (nt, m, n) array.
    """
    nt = len(transitions) + 1
    states = np.empty((nt,) + x0.shape)
    states[0] = x0
    for k, step in enumerate(transitions):
        # transposed, the (m,) scale multiplies each column of an (m, n) z
        forcing = states[k] + (dt * step.noise_scale * noises[k].T).T
        states[k + 1] = step.propagate(forcing)
    return states


# Members drawn (and, in conditional sampling, solved) together. The
# posterior solve works on 16-column panels and reads the banded factor once
# per substitution pass of a call, so a block of 32 shares each read between
# two panels. On the 24x24x10, 100-member white-start ensemble (perfbench,
# 2-core VM), blocks of 8, 16 and 32 took medians of 0.64, 0.54 and 0.43 s
# per op (2, 6 and 6 runs) at the same 134 MB peak RSS. Blocks of 64 and
# 100 added 5 and 14 MB when last measured, with a column-by-column solve.
_MEMBER_BLOCK = 32


def _draw_block(transitions, grid, ic: InitialCondition, base_seed,
                member_ids) -> np.ndarray:
    """Prior draws of the given members as one (nt, m, n) array; column j
    is member member_ids[j], drawn from its own keyed streams."""
    m = grid.m
    x0 = _keyed_normals(base_seed, member_ids, _STREAM_INIT, 0, m)
    if ic.mode == "white":
        x0 = ic.sigma0 * x0
    else:
        step = transitions[0]
        scale = (grid.dt * step.noise_scale)[:, None]
        for k in range(1, ic.burn_in + 1):
            z = _keyed_normals(base_seed, member_ids, _STREAM_INIT, k, m)
            x0 = step.propagate(x0 + scale * z)
    zs = [_keyed_normals(base_seed, member_ids, _STREAM_STEP, step.t, m)
          for step in transitions]
    return propagate(transitions, x0, zs, grid.dt)


def _prior_blocks(transitions, grid, ic: InitialCondition, base_seed,
                  n_members: int):
    """Yield (member ids, their (nt, m, n) prior draws) block by block."""
    for start in range(0, n_members, _MEMBER_BLOCK):
        ids = range(start, min(start + _MEMBER_BLOCK, n_members))
        yield ids, _draw_block(transitions, grid, ic, base_seed, ids)


def sample_prior(theta: ParamFields, grid: SpaceTimeGrid | None = None,
                 n_members: int = 1, base_seed: int = 0,
                 p0_mode: str = "burnin", sigma0: float = 1.0,
                 burn_in: int = 20,
                 transitions: list[TransitionStep] | None = None) -> Ensemble:
    """Draw trajectories from the prior. Bit-reproducible for fixed seeds."""
    grid = grid or theta.grid
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if p0_mode not in ("burnin", "white"):
        raise ValueError(f"unknown p0_mode {p0_mode!r}")
    if transitions is None:
        transitions = build_transition(theta, grid)
    ic = InitialCondition(mode=p0_mode, sigma0=sigma0, burn_in=burn_in,
                          m=grid.m)
    states = np.empty((n_members, grid.nt, grid.m))
    for ids, block in _prior_blocks(transitions, grid, ic, base_seed,
                                    n_members):
        states[ids.start:ids.stop] = block.transpose(2, 0, 1)
    return Ensemble(grid=grid, members=[Trajectory(grid, s) for s in states],
                    base_seed=base_seed, member_ids=list(range(n_members)))


def pseudo_obs_noise(base_seed: int, member_ids, size: int) -> np.ndarray:
    """(size, n) observation-noise draws, column j tied to member_ids[j]."""
    return _keyed_normals(base_seed, member_ids, _STREAM_OBS, 0, size)
