"""Discrete-time transition structure of the drift operator and prior sampling.

One implicit step propagates x_t to x_{t+1} by solving

    A_{t+1} u = x_t + dt * tau_{t+1} * z,      A_t = I - dt * F_t,

where F_t is the (negative-definite) drift: the assembled slab operator
enters with a minus sign, F_t = -L_t^{alpha/2}, so that A_t = I + dt *
L_t^{alpha/2} and the propagator M_t = A_t^{-1} is contractive. The noise
z is i.i.d. standard normal per cell; the per-step noise map is therefore
T_t = M_t * dt * diag(tau_t). A_t is a stencil matrix, banded in row-major
cell order, and each step keeps one LAPACK banded LU of it: every solve
with M_t and the dense M_t read that one factor. With k = alpha/2 it
couples only cells at most k apart along each axis, so it is also block
tridiagonal in blocks of k grid rows. One forward sweep of the block
recursion over every step of a theta (``schur_sweep``) gives log|det A_t|
as the sum of its Schur blocks' log-determinants, and the backward pass
(``selected_inverse``) reads A_t^{-1} at its pattern from that sweep.

``build_transition`` takes the values of L_t for all slabs asked for from
one product J @ phi_t with the grid's stencil table, and makes every A_t
as values on the Chebyshev k-ring pattern: dt L_t^k, the power formed by
k - 1 sparse products, plus 1 at the diagonal. At k = 1 the ring is the
stencil table; unused slots (h12 = 0) are explicit zeros. Each step holds
its pattern, whose precomputed band and block positions the LU and the
Schur sweep scatter the values to. A hand-built drift
(``transition_from_drift``) gets the pattern of its own nonzeros, made by
the same code, so both kinds of step take one path.

The burn-in marginal is dense: its propagator is one banded solve of the
identity, and its doubling and Cholesky run on scipy's BLAS and LAPACK,
the OpenBLAS build and thread pool the banded calls before and after it
use, never on numpy's. Every symmetric matrix of the doubling is held as
the upper triangle that dsyrk, dsyr2k and dsymm write and read, so no
pass symmetrizes it and no add is separate from a product; dpotrf reads
that triangle as it comes.

Draws are keyed by (base_seed, member_id, stream, step) through a
counter-style seed sequence, and members run together in fixed blocks, so
ensembles are bit-identical whatever the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dgemm, dsymm, dsyr2k, dsyrk
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpotrf, dpotri

from .errors import SingularTransition
from .grid import SpaceTimeGrid, Trajectory
from .operators import (ParamFields, SlotPattern, _power, _ring_pattern,
                        _slab_features, _stencil_table, _theta_grid)

_STREAM_INIT = 0
_STREAM_STEP = 1
_STREAM_OBS = 2  # reserved for pseudo-observation noise


def _keyed_normals(base_seed: int, member_ids, stream: int, step: int,
                   size: int) -> np.ndarray:
    """(size, n) standard normals; column j is keyed by
    (base_seed, member_ids[j], stream, step).

    A seed sequence splits each integer of a key tuple into its 32-bit
    little-endian words (0 into one zero word) and joins them, so the key
    is handed over as that uint32 array, which it takes without the
    per-integer coercion: base_seed's words, then member, stream and step,
    each below 2^32. A negative base_seed is refused, as the seed
    sequence refuses it in a tuple."""
    base_seed = int(base_seed)
    if base_seed < 0:
        raise ValueError(f"base_seed must be non-negative, got {base_seed}")
    words = [base_seed >> shift & 0xFFFFFFFF
             for shift in range(0, max(base_seed.bit_length(), 1), 32)]
    key = np.array(words + [0, stream, step], dtype=np.uint32)
    out = np.empty((size, len(member_ids)))
    for j, member in enumerate(member_ids):
        key[len(words)] = member
        out[:, j] = np.random.default_rng(key).standard_normal(size)
    return out


@dataclass
class TransitionStep:
    """One implicit step: holds A_t = I - dt*F_t and its banded LU.

    A_t is a stencil matrix, banded in row-major cell order, stored on
    ``pattern``: the grid's k-ring pattern, or the pattern of a hand-built
    drift. Its LAPACK banded LU (dgbtrf) is computed once, on first use,
    by scattering the values to the pattern's band slots, and serves
    propagate and dense_inverse (the burn-in's dense M_1); a zero pivot
    raises SingularTransition(t) from each of them. The likelihood reads
    neither: log|det A_t| and A_t^{-1} at the k-ring pattern, which the
    trace gradient needs, come from the block recursion of every step of
    a theta at once (``schur_sweep`` and ``selected_inverse``).
    """

    t: int
    a_solve: sparse.csr_array
    noise_scale: np.ndarray  # tau slab, flattened (m,)
    pattern: SlotPattern     # a_solve's indptr and indices
    _factor: tuple | None = None  # (lu band, pivots, kl, ku)

    def _banded_lu(self) -> tuple:
        if self._factor is None:
            p = self.pattern
            ab = np.zeros((2 * p.kl + p.ku + 1, self.a_solve.shape[0]),
                          order="F")
            ab.reshape(-1, order="F")[p.band_slots] = self.a_solve.data
            lu, piv, info = dgbtrf(ab, p.kl, p.ku, overwrite_ab=1)
            if info > 0:
                raise SingularTransition(self.t,
                                         f"zero pivot in row {info - 1}")
            self._factor = (lu, piv, p.kl, p.ku)
        return self._factor

    def propagate(self, v: np.ndarray) -> np.ndarray:
        """Apply M_t = A_t^{-1} to a vector, or to every column of a 2-D
        input in one LAPACK call (a Fortran-ordered result)."""
        lu, piv, kl, ku = self._banded_lu()
        return dgbtrs(lu, kl, ku, np.asarray(v, dtype=float), piv)[0]

    def dense_inverse(self) -> np.ndarray:
        """The dense propagator M_t = A_t^{-1}, computed afresh per call as
        one solve, in place, of a Fortran-ordered identity."""
        lu, piv, kl, ku = self._banded_lu()
        eye = np.eye(self.a_solve.shape[0], order="F")
        return dgbtrs(lu, kl, ku, eye, piv, overwrite_b=1)[0]


def transition_from_drift(f_drift, dt: float, t: int = 0,
                          noise_scale=None) -> TransitionStep:
    """Build a step directly from a drift matrix F (A = I - dt*F), on the
    pattern of A's nonzero entries."""
    f = sparse.csr_array(f_drift) if not sparse.issparse(f_drift) \
        else f_drift.tocsr()
    n = f.shape[0]
    a = (sparse.identity(n, format="csr") - dt * f).tocsr()
    a.sum_duplicates()
    scale = np.zeros(n) if noise_scale is None else np.asarray(noise_scale)
    return TransitionStep(t=t, a_solve=a, noise_scale=scale,
                          pattern=SlotPattern(a.indptr, a.indices))


def build_transition(theta: ParamFields, grid: SpaceTimeGrid | None = None,
                     slabs=None) -> list[TransitionStep]:
    """The TransitionStep of each slab t in slabs (default 1..nt-1), with
    A_t = I + dt L_t^k, k = alpha/2.

    L_t of every slab asked for is one product J @ Phi over the stacked
    slab features, at the stencil table's slots. Its power, formed by
    k - 1 sparse products of the zero-free L_t (those of
    ``FractionalOperator.to_sparse`` on the assembled operator), holds
    only pairs of cells at most k apart along each axis, so A_t is
    stored on that Chebyshev k-ring pattern: dt L_t^k plus 1 at the
    diagonal slots. These are the bits of I + dt L_t^k formed from the
    zero-free operator, with the pattern's unused slots (the diagonal
    neighbours when h12 = 0) kept as explicit zeros. A grid given must be
    theta's.
    """
    grid = _theta_grid(theta, grid)
    slabs = list(range(1, grid.nt) if slabs is None else slabs)
    taus = theta.tau.values
    k = theta.alpha // 2
    table, ring = _stencil_table(grid), _ring_pattern(grid, k)
    values = np.ascontiguousarray((table.jac @ _slab_features(theta,
                                                              slabs)).T)
    if k > 1:
        powers = [_power(table.operator(lt), k) for lt in values]
        values = np.array([p[ring.rows, ring.indices] for p in powers])
    values = grid.dt * values
    values[:, ring.diag] += 1.0
    return [TransitionStep(t=t, a_solve=ring.matrix(data),
                           noise_scale=taus[t].ravel(), pattern=ring)
            for t, data in zip(slabs, values)]


@dataclass
class SchurSweep:
    """The forward half of the block recursion of ``selected_inverse``, for
    every step of a theta at once: the blocks of each A_t, the inverse of
    each Schur block S_i, and log|det A_t| = sum_i log|det S_i|.

    ``blocks[i, d + 1, s]`` is A_{i, i+d} of step s (d = -1, 1), and S_i
    at d = 0, in place of D_i, which nothing reads after it; ``s_inv[i,
    s]`` is S_i^{-1}. The step axis is inside, so that each batched product
    reads contiguous stacks of blocks. ``log_abs_det[s]`` is log|det A_t|
    of step s. ``selected_inverse`` takes the blocks (None after it).
    """

    blocks: np.ndarray | None  # (nb, 3, steps, block, block)
    s_inv: np.ndarray          # (nb, steps, block, block)
    log_abs_det: np.ndarray    # (steps,)

    @property
    def block(self) -> int:
        return self.s_inv.shape[-1]


def schur_sweep(transitions: list[TransitionStep], block: int) -> SchurSweep:
    """The Schur sweep of every step, in blocks of block cells.

    In row-major cell order a step matrix at alpha = 2k is block
    tridiagonal in blocks of k grid rows: block = k nx cells. The cells are
    padded to a whole number nb of block rows with identity rows, which
    invert to I, couple to nothing and add log|det I| = 0. The sweep runs
    the block LU without pivoting across block rows, for all steps at once,
    batched along a step axis:

        S_0 = D_0,  S_i = D_i - A_{i,i-1} S_{i-1}^{-1} A_{i-1,i}

    so det A_t = prod_i det S_i. That is O(nb block^3) per step and no
    m x m array. After the loop one batched check flags every S_i that is
    singular, or whose 1-norm condition number reaches 1/eps, and one
    batched slogdet of the S_i gives log|det A_t|. A flagged block raises
    SingularTransition for its first block row i, and the first step in
    it, naming i: a singular A_t, or a nonsingular one that needs pivoting
    across block rows.
    """
    m = transitions[0].a_solve.shape[0]
    nb = -(-m // block)
    # each step's values go to its pattern's block slots
    blocks = np.zeros((3 * nb, len(transitions), block * block))
    for s, step in enumerate(transitions):
        where, position = step.pattern.block_slots(block)
        blocks[where, s, position] = step.a_solve.data
    padded = np.arange(m - (nb - 1) * block, block)
    blocks[3 * nb - 2, :, padded * (block + 1)] = 1.0
    blocks = blocks.reshape(nb, 3, len(transitions), block, block)

    lower, schur, upper = blocks[:, 0], blocks[:, 1], blocks[:, 2]
    s_inv = np.empty(schur.shape)
    # a bad block row makes the later ones inf or nan; the check below
    # names the first
    with np.errstate(all="ignore"):
        for i in range(nb):
            if i:                                  # S_i overwrites D_i
                schur[i] -= lower[i] @ s_inv[i - 1] @ upper[i - 1]
            try:
                s_inv[i] = np.linalg.inv(schur[i])
            except np.linalg.LinAlgError:
                for s, one in enumerate(schur[i]):
                    try:
                        s_inv[i, s] = np.linalg.inv(one)
                    except np.linalg.LinAlgError:
                        s_inv[i, s] = np.inf
        magnitude = np.abs(schur)
        cond = magnitude.sum(axis=-2).max(axis=-1)
        cond *= np.abs(s_inv, out=magnitude).sum(axis=-2).max(axis=-1)
    bad = np.argwhere(~(cond < 1.0 / np.finfo(float).eps))
    if bad.size:
        i, s = bad[0]
        raise SingularTransition(transitions[s].t,
                                 f"singular Schur block in block row {i}")
    log_abs_det = np.linalg.slogdet(schur)[1].sum(axis=0)
    return SchurSweep(blocks=blocks, s_inv=s_inv, log_abs_det=log_abs_det)


def selected_inverse(sweep: SchurSweep, rows: np.ndarray,
                     cols: np.ndarray) -> np.ndarray:
    """Entries A_t^{-1}[rows, cols] of every step of a Schur sweep, as a
    (steps, entries) array.

    The entries asked for must lie in the three block diagonals. They are
    read from the diagonal and first off-diagonal blocks G of A_t^{-1},
    which the backward half of the recursive Green's-function form of
    Takahashi's recursion (Rue & Held 2005, section 2.4) gives from the
    sweep without forming the dense inverse:

        G_{nb-1}   = S_{nb-1}^{-1}
        G_{i,i+1}  = -S_i^{-1} A_{i,i+1} G_{i+1}
        G_{i+1,i}  = -G_{i+1} A_{i+1,i} S_i^{-1}
        G_i        = S_i^{-1} - G_{i,i+1} A_{i+1,i} S_i^{-1}

    Each G block overwrites the sweep's block it replaces, once the pass
    has read that block, so no second array of blocks is allocated; the
    sweep gives its blocks up and serves one selected inverse (a second
    raises ValueError), its log|det A_t| kept.
    """
    (ry, rx), (cy, cx) = (np.divmod(rows, sweep.block),
                          np.divmod(cols, sweep.block))
    if np.any(np.abs(cy - ry) > 1):
        raise ValueError("entries outside the three block diagonals")
    if sweep.blocks is None:
        raise ValueError("this Schur sweep's blocks went to an earlier "
                         "selected inverse")
    # green[i, d + 1, s] replaces A_{i,i+d} (S_i at d = 0) once read
    s_inv, green = sweep.s_inv, sweep.blocks
    sweep.blocks = None
    nb = green.shape[0]
    lower, upper = green[:, 0], green[:, 2]
    green[nb - 1, 1] = s_inv[nb - 1]
    for i in range(nb - 2, -1, -1):
        lower_s = lower[i + 1] @ s_inv[i]          # A_{i+1,i} S_i^{-1}
        green[i, 2] = -(s_inv[i] @ upper[i]) @ green[i + 1, 1]
        green[i + 1, 0] = -green[i + 1, 1] @ lower_s
        green[i, 1] = s_inv[i] - green[i, 2] @ lower_s
    return green[ry, cy - ry + 1, :, rx, cx].T


@dataclass
class Ensemble:
    grid: SpaceTimeGrid
    members: list[Trajectory]
    base_seed: int
    member_ids: list[int]
    # the interpolation a conditional ensemble is centred on
    x_star: Trajectory | None = None

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
    # the doubling's recorded operations, held only where the burn-in
    # adjoint follows (which takes them); about 9 dense (m, m) arrays
    tape: list | None = None


def initial_condition(step: TransitionStep, grid: SpaceTimeGrid,
                      p0_mode: str = "burnin", sigma0: float = 1.0,
                      burn_in: int = 20,
                      keep_tape: bool = False) -> InitialCondition:
    """Build the x_0 marginal, for step = A_1 on grid.

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
    rebuilds that. With keep_tape, it also holds the doubling's tape for
    estimation._burnin_adjoint, which then need not run the doubling again.
    A singular A_1, or a P_B that is not numerically positive definite,
    raises SingularTransition(1); a negative burn_in raises ValueError.
    """
    m = grid.m
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if p0_mode == "white":
        # sigma0 <= 0 is fine for sampling (x0 = 0) but has no precision
        logdet = 0.0 if sigma0 <= 0 else -2.0 * m * np.log(sigma0)
        return InitialCondition(mode="white", sigma0=sigma0, burn_in=burn_in,
                                m=m, logdet_prec=logdet)
    if p0_mode != "burnin":
        raise ValueError(f"unknown p0_mode {p0_mode!r}")

    prop = step.dense_inverse()
    tape = [] if keep_tape else None
    cov = _burnin_doubling(prop, (grid.dt * step.noise_scale)**2, burn_in,
                           tape)
    # dpotrf overwrites the doubling's upper triangle with the upper factor
    # U (P_B = U^T U), clearing the lower triangle, and dpotri overwrites
    # that with the upper triangle of P_B^{-1}, on scipy's BLAS like the
    # doubling
    upper, info = dpotrf(cov, overwrite_a=1)
    if not info:
        logdet_prec = -2.0 * float(np.sum(np.log(np.diag(upper))))
        prec, info = dpotri(upper, overwrite_c=1)
    if info:
        raise SingularTransition(step.t, "the burn-in marginal covariance "
                                 "is not positive definite")
    del cov, upper
    prec += np.triu(prec, 1).T     # dpotrf cleared the lower triangle
    # exactly symmetric now, so its transpose is the same matrix, C-ordered
    # as numpy's consumers (the nll, Q's assembly) have always read it
    prec = prec.T
    return InitialCondition(mode="burnin", sigma0=sigma0, burn_in=burn_in,
                            prec=prec, prop=prop, logdet_prec=logdet_prec,
                            m=m, tape=tape)


def burnin_covariance(ic: InitialCondition, step: TransitionStep,
                      dt: float) -> np.ndarray:
    """The dense P_B of a burn-in marginal, which it does not hold: the
    doubling rerun on its M, for step = A_1 at grid step dt, its upper
    triangle mirrored. For dense oracles and checks."""
    upper = np.triu(_burnin_doubling(ic.prop, (dt * step.noise_scale)**2,
                                     ic.burn_in))
    return upper + np.triu(upper, 1).T


def _burnin_doubling(prop: np.ndarray, noise_var: np.ndarray, burn_in: int,
                     tape: list | None = None) -> np.ndarray:
    """The upper triangle of P_B = G_B G_B^T + S_B of the burn-in recursion,
    by binary doubling; the lower triangle holds no part of it.

    The run (G, S) of 2^k steps squares to (G G, S + G S G^T); each binary
    digit of B set at level k applies that run to the covariance built so
    far, P <- S + G P G^T, starting from P = I at the lowest set digit.
    Every symmetric matrix is kept as the upper triangle that scipy's BLAS
    reads and writes: S_1 = (M D^1/2)(M D^1/2)^T is one dsyrk, and with
    G S and G P from dsymm, S + G S G^T and S + G P G^T are each one dsyr2k
    of (G S, G) and (G P, G) that adds S; the first apply, S + G G^T, is
    one dsyrk that adds S, and G G is dgemm. B = 20 takes 16 BLAS calls
    where the step-by-step recursion takes 40 dense products. Given a list,
    the operations are recorded on it in order for
    estimation._burnin_adjoint: ("square", G, G S) and ("apply", G, P),
    where P is the upper triangle the run was applied to, None for the
    start P = I.
    """
    if burn_in == 0:
        return np.eye(prop.shape[0], order="F")
    g = prop
    s = dsyrk(1.0, prop * np.sqrt(noise_var))
    cov = None
    level = burn_in
    while True:
        if level & 1:
            if tape is not None:
                tape.append(("apply", g, cov))
            cov = dsyrk(1.0, g, beta=1.0, c=s) if cov is None else \
                dsyr2k(0.5, dsymm(1.0, cov, g, side=1), g, beta=1.0, c=s)
        level >>= 1
        if not level:
            return cov
        gs = dsymm(1.0, s, g, side=1)
        if tape is not None:
            tape.append(("square", g, gs))
        s = dsyr2k(0.5, gs, g, beta=1.0, c=s, overwrite_c=1)
        g = dgemm(1.0, g, g)


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
# two panels. On a 24x24x10, 100-member white-start `sample-posterior`
# (row-time factor, p = 482; 2-core VM, 2 BLAS threads; one process per
# size, medians of 4 ops), blocks of 16, 32, 64 and 100 took 0.23, 0.22,
# 0.20-0.22 and 0.22 s per op at peak RSS 110, 118, 123 and 134 MB: past 32
# a block costs memory and saves little time.
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
                  n_members: int, taken: int = 0):
    """Yield (member ids, their (nt, m, n) prior draws) block by block; the
    first block leaves `taken` of its columns to the caller, keeping at
    least one member."""
    start = 0
    while start < n_members:
        ids = range(start, min(start + max(_MEMBER_BLOCK - taken, 1),
                               n_members))
        yield ids, _draw_block(transitions, grid, ic, base_seed, ids)
        start, taken = ids.stop, 0


def sample_prior(theta: ParamFields, grid: SpaceTimeGrid | None = None,
                 n_members: int = 1, base_seed: int = 0,
                 p0_mode: str = "burnin", sigma0: float = 1.0,
                 burn_in: int = 20) -> Ensemble:
    """Draw trajectories from the prior. Bit-reproducible for fixed seeds.
    A grid given must be theta's."""
    grid = _theta_grid(theta, grid)
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if p0_mode not in ("burnin", "white"):
        raise ValueError(f"unknown p0_mode {p0_mode!r}")
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
