"""Discrete-time transition structure of the drift operator and prior sampling.

One implicit step propagates x_t to x_{t+1} by solving

    A_{t+1} u = x_t + dt * tau_{t+1} * z,      A_t = I - dt * F_t,

where F_t is the (negative-definite) drift: the assembled slab operator
enters with a minus sign, F_t = -L_t^{alpha/2}, so that A_t = I + dt *
L_t^{alpha/2} and the propagator M_t = A_t^{-1} is contractive. The noise
z is i.i.d. standard normal per cell; the per-step noise map is therefore
T_t = M_t * dt * diag(tau_t).

Draws are keyed by (base_seed, member_id, stream, step) through a
counter-style seed sequence, so ensembles are bit-identical no matter how
members are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import SingularTransition
from .grid import SpaceTimeGrid, Trajectory
from .operators import ParamFields, apply_fractional, assemble_fdm_operator

_STREAM_INIT = 0
_STREAM_STEP = 1
_STREAM_OBS = 2  # reserved for pseudo-observation noise


def _member_rng(base_seed: int, member_id: int, stream: int, step: int):
    return np.random.default_rng((int(base_seed), int(member_id),
                                  int(stream), int(step)))


@dataclass
class TransitionStep:
    """One implicit step: holds A_t = I - dt*F_t and its factorization."""

    t: int
    a_solve: sparse.csr_array
    noise_scale: np.ndarray  # tau slab, flattened (m,)
    _lu: object = None

    @property
    def lu(self):
        if self._lu is None:
            try:
                self._lu = splu(self.a_solve.tocsc())
            except RuntimeError as exc:
                raise SingularTransition(self.t, str(exc)) from exc
        return self._lu

    def propagate(self, v: np.ndarray) -> np.ndarray:
        """Apply M_t = A_t^{-1} (2-D inputs solved columnwise)."""
        return self.lu.solve(np.ascontiguousarray(v))

    def dense_inverse(self) -> np.ndarray:
        """The dense propagator M_t = A_t^{-1}, computed afresh per call.

        A singular A_t raises SingularTransition(t).
        """
        try:
            return np.linalg.inv(self.a_solve.toarray())
        except np.linalg.LinAlgError as exc:
            raise SingularTransition(self.t, str(exc)) from exc


def transition_from_drift(f_drift, dt: float, t: int = 0,
                          noise_scale=None) -> TransitionStep:
    """Build a step directly from a drift matrix F (A = I - dt*F)."""
    f = sparse.csr_array(f_drift) if not sparse.issparse(f_drift) \
        else f_drift.tocsr()
    n = f.shape[0]
    a = (sparse.identity(n, format="csr") - dt * f).tocsr()
    a.sort_indices()
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
    cov: np.ndarray | None = None  # dense (m, m), burnin mode only
    prec: np.ndarray | None = None
    logdet_prec: float = 0.0
    m: int = 0

    def prec_sparse(self) -> sparse.csr_array:
        if self.mode == "white":
            return sparse.identity(self.m, format="csr") / self.sigma0**2
        return sparse.csr_array(self.prec)


def initial_condition(theta: ParamFields, grid: SpaceTimeGrid | None = None,
                      p0_mode: str = "burnin", sigma0: float = 1.0,
                      burn_in: int = 20,
                      transitions: list[TransitionStep] | None = None
                      ) -> InitialCondition:
    """Build the x_0 marginal.

    "white" is N(0, sigma0^2 I). "burnin" approximates the stationary
    distribution of the first transition step by propagating unit white
    noise covariance through `burn_in` implicit steps,

        P_k = M (P_{k-1} + dt^2 diag(tau_1^2)) M^T,    P_0 = I,

    with the dense propagator M = A_1^{-1}, so each step is two dense
    matrix products. Its dense inverse becomes the first precision block,
    so sampler and precision stay consistent by construction. A singular
    A_1 raises SingularTransition(1).
    """
    grid = grid or theta.grid
    m = grid.m
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
    noise_var = (grid.dt * step.noise_scale)**2
    cov = np.eye(m)
    for _ in range(burn_in):
        cov = prop @ (cov + np.diag(noise_var)) @ prop.T
        cov = 0.5 * (cov + cov.T)
    import scipy.linalg as la
    cho = la.cho_factor(cov, lower=True)
    prec = la.cho_solve(cho, np.eye(m))
    prec = 0.5 * (prec + prec.T)
    logdet_prec = -2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    return InitialCondition(mode="burnin", sigma0=sigma0, burn_in=burn_in,
                            cov=cov, prec=prec, logdet_prec=logdet_prec, m=m)


def propagate(transitions: list[TransitionStep], x0: np.ndarray,
              noises: list[np.ndarray] | np.ndarray, dt: float) -> np.ndarray:
    """Run the recursion from x0 with explicit standard-normal draws.

    noises[k] is the z used for step transitions[k]; the trajectory is
    linear in (x0, noises), which the linearity tests rely on.
    """
    nt = len(transitions) + 1
    states = np.empty((nt, x0.shape[0]))
    states[0] = x0
    for k, step in enumerate(transitions):
        forcing = states[k] + dt * step.noise_scale * noises[k]
        states[k + 1] = step.propagate(forcing)
    return states


def _draw_member(transitions, grid, ic: InitialCondition, base_seed,
                 member_id) -> Trajectory:
    m = grid.m
    rng0 = _member_rng(base_seed, member_id, _STREAM_INIT, 0)
    if ic.mode == "white":
        x0 = ic.sigma0 * rng0.standard_normal(m)
    else:
        x0 = rng0.standard_normal(m)
        step = transitions[0]
        for k in range(1, ic.burn_in + 1):
            z = _member_rng(base_seed, member_id, _STREAM_INIT,
                            k).standard_normal(m)
            x0 = step.propagate(x0 + grid.dt * step.noise_scale * z)
    zs = [_member_rng(base_seed, member_id, _STREAM_STEP,
                      step.t).standard_normal(m)
          for step in transitions]
    return Trajectory(grid, propagate(transitions, x0, zs, grid.dt))


def sample_prior(theta: ParamFields, grid: SpaceTimeGrid | None = None,
                 n_members: int = 1, base_seed: int = 0,
                 p0_mode: str = "burnin", sigma0: float = 1.0,
                 burn_in: int = 20,
                 transitions: list[TransitionStep] | None = None,
                 threads: int = 1) -> Ensemble:
    """Draw trajectories from the prior. Bit-reproducible for fixed seeds."""
    grid = grid or theta.grid
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    if transitions is None:
        transitions = build_transition(theta, grid)
    ic = InitialCondition(mode="white", sigma0=sigma0, m=grid.m) \
        if p0_mode == "white" else \
        InitialCondition(mode="burnin", burn_in=burn_in, m=grid.m)
    member_ids = list(range(n_members))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            members = list(pool.map(
                lambda i: _draw_member(transitions, grid, ic, base_seed, i),
                member_ids))
    else:
        members = [_draw_member(transitions, grid, ic, base_seed, i)
                   for i in member_ids]
    return Ensemble(grid=grid, members=members, base_seed=base_seed,
                    member_ids=member_ids)


def pseudo_obs_rng(base_seed: int, member_id: int):
    """Stream reserved for observation-noise draws tied to a member."""
    return _member_rng(base_seed, member_id, _STREAM_OBS, 0)
