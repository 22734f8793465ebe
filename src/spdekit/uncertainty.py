"""Posterior sampling by conditional simulation, plus ensemble statistics.

Each member corrects an unconditional prior draw by its own interpolation
error:

    member_i = x_star + (x_s^i - x_s_star^i)

where x_s^i is a prior trajectory and x_s_star^i is its interpolation from
pseudo-observations taken at the actual data locations (same mask, same
noise variances, values subsampled from x_s^i plus N(0, R) noise, so the
member statistics are exact for the stated posterior). In this
linear-Gaussian setting the ensemble mean and covariance converge to the
posterior ones.

The caller's PosteriorSolver supplies the one posterior factorization and
the prior the members are drawn from. Members run in fixed blocks with one
multi-column solve each, on the same counter-keyed streams as prior
sampling, so results do not depend on the block size. x_star itself can
ride in the first block's solve, as its column 0.
"""

from __future__ import annotations

import numpy as np

from .errors import SolveFailure
from .grid import Trajectory
from .oi import PosteriorSolver
from .state_space import Ensemble, _prior_blocks, pseudo_obs_noise


def conditional_sample(x_star: Trajectory | None, post: PosteriorSolver,
                       n_members: int = 100, base_seed: int = 0) -> Ensemble:
    """Draw posterior trajectories around the interpolation x_star.

    ``post`` must come from an unmodified prior precision, whose prior
    structure the members are drawn from. With x_star None, the
    interpolation is solved here, as column 0 of the first member block's
    solve, so that it fills a panel slot rather than a panel of its own.
    The ensemble holds the x_star its members are centred on. A
    SolveFailure names the member, or x_star.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    prior = post.prior
    if prior is None:
        raise ValueError("conditional sampling needs the prior structure; "
                         "build the PosteriorSolver from a prior precision")
    grid = post.grid
    idx = post.obs.indices
    noise_std = np.sqrt(post.obs.noise_var)[:, None]
    lead = 0 if x_star is not None else 1          # x_star's column
    states = np.empty((n_members, grid.nt, grid.m))
    for ids, x_s in _prior_blocks(prior.transitions, grid, prior.ic,
                                  base_seed, n_members, taken=lead):
        pseudo = x_s.reshape(grid.dim, -1)[idx] \
            + noise_std * pseudo_obs_noise(base_seed, ids, idx.size)
        if lead:
            pseudo = np.concatenate([post.obs.values[:, None], pseudo],
                                    axis=1)
        try:
            solved = post.solve_columns(pseudo)
        except SolveFailure as exc:
            j = exc.column - lead
            name = f"member {ids[j]}" if j >= 0 else "x_star"
            raise SolveFailure(f"{name}: {exc}") from exc
        if lead:
            x_star = Trajectory.from_flat(grid, solved[:, 0].copy())
            solved, lead = solved[:, 1:], 0
        members = x_star.states[:, :, None] + x_s - solved.reshape(x_s.shape)
        states[ids.start:ids.stop] = members.transpose(2, 0, 1)
    return Ensemble(grid=grid, members=[Trajectory(grid, s) for s in states],
                    base_seed=base_seed, member_ids=list(range(n_members)),
                    x_star=x_star)


def ensemble_stats(ens: Ensemble) -> tuple[Trajectory, Trajectory]:
    """Cellwise sample mean and standard deviation (divisor n - 1)."""
    if ens.n_members < 2:
        raise ValueError("ensemble statistics need at least 2 members")
    stacked = ens.stack()
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0, ddof=1)
    return Trajectory(ens.grid, mean), Trajectory(ens.grid, std)
