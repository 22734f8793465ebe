"""Conditional simulation and ensemble statistics."""

import numpy as np
import pytest

from spdekit import (BlockPrecision, ObservationSet, ParamFields,
                     PosteriorSolver, SpaceTimeGrid, Trajectory,
                     assemble_block_precision, conditional_sample,
                     ensemble_stats, sample_prior)
from spdekit import oi, state_space
from spdekit.errors import SolveFailure
from spdekit.state_space import Ensemble

from oracles import (conditional_sample_reference, dense_posterior_cov,
                     random_theta)


def _posterior_case(seed=0, density=0.3, noise=0.05, shape=(6, 6),
                    p0_mode="burnin", method="direct"):
    g = SpaceTimeGrid(nx=shape[0], ny=shape[1], nt=4)
    theta = random_theta(g, seed, advect=False)
    rng = np.random.default_rng(seed + 100)
    mask = rng.random(g.shape) < density
    n = int(mask.sum())
    obs = ObservationSet(g, mask, rng.standard_normal(n), np.full(n, noise))
    q = assemble_block_precision(theta, g, p0_mode=p0_mode)
    post = PosteriorSolver(q, obs, method=method)
    return g, post, q, post.solve()


def test_tiny_noise_pins_observed_cells():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 1, advect=False)
    rng = np.random.default_rng(2)
    mask = rng.random(g.shape) < 0.4
    n = int(mask.sum())
    obs = ObservationSet(g, mask, rng.standard_normal(n), np.full(n, 1e-10))
    post = PosteriorSolver(assemble_block_precision(theta, g), obs)
    x_star = post.solve()
    ens = conditional_sample(x_star, post, n_members=5, base_seed=3)
    idx = obs.indices
    for member in ens.members:
        assert np.max(np.abs(member.flat[idx] - x_star.flat[idx])) < 1e-3


def test_empty_mask_members_are_prior_draws_around_mean():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 4, advect=False)
    empty = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    post = PosteriorSolver(assemble_block_precision(theta, g), empty)
    ens = conditional_sample(Trajectory.zeros(g), post, n_members=3,
                             base_seed=7)
    prior = sample_prior(theta, g, n_members=3, base_seed=7)
    for member, draw in zip(ens.members, prior.members):
        assert np.max(np.abs(member.states - draw.states)) < 1e-12


def test_ensemble_variance_matches_posterior_covariance():
    g, post, q, x_star = _posterior_case(seed=5)
    ens = conditional_sample(x_star, post, n_members=500, base_seed=11)
    _, std = ensemble_stats(ens)
    target = np.diag(dense_posterior_cov(q, post.obs)).reshape(g.nt, g.m)
    sample_var = std.states**2
    significant = target > 1e-3
    rel = np.abs(sample_var[significant] - target[significant]) \
        / target[significant]
    assert np.max(rel) < 0.20


def test_ensemble_mean_within_standard_errors():
    # fixed-seed statistical test: this realization sits comfortably
    # inside the 3-sigma band
    g, post, q, x_star = _posterior_case(seed=6)
    n = 500
    ens = conditional_sample(x_star, post, n_members=n, base_seed=14)
    mean, std = ensemble_stats(ens)
    se = std.states / np.sqrt(n)
    z = np.abs(mean.states - x_star.states) / np.maximum(se, 1e-12)
    assert np.mean(z < 3.0) >= 0.99


def test_ensemble_stats_identities():
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    a = Trajectory(g, np.ones((g.nt, g.m)))
    b = Trajectory(g, 3.0 * np.ones((g.nt, g.m)))
    same = Ensemble(grid=g, members=[a.copy(), a.copy()], base_seed=0,
                    member_ids=[0, 1])
    mean, std = ensemble_stats(same)
    assert np.array_equal(std.states, np.zeros((g.nt, g.m)))
    two = Ensemble(grid=g, members=[a, b], base_seed=0, member_ids=[0, 1])
    mean, std = ensemble_stats(two)
    assert np.allclose(mean.states, 2.0)
    assert np.allclose(std.states, np.abs(a.states - b.states) / np.sqrt(2))
    with pytest.raises(ValueError):
        ensemble_stats(Ensemble(grid=g, members=[a], base_seed=0,
                                member_ids=[0]))


def test_conditional_sampling_deterministic(monkeypatch):
    # a member does not depend on the block it is drawn and solved in
    g, post, q, x_star = _posterior_case(seed=7)
    a = conditional_sample(x_star, post, n_members=20, base_seed=21)
    for block in (1, 3, 20):
        monkeypatch.setattr(state_space, "_MEMBER_BLOCK", block)
        b = conditional_sample(x_star, post, n_members=20, base_seed=21)
        for ma, mb in zip(a.members, b.members):
            assert ma.states.tobytes() == mb.states.tobytes()


@pytest.mark.parametrize("method", ["direct", "pcg"])
@pytest.mark.parametrize("p0_mode", ["white", "burnin"])
@pytest.mark.parametrize("shape", [(3, 3), (5, 4), (8, 8)])
def test_conditional_sample_matches_per_member_reference(shape, p0_mode,
                                                         method):
    g, post, q, x_star = _posterior_case(seed=9, shape=shape,
                                         p0_mode=p0_mode, method=method)
    ens = conditional_sample(x_star, post, n_members=20, base_seed=4)
    expect = conditional_sample_reference(x_star, post, 20, 4)
    for member, ref in zip(ens.members, expect, strict=True):
        assert member.states.tobytes() == ref.tobytes()


@pytest.mark.parametrize("p0_mode", ["white", "burnin"])
def test_x_star_solved_with_the_first_block_is_bit_identical(monkeypatch,
                                                             p0_mode):
    # without an x_star, it is solved as column 0 of the first member
    # block: x_star and every member keep the bits of the separate solve,
    # whatever the block size
    g, post, q, x_star = _posterior_case(seed=12, p0_mode=p0_mode)
    ref = conditional_sample(x_star, post, n_members=40, base_seed=8)
    assert ref.x_star is x_star
    solve_system = oi.PosteriorSolver._solve_system
    calls = []

    def counted(self, rhs):
        calls.append(rhs.shape[1])
        return solve_system(self, rhs)

    monkeypatch.setattr(oi.PosteriorSolver, "_solve_system", counted)
    for block in (1, 3, 32):
        monkeypatch.setattr(state_space, "_MEMBER_BLOCK", block)
        calls.clear()
        ens = conditional_sample(None, post, n_members=40, base_seed=8)
        # the first block keeps at least one member beside x_star
        assert sum(calls) == 41 and calls[0] == max(block, 2)
        assert ens.x_star.states.tobytes() == x_star.states.tobytes()
        for ma, mb in zip(ref.members, ens.members, strict=True):
            assert ma.states.tobytes() == mb.states.tobytes()


def test_negative_base_seed_is_refused():
    # the seed sequence refuses a negative integer in a tuple key; the
    # uint32 words of the array key must not wrap it round instead
    g, post, q, x_star = _posterior_case(seed=13)
    for lead in (x_star, None):
        with pytest.raises(ValueError, match="non-negative"):
            conditional_sample(lead, post, n_members=2, base_seed=-1)


def test_failed_block_solve_names_the_member(monkeypatch):
    g, post, q, x_star = _posterior_case(seed=10)
    monkeypatch.setattr(oi, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolveFailure, match=r"^member 0: posterior solve"):
        conditional_sample(x_star, post, n_members=5, base_seed=1)

    # a failure in a later block names the member, not the block column
    monkeypatch.setattr(oi, "RESIDUAL_TOL", 1e-8)
    monkeypatch.setattr(state_space, "_MEMBER_BLOCK", 3)
    solve_system = oi.PosteriorSolver._solve_system
    calls = []

    def spoil_second_block(self, rhs):
        x = solve_system(self, rhs)
        calls.append(rhs.shape[1])
        if len(calls) == 2:
            x[:, 1] = 0.0
        return x

    monkeypatch.setattr(oi.PosteriorSolver, "_solve_system",
                        spoil_second_block)
    with pytest.raises(SolveFailure, match=r"^member 4: posterior solve"):
        conditional_sample(x_star, post, n_members=8, base_seed=1)
    assert calls == [3, 3]


def test_conditional_sample_needs_prior_structure(monkeypatch):
    g, post, q, x_star = _posterior_case(seed=11)
    bare = PosteriorSolver(BlockPrecision(g, q.to_csr()), post.obs)

    def no_draws(*args):
        raise AssertionError("drew members without a prior structure")

    monkeypatch.setattr(state_space, "_draw_block", no_draws)
    with pytest.raises(ValueError, match="prior structure"):
        conditional_sample(x_star, bare, n_members=3, base_seed=0)


def test_information_monotonicity():
    # adding observations never increases the posterior variance anywhere
    g = SpaceTimeGrid(nx=5, ny=5, nt=3)
    theta = random_theta(g, 8, advect=False)
    q = assemble_block_precision(theta, g)
    rng = np.random.default_rng(30)
    mask_small = rng.random(g.shape) < 0.15
    mask_big = mask_small | (rng.random(g.shape) < 0.2)
    n_s, n_b = int(mask_small.sum()), int(mask_big.sum())
    obs_small = ObservationSet(g, mask_small, np.zeros(n_s),
                               np.full(n_s, 0.1))
    obs_big = ObservationSet(g, mask_big, np.zeros(n_b), np.full(n_b, 0.1))
    var_small = np.diag(dense_posterior_cov(q, obs_small))
    var_big = np.diag(dense_posterior_cov(q, obs_big))
    assert np.all(var_big <= var_small + 1e-12)

    # ensemble version of the same statement, at statistical tolerance
    p0 = PosteriorSolver(q, obs_small)
    p1 = PosteriorSolver(q, obs_big)
    e0 = conditional_sample(p0.solve(), p0, n_members=300, base_seed=31)
    e1 = conditional_sample(p1.solve(), p1, n_members=300, base_seed=32)
    _, s0 = ensemble_stats(e0)
    _, s1 = ensemble_stats(e1)
    assert np.mean(s1.states**2 <= s0.states**2 + 0.15 * np.max(s0.states**2)) \
        > 0.95


def test_observed_cells_have_lower_variance_than_far_neighbors():
    g = SpaceTimeGrid(nx=7, ny=7, nt=3)
    theta = ParamFields.stationary(g, kappa=0.5, h=(0.6, 0.0, 0.6), tau=1.0)
    q = assemble_block_precision(theta, g)
    mask = np.zeros(g.shape, dtype=bool)
    mask[1, 3, 3] = True
    obs = ObservationSet(g, mask, [0.0], [0.01])
    var = np.diag(dense_posterior_cov(q, obs)).reshape(g.nt, g.ny, g.nx)
    assert var[1, 3, 3] < var[1, 0, 0]
    assert var[1, 3, 3] < var[1, 3, 0]
