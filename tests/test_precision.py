"""Block-tridiagonal precision against the dense recursion covariance."""

import numpy as np
import pytest

from spdekit import (BlockPrecision, InitialCondition, ObservationSet,
                     ParamFields, SpaceTimeGrid, apply_precision,
                     assemble_block_precision, dense_trajectory_covariance,
                     posterior_precision, sample_prior, sparse_cholesky,
                     transition_from_drift)
from spdekit.errors import DegenerateNoise
from spdekit.precision import PriorStructure, build_prior, prior_precision

from oracles import block_precision_reference, random_theta


def _identity_dynamics_q(grid, tau=1.0, sigma0=1.0):
    """Q for M = I (zero drift) per-cell random walks, via the real assembly."""
    steps = [transition_from_drift(np.zeros((grid.m, grid.m)), grid.dt, t=t,
                                   noise_scale=np.full(grid.m, tau))
             for t in range(1, grid.nt)]
    ic = InitialCondition(mode="white", sigma0=sigma0, m=grid.m,
                          logdet_prec=-2.0 * grid.m * np.log(sigma0))
    # the hand-built steps stand in for those of the (unread) theta
    return prior_precision(PriorStructure(ParamFields.stationary(grid), steps,
                                          ic))


def _quadratic_form(q, states):
    """x^T Q x through apply_precision, summed over the trajectories of an
    (nt, m, n) stack."""
    return float(np.sum(states * apply_precision(q, states)))


def _block(q, i, j):
    """Dense block (i, j) of Q, sliced out of its matrix."""
    m = q.m
    return q.to_csr()[i * m:(i + 1) * m, j * m:(j + 1) * m].toarray()


def test_two_step_scalar_blocks():
    # M = 1, S = 1, P0 = 1 gives Q = [[2, -1], [-1, 1]] per cell
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    q = _identity_dynamics_q(g)
    eye = np.eye(g.m)
    assert np.max(np.abs(_block(q, 0, 0) - 2 * eye)) < 1e-14
    assert np.max(np.abs(_block(q, 1, 1) - eye)) < 1e-14
    assert np.max(np.abs(_block(q, 0, 1) + eye)) < 1e-14


def test_random_walk_structure():
    g = SpaceTimeGrid(nx=3, ny=4, nt=5, dt=0.5)
    tau = 2.0
    s = (g.dt * tau)**2
    q = _identity_dynamics_q(g, tau=tau, sigma0=3.0)
    eye = np.eye(g.m)
    for t in range(1, g.nt - 1):
        assert np.max(np.abs(_block(q, t, t) - (2.0 / s) * eye)) < 1e-12
    for t in range(g.nt - 1):
        assert np.max(np.abs(_block(q, t, t + 1) + (1.0 / s) * eye)) < 1e-12
        assert np.max(np.abs(_block(q, t + 1, t) + (1.0 / s) * eye)) < 1e-12
    assert np.max(np.abs(_block(q, 0, 0)
                         - (1 / 3.0**2 + 1 / s) * eye)) < 1e-12
    last = g.nt - 1
    assert np.max(np.abs(_block(q, last, last) - (1.0 / s) * eye)) < 1e-12


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_precision_is_inverse_of_recursion_covariance(seed, p0_mode):
    g = SpaceTimeGrid(nx=5, ny=5, nt=4)
    theta = random_theta(g, seed)
    q = assemble_block_precision(theta, g, p0_mode=p0_mode)
    p = dense_trajectory_covariance(theta, g, p0_mode=p0_mode)
    residual = q.to_csr().toarray() @ p - np.eye(g.dim)
    assert np.max(np.abs(residual)) < 1e-6


_REFERENCE_GRIDS = [(4, 3, 3, 2), (4, 3, 3, 4), (5, 5, 4, 2), (5, 5, 4, 4),
                    (8, 6, 5, 2), (8, 6, 5, 4), (12, 12, 6, 2),
                    (12, 12, 6, 4), (24, 24, 10, 2)]


def _same_csr(a, b) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("data", "indices", "indptr"))


def _int32_indices(a) -> bool:
    """scipy's index width at these sizes, as the step matrices hold it."""
    return a.indices.dtype == a.indptr.dtype == np.int32


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("nx,ny,nt,alpha", _REFERENCE_GRIDS)
def test_gram_assembly_is_bit_identical_to_block_assembly(nx, ny, nt, alpha,
                                                          seed, p0_mode):
    # R^T diag(w) R + P_0^{-1} and the per-block D_t / U_t recipe store the
    # same CSR bytes, prior and posterior, so every output built on Q is
    # unchanged by the route Q is assembled along
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=nt, dy=1.3)
    theta = random_theta(g, seed, alpha=alpha)
    q = assemble_block_precision(theta, g, p0_mode=p0_mode)
    ref = block_precision_reference(q.prior.transitions, q.prior.ic, g.dt)
    assert _same_csr(q.to_csr(), ref)
    assert q.nnz == ref.nnz
    # array_equal does not see the index width, which every product of Q
    # and the posterior factor's band rows inherit
    assert _int32_indices(q.to_csr())

    rng = np.random.default_rng(seed)
    mask = rng.random(g.shape) < 0.3
    noise = 0.1 + rng.random(int(mask.sum()))
    obs = ObservationSet(g, mask, np.zeros(noise.size), noise)
    add = np.zeros(g.dim)
    add[obs.indices] = 1.0 / noise
    ref_post = block_precision_reference(q.prior.transitions, q.prior.ic,
                                         g.dt, add)
    post = posterior_precision(q, obs).to_csr()
    assert _same_csr(post, ref_post)
    assert _int32_indices(post)


def test_block_precision_refuses_wrong_shape():
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    q = assemble_block_precision(random_theta(g, 0), g, p0_mode="white")
    with pytest.raises(ValueError, match=r"\(18, 18\)"):
        BlockPrecision(g, q.to_csr()[:9, :9])
    with pytest.raises(ValueError, match="shape"):
        BlockPrecision(SpaceTimeGrid(nx=3, ny=3, nt=3), q.to_csr())


def test_degenerate_noise_raises_with_step_and_hint():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    tau = np.full(g.shape, 1.0)
    tau[2, 1, 1] = 0.0
    theta = random_theta(g, 0).replace_fields(tau=tau)
    with pytest.raises(DegenerateNoise, match="t=2") as exc:
        assemble_block_precision(theta, g)
    assert "floor tau" in str(exc.value)


def test_posterior_precision_empty_mask_unchanged():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 1)
    q = assemble_block_precision(theta, g)
    obs = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    qp = posterior_precision(q, obs)
    assert np.max(np.abs((qp.to_csr() - q.to_csr()).toarray())) == 0.0


def test_posterior_precision_single_obs():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 2)
    q = assemble_block_precision(theta, g)
    mask = np.zeros(g.shape, dtype=bool)
    mask[1, 2, 0] = True
    obs = ObservationSet(g, mask, [0.7], [0.25])
    qp = posterior_precision(q, obs)
    diff = (qp.to_csr() - q.to_csr()).toarray()
    k = 1 * g.m + 2 * g.nx + 0
    expect = np.zeros((g.dim, g.dim))
    expect[k, k] = 4.0                           # 1 / 0.25
    assert np.max(np.abs(diff - expect)) < 1e-12


def test_posterior_precision_full_mask_identity_noise():
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 3)
    q = assemble_block_precision(theta, g)
    mask = np.ones(g.shape, dtype=bool)
    obs = ObservationSet(g, mask, np.zeros(g.dim), np.ones(g.dim))
    qp = posterior_precision(q, obs)
    diff = (qp.to_csr() - q.to_csr()).toarray()
    assert np.max(np.abs(diff - np.eye(g.dim))) < 1e-12


def test_apply_precision_zero_and_dense_match():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 4)
    q = assemble_block_precision(theta, g)
    assert np.array_equal(apply_precision(q, np.zeros((g.nt, g.m))),
                          np.zeros((g.nt, g.m)))
    rng = np.random.default_rng(0)
    v = rng.standard_normal((g.nt, g.m))
    dense = q.to_csr().toarray() @ v.reshape(-1)
    assert np.max(np.abs(apply_precision(q, v).reshape(-1) - dense)) < 1e-12
    # an (nt, m, n) stack is n trajectories in one pass
    stack = rng.standard_normal((g.nt, g.m, 3))
    dense = q.to_csr().toarray() @ stack.reshape(g.dim, 3)
    assert np.max(np.abs(apply_precision(q, stack).reshape(g.dim, 3)
                         - dense)) < 1e-12
    each = sum(_quadratic_form(q, stack[:, :, k]) for k in range(3))
    assert _quadratic_form(q, stack) == pytest.approx(each, rel=1e-12)


def test_apply_precision_symmetry_pairs():
    g = SpaceTimeGrid(nx=4, ny=3, nt=3)
    theta = random_theta(g, 5)
    q = assemble_block_precision(theta, g)
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.standard_normal(g.dim)
        v = rng.standard_normal(g.dim)
        uqv = float(u @ apply_precision(q, v.reshape(g.nt, g.m)).reshape(-1))
        vqu = float(v @ apply_precision(q, u.reshape(g.nt, g.m)).reshape(-1))
        assert abs(uqv - vqu) < 1e-12 * max(1.0, abs(uqv))


@pytest.mark.parametrize("seed", range(3))
def test_cholesky_succeeds_for_valid_theta(seed):
    g = SpaceTimeGrid(nx=4, ny=4, nt=4)
    theta = random_theta(g, seed + 20)
    q = assemble_block_precision(theta, g)
    fac = sparse_cholesky(q.to_csr())
    assert np.all(fac.diagonal > 0)


def test_quadratic_form_chi_squared_mean():
    # E[x^T Q x] equals the trajectory dimension when Q = inv(cov)
    g = SpaceTimeGrid(nx=6, ny=6, nt=4)
    theta = random_theta(g, 6, advect=False)
    q = assemble_block_precision(theta, g)
    ens = sample_prior(theta, g, n_members=2000, base_seed=9)
    vals = [_quadratic_form(q, m.states) for m in ens.members]
    assert np.mean(vals) == pytest.approx(g.dim, rel=0.10)


def test_quadratic_form_positive():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 7)
    q = assemble_block_precision(theta, g)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(g.dim)
    assert _quadratic_form(q, v.reshape(g.nt, g.m)) > 0
    assert _quadratic_form(q, np.zeros((g.nt, g.m))) == 0.0


def test_block_tridiagonal_sparsity():
    g = SpaceTimeGrid(nx=4, ny=4, nt=4)
    theta = random_theta(g, 8)
    q = assemble_block_precision(theta, g, p0_mode="white")
    full = q.to_csr().tocoo()
    for i, j in zip(full.row, full.col):
        assert abs(int(i) // g.m - int(j) // g.m) <= 1


def test_interpolation_precision_keeps_no_tape():
    # the burn-in doubling's tape (about 9 dense m x m arrays) is held only
    # where a trace gradient follows, never by the precision an
    # interpolation or an ensemble builds
    import tracemalloc
    g = SpaceTimeGrid(nx=8, ny=8, nt=3)
    theta = random_theta(g, 38)

    def retained(build):
        build()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = build()
            return kept, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    q, plain = retained(lambda: assemble_block_precision(theta, g))
    assert q.prior.ic.tape is None
    _, taped = retained(lambda: prior_precision(
        build_prior(theta, keep_tape=True)))
    assert taped - plain > 8 * g.m**2 * 8, (plain, taped)


def _moved(theta):
    """theta with slab 1 (kappa) and the last slab (tau) moved."""
    kappa = theta.kappa.values.copy()
    kappa[1] *= 1.1
    tau = theta.tau.values.copy()
    tau[-1] *= 0.9
    return theta.replace_fields(kappa=kappa, tau=tau)


@pytest.mark.parametrize("alpha", [2, 4])
@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_prior_from_a_previous_is_bit_identical_to_a_fresh_one(p0_mode,
                                                               alpha):
    # the steps and marginal a previous prior hands over give the Q, nll
    # and gradient of a prior built from nothing, bit for bit
    from spdekit.estimation import (PARAM_NAMES, _mean_nll, _step_terms,
                                    _trace_gradient)
    g = SpaceTimeGrid(nx=4, ny=5, nt=4, dy=1.3)
    theta = random_theta(g, 40, alpha=alpha)
    moved = _moved(theta)
    opts = dict(p0_mode=p0_mode, burn_in=5, keep_tape=True)
    states = np.stack([x.states for x in sample_prior(
        moved, g, n_members=3, base_seed=12, p0_mode=p0_mode,
        burn_in=5).members], axis=-1)
    priors = [build_prior(moved, previous=build_prior(theta, **opts),
                          **opts),
              build_prior(moved, **opts)]
    assert [prior.built for prior in priors] == [2, g.nt - 1]
    qs = [prior_precision(prior).matrix for prior in priors]
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(qs[0], name), getattr(qs[1], name))
    losses = [_mean_nll(states, prior, _step_terms(states, prior))
              for prior in priors]
    assert losses[0] == losses[1]
    grads = [_trace_gradient(states, prior, _step_terms(states, prior))
             for prior in priors]
    for name in PARAM_NAMES:
        assert np.array_equal(grads[0].fields[name], grads[1].fields[name])


def test_prior_from_a_previous_builds_only_the_changed_slabs(monkeypatch):
    import spdekit.precision as precision
    g = SpaceTimeGrid(nx=4, ny=4, nt=5)
    theta = random_theta(g, 41)
    built, marginals = [], []
    build_transition = precision.build_transition
    initial_condition = precision.initial_condition

    def recorded_steps(theta, grid, slabs=None):
        built.append(list(slabs))
        return build_transition(theta, grid, slabs=slabs)

    def recorded_marginal(*args, **kwargs):
        marginals.append(1)
        return initial_condition(*args, **kwargs)

    monkeypatch.setattr(precision, "build_transition", recorded_steps)
    monkeypatch.setattr(precision, "initial_condition", recorded_marginal)
    first = build_prior(theta, burn_in=5)
    assert built == [[1, 2, 3, 4]] and marginals == [1]

    def step_from(prior, steps):
        return [new is old for new, old in zip(prior.transitions, steps)]

    # slabs 1 and 4: two steps and, for a burn-in start, the marginal,
    # before which the previous prior gives up its steps and marginal
    built.clear(), marginals.clear()
    steps = first.transitions
    moved = build_prior(_moved(theta), burn_in=5, previous=first)
    assert built == [[1, 4]] and marginals == [1] and moved.built == 2
    assert step_from(moved, steps) == [False, True, True, False]
    assert first.transitions == [] and first.ic is None
    # a later slab alone: one step, the marginal handed over
    tau = moved.theta.tau.values.copy()
    tau[3] *= 1.2
    later = build_prior(moved.theta.replace_fields(tau=tau), burn_in=5,
                        previous=moved)
    assert built[1:] == [[3]] and marginals == [1] and later.built == 1
    assert step_from(later, moved.transitions) == [True, True, False, True]
    assert later.ic is moved.ic
    # slab 0 enters no step: nothing is built
    kappa = later.theta.kappa.values.copy()
    kappa[0] *= 2.0
    same = build_prior(later.theta.replace_fields(kappa=kappa), burn_in=5,
                       previous=later)
    assert built[2:] == [] and marginals == [1] and same.built == 0
    assert all(step_from(same, later.transitions)) and same.ic is later.ic
    # other start options: the steps are handed over, the marginal is not
    steps = same.transitions
    white = build_prior(same.theta, p0_mode="white", previous=same)
    assert built[2:] == [] and marginals == [1, 1] and white.built == 0
    assert white.ic.mode == "white" and all(step_from(white, steps))
    # a spent previous hands over nothing
    assert build_prior(theta, burn_in=5, previous=first).built == g.nt - 1


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_prior_log_det_matches_the_band_cholesky(p0_mode):
    # log|Q| from the steps' Schur sweep and the marginal against a
    # Cholesky factor of the assembled Q
    from spdekit.precision import _prior_log_det
    g = SpaceTimeGrid(nx=12, ny=12, nt=4)
    q = assemble_block_precision(random_theta(g, 43), g, p0_mode=p0_mode,
                                 burn_in=5)
    ours = _prior_log_det(q.prior)
    assert abs(ours - sparse_cholesky(q.to_csr()).logdet()) \
        <= 1e-12 * abs(ours)


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_prior_log_det_past_the_dense_guard(p0_mode):
    # the same two paths at 24x24x10 (dim 5760 > DENSE_GUARD), where no
    # dense oracle reaches; they gave the same bits in both modes
    from spdekit.oi import DENSE_GUARD
    from spdekit.precision import _prior_log_det
    g = SpaceTimeGrid(nx=24, ny=24, nt=10)
    assert g.dim > DENSE_GUARD
    q = assemble_block_precision(random_theta(g, 45), g, p0_mode=p0_mode)
    ours = _prior_log_det(q.prior)
    assert abs(ours - sparse_cholesky(q.to_csr()).logdet()) \
        <= 1e-13 * abs(ours)


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_a_previous_prior_gives_up_its_sweep(p0_mode):
    # build_prior frees the Schur sweep a previous prior holds, whether it
    # spends the prior (a burn-in slab 1 moved) or hands its steps over
    from spdekit.precision import _prior_log_det
    g = SpaceTimeGrid(nx=4, ny=4, nt=4)
    theta = random_theta(g, 44)
    opts = dict(p0_mode=p0_mode, burn_in=5)
    previous = build_prior(theta, **opts)
    _prior_log_det(previous)
    assert previous._sweep is not None
    build_prior(_moved(theta), previous=previous, **opts)
    assert previous._sweep is None
    assert (previous.ic is None) == (p0_mode == "burnin")


def test_burnin_prior_move_releases_the_old_marginal_first():
    # a burn-in theta move from a previous prior that still holds its
    # marginal and tape (about 11 dense m x m arrays) peaks lower than a
    # build from nothing, by at least two of those arrays: the old
    # marginal and steps are released before the new marginal and its
    # tape are built
    import tracemalloc
    g = SpaceTimeGrid(nx=8, ny=8, nt=3)
    theta = random_theta(g, 42)
    moved = _moved(theta)
    opts = dict(burn_in=5, keep_tape=True)
    build_prior(moved, **opts)                 # warm the grid's tables

    def peak(build):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = build()
        return kept, tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        previous = build_prior(theta, **opts)
        kept, from_previous = peak(lambda: build_prior(
            moved, previous=previous, **opts))
        del previous, kept
        _, alone = peak(lambda: build_prior(moved, **opts))
    finally:
        tracemalloc.stop()
    assert from_previous <= alone - 2 * g.m**2 * 8, (from_previous, alone)
