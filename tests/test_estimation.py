"""Likelihood values, parameter gradients, and the descent fitter."""

import numpy as np
import pytest
from scipy import sparse
from scipy.stats import multivariate_normal

from spdekit import (BlockPrecision, ParamFields, SpaceTimeGrid, Trajectory,
                     dense_trajectory_covariance, fit_params, nll, nll_grad,
                     sample_prior, validate_params)
from spdekit.errors import SingularTransition, UnsupportedAlpha
from spdekit.estimation import PARAM_NAMES
from spdekit.state_space import transition_from_drift

from oracles import (cholesky_adjoint_trace_gradient,
                     moments_from_trajectories, random_theta)


def test_nll_identity_precision_at_zero():
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    eye = sparse.csr_array(sparse.identity(g.m, format="csr"))
    q = BlockPrecision(grid=g, diag=[eye, eye],
                       upper=[sparse.csr_array((g.m, g.m))])
    val = nll(Trajectory.zeros(g), None, q=q)
    assert val == pytest.approx(0.5 * g.dim * np.log(2 * np.pi))


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_nll_matches_dense_gaussian(p0_mode):
    g = SpaceTimeGrid(nx=5, ny=5, nt=3)
    theta = random_theta(g, 0)
    x = sample_prior(theta, g, n_members=1, base_seed=1,
                     p0_mode=p0_mode).members[0]
    ours = nll(x, theta, p0_mode=p0_mode)
    cov = dense_trajectory_covariance(theta, g, p0_mode=p0_mode)
    oracle = -multivariate_normal(mean=np.zeros(g.dim), cov=cov,
                                  allow_singular=False).logpdf(x.flat)
    assert ours == pytest.approx(oracle, abs=1e-6)


def test_nll_scaling_direction_matches_dense():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 2)
    x = sample_prior(theta, g, n_members=1, base_seed=3).members[0]
    halved = theta.replace_fields(tau=theta.tau.values / 2.0)

    def dense_nll(th):
        cov = dense_trajectory_covariance(th, g)
        return -multivariate_normal(mean=np.zeros(g.dim),
                                    cov=cov).logpdf(x.flat)

    ours_delta = nll(x, halved) - nll(x, theta)
    oracle_delta = dense_nll(halved) - dense_nll(theta)
    assert ours_delta == pytest.approx(oracle_delta, abs=1e-6)


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_trace_gradient_matches_finite_differences(p0_mode):
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 11)
    xs = sample_prior(theta, g, n_members=2, base_seed=5).members
    gt = nll_grad(xs, theta, mode="trace", p0_mode=p0_mode, burn_in=5)
    gf = nll_grad(xs, theta, mode="finite_diff", p0_mode=p0_mode, burn_in=5)
    for name in PARAM_NAMES:
        a, b = gt.fields[name], gf.fields[name]
        scale = max(np.max(np.abs(b)), 1.0)
        assert np.max(np.abs(a - b)) < 1e-4 * scale, name


# the burn-in adjoint runs the doubling tape backwards: cover every shape
# of it (no digit, one digit, runs of set digits, a single high digit, mixed)
_P0_CASES = [pytest.param("white", 5, id="white")] + [
    pytest.param("burnin", b, id="burnin" if b == 5 else f"burnin-{b}")
    for b in (0, 1, 2, 3, 5, 7, 16, 20, 33)]


@pytest.mark.parametrize("p0_mode, burn_in", _P0_CASES)
@pytest.mark.parametrize("nx, ny", [(3, 3), (5, 4), (8, 8)])
def test_trace_gradient_matches_cholesky_adjoint_oracle(p0_mode, burn_in, nx,
                                                        ny):
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=4)
    theta = random_theta(g, 17)
    xs = sample_prior(theta, g, n_members=3, base_seed=14,
                      p0_mode=p0_mode).members
    p0_opts = dict(p0_mode=p0_mode, sigma0=1.0, burn_in=burn_in)
    ours = nll_grad(xs, theta, mode="trace", **p0_opts)
    oracle = cholesky_adjoint_trace_gradient(xs, theta, p0_opts)
    for name in PARAM_NAMES:
        a, b = ours.fields[name], oracle[name]
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name
        assert np.array_equal(a == 0.0, b == 0.0), name


def test_singular_transition_in_trace_gradient_is_typed():
    # A = I - dt*F vanishes for F = I/dt: the dense inverse must fail typed
    from spdekit.estimation import _trace_gradient
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 18)
    xs = sample_prior(theta, g, n_members=2, base_seed=15,
                      p0_mode="white").members
    singular = transition_from_drift(sparse.identity(g.m, format="csr"),
                                     dt=1.0, t=1,
                                     noise_scale=np.ones(g.m))
    with pytest.raises(SingularTransition) as info:
        _trace_gradient(xs, theta,
                        dict(p0_mode="white", sigma0=1.0, burn_in=5),
                        transitions=[singular])
    assert info.value.t == 1


def test_singular_first_transition_with_burnin_start_is_typed():
    # the burn-in marginal inverts A_1 densely: LAPACK's failure is typed
    from spdekit.estimation import _trace_gradient
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 18)
    xs = sample_prior(theta, g, n_members=2, base_seed=15).members
    singular = transition_from_drift(sparse.identity(g.m, format="csr"),
                                     dt=1.0, t=1,
                                     noise_scale=np.ones(g.m))
    with pytest.raises(SingularTransition) as info:
        _trace_gradient(xs, theta,
                        dict(p0_mode="burnin", sigma0=1.0, burn_in=5),
                        transitions=[singular])
    assert info.value.t == 1


def test_trace_gradient_inverts_each_transition_once(monkeypatch):
    # A_1^{-1} serves both step 1's log-determinant and the burn-in adjoint
    from spdekit.estimation import _trace_gradient
    from spdekit.state_space import (TransitionStep, build_transition,
                                     initial_condition)
    g = SpaceTimeGrid(nx=3, ny=3, nt=4)
    theta = random_theta(g, 25)
    xs = sample_prior(theta, g, n_members=2, base_seed=18).members
    p0_opts = dict(p0_mode="burnin", sigma0=1.0, burn_in=5)
    steps = build_transition(theta, g)
    ic = initial_condition(theta, g, transitions=steps, **p0_opts)
    inverted = []
    dense_inverse = TransitionStep.dense_inverse

    def counted(step):
        inverted.append(step.t)
        return dense_inverse(step)

    monkeypatch.setattr(TransitionStep, "dense_inverse", counted)
    _trace_gradient(xs, theta, p0_opts, steps, ic)
    assert sorted(inverted) == [1, 2, 3]


def test_stationary_gradient_is_cell_sum():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 12)
    xs = sample_prior(theta, g, n_members=1, base_seed=6).members
    full = nll_grad(xs, theta, mode="trace")
    reduced = full.stationary_vector()
    # a stationary theta makes the broadcast finite difference match the sum
    stat_theta = ParamFields.stationary(
        g, kappa=0.6, m=(0.2, -0.1), h=(0.9, 0.1, 0.8), tau=1.0)
    fd7 = nll_grad(xs, stat_theta, mode="finite_diff", stationary=True)
    tr7 = nll_grad(xs, stat_theta, mode="trace", stationary=True)
    assert np.max(np.abs(fd7 - tr7)) < 1e-4 * max(1.0, np.max(np.abs(fd7)))
    assert reduced.shape == (7,)


def test_first_slab_gradient_is_zero():
    # slab 0 parameterizes nothing: transitions and the burn-in marginal
    # both start from step 1
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 13)
    xs = sample_prior(theta, g, n_members=1, base_seed=7).members
    grads = nll_grad(xs, theta, mode="trace")
    for name in PARAM_NAMES:
        assert np.max(np.abs(grads.fields[name][0])) == 0.0


def test_trace_mode_rejects_alpha4():
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 14, alpha=4)
    xs = sample_prior(theta, g, n_members=1, base_seed=8).members
    with pytest.raises(UnsupportedAlpha):
        nll_grad(xs, theta, mode="trace")
    # finite differences still work
    g7 = nll_grad(xs, theta, mode="finite_diff", stationary=True)
    assert np.all(np.isfinite(g7))


def test_score_identity_at_true_parameters():
    # E[grad nll] = 0 at the generating parameters: the averaged gradient
    # over many prior draws is much smaller at truth than at a perturbed
    # parameter set
    g = SpaceTimeGrid(nx=6, ny=6, nt=5)
    theta = ParamFields.stationary(g, kappa=0.5, m=(0.2, 0.1),
                                   h=(0.8, 0.0, 0.8), tau=1.0)
    xs = sample_prior(theta, g, n_members=200, base_seed=9).members
    at_truth = nll_grad(xs, theta, mode="trace", stationary=True)
    perturbed = theta.replace_fields(kappa=1.5 * theta.kappa.values,
                                     tau=1.5 * theta.tau.values)
    away = nll_grad(xs, perturbed, mode="trace", stationary=True)
    assert np.linalg.norm(at_truth) < 0.2 * np.linalg.norm(away)


def test_expected_gradient_matches_data_gradient_identity():
    # with moments built from the trajectory itself the expected-variant
    # reduces to the plain gradient
    from spdekit.estimation import _trace_gradient_moments
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 15)
    xs = sample_prior(theta, g, n_members=3, base_seed=10).members
    direct = nll_grad(xs, theta, mode="trace")
    moments = moments_from_trajectories(xs)
    via_moments = _trace_gradient_moments(
        moments, theta, dict(p0_mode="burnin", sigma0=1.0, burn_in=20))
    for name in PARAM_NAMES:
        assert np.allclose(direct.fields[name], via_moments.fields[name],
                           atol=1e-12)


def test_fit_zero_steps_returns_start():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 16)
    xs = sample_prior(theta, g, n_members=1, base_seed=11).members
    out, curve = fit_params(xs, theta, max_steps=0, stationary=True)
    assert out is not None and len(curve) == 1
    for name in PARAM_NAMES:
        assert np.array_equal(out.field_arrays()[name],
                              theta.field_arrays()[name])


def test_fit_from_truth_does_not_degrade():
    g = SpaceTimeGrid(nx=6, ny=6, nt=4)
    theta = ParamFields.stationary(g, kappa=0.5, m=(0.1, 0.0),
                                   h=(0.8, 0.0, 0.8), tau=1.0)
    xs = sample_prior(theta, g, n_members=10, base_seed=12).members
    iterate_reports = []
    _, curve = fit_params(xs, theta, max_steps=50, stationary=True,
                          step_kind="adam", step_params={"lr": 0.01},
                          callback=lambda it, loss, th: iterate_reports.append(
                              validate_params(th).ok))
    best = np.minimum.accumulate(curve)
    assert all(b2 <= b1 + 1e-8 for b1, b2 in zip(best, best[1:]))
    assert min(curve) <= curve[0] + 1e-8
    # the projection keeps every iterate inside the valid set
    assert all(iterate_reports)


def test_fit_recovers_scale_parameters_small_twin():
    g = SpaceTimeGrid(nx=8, ny=8, nt=6)
    true_kappa, true_tau = 0.5, 1.0
    theta = ParamFields.stationary(g, kappa=true_kappa, m=(0.1, 0.0),
                                   h=(0.8, 0.0, 0.8), tau=true_tau)
    xs = sample_prior(theta, g, n_members=10, base_seed=13,
                      p0_mode="white").members
    start = ParamFields.stationary(g, kappa=2 * true_kappa, m=(0.1, 0.0),
                                   h=(0.8, 0.0, 0.8), tau=2 * true_tau)
    fitted, curve = fit_params(xs, start, max_steps=200, stationary=True,
                               grad_mode="trace", p0_mode="white",
                               step_kind="adam", step_params={"lr": 0.05})
    kappa_hat = fitted.kappa.values[1, 0, 0]
    tau_hat = fitted.tau.values[1, 0, 0]
    assert abs(kappa_hat - true_kappa) / true_kappa < 0.2
    assert abs(tau_hat - true_tau) / true_tau < 0.2
    assert validate_params(fitted).ok
