"""Likelihood values, parameter gradients, and the descent fitter."""

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.stats import multivariate_normal

import spdekit.estimation as estimation
import spdekit.linalg
from spdekit import (ObservationSet, ParamFields, SpaceTimeGrid,
                     assemble_block_precision, dense_trajectory_covariance,
                     fit_params, log_det_block, nll, nll_grad,
                     oi_solve_precision, quadratic_form, sample_prior,
                     validate_params)
from spdekit.errors import (DegenerateNoise, SingularTransition,
                            UnsupportedAlpha)
from spdekit.estimation import (PARAM_NAMES, _mean_nll, _stack_states,
                                _trace_gradient, expected_nll_grad)
from spdekit.state_space import (build_transition, initial_condition,
                                 transition_from_drift)

from oracles import (cholesky_adjoint_moments_gradient,
                     cholesky_adjoint_trace_gradient, dense_posterior_cov,
                     random_theta)


def _singular_step(g):
    # A = I - dt*F vanishes for F = I/dt
    return transition_from_drift(sparse.identity(g.m, format="csr"),
                                 dt=1.0, t=1, noise_scale=np.ones(g.m))


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
@pytest.mark.parametrize("nx, ny, nt", [(12, 12, 6), (16, 16, 4)])
def test_nll_matches_assembled_precision(p0_mode, nx, ny, nt):
    # the residual form against x^T Q x and a Cholesky of the assembled Q,
    # on grids beyond the dense Gaussian oracle's reach
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=nt)
    theta = random_theta(g, 31)
    xs = sample_prior(theta, g, n_members=3, base_seed=21,
                      p0_mode=p0_mode).members
    q = assemble_block_precision(theta, g, p0_mode=p0_mode)
    quad = quadratic_form(q, _stack_states(xs)) / len(xs)
    assembled = 0.5 * (quad - log_det_block(q, method="cholesky")) \
        + 0.5 * g.dim * np.log(2 * np.pi)
    ours = nll(xs, theta, p0_mode=p0_mode)
    assert abs(ours - assembled) <= 1e-10 * abs(assembled)


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
    # a singular A_t fails typed in its banded LU before the selected
    # inverse runs
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 18)
    xs = sample_prior(theta, g, n_members=2, base_seed=15,
                      p0_mode="white").members
    with pytest.raises(SingularTransition) as info:
        _trace_gradient(_stack_states(xs), theta,
                        dict(p0_mode="white", sigma0=1.0, burn_in=5),
                        transitions=[_singular_step(g)])
    assert info.value.t == 1


def test_singular_schur_block_in_trace_gradient_is_typed():
    # A_1 swaps cells 2 and 5 and is the identity elsewhere: its banded LU
    # pivots and succeeds, but the leading block diag(1, 1, 0) of the
    # selected inverse's recursion is singular
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 18)
    xs = sample_prior(theta, g, n_members=2, base_seed=15,
                      p0_mode="white").members
    a = np.eye(g.m)
    a[2, 2] = a[5, 5] = 0.0
    a[2, 5] = a[5, 2] = 1.0
    step = transition_from_drift(np.eye(g.m) - a, dt=1.0, t=1,
                                 noise_scale=np.ones(g.m))
    with pytest.raises(SingularTransition, match="block row 0") as info:
        _trace_gradient(_stack_states(xs), theta,
                        dict(p0_mode="white", sigma0=1.0, burn_in=5),
                        transitions=[step])
    assert info.value.t == 1


def test_singular_first_transition_with_burnin_start_is_typed():
    # the burn-in marginal inverts A_1 densely: LAPACK's failure is typed
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 18)
    xs = sample_prior(theta, g, n_members=2, base_seed=15).members
    with pytest.raises(SingularTransition) as info:
        _trace_gradient(_stack_states(xs), theta,
                        dict(p0_mode="burnin", sigma0=1.0, burn_in=5),
                        transitions=[_singular_step(g)])
    assert info.value.t == 1


def test_singular_transition_in_nll_is_typed():
    # a zero pivot of the banded LU must not turn into an infinite loss
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 18)
    xs = sample_prior(theta, g, n_members=2, base_seed=15,
                      p0_mode="white").members
    ic = initial_condition(theta, g, p0_mode="white")
    with pytest.raises(SingularTransition) as info:
        _mean_nll(_stack_states(xs), [_singular_step(g)], ic, g.dt)
    assert info.value.t == 1


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_degenerate_noise_in_nll_names_the_step(p0_mode):
    g = SpaceTimeGrid(nx=3, ny=3, nt=4)
    theta = random_theta(g, 19)
    xs = sample_prior(theta, g, n_members=2, base_seed=16).members
    tau = theta.tau.values.copy()
    tau[2] = 1e-12
    with pytest.raises(DegenerateNoise) as info:
        nll(xs, theta.replace_fields(tau=tau), p0_mode=p0_mode)
    assert info.value.t == 2


def test_degenerate_white_start_in_nll_is_typed():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 20)
    xs = sample_prior(theta, g, n_members=2, base_seed=17,
                      p0_mode="white").members
    with pytest.raises(DegenerateNoise) as info:
        nll(xs, theta, p0_mode="white", sigma0=0.0)
    assert info.value.t == 0
    # the message names the start's scale, not the step noise tau
    assert "sigma0" in str(info.value) and "tau" not in str(info.value)


def test_trace_gradient_inverts_only_the_burnin_step(monkeypatch):
    # the step log-determinants read the selected inverse; only the burn-in
    # marginal needs the dense M = A_1^{-1}, once, and its adjoint reads it
    # from the marginal
    from spdekit.state_space import TransitionStep, build_transition
    g = SpaceTimeGrid(nx=3, ny=3, nt=4)
    theta = random_theta(g, 25)
    xs = sample_prior(theta, g, n_members=2, base_seed=18).members
    inverted = []
    dense_inverse = TransitionStep.dense_inverse

    def counted(step):
        inverted.append(step.t)
        return dense_inverse(step)

    monkeypatch.setattr(TransitionStep, "dense_inverse", counted)
    for p0_mode, expect in (("burnin", [1]), ("white", [])):
        p0_opts = dict(p0_mode=p0_mode, sigma0=1.0, burn_in=5)
        steps = build_transition(theta, g)
        inverted.clear()
        ic = initial_condition(theta, g, transitions=steps, **p0_opts)
        assert inverted == expect, p0_mode
        inverted.clear()
        _trace_gradient(_stack_states(xs), theta, p0_opts, steps, ic)
        assert inverted == [], p0_mode


def test_white_start_fit_makes_no_dense_inverse(monkeypatch):
    from spdekit.state_space import TransitionStep
    g = SpaceTimeGrid(nx=4, ny=3, nt=4)
    theta = random_theta(g, 27)
    xs = sample_prior(theta, g, n_members=2, base_seed=20,
                      p0_mode="white").members

    def refuse(step):
        raise AssertionError(f"dense inverse of A_{step.t}")

    monkeypatch.setattr(TransitionStep, "dense_inverse", refuse)
    _, losses = fit_params(xs, theta, max_steps=2, grad_mode="trace",
                           p0_mode="white")
    assert len(losses) == 3 and np.all(np.isfinite(losses))


def test_fit_factors_each_transition_once_per_theta(monkeypatch):
    # the loss's step objects carry their banded LU into the gradient at
    # the same theta, and no A_t goes through a dense LU
    from spdekit import state_space
    g = SpaceTimeGrid(nx=4, ny=3, nt=4)
    theta = random_theta(g, 26)
    xs = sample_prior(theta, g, n_members=2, base_seed=19,
                      p0_mode="white").members
    factored = []
    dgbtrf = state_space.dgbtrf

    def counted(ab, kl, ku, **kwargs):
        factored.append(ab.shape[1])
        return dgbtrf(ab, kl, ku, **kwargs)

    def refuse(dense):
        def patched(a, *args, **kwargs):
            assert np.shape(a)[-2:] != (g.m, g.m), "dense LU of an A_t"
            return dense(a, *args, **kwargs)
        return patched

    monkeypatch.setattr(state_space, "dgbtrf", counted)
    monkeypatch.setattr(np.linalg, "slogdet", refuse(np.linalg.slogdet))
    monkeypatch.setattr(np.linalg, "inv", refuse(np.linalg.inv))
    k = 3
    fit_params(xs, theta, max_steps=k, grad_mode="trace", p0_mode="white")
    assert factored == [g.m] * ((k + 1) * (g.nt - 1))


def test_stationary_gradient_is_cell_sum():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 12)
    xs = sample_prior(theta, g, n_members=1, base_seed=6).members
    full = nll_grad(xs, theta, mode="trace")
    reduced = full.stationary_vector()
    # the field-wide finite difference matches the cell sum at a stationary
    # theta
    stat_theta = ParamFields.stationary(
        g, kappa=0.6, m=(0.2, -0.1), h=(0.9, 0.1, 0.8), tau=1.0)
    fd7 = nll_grad(xs, stat_theta, mode="finite_diff", stationary=True)
    tr7 = nll_grad(xs, stat_theta, mode="trace", stationary=True)
    assert np.max(np.abs(fd7 - tr7)) < 1e-4 * max(1.0, np.max(np.abs(fd7)))
    assert reduced.shape == (7,)
    # so does the field-wide finite difference at the non-stationary theta
    fd7 = nll_grad(xs, theta, mode="finite_diff", stationary=True)
    assert np.max(np.abs(fd7 - reduced)) \
        < 1e-4 * max(1.0, np.max(np.abs(fd7)))
    assert np.array_equal(nll_grad(xs, theta, mode="trace", stationary=True),
                          reduced)


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


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
@pytest.mark.parametrize("nx, ny, nt", [(3, 3, 3), (4, 4, 3)])
def test_expected_gradient_matches_cholesky_adjoint_oracle(p0_mode, nx, ny,
                                                           nt):
    # posterior moments E[x_t x_t^T] and E[x_{t-1} x_t^T] from the dense
    # posterior covariance, fed to the moments oracle
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=nt)
    theta = random_theta(g, 15)
    p0_opts = dict(p0_mode=p0_mode, sigma0=1.0, burn_in=20)
    truth = sample_prior(theta, g, n_members=1, base_seed=10,
                         p0_mode=p0_mode).members[0]
    mask = np.random.default_rng(4).random(g.shape) < 0.4
    obs = ObservationSet.from_truth(truth, mask, 0.05, seed=5)
    q = assemble_block_precision(theta, g, **p0_opts)
    x_star = oi_solve_precision(q, obs)
    cov = dense_posterior_cov(q, obs).reshape(nt, g.m, nt, g.m)
    mean = x_star.states
    diag = [cov[t, :, t] + np.outer(mean[t], mean[t]) for t in range(nt)]
    cross = [cov[t - 1, :, t] + np.outer(mean[t - 1], mean[t])
             for t in range(1, nt)]
    ours = expected_nll_grad(x_star, obs, theta, **p0_opts)
    oracle = cholesky_adjoint_moments_gradient(diag, cross, theta, p0_opts)
    for name in PARAM_NAMES:
        a, b = ours.fields[name], oracle[name]
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name


def test_trace_gradient_memory_is_linear_in_columns():
    # the expected gradient feeds 1 + dim columns: the residual products at
    # the stencil pattern must not gather a (slots, n) copy (about 9 m n
    # doubles); the step residual itself is m n
    import tracemalloc
    g = SpaceTimeGrid(nx=8, ny=8, nt=3)
    theta = random_theta(g, 28)
    p0_opts = dict(p0_mode="white", sigma0=1.0, burn_in=5)
    n = 1 + g.dim
    columns = np.random.default_rng(6).standard_normal((g.nt, g.m, n))
    steps = build_transition(theta, g)
    ic = initial_condition(theta, g, transitions=steps, **p0_opts)
    _trace_gradient(columns, theta, p0_opts, steps, ic)
    tracemalloc.start()
    try:
        _trace_gradient(columns, theta, p0_opts, steps, ic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * g.m * n * 8, peak


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
@pytest.mark.parametrize("grad_mode, stationary",
                         [("trace", False), ("trace", True),
                          ("finite_diff", True)])
def test_fit_loop_never_factors(monkeypatch, p0_mode, grad_mode, stationary):
    # the loss is in residual form: no sparse or banded Cholesky anywhere
    # in the descent loop
    def refuse(*args, **kwargs):
        raise AssertionError("Cholesky factorization in the fit loop")

    monkeypatch.setattr(spdekit.linalg, "sparse_cholesky", refuse)
    monkeypatch.setattr(scipy.linalg, "cholesky_banded", refuse)
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = ParamFields.stationary(g, kappa=0.6, m=(0.1, 0.0),
                                   h=(0.8, 0.0, 0.8), tau=1.0)
    xs = sample_prior(theta, g, n_members=2, base_seed=22,
                      p0_mode=p0_mode, burn_in=5).members
    _, curve = fit_params(xs, theta, max_steps=2, stationary=stationary,
                          grad_mode=grad_mode, p0_mode=p0_mode, burn_in=5)
    assert len(curve) == 3 and np.all(np.isfinite(curve))


@pytest.mark.parametrize("grad_mode", ["finite_diff", "trace"])
def test_stationary_fit_keeps_fields_flat(grad_mode):
    # the tie steps every cell of a field by the same arithmetic, so a
    # stationary start stays constant over cells, bit for bit
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = ParamFields.stationary(g, kappa=0.9, m=(0.1, -0.1),
                                   h=(0.8, 0.1, 0.6), tau=1.3)
    xs = sample_prior(random_theta(g, 17), g, n_members=2,
                      base_seed=24).members
    iterates = []
    fit_params(xs, theta, max_steps=4, stationary=True, grad_mode=grad_mode,
               step_params={"lr": 0.05},
               callback=lambda it, loss, th: iterates.append(th))
    assert len(iterates) == 4
    for th in iterates:
        for name, field in th.field_arrays().items():
            assert np.all(field == field.flat[0]), name
    assert iterates[-1].kappa.values.flat[0] != 0.9


def test_stationary_fd_fit_steps_on_from_the_floor():
    # plain steps floor kappa, h11 and h22 at 1e-6 after step 2; the -h
    # probes below the floor used to raise InvalidParams mid-fit
    g = SpaceTimeGrid(nx=5, ny=5, nt=4)
    start = ParamFields.stationary(g, kappa=0.8, h=(0.7, 0.05, 0.6),
                                   tau=1.0)
    xs = sample_prior(start, g, n_members=4, base_seed=1).members
    iterates = []
    _, curve = fit_params(xs, start, step_kind="plain",
                          step_params={"lr": 0.02}, max_steps=4,
                          stationary=True, grad_mode="finite_diff",
                          callback=lambda it, loss, th: iterates.append(th))
    assert len(curve) == 5 and np.all(np.isfinite(curve))
    assert iterates[2].h11.values.flat[0] == 1e-6
    assert all(validate_params(th).ok for th in iterates)


def test_fd_gradient_is_one_sided_at_the_floor():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = ParamFields.stationary(g, kappa=1e-6, h=(1e-6, 0.0, 1e-6),
                                   tau=1.0)
    xs = sample_prior(random_theta(g, 3), g, n_members=2,
                      base_seed=25).members
    grad = nll_grad(xs, theta, mode="finite_diff", stationary=True)
    by_name = dict(zip(PARAM_NAMES, grad))
    # h12 = +-h leaves H indefinite on both sides: no valid probe
    assert by_name["h12"] == 0.0
    h = 1e-5 * (1.0 + 1e-6)
    up = nll(xs, theta.replace_fields(
        kappa=theta.kappa.values + h))
    assert by_name["kappa"] == (up - nll(xs, theta)) / h
    # interior directions keep the central difference
    h = 1e-5 * 2.0
    ends = [nll(xs, theta.replace_fields(tau=theta.tau.values + s))
            for s in (h, -h)]
    assert by_name["tau"] == (ends[0] - ends[1]) / (2.0 * h)


def test_fd_fit_at_the_floor_reuses_its_loss(monkeypatch):
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = ParamFields.stationary(g, kappa=1e-6, h=(1e-6, 0.0, 1e-6),
                                   tau=1.0)
    xs = sample_prior(random_theta(g, 3), g, n_members=2,
                      base_seed=25).members
    calls = []
    real_nll = estimation.nll
    monkeypatch.setattr(estimation, "nll", lambda *a, **k:
                        calls.append(None) or real_nll(*a, **k))

    def fit(steps):
        calls.clear()
        best, curve = fit_params(xs, theta, step_kind="plain",
                                 step_params={"lr": 0.02}, max_steps=steps,
                                 stationary=True, grad_mode="finite_diff")
        return best, curve, len(calls)

    runs = [fit(1), fit(4)]
    # the loss at theta recomputed inside the gradient, as it used to be
    real_gradient = estimation._gradient
    monkeypatch.setattr(estimation, "_gradient", lambda *a, loss=None, **k:
                        real_gradient(*a, **k))
    again = [fit(1), fit(4)]
    # a floor-case gradient makes one nll call fewer
    assert runs[0][2] == again[0][2] - 1
    for (best, curve, _), (best_again, curve_again, _) in zip(runs, again):
        assert curve == curve_again
        for name in PARAM_NAMES:
            assert np.array_equal(best.field_arrays()[name],
                                  best_again.field_arrays()[name])


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
