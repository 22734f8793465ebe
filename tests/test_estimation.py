"""Likelihood values, parameter gradients, and the descent fitter."""

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.stats import multivariate_normal

import spdekit.estimation as estimation
import spdekit.linalg
from spdekit import (BlockPrecision, ObservationSet, ParamFields,
                     SpaceTimeGrid, assemble_block_precision,
                     dense_trajectory_covariance, fit_params, nll, nll_grad,
                     Trajectory, apply_precision, oi_solve_precision,
                     posterior_precision, sample_prior, sparse_cholesky,
                     validate_params)
from spdekit.errors import (DegenerateNoise, DimensionGuard,
                            NotPositiveDefinite, SingularTransition)
from spdekit.estimation import (PARAM_NAMES, _mean_nll, _stack_states,
                                _step_terms, _trace_gradient,
                                expected_nll_grad)
from spdekit.precision import PriorStructure, build_prior, prior_precision
from spdekit.state_space import (build_transition, initial_condition,
                                 transition_from_drift)

from oracles import (central_difference_gradient,
                     cholesky_adjoint_moments_gradient,
                     cholesky_adjoint_trace_gradient, posterior_moments,
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
    states = _stack_states(xs, g)
    quad = float(np.sum(states * apply_precision(q, states))) / len(xs)
    assembled = 0.5 * (quad - sparse_cholesky(q.to_csr()).logdet()) \
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


def _assert_central_differences(xs, theta, p0_opts):
    """nll_grad per cell and per field against the central differences of
    the nll, at 1e-4 of the larger of 1 and the largest difference."""
    ours = nll_grad(xs, theta, **p0_opts)
    oracle = central_difference_gradient(xs, theta, p0_opts)
    for name in PARAM_NAMES:
        a, b = ours.fields[name], oracle[name]
        scale = max(np.max(np.abs(b)), 1.0)
        assert np.max(np.abs(a - b)) < 1e-4 * scale, name
    ours = nll_grad(xs, theta, stationary=True, **p0_opts)
    oracle = central_difference_gradient(xs, theta, p0_opts, stationary=True)
    assert np.max(np.abs(ours - oracle)) \
        < 1e-4 * max(np.max(np.abs(oracle)), 1.0)


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_trace_gradient_matches_finite_differences(p0_mode):
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 11)
    xs = sample_prior(theta, g, n_members=2, base_seed=5).members
    _assert_central_differences(xs, theta,
                                dict(p0_mode=p0_mode, sigma0=1.0, burn_in=5))


# 5 grid rows split into blocks of k = 2 or 3 rows leave a part block,
# which the selected inverse pads with identity rows
_ALPHA_CASES = [pytest.param(alpha, anisotropic,
                             id=f"alpha{alpha}" + ("" if anisotropic
                                                   else "-h12=0"))
                for alpha in (2, 4, 6) for anisotropic in (True, False)]


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
@pytest.mark.parametrize("alpha, anisotropic", _ALPHA_CASES)
def test_trace_gradient_matches_central_differences_at_every_alpha(
        alpha, anisotropic, p0_mode):
    g = SpaceTimeGrid(nx=3, ny=5, nt=3, dy=1.3, dt=0.1)
    theta = random_theta(g, 11, anisotropic=anisotropic, alpha=alpha)
    xs = sample_prior(theta, g, n_members=2, base_seed=5, p0_mode=p0_mode,
                      burn_in=5).members
    _assert_central_differences(xs, theta,
                                dict(p0_mode=p0_mode, sigma0=1.0, burn_in=5))


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
    ours = nll_grad(xs, theta, **p0_opts)
    oracle = cholesky_adjoint_trace_gradient(xs, theta, p0_opts)
    for name in PARAM_NAMES:
        a, b = ours.fields[name], oracle[name]
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name
        assert np.array_equal(a == 0.0, b == 0.0), name


@pytest.mark.parametrize("p0_mode, burn_in", [("white", 5), ("burnin", 5),
                                              ("burnin", 20)])
@pytest.mark.parametrize("alpha", [4, 6])
@pytest.mark.parametrize("nx, ny, anisotropic",
                         [pytest.param(4, 5, True, id="4x5"),
                          pytest.param(5, 7, False, id="5x7-h12=0")])
def test_trace_gradient_at_higher_alpha_matches_cholesky_adjoint_oracle(
        nx, ny, anisotropic, alpha, p0_mode, burn_in):
    # neither 5 nor 7 rows split into whole blocks of k = 2 or 3 rows
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=3, dy=1.3, dt=0.1)
    theta = random_theta(g, 17, anisotropic=anisotropic, alpha=alpha)
    xs = sample_prior(theta, g, n_members=3, base_seed=14,
                      p0_mode=p0_mode, burn_in=burn_in).members
    p0_opts = dict(p0_mode=p0_mode, sigma0=1.0, burn_in=burn_in)
    ours = nll_grad(xs, theta, **p0_opts)
    oracle = cholesky_adjoint_trace_gradient(xs, theta, p0_opts)
    for name in PARAM_NAMES:
        a, b = ours.fields[name], oracle[name]
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name
        assert np.max(np.abs(a[0])) == 0.0, name


def test_per_cell_alpha4_gradient_on_5760_cells():
    # the exact adjoint has no cell limit: 24 x 24 x 10 is 5760 cells
    g = SpaceTimeGrid(nx=24, ny=24, nt=10)
    theta = random_theta(g, 3, alpha=4)
    xs = sample_prior(theta, g, n_members=2, base_seed=1).members
    grads = nll_grad(xs, theta)
    for name in PARAM_NAMES:
        assert np.all(np.isfinite(grads.fields[name])), name
    assert np.any(grads.fields["h12"][1:] != 0.0)


def test_trajectories_on_another_grid_are_refused():
    # 3 slabs of parameters read 3 of the 5 slabs of each trajectory
    theta = random_theta(SpaceTimeGrid(nx=4, ny=4, nt=3), 2)
    other = SpaceTimeGrid(nx=4, ny=4, nt=5)
    xs = sample_prior(random_theta(other, 2), other, n_members=2,
                      base_seed=3).members
    for call in (lambda: nll(xs, theta), lambda: nll_grad(xs[0], theta),
                 lambda: nll_grad(xs, theta, stationary=True),
                 lambda: fit_params(xs, theta, max_steps=1)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(theta.grid) in str(info.value)
        assert str(other) in str(info.value)


def test_no_trajectories_is_a_value_error():
    theta = random_theta(SpaceTimeGrid(nx=3, ny=3, nt=3), 2)
    for call in (lambda: nll([], theta), lambda: nll_grad([], theta),
                 lambda: nll_grad((), theta, stationary=True),
                 lambda: fit_params([], theta)):
        with pytest.raises(ValueError, match="at least one trajectory"):
            call()


def _trace_gradient_with(theta, xs, step):
    """The trace gradient of xs under a white-start prior at theta whose
    one step is the hand-built step."""
    g = theta.grid
    prior = PriorStructure(theta, [step], initial_condition(step, g, "white"))
    states = _stack_states(xs, g)
    return _trace_gradient(states, prior, _step_terms(states, prior))


def test_singular_transition_in_trace_gradient_is_typed():
    # a singular A_t fails typed in the Schur sweep the selected inverse
    # reads
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 18)
    xs = sample_prior(theta, g, n_members=2, base_seed=15,
                      p0_mode="white").members
    with pytest.raises(SingularTransition) as info:
        _trace_gradient_with(theta, xs, _singular_step(g))
    assert info.value.t == 1


def test_singular_schur_block_in_trace_gradient_is_typed():
    # A_1 swaps cells 2 and 5 and is the identity elsewhere: a banded LU
    # pivots and succeeds, but the leading block diag(1, 1, 0) of the
    # Schur sweep is singular
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
        _trace_gradient_with(theta, xs, step)
    assert info.value.t == 1


def test_singular_first_transition_with_burnin_start_is_typed(monkeypatch):
    # the burn-in marginal of the gradient's prior inverts A_1 densely:
    # LAPACK's failure is typed
    import spdekit.precision as precision
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 18)
    xs = sample_prior(theta, g, n_members=2, base_seed=15).members
    monkeypatch.setattr(precision, "build_transition",
                        lambda theta, grid, slabs: [_singular_step(g)])
    with pytest.raises(SingularTransition) as info:
        nll_grad(xs, theta, p0_mode="burnin", burn_in=5)
    assert info.value.t == 1


def test_singular_transition_in_nll_is_typed():
    # a singular A_t must not turn into an infinite loss
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 18)
    xs = sample_prior(theta, g, n_members=2, base_seed=15,
                      p0_mode="white").members
    step = _singular_step(g)
    prior = PriorStructure(theta, [step], initial_condition(step, g, "white"))
    states = _stack_states(xs, g)
    with pytest.raises(SingularTransition) as info:
        _mean_nll(states, prior, _step_terms(states, prior))
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


def test_burnin_term_lands_on_the_first_step():
    # one J^T product maps every step's column: a burn-in start adds its
    # adjoint into the first step's column and leaves the later slabs'
    # gradients bit for bit those of a white start
    from oracles import burnin_adjoint_oracle
    g = SpaceTimeGrid(nx=5, ny=4, nt=4)
    theta = random_theta(g, 29)
    xs = sample_prior(theta, g, n_members=3, base_seed=23).members
    white = nll_grad(xs, theta, p0_mode="white")
    burnin = nll_grad(xs, theta, p0_mode="burnin", burn_in=6)
    states = _stack_states(xs, g)
    oracle = {name: np.zeros(g.shape) for name in PARAM_NAMES}
    burnin_adjoint_oracle(states[0] @ states[0].T / states.shape[2], theta,
                          build_transition(theta, g)[0], 6, oracle)
    for name in PARAM_NAMES:
        a, b = burnin.fields[name], white.fields[name]
        assert np.array_equal(a[2:], b[2:]), name
        expect = b[1] + oracle[name][1]
        assert np.max(np.abs(a[1] - expect)) <= 1e-10 * np.max(np.abs(expect))
        assert np.max(np.abs(oracle[name][1])) > 1e-3 * np.max(np.abs(b[1]))


def _count_doublings(monkeypatch):
    from spdekit import state_space
    calls = []
    doubling = state_space._burnin_doubling

    def counted(*args, **kwargs):
        calls.append(1)
        return doubling(*args, **kwargs)

    monkeypatch.setattr(state_space, "_burnin_doubling", counted)
    monkeypatch.setattr(estimation, "_burnin_doubling", counted)
    return calls


def test_burnin_adjoint_takes_the_marginals_tape(monkeypatch):
    # a marginal built with keep_tape hands its doubling to the adjoint,
    # which then runs none; without one the adjoint reruns it, to the same
    # bits
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 30)
    states = _stack_states(sample_prior(theta, g, n_members=2,
                                        base_seed=24).members, g)
    p0_opts = dict(p0_mode="burnin", sigma0=1.0, burn_in=13)
    calls = _count_doublings(monkeypatch)
    grads = []
    for keep_tape, doublings in ((True, 1), (False, 2)):
        calls.clear()
        prior = build_prior(theta, keep_tape=keep_tape, **p0_opts)
        assert (prior.ic.tape is not None) == keep_tape
        grads.append(_trace_gradient(states, prior,
                                     _step_terms(states, prior)))
        assert len(calls) == doublings
        assert prior.ic.tape is None
    for name in PARAM_NAMES:
        assert np.array_equal(grads[0].fields[name], grads[1].fields[name])


_KERNEL_CHILD = """
import hashlib, sys, types
import numpy as np
from spdekit.estimation import _burnin_adjoint
from spdekit.grid import SpaceTimeGrid
from spdekit.operators import _ring_pattern
from spdekit.state_space import InitialCondition, _burnin_doubling
for n in (12, 16):
    saved = np.load(sys.argv[1] + f"/{n}.npz")
    prop, noise_var, prec = saved["prop"], saved["noise_var"], saved["prec"]
    tape = []
    upper = np.triu(_burnin_doubling(prop, noise_var, 20, tape))
    ic = InitialCondition(mode="burnin", burn_in=20, prec=prec, prop=prop,
                          m=prop.shape[0], tape=tape)
    step = types.SimpleNamespace(noise_scale=saved["tau"])
    grid = SpaceTimeGrid(nx=n, ny=n, nt=2)
    tau_bar, a_bar = _burnin_adjoint(saved["x0"], step, ic, grid.dt,
                                     _ring_pattern(grid, 1))
    for out in (upper, tau_bar, a_bar):
        print(hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest())
"""


def test_burnin_kernels_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the doubling's upper triangle and the burn-in adjoint, on inputs
    # saved once (P_B^{-1} among them, so that dpotri's own thread
    # dependence stays out), give the same bytes on one BLAS thread and
    # on two
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spdekit
    for n in (12, 16):
        g = SpaceTimeGrid(nx=n, ny=n, nt=2)
        theta = random_theta(g, 48)
        prior = build_prior(theta)
        steps, ic = prior.transitions, prior.ic
        x0 = np.random.default_rng(n).standard_normal((g.m, 3))
        np.savez(tmp_path / f"{n}.npz", prop=ic.prop, prec=ic.prec, x0=x0,
                 tau=steps[0].noise_scale,
                 noise_var=(g.dt * steps[0].noise_scale)**2)
    src = str(Path(spdekit.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _KERNEL_CHILD,
                               str(tmp_path)], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 6
    assert digests[0] == digests[1]


def test_burnin_gradient_runs_one_doubling(monkeypatch):
    # nll_grad builds its own burn-in marginal with the tape its adjoint
    # walks, so the doubling is not run a second time
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 32)
    xs = sample_prior(theta, g, n_members=2, base_seed=26).members
    calls = _count_doublings(monkeypatch)
    nll_grad(xs, theta, burn_in=7)
    assert len(calls) == 1


def test_trace_fit_runs_one_doubling_per_theta(monkeypatch):
    # the loss's marginal keeps its tape for the gradient at the same theta
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 31)
    xs = sample_prior(theta, g, n_members=2, base_seed=25).members
    calls = _count_doublings(monkeypatch)
    k = 2
    fit_params(xs, theta, max_steps=k, burn_in=5)
    assert len(calls) == k + 1


def test_trace_gradient_inverts_only_the_burnin_step(monkeypatch):
    # the step log-determinants read the selected inverse; only the burn-in
    # marginal needs the dense M = A_1^{-1}, once, and its adjoint reads it
    # from the marginal
    from spdekit.state_space import TransitionStep
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
        inverted.clear()
        prior = build_prior(theta, **p0_opts)
        assert inverted == expect, p0_mode
        inverted.clear()
        states = _stack_states(xs, g)
        _trace_gradient(states, prior, _step_terms(states, prior))
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
    _, losses = fit_params(xs, theta, max_steps=2, p0_mode="white")
    assert len(losses) == 3 and np.all(np.isfinite(losses))


def test_fit_factors_each_transition_once_per_theta(monkeypatch):
    # the loss's Schur sweep of every step carries into the gradient at the
    # same theta: one sweep per theta, no banded LU but the one of a
    # burn-in start's dense M_1 = A_1^{-1}, and no A_t through a dense LU
    from spdekit import precision, state_space
    g = SpaceTimeGrid(nx=4, ny=3, nt=4)
    theta = random_theta(g, 26)
    factored, swept, inverted = [], [], []
    dgbtrf, schur_sweep = state_space.dgbtrf, precision.schur_sweep
    dense_inverse = state_space.TransitionStep.dense_inverse

    def counted(ab, kl, ku, **kwargs):
        factored.append(ab.shape[1])
        return dgbtrf(ab, kl, ku, **kwargs)

    def counted_sweep(transitions, block):
        swept.append([step.t for step in transitions])
        return schur_sweep(transitions, block)

    def counted_inverse(step):
        inverted.append(step.t)
        return dense_inverse(step)

    def refuse(dense):
        def patched(a, *args, **kwargs):
            assert np.shape(a)[-2:] != (g.m, g.m), "dense LU of an A_t"
            return dense(a, *args, **kwargs)
        return patched

    k = 3
    for p0_mode in ("white", "burnin"):
        xs = sample_prior(theta, g, n_members=2, base_seed=19,
                          p0_mode=p0_mode, burn_in=5).members
        factored.clear(), swept.clear(), inverted.clear()
        with monkeypatch.context() as patch:
            patch.setattr(state_space, "dgbtrf", counted)
            patch.setattr(precision, "schur_sweep", counted_sweep)
            patch.setattr(state_space.TransitionStep, "dense_inverse",
                          counted_inverse)
            patch.setattr(np.linalg, "slogdet", refuse(np.linalg.slogdet))
            patch.setattr(np.linalg, "inv", refuse(np.linalg.inv))
            fit_params(xs, theta, max_steps=k, p0_mode=p0_mode, burn_in=5)
        assert swept == [list(range(1, g.nt))] * (k + 1), p0_mode
        # every slab moves at each theta, slab 1 with it
        assert inverted == ([] if p0_mode == "white" else [1] * (k + 1))
        assert factored == [g.m] * len(inverted), p0_mode


def test_loss_and_gradient_share_one_sweep_which_the_gradient_drops(
        monkeypatch):
    from spdekit import precision
    g = SpaceTimeGrid(nx=4, ny=3, nt=4)
    theta = random_theta(g, 26)
    xs = sample_prior(theta, g, n_members=2, base_seed=19).members
    swept = []
    schur_sweep = precision.schur_sweep

    def counted_sweep(transitions, block):
        swept.append(block)
        return schur_sweep(transitions, block)

    monkeypatch.setattr(precision, "schur_sweep", counted_sweep)
    states = _stack_states(xs, g)
    prior = build_prior(theta, keep_tape=True, burn_in=5)
    terms = _step_terms(states, prior)
    _mean_nll(states, prior, terms)
    assert prior._sweep is not None
    _trace_gradient(states, prior, terms)
    assert prior._sweep is None and swept == [g.nx]
    # a gradient with no loss before it sweeps for itself, and drops it
    _trace_gradient(states, prior, terms)
    assert prior._sweep is None and swept == [g.nx] * 2


@pytest.mark.parametrize("alpha", [2, 4])
def test_batched_pattern_products_are_the_per_step_products(alpha):
    # one einsum per ring offset over every step gives the bits of one per
    # offset and step
    from spdekit.operators import _ring_pattern
    g = SpaceTimeGrid(nx=7, ny=6, nt=5)
    ring = _ring_pattern(g, alpha // 2)
    rng = np.random.default_rng(alpha)
    r, x = rng.standard_normal((2, g.nt - 1, g.m, 3))
    batched = estimation._pattern_products(r, x, ring)
    assert batched.shape == (ring.rows.size, g.nt - 1)
    for s in range(g.nt - 1):
        assert np.array_equal(batched[:, s],
                              estimation._pattern_products(r[s], x[s], ring))
    # the per-step form against the products it stands for
    dense = r[0] @ x[0].T
    assert np.allclose(estimation._pattern_products(r[0], x[0], ring),
                       dense[ring.rows, ring.indices], rtol=1e-13, atol=0)


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_trace_fit_forms_each_step_term_once_per_theta(monkeypatch, p0_mode):
    # the loss hands its step residuals and weights to the adjoint at the
    # same theta: per theta, one product A_t x_t per step, and w_t formed
    # twice, once for the step terms and once by the log-determinant,
    # which forms its own from the prior
    from spdekit import precision
    g = SpaceTimeGrid(nx=4, ny=3, nt=4)
    theta = random_theta(g, 26)
    xs = sample_prior(theta, g, n_members=2, base_seed=19,
                      p0_mode=p0_mode).members
    weighed, products = [], []
    step_weights = precision._step_weights
    matmul = sparse.csr_array.__matmul__

    def counted_weights(step, dt):
        weighed.append(step.t)
        return step_weights(step, dt)

    def counted_matmul(a, b):
        if a.shape == (g.m, g.m):
            products.append(1)
        return matmul(a, b)

    for module in (precision, estimation):
        monkeypatch.setattr(module, "_step_weights", counted_weights)
    monkeypatch.setattr(sparse.csr_array, "__matmul__", counted_matmul)
    k = 3
    fit_params(xs, theta, max_steps=k, p0_mode=p0_mode, burn_in=5)
    assert weighed == list(range(1, g.nt)) * 2 * (k + 1)
    assert len(products) == (k + 1) * (g.nt - 1)


def test_alpha4_fit_into_a_degenerate_burnin_is_typed():
    # plain alpha = 4 steps drive theta to the floor, where the burn-in
    # marginal of A_1 is not numerically positive definite: the loss at
    # the third step's theta ends the fit with a typed error naming step 1
    g = SpaceTimeGrid(nx=5, ny=5, nt=4)
    start = ParamFields.stationary(g, kappa=0.8, h=(0.7, 0.05, 0.6),
                                   tau=1.0, alpha=4)
    xs = sample_prior(start, g, n_members=4, base_seed=1).members
    iterates = []
    with pytest.raises(SingularTransition, match="burn-in") as info:
        fit_params(xs, start, step_kind="plain", step_params={"lr": 0.02},
                   max_steps=4, stationary=True,
                   callback=lambda it, loss, th: iterates.append(th))
    assert info.value.t == 1
    assert len(iterates) == 2


def test_stationary_gradient_is_cell_sum():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 12)
    xs = sample_prior(theta, g, n_members=1, base_seed=6).members
    full = nll_grad(xs, theta)
    reduced = full.stationary_vector()
    # the field-wide finite difference matches the cell sum at a stationary
    # theta
    stat_theta = ParamFields.stationary(
        g, kappa=0.6, m=(0.2, -0.1), h=(0.9, 0.1, 0.8), tau=1.0)
    p0_opts = dict(p0_mode="burnin", sigma0=1.0, burn_in=20)
    fd7 = central_difference_gradient(xs, stat_theta, p0_opts,
                                      stationary=True)
    tr7 = nll_grad(xs, stat_theta, stationary=True)
    assert np.max(np.abs(fd7 - tr7)) < 1e-4 * max(1.0, np.max(np.abs(fd7)))
    assert reduced.shape == (7,)
    # so does the field-wide finite difference at the non-stationary theta
    fd7 = central_difference_gradient(xs, theta, p0_opts, stationary=True)
    assert np.max(np.abs(fd7 - reduced)) \
        < 1e-4 * max(1.0, np.max(np.abs(fd7)))
    assert np.array_equal(nll_grad(xs, theta, stationary=True),
                          reduced)


def test_first_slab_gradient_is_zero():
    # slab 0 parameterizes nothing: transitions and the burn-in marginal
    # both start from step 1
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 13)
    xs = sample_prior(theta, g, n_members=1, base_seed=7).members
    grads = nll_grad(xs, theta)
    for name in PARAM_NAMES:
        assert np.max(np.abs(grads.fields[name][0])) == 0.0


def test_trace_gradient_at_alpha4_matches_the_oracles():
    # the adjoint against the Cholesky-adjoint oracle per cell, and the
    # field-wide gradient against central differences of the nll
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 14, alpha=4)
    xs = sample_prior(theta, g, n_members=1, base_seed=8).members
    p0_opts = dict(p0_mode="burnin", sigma0=1.0, burn_in=20)
    ours = nll_grad(xs, theta, **p0_opts)
    oracle = cholesky_adjoint_trace_gradient(xs, theta, p0_opts)
    for name in PARAM_NAMES:
        a, b = ours.fields[name], oracle[name]
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name
    g7 = nll_grad(xs, theta, stationary=True)
    fd7 = central_difference_gradient(xs, theta, p0_opts, stationary=True)
    assert np.max(np.abs(g7 - fd7)) < 1e-4 * max(1.0, np.max(np.abs(fd7)))


def test_score_identity_at_true_parameters():
    # E[grad nll] = 0 at the generating parameters: the averaged gradient
    # over many prior draws is much smaller at truth than at a perturbed
    # parameter set
    g = SpaceTimeGrid(nx=6, ny=6, nt=5)
    theta = ParamFields.stationary(g, kappa=0.5, m=(0.2, 0.1),
                                   h=(0.8, 0.0, 0.8), tau=1.0)
    xs = sample_prior(theta, g, n_members=200, base_seed=9).members
    at_truth = nll_grad(xs, theta, stationary=True)
    perturbed = theta.replace_fields(kappa=1.5 * theta.kappa.values,
                                     tau=1.5 * theta.tau.values)
    away = nll_grad(xs, perturbed, stationary=True)
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
    ours = expected_nll_grad(x_star, obs, q)
    oracle = cholesky_adjoint_moments_gradient(
        *posterior_moments(x_star, obs, q), theta, p0_opts)
    for name in PARAM_NAMES:
        a, b = ours.fields[name], oracle[name]
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
@pytest.mark.parametrize("alpha", [4, 6])
def test_expected_gradient_at_higher_alpha_matches_cholesky_adjoint_oracle(
        alpha, p0_mode):
    g = SpaceTimeGrid(nx=3, ny=5, nt=3, dy=1.3, dt=0.1)
    theta = random_theta(g, 15, alpha=alpha)
    p0_opts = dict(p0_mode=p0_mode, sigma0=1.0, burn_in=5)
    truth = sample_prior(theta, g, n_members=1, base_seed=10,
                         p0_mode=p0_mode, burn_in=5).members[0]
    mask = np.random.default_rng(4).random(g.shape) < 0.4
    obs = ObservationSet.from_truth(truth, mask, 0.05, seed=5)
    q = assemble_block_precision(theta, g, **p0_opts)
    x_star = oi_solve_precision(q, obs)
    ours = expected_nll_grad(x_star, obs, q)
    oracle = cholesky_adjoint_moments_gradient(
        *posterior_moments(x_star, obs, q), theta, p0_opts)
    for name in PARAM_NAMES:
        a, b = ours.fields[name], oracle[name]
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name


def _expected_case(p0_mode="burnin"):
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 16)
    truth = sample_prior(theta, g, n_members=1, base_seed=11,
                         p0_mode=p0_mode, burn_in=5).members[0]
    mask = np.random.default_rng(6).random(g.shape) < 0.5
    obs = ObservationSet.from_truth(truth, mask, 0.05, seed=7)
    return theta, obs


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_expected_gradient_reads_the_given_prior(monkeypatch, p0_mode):
    # the prior comes from q: no transitions, marginal or Q are built, and
    # the posterior covariance is never formed by a dense inverse (the
    # selected inverse still inverts its small Schur blocks)
    import spdekit.precision as precision
    theta, obs = _expected_case(p0_mode)
    q = prior_precision(build_prior(theta, p0_mode=p0_mode, burn_in=5,
                                    keep_tape=True))
    x_star = oi_solve_precision(q, obs)

    def refuse(*args, **kwargs):
        raise AssertionError("built or inverted inside the gradient")

    calls = _count_doublings(monkeypatch)
    for name in ("build_transition", "initial_condition"):
        monkeypatch.setattr(precision, name, refuse)
    monkeypatch.setattr(estimation, "build_prior", refuse)
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: refuse() if
                        a.shape[-1] == theta.grid.dim else inv(a))
    grads = expected_nll_grad(x_star, obs, q)
    assert calls == []                   # the burn-in adjoint took the tape
    assert all(np.all(np.isfinite(grads.fields[n])) for n in PARAM_NAMES)


def test_expected_gradient_refusals(monkeypatch):
    theta, obs = _expected_case()
    q = assemble_block_precision(theta, theta.grid, burn_in=5)
    x_star = oi_solve_precision(q, obs)
    with pytest.raises(ValueError, match="prior structure"):
        expected_nll_grad(x_star, obs, posterior_precision(q, obs))
    flipped = BlockPrecision(theta.grid, -q.to_csr(), prior=q.prior)
    with pytest.raises(NotPositiveDefinite):
        expected_nll_grad(x_star, obs, flipped)
    other = SpaceTimeGrid(nx=3, ny=3, nt=3, dt=0.5)
    with pytest.raises(ValueError, match="does not match"):
        expected_nll_grad(Trajectory(other, x_star.states), obs, q)
    monkeypatch.setattr(estimation.oi, "DENSE_GUARD", theta.grid.dim - 1)
    with pytest.raises(DimensionGuard, match="expected-moments gradient"):
        expected_nll_grad(x_star, obs, q)


def test_trace_gradient_memory_is_linear_in_columns():
    # the expected gradient feeds 1 + dim columns: the residual products at
    # the stencil pattern must not gather a (slots, n) copy (about 9 m n
    # doubles); the step residuals themselves are (nt - 1) m n
    import tracemalloc
    g = SpaceTimeGrid(nx=8, ny=8, nt=3)
    theta = random_theta(g, 28)
    p0_opts = dict(p0_mode="white", sigma0=1.0, burn_in=5)
    n = 1 + g.dim
    columns = np.random.default_rng(6).standard_normal((g.nt, g.m, n))
    prior = build_prior(theta, **p0_opts)
    _trace_gradient(columns, prior, _step_terms(columns, prior))
    tracemalloc.start()
    try:
        _trace_gradient(columns, prior, _step_terms(columns, prior))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * g.m * n * 8, peak


# the adjoint ("trace") gradient at alpha = 2 and at alpha = 4
_GRADIENTS = {"trace": 2, "trace_alpha4": 4}


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
@pytest.mark.parametrize("gradient, stationary",
                         [("trace", False), ("trace", True),
                          ("trace_alpha4", True)])
def test_fit_loop_never_factors(monkeypatch, p0_mode, gradient, stationary):
    # the loss is in residual form: no sparse or banded Cholesky anywhere
    # in the descent loop
    def refuse(*args, **kwargs):
        raise AssertionError("Cholesky factorization in the fit loop")

    monkeypatch.setattr(spdekit.linalg, "sparse_cholesky", refuse)
    monkeypatch.setattr(spdekit.linalg, "cholesky_banded", refuse)
    monkeypatch.setattr(scipy.linalg, "cholesky_banded", refuse)
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = ParamFields.stationary(g, kappa=0.6, m=(0.1, 0.0),
                                   h=(0.8, 0.0, 0.8), tau=1.0,
                                   alpha=_GRADIENTS[gradient])
    xs = sample_prior(theta, g, n_members=2, base_seed=22,
                      p0_mode=p0_mode, burn_in=5).members
    _, curve = fit_params(xs, theta, max_steps=2, stationary=stationary,
                          p0_mode=p0_mode, burn_in=5)
    assert len(curve) == 3 and np.all(np.isfinite(curve))


@pytest.mark.parametrize("gradient", ["trace_alpha4", "trace"])
def test_stationary_fit_keeps_fields_flat(gradient):
    # the tie steps every cell of a field by the same arithmetic, so a
    # stationary start stays constant over cells, bit for bit
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = ParamFields.stationary(g, kappa=0.9, m=(0.1, -0.1),
                                   h=(0.8, 0.1, 0.6), tau=1.3,
                                   alpha=_GRADIENTS[gradient])
    xs = sample_prior(random_theta(g, 17), g, n_members=2,
                      base_seed=24).members
    iterates = []
    fit_params(xs, theta, max_steps=4, stationary=True,
               step_params={"lr": 0.05},
               callback=lambda it, loss, th: iterates.append(th))
    assert len(iterates) == 4
    for th in iterates:
        for name, field in th.field_arrays().items():
            assert np.all(field == field.flat[0]), name
    assert iterates[-1].kappa.values.flat[0] != 0.9


def test_stationary_alpha4_fit_steps_on_from_the_floor():
    # plain steps floor kappa, h11 and h22 at 1e-6 after step 2, and the
    # fit steps on from there. A white start: from a burn-in start the
    # floored theta's marginal is not positive definite
    # (test_alpha4_fit_into_a_degenerate_burnin_is_typed)
    g = SpaceTimeGrid(nx=5, ny=5, nt=4)
    start = ParamFields.stationary(g, kappa=0.8, h=(0.7, 0.05, 0.6),
                                   tau=1.0, alpha=4)
    xs = sample_prior(start, g, n_members=4, base_seed=1).members
    iterates = []
    _, curve = fit_params(xs, start, step_kind="plain",
                          step_params={"lr": 0.02}, max_steps=4,
                          stationary=True, p0_mode="white",
                          callback=lambda it, loss, th: iterates.append(th))
    assert len(curve) == 5 and np.all(np.isfinite(curve))
    assert iterates[2].h11.values.flat[0] == 1e-6
    assert all(validate_params(th).ok for th in iterates)


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
                               p0_mode="white",
                               step_kind="adam", step_params={"lr": 0.05})
    kappa_hat = fitted.kappa.values[1, 0, 0]
    tau_hat = fitted.tau.values[1, 0, 0]
    assert abs(kappa_hat - true_kappa) / true_kappa < 0.2
    assert abs(tau_hat - true_tau) / true_tau < 0.2
    assert validate_params(fitted).ok
