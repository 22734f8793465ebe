"""Iterative solver over the augmented state."""

import numpy as np
import pytest

from spdekit import (AugmentedState, ObservationSet, ParamFields,
                     SolverConfig, SpaceTimeGrid, Trajectory,
                     apply_precision, assemble_block_precision, nll_grad,
                     oi_solve_precision, run_solver, sample_prior,
                     solver_step, training_loss)
from spdekit.errors import DivergedStep
from spdekit.estimation import PARAM_NAMES
from spdekit.steps import PlainStep

from oracles import random_theta


def _case(seed=42, noise=0.25, density=0.3):
    g = SpaceTimeGrid(nx=6, ny=6, nt=4)
    theta = ParamFields.stationary(g, kappa=1.0, h=(0.3, 0.0, 0.3), tau=1.0)
    rng = np.random.default_rng(seed)
    mask = rng.random(g.shape) < density
    n = int(mask.sum())
    obs = ObservationSet(g, mask, rng.standard_normal(n), np.full(n, noise))
    return g, theta, obs


def test_plain_step_hand_computed():
    step = PlainStep(lr=0.1)
    x = np.array([2.0])
    # scalar quadratic J = (x - y)^2 + lam*q*x^2 at y=1, lam*q=0.5
    grad = 2 * (x - 1.0) + 2 * 0.5 * x
    assert step.update(x, grad)[0] == pytest.approx(2.0 - 0.1 * (2.0 + 2.0))


def test_fixed_point_state_unchanged():
    g, theta, _ = _case()
    empty = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    cfg = SolverConfig(n_iterations=1, update_mode="x_only",
                       step={"kind": "plain", "lr": 0.1})
    state = AugmentedState(x=Trajectory.zeros(g), theta=theta)
    out = solver_step(state, empty, cfg)
    # gradient vanishes at the prior mean with no data: exact fixed point
    assert np.array_equal(out.x.states, state.x.states)


def test_momentum_beta_zero_equals_plain():
    g, theta, obs = _case()
    base = dict(n_iterations=10, update_mode="x_only")
    res_m = run_solver(Trajectory.zeros(g), theta, obs,
                       SolverConfig(step={"kind": "momentum", "lr": 0.02,
                                          "beta": 0.0}, **base))
    res_p = run_solver(Trajectory.zeros(g), theta, obs,
                       SolverConfig(step={"kind": "plain", "lr": 0.02},
                                    **base))
    assert res_m.x.states.tobytes() == res_p.x.states.tobytes()
    for a, b in zip(res_m.diagnostics, res_p.diagnostics):
        assert a["cost"] == b["cost"]


def test_adam_converges_to_direct_solution():
    g, theta, obs = _case()
    q = assemble_block_precision(theta, g)
    x_star = oi_solve_precision(q, obs)
    cfg = SolverConfig(n_iterations=500, update_mode="x_only",
                       step={"kind": "adam", "lr": 0.3, "beta1": 0.9,
                             "beta2": 0.999, "eps": 10.0})
    res = run_solver(Trajectory.zeros(g), theta, obs, cfg)
    assert np.max(np.abs(res.x.flat - x_star.flat)) < 1e-4
    costs = [r["cost"] for r in res.diagnostics]
    assert all(costs[i + 1] <= costs[i] + 1e-12
               for i in range(10, len(costs) - 1))


def test_start_at_optimum_stays_there():
    g, theta, obs = _case()
    q = assemble_block_precision(theta, g)
    x_star = oi_solve_precision(q, obs)
    cfg = SolverConfig(n_iterations=50, update_mode="x_only",
                       step={"kind": "plain", "lr": 0.01})
    res = run_solver(x_star, theta, obs, cfg)
    costs = [r["cost"] for r in res.diagnostics]
    assert all(costs[i + 1] <= costs[i] + 1e-10 for i in range(len(costs) - 1))
    assert np.max(np.abs(res.x.flat - x_star.flat)) < 1e-8


def test_deterministic_repeat():
    g, theta, obs = _case()
    cfg = SolverConfig(n_iterations=30, update_mode="x_only",
                       step={"kind": "adam", "lr": 0.3, "eps": 10.0})
    a = run_solver(Trajectory.zeros(g), theta, obs, cfg)
    b = run_solver(Trajectory.zeros(g), theta, obs, cfg)
    assert a.x.states.tobytes() == b.x.states.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_step_carries_partial_diagnostics():
    # the state is driven to overflow on purpose
    g, theta, obs = _case()
    cfg = SolverConfig(n_iterations=200, update_mode="x_only",
                       step={"kind": "plain", "lr": 1e6})
    with pytest.raises(DivergedStep) as exc:
        run_solver(Trajectory.zeros(g), theta, obs, cfg)
    assert hasattr(exc.value, "diagnostics")
    assert exc.value.iteration >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_state_gradient_raises_diverged_step():
    # a finite state whose gradient overflows fails typed, from solver_step
    # as from run_solver
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 30)
    obs = ObservationSet(g, np.zeros(g.shape, dtype=bool), [], [])
    x = Trajectory.from_flat(g, np.full(g.dim, 1e308))
    cfg = SolverConfig(n_iterations=3, update_mode="x_only")
    with pytest.raises(DivergedStep, match="non-finite state gradient") \
            as exc:
        solver_step(AugmentedState(x=x, theta=theta), obs, cfg)
    assert exc.value.iteration == 0
    with pytest.raises(DivergedStep, match="non-finite state gradient") \
            as exc:
        run_solver(x, theta, obs, cfg)
    assert exc.value.iteration == 0 and exc.value.diagnostics == []


@pytest.mark.parametrize("stationary", [False, True])
def test_theta_step_moves_only_selected_parameters(monkeypatch, stationary):
    # a joint-solve theta step leaves the parameters outside theta_params
    # bit-unchanged, even where their gradient is not finite
    from spdekit import solver
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    if stationary:
        theta = ParamFields.stationary(g, kappa=0.7, m=(0.2, 0.1),
                                       h=(0.8, 0.05, 0.7), tau=1.1)
    else:
        theta = random_theta(g, 29)
    x = sample_prior(theta, g, n_members=1, base_seed=23).members[0]
    mask = np.random.default_rng(7).random(g.shape) < 0.5
    obs = ObservationSet.from_truth(x, mask, 0.05, seed=8)
    selected = ("kappa", "m_u")
    cfg = SolverConfig(n_iterations=1, update_mode="joint",
                       theta_params=selected, theta_stationary=stationary,
                       theta_step={"kind": "plain", "lr": 1e-2})
    gradient = solver._gradient

    def spoiled(xs, th, mode, coords, *args):
        out = gradient(xs, th, mode, coords, *args)
        out[~coords.select(th.grid, selected)] = np.nan
        return out

    monkeypatch.setattr(solver, "_gradient", spoiled)
    out = solver_step(AugmentedState(x=x, theta=theta), obs, cfg)
    for name in PARAM_NAMES:
        before = theta.field_arrays()[name]
        after = out.theta.field_arrays()[name]
        assert np.array_equal(after, before) == (name not in selected), name


@pytest.mark.parametrize("bad", [dict(x_steps=0, theta_steps=0),
                                 dict(x_steps=-1), dict(theta_steps=-1),
                                 dict(lam=0.0), dict(lam=float("nan")),
                                 dict(n_iterations=0)])
def test_solver_config_refuses_bad_values(bad):
    with pytest.raises(ValueError):
        SolverConfig(update_mode="alternating", **bad)


@pytest.mark.parametrize("update_mode", ["x_only", "alternating"])
def test_one_precision_application_per_iteration(monkeypatch, update_mode):
    # the gradient computed with an iteration's diagnostics drives the next
    # step: one Q application per iteration, plus one for the start, with
    # the same iterates and diagnostics as separate solver_step, cost and
    # gradient calls
    from spdekit import oi, project_params
    from spdekit.solver import SolverRuntime
    g, theta, obs = _case()
    cfg = SolverConfig(n_iterations=7, update_mode=update_mode, x_steps=2,
                       theta_steps=1, step={"kind": "plain", "lr": 0.01},
                       p0_mode="white")
    runtime = SolverRuntime.fresh(cfg)
    state = AugmentedState(x=Trajectory.zeros(g), theta=project_params(theta))
    expected = []
    for _ in range(cfg.n_iterations):
        state = solver_step(state, obs, cfg, runtime)
        q = runtime.cache.get(state.theta)
        grad = oi.variational_grad(state.x, obs, q, cfg.lam)
        expected.append((oi.variational_cost(state.x, obs, q, cfg.lam),
                         float(np.linalg.norm(grad.flat))))
    calls = []

    def counted(q, v):
        calls.append(1)
        return apply_precision(q, v)

    monkeypatch.setattr(oi, "apply_precision", counted)
    res = run_solver(Trajectory.zeros(g), theta, obs, cfg)
    assert len(calls) == cfg.n_iterations + 1
    assert res.x.states.tobytes() == state.x.states.tobytes()
    assert [((r["cost"], r["data_term"], r["prior_term"]), r["grad_norm"])
            for r in res.diagnostics] == expected


def test_lazy_reassembly_counts():
    g, theta, obs = _case()
    cfg = SolverConfig(n_iterations=5, update_mode="x_only",
                       step={"kind": "plain", "lr": 0.01})
    res = run_solver(Trajectory.zeros(g), theta, obs, cfg)
    rebuilds = [r["blocks_rebuilt"] for r in res.diagnostics]
    # theta frozen: the transition blocks are built once, never again
    assert rebuilds[0] == g.nt - 1
    assert all(r == 0 for r in rebuilds[1:])


@pytest.mark.parametrize("stationary", [False, True])
@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_cached_theta_gradient_matches_fresh_gradient(p0_mode, stationary):
    # the joint-solve gradient reads the transitions and x_0 marginal of the
    # cached precision; after each theta update they must be those of the
    # new theta, bit for bit
    from spdekit.estimation import _Coords
    from spdekit.solver import SolverRuntime, _theta_gradient
    g = SpaceTimeGrid(nx=4, ny=4, nt=4)
    theta = random_theta(g, 21)
    x = sample_prior(theta, g, n_members=1, base_seed=16,
                     p0_mode=p0_mode).members[0]
    cfg = SolverConfig(update_mode="alternating", theta_stationary=stationary,
                       p0_mode=p0_mode, burn_in=5)
    runtime = SolverRuntime.fresh(cfg)
    runtime.cache.get(theta)
    kappa = theta.kappa.values.copy()
    kappa[1] *= 1.1                      # slab 1: A_1 and the burn-in x_0
    first = theta.replace_fields(kappa=kappa)
    tau = first.tau.values.copy()
    tau[3] *= 0.9                        # a later slab only
    later = first.replace_fields(tau=tau)
    for k, th in enumerate((first, later), start=1):
        ours = _theta_gradient(x, None, th, cfg, runtime,
                               _Coords(stationary))
        fresh = nll_grad(x, th, mode="trace", stationary=stationary,
                         **cfg.p0_opts())
        assert np.array_equal(ours, fresh if stationary else fresh.pack())
        # one slab rebuilt per update: the cache was updated, not replaced
        assert runtime.cache.total_rebuilds == g.nt - 1 + k


def test_joint_mode_improves_parameters():
    # twin: truth has advection, start from a poor guess; the parameter
    # iterates should move toward the truth. The expectation-corrected
    # parameter gradient is used: the point-iterate likelihood alone is
    # biased toward over-dissipative parameters.
    g = SpaceTimeGrid(nx=6, ny=6, nt=5)
    theta_true = ParamFields.stationary(g, kappa=0.8, m=(0.7, 0.4),
                                        h=(0.4, 0.0, 0.4), tau=1.0)
    truth = sample_prior(theta_true, g, n_members=1, base_seed=3).members[0]
    rng = np.random.default_rng(4)
    mask = rng.random(g.shape) < 0.8
    obs = ObservationSet.from_truth(truth, mask, 0.01, seed=5)
    theta0 = ParamFields.stationary(g, kappa=0.8, m=(0.1, -0.1),
                                    h=(0.4, 0.0, 0.4), tau=1.0)
    cfg = SolverConfig(n_iterations=270, update_mode="alternating",
                       x_steps=40, theta_steps=5,
                       step={"kind": "adam", "lr": 0.3, "eps": 10.0},
                       theta_step={"kind": "adam", "lr": 0.05, "eps": 1e-2},
                       theta_params=("m_u", "m_v"), theta_stationary=True,
                       theta_expected=True)
    res = run_solver(Trajectory.zeros(g), theta0, obs, cfg)

    def theta_rmse(th):
        return np.sqrt(np.mean(
            (th.m_u.values - theta_true.m_u.values)**2
            + (th.m_v.values - theta_true.m_v.values)**2))

    assert theta_rmse(res.theta) < theta_rmse(theta0)


def test_training_loss_identities():
    g, theta, _ = _case()
    rng = np.random.default_rng(6)
    x_true = Trajectory.from_flat(g, rng.standard_normal(g.dim))
    total, l1, l2 = training_loss(x_true, x_true.copy(), theta)
    assert l1 == 0.0
    x_off = Trajectory.from_flat(g, x_true.flat + 1.0)
    total, l1, l2 = training_loss(x_true, x_off, theta, lambda2=0.0)
    assert total == pytest.approx(l1)
    assert l1 == pytest.approx(np.mean((x_true.states - x_off.states)**2))


def test_training_loss_nll_matches_dense_gaussian():
    from scipy.stats import multivariate_normal
    from spdekit import dense_trajectory_covariance
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 7)
    x = sample_prior(theta, g, n_members=1, base_seed=8).members[0]
    _, _, l2 = training_loss(x, Trajectory.zeros(g), theta)
    cov = dense_trajectory_covariance(theta, g)
    oracle = -multivariate_normal(mean=np.zeros(g.dim), cov=cov).logpdf(x.flat)
    assert l2 == pytest.approx(oracle, abs=1e-6)
