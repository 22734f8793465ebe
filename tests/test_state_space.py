"""Transition structure and prior sampling."""

import numpy as np
import pytest

from spdekit import (ParamFields, SpaceTimeGrid, build_transition,
                     dense_trajectory_covariance, initial_condition,
                     propagate, sample_prior, transition_from_drift)

from oracles import burnin_marginal_oracle, random_theta


def test_zero_drift_is_identity():
    step = transition_from_drift(np.zeros((3, 3)), dt=0.7)
    assert np.array_equal(step.a_solve.toarray(), np.eye(3))
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(step.propagate(v), v)


def test_scalar_transition():
    # drift -1 at dt = 0.5: propagator 1/(1 + 0.5) = 2/3
    step = transition_from_drift(np.array([[-1.0]]), dt=0.5)
    assert step.propagate(np.array([1.0]))[0] == pytest.approx(2.0 / 3.0)


def test_singular_transition_raises_with_step_index():
    from spdekit.errors import SingularTransition
    # drift I/dt makes A = I - dt*F exactly zero
    step = transition_from_drift(np.eye(2), dt=1.0, t=3)
    with pytest.raises(SingularTransition, match="t=3"):
        step.propagate(np.ones(2))


@pytest.mark.parametrize("seed", range(3))
def test_propagator_matches_dense_inverse(seed):
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, seed)
    for step in build_transition(theta, g):
        a = step.a_solve.toarray()
        m_dense = np.linalg.inv(a)
        ours = step.propagate(np.eye(g.m))
        assert np.max(np.abs(ours - m_dense)) < 1e-10
        assert np.max(np.abs(ours @ a - np.eye(g.m))) < 1e-10


def test_alpha4_transition_uses_operator_power():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    theta2 = random_theta(g, 5, alpha=2)
    theta4 = ParamFields.from_arrays(
        g, **{k: v for k, v in theta2.field_arrays().items()}, alpha=4)
    from spdekit import assemble_fdm_operator
    core = assemble_fdm_operator(theta4, 1).toarray()
    expect = np.eye(g.m) + g.dt * core @ core
    step = build_transition(theta4, g)[0]
    assert np.max(np.abs(step.a_solve.toarray() - expect)) < 1e-12


def test_no_noise_members_are_zero():
    g = SpaceTimeGrid(nx=3, ny=3, nt=4)
    theta = ParamFields.stationary(g).replace_fields(tau=np.zeros(g.shape))
    ens = sample_prior(theta, g, n_members=3, base_seed=1, p0_mode="white",
                       sigma0=0.0)
    for member in ens.members:
        assert np.array_equal(member.states, np.zeros((g.nt, g.m)))


def test_deterministic_propagation_matches_matrix_chain():
    g = SpaceTimeGrid(nx=3, ny=4, nt=4)
    theta = random_theta(g, 7)
    steps = build_transition(theta, g)
    k = 5
    x0 = np.zeros(g.m)
    x0[k] = 1.0
    zero_noise = [np.zeros(g.m)] * len(steps)
    states = propagate(steps, x0, zero_noise, g.dt)
    chain = x0.copy()
    for step in steps:
        chain = np.linalg.inv(step.a_solve.toarray()) @ chain
    assert np.max(np.abs(states[-1] - chain)) < 1e-10


def test_bit_reproducible_across_scheduling():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 2)
    a = sample_prior(theta, g, n_members=4, base_seed=11)
    b = sample_prior(theta, g, n_members=4, base_seed=11, threads=3)
    for ma, mb in zip(a.members, b.members):
        assert ma.states.tobytes() == mb.states.tobytes()
    # a different seed changes the draw
    c = sample_prior(theta, g, n_members=1, base_seed=12)
    assert not np.array_equal(c.members[0].states, a.members[0].states)


def test_linearity_in_initial_state_and_noise():
    g = SpaceTimeGrid(nx=3, ny=3, nt=4)
    theta = random_theta(g, 3)
    steps = build_transition(theta, g)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(g.m)
    zs = [rng.standard_normal(g.m) for _ in steps]
    base = propagate(steps, x0, zs, g.dt)
    scaled = propagate(steps, 2.5 * x0, [2.5 * z for z in zs], g.dt)
    assert np.max(np.abs(scaled - 2.5 * base)) < 1e-12


def test_white_initial_condition_scale():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    theta = ParamFields.stationary(g, tau=1e-7)  # ~no step noise
    ens = sample_prior(theta, g, n_members=400, base_seed=3, p0_mode="white",
                       sigma0=2.0)
    x0 = np.stack([m.states[0] for m in ens.members])
    assert np.std(x0) == pytest.approx(2.0, rel=0.1)


def test_empirical_covariance_matches_precision_inverse():
    # statistical: 2000 members on a smooth 6x6x8 process within 15%
    # relative Frobenius error of the exact covariance
    g = SpaceTimeGrid(nx=6, ny=6, nt=8)
    theta = ParamFields.stationary(g, kappa=0.4, h=(0.8, 0.0, 0.8), tau=1.0)
    ens = sample_prior(theta, g, n_members=2000, base_seed=5)
    flat = np.stack([m.flat for m in ens.members])
    emp = np.cov(flat.T, bias=False)
    exact = dense_trajectory_covariance(theta, g)
    rel = np.linalg.norm(emp - exact) / np.linalg.norm(exact)
    assert rel < 0.15


def test_burnin_initial_condition_consistency():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 8, advect=False)
    ic = initial_condition(theta, g, p0_mode="burnin", burn_in=10)
    # the dense covariance and precision really are inverses
    assert np.max(np.abs(ic.cov @ ic.prec - np.eye(g.m))) < 1e-8
    sign, logdet = np.linalg.slogdet(ic.prec)
    assert sign > 0
    assert ic.logdet_prec == pytest.approx(logdet, abs=1e-8)


@pytest.mark.parametrize("burn_in", [1, 5, 20])
@pytest.mark.parametrize("nx, ny", [(3, 3), (5, 4), (8, 8)])
def test_burnin_marginal_matches_superlu_oracle(nx, ny, burn_in):
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=3)
    theta = random_theta(g, 19, advect=True)
    ic = initial_condition(theta, g, p0_mode="burnin", burn_in=burn_in)
    cov, prec, logdet_prec = burnin_marginal_oracle(theta, burn_in)
    assert np.max(np.abs(ic.cov - cov)) <= 1e-12 * np.max(np.abs(cov))
    assert np.max(np.abs(ic.prec - prec)) <= 1e-12 * np.max(np.abs(prec))
    assert abs(ic.logdet_prec - logdet_prec) <= 1e-12 * abs(logdet_prec)


def test_singular_first_transition_in_burnin_is_typed():
    from spdekit.errors import SingularTransition
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 20)
    # drift I/dt makes A_1 exactly zero
    singular = transition_from_drift(np.eye(g.m) / g.dt, dt=g.dt, t=1,
                                     noise_scale=np.ones(g.m))
    with pytest.raises(SingularTransition) as info:
        initial_condition(theta, g, p0_mode="burnin", burn_in=5,
                          transitions=[singular])
    assert info.value.t == 1
