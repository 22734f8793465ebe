"""Transition structure and prior sampling."""

import numpy as np
import pytest

from spdekit import (ParamFields, SpaceTimeGrid, build_transition,
                     dense_trajectory_covariance, initial_condition,
                     propagate, sample_prior, transition_from_drift)
from spdekit import state_space
from spdekit.state_space import burnin_covariance

from oracles import (burnin_marginal_oracle, random_theta,
                     sample_prior_reference)


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
    from spdekit.estimation import _mean_nll
    # drift I/dt makes A = I - dt*F exactly zero: the banded LU meets a
    # zero pivot, and each of its readers fails typed
    ic = state_space.InitialCondition(mode="white", m=2)
    for call in (lambda s: s.propagate(np.ones(2)),
                 lambda s: s.dense_inverse(),
                 lambda s: _mean_nll(np.ones((4, 2, 1)), [s], ic, 1.0)):
        step = transition_from_drift(np.eye(2), dt=1.0, t=3,
                                     noise_scale=np.ones(2))
        with pytest.raises(SingularTransition, match="t=3") as info:
            call(step)
        assert info.value.t == 3


def _rel_err(ours, dense) -> float:
    return float(np.max(np.abs(ours - dense)) / np.max(np.abs(dense)))


def _factor_cases():
    square = SpaceTimeGrid(nx=3, ny=3, nt=2)
    oblong = SpaceTimeGrid(nx=5, ny=4, nt=2, dx=0.7, dy=1.3)
    mixed = SpaceTimeGrid(nx=8, ny=8, nt=2)
    theta = random_theta(mixed, 31)
    assert theta.m_u.values[1].min() < 0 < theta.m_u.values[1].max()
    assert theta.m_v.values[1].min() < 0 < theta.m_v.values[1].max()
    assert np.all(theta.h12.values[1] != 0)
    return [("3x3", random_theta(square, 30)),
            ("5x4, dx != dy", random_theta(oblong, 32)),
            ("8x8, mixed advection, h12", theta),
            ("6x6, alpha=4", random_theta(SpaceTimeGrid(nx=6, ny=6, nt=2),
                                          33, alpha=4))]


@pytest.mark.parametrize("name, theta", _factor_cases())
def test_banded_factor_matches_dense_lu(name, theta):
    step = build_transition(theta, theta.grid)[0]
    a = step.a_solve.toarray()
    sign, log_abs_det = np.linalg.slogdet(a)
    assert sign != 0
    assert abs(step.log_abs_det() - log_abs_det) <= 1e-12 * abs(log_abs_det)
    inverse = np.linalg.inv(a)
    assert _rel_err(step.propagate(np.eye(theta.grid.m)), inverse) <= 1e-12
    assert _rel_err(step.dense_inverse(), inverse) <= 1e-12
    # the band is read from the pattern: nx + 1 at alpha = 2, twice that
    # at alpha = 4 (the squared stencil)
    _, _, kl, ku = step._banded_lu()
    reach = (theta.alpha // 2) * (theta.grid.nx + 1)
    assert kl == ku == reach, name


def _block_tridiagonal_entries(nx, m):
    """Every (row, col) whose cells lie at most one block row apart."""
    block = np.arange(m) // nx
    return np.nonzero(np.abs(block[:, None] - block[None, :]) <= 1)


def _assert_selected_inverse_matches(steps, nx):
    rows, cols = _block_tridiagonal_entries(nx, steps[0].a_solve.shape[0])
    ours = state_space.selected_inverse(steps, nx, rows, cols)
    assert ours.shape == (len(steps), rows.size)
    for step, entries in zip(steps, ours):
        inverse = np.linalg.inv(step.a_solve.toarray())
        assert _rel_err(entries, inverse[rows, cols]) <= 1e-12, step.t


@pytest.mark.parametrize("name, theta",
                         [c for c in _factor_cases() if c[1].alpha == 2])
def test_selected_inverse_matches_dense_inverse(name, theta):
    g = theta.grid
    _assert_selected_inverse_matches(build_transition(theta, g), g.nx)


@pytest.mark.parametrize("nx, ny", [(6, 1), (1, 6)])
def test_selected_inverse_on_a_single_block_row_or_column(nx, ny):
    # ny = 1: one dense block, no off-diagonal blocks; nx = 1: scalar
    # blocks, so A is tridiagonal
    rng = np.random.default_rng(nx)
    m = nx * ny
    steps = []
    for t in (1, 2):
        a = rng.standard_normal((m, m)) + 4.0 * np.eye(m)
        if nx == 1:
            a = np.triu(np.tril(a, 1), -1)
        steps.append(transition_from_drift(np.eye(m) - a, dt=1.0, t=t))
    _assert_selected_inverse_matches(steps, nx)


def test_selected_inverse_stress_draws():
    # mixed-sign advection up to several cells per step, near-degenerate
    # diffusion tensors and long steps on oblong cells
    rng = np.random.default_rng(41)
    for _ in range(200):
        nx, ny = rng.integers(3, 12, size=2)
        dx, dy = rng.choice([0.5, 1.0, 2.0], size=2)
        g = SpaceTimeGrid(nx=int(nx), ny=int(ny), nt=3, dx=dx, dy=dy,
                          dt=rng.uniform(0.05, 20.0))
        h11 = rng.uniform(0.2, 2.0, g.shape)
        h22 = rng.uniform(0.2, 2.0, g.shape)
        theta = ParamFields.from_arrays(
            g, kappa=rng.uniform(0.1, 2.0, g.shape),
            m_u=rng.normal(0.0, 3.0, g.shape),
            m_v=rng.normal(0.0, 3.0, g.shape), h11=h11,
            h12=0.99 * np.sqrt(h11 * h22) * rng.uniform(-1, 1, g.shape),
            h22=h22, tau=1.0)
        _assert_selected_inverse_matches(build_transition(theta, g), g.nx)


def _swap_step(t, pivot):
    """A 9-cell step whose A is nonsingular but whose leading 3x3 block
    diag(1, 1, pivot) is (numerically) singular: cells 2 and 5 are
    coupled by ones across the first two block rows."""
    a = np.eye(9)
    a[2, 2] = pivot
    a[5, 5] = 0.0
    a[2, 5] = a[5, 2] = 1.0
    return transition_from_drift(np.eye(9) - a, dt=1.0, t=t)


@pytest.mark.parametrize("pivot", [0.0, 1e-300])
def test_singular_schur_block_is_typed(pivot):
    from spdekit.errors import SingularTransition
    steps = [transition_from_drift(-np.eye(9), dt=1.0, t=1),
             _swap_step(2, pivot)]
    # the banded LU pivots and succeeds; the block recursion does not
    assert abs(steps[1].log_abs_det()) < 1e-12
    rows, cols = _block_tridiagonal_entries(3, 9)
    with pytest.raises(SingularTransition, match="block row 0") as info:
        state_space.selected_inverse(steps, 3, rows, cols)
    assert info.value.t == 2


def test_zero_pivot_in_selected_inverse_raises_from_banded_lu():
    from spdekit.errors import SingularTransition
    step = transition_from_drift(np.eye(9), dt=1.0, t=4)     # A = 0
    rows, cols = _block_tridiagonal_entries(3, 9)
    with pytest.raises(SingularTransition, match="zero pivot") as info:
        state_space.selected_inverse([step], 3, rows, cols)
    assert info.value.t == 4


def test_blocked_inverse_is_bit_identical_to_one_solve():
    from scipy.linalg.lapack import dgbtrs
    g = SpaceTimeGrid(nx=17, ny=16, nt=2)
    assert g.m > state_space._SOLVE_BLOCK
    step = build_transition(random_theta(g, 34), g)[0]
    lu, piv, kl, ku = step._banded_lu()
    whole, info = dgbtrs(lu, kl, ku, np.eye(g.m), piv)
    assert info == 0
    assert np.array_equal(step.dense_inverse(), whole)


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


def test_bit_reproducible_across_scheduling(monkeypatch):
    # a member's draw does not depend on the block it is drawn in
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 2)
    a = sample_prior(theta, g, n_members=20, base_seed=11)
    for block in (1, 3, 20):
        monkeypatch.setattr(state_space, "_MEMBER_BLOCK", block)
        b = sample_prior(theta, g, n_members=20, base_seed=11)
        for ma, mb in zip(a.members, b.members):
            assert ma.states.tobytes() == mb.states.tobytes()
    # a different seed changes the draw
    c = sample_prior(theta, g, n_members=1, base_seed=12)
    assert not np.array_equal(c.members[0].states, a.members[0].states)


@pytest.mark.parametrize("p0_mode", ["white", "burnin"])
@pytest.mark.parametrize("shape", [(3, 3), (5, 4), (8, 8)])
def test_sample_prior_matches_per_member_reference(shape, p0_mode):
    g = SpaceTimeGrid(nx=shape[0], ny=shape[1], nt=4)
    theta = random_theta(g, 40)
    ens = sample_prior(theta, g, n_members=20, base_seed=6, p0_mode=p0_mode,
                       sigma0=0.7, burn_in=5)
    expect = sample_prior_reference(theta, 20, 6, p0_mode, sigma0=0.7,
                                    burn_in=5)
    for member, ref in zip(ens.members, expect, strict=True):
        assert member.states.tobytes() == ref.tobytes()


def test_propagate_block_matches_columns():
    g = SpaceTimeGrid(nx=4, ny=3, nt=4)
    steps = build_transition(random_theta(g, 41), g)
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((g.m, 3))
    zs = rng.standard_normal((len(steps), g.m, 3))
    block = propagate(steps, x0, zs, g.dt)
    assert block.shape == (g.nt, g.m, 3)
    for j in range(3):
        column = propagate(steps, x0[:, j].copy(), zs[:, :, j].copy(), g.dt)
        assert block[:, :, j].tobytes() == column.tobytes()


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
    steps = build_transition(theta, g)
    ic = initial_condition(theta, g, p0_mode="burnin", burn_in=10,
                           transitions=steps)
    assert ic.cov is None                # P_0 is rebuilt, not held
    # the dense covariance and precision really are inverses
    cov = burnin_covariance(ic, steps[0], g.dt)
    assert np.max(np.abs(cov @ ic.prec - np.eye(g.m))) < 1e-8
    sign, logdet = np.linalg.slogdet(ic.prec)
    assert sign > 0
    assert ic.logdet_prec == pytest.approx(logdet, abs=1e-8)


# every shape of the doubling: no digit, one digit, runs of set digits,
# a single high digit, and mixed digits
@pytest.mark.parametrize("burn_in", [0, 1, 2, 3, 5, 7, 16, 20, 33])
@pytest.mark.parametrize("nx, ny", [(3, 3), (5, 4), (8, 8)])
def test_burnin_marginal_matches_superlu_oracle(nx, ny, burn_in):
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=3)
    theta = random_theta(g, 19, advect=True)
    steps = build_transition(theta, g)
    ic = initial_condition(theta, g, p0_mode="burnin", burn_in=burn_in,
                           transitions=steps)
    cov, prec, logdet_prec = burnin_marginal_oracle(theta, burn_in)
    ours = burnin_covariance(ic, steps[0], g.dt)
    assert np.max(np.abs(ours - cov)) <= 1e-12 * np.max(np.abs(cov))
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


def test_zero_burn_in_is_unit_white():
    g = SpaceTimeGrid(nx=4, ny=3, nt=2)
    theta = random_theta(g, 22)
    steps = build_transition(theta, g)
    ic = initial_condition(theta, g, p0_mode="burnin", burn_in=0,
                           transitions=steps)
    cov = burnin_covariance(ic, steps[0], g.dt)
    assert np.array_equal(cov, np.eye(g.m))
    assert np.array_equal(ic.prec, np.eye(g.m))
    assert ic.logdet_prec == 0.0


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_negative_burn_in_is_rejected(p0_mode):
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 23)
    with pytest.raises(ValueError, match="burn_in"):
        initial_condition(theta, g, p0_mode=p0_mode, burn_in=-1)
    with pytest.raises(ValueError, match="burn_in"):
        sample_prior(theta, g, p0_mode=p0_mode, burn_in=-1)


def test_burnin_path_stays_off_scipy_lapack(monkeypatch):
    # numpy and scipy bundle separate OpenBLAS builds with separate thread
    # pools; the dense burn-in path must use numpy's alone
    import scipy.linalg
    from scipy.linalg import lapack

    from spdekit.estimation import _stack_states, _trace_gradient

    def refuse(*args, **kwargs):
        raise AssertionError("scipy LAPACK called on the burn-in path")

    for module, name in ((scipy.linalg, "cho_factor"),
                         (scipy.linalg, "cho_solve"), (lapack, "dpotrf")):
        monkeypatch.setattr(module, name, refuse)
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 24)
    ic = initial_condition(theta, g, p0_mode="burnin", burn_in=7)
    assert ic.logdet_prec != 0.0
    xs = sample_prior(theta, g, n_members=2, base_seed=17,
                      burn_in=7).members
    grads = _trace_gradient(_stack_states(xs), theta,
                            dict(p0_mode="burnin", sigma0=1.0, burn_in=7))
    assert np.all(np.isfinite(grads.fields["tau"]))


def test_unknown_p0_mode_is_rejected():
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 23)
    with pytest.raises(ValueError, match="p0_mode"):
        sample_prior(theta, g, p0_mode="whte")
