"""Transition structure and prior sampling."""

import numpy as np
import pytest
from scipy import sparse

from spdekit import (ParamFields, SpaceTimeGrid, apply_fractional,
                     assemble_fdm_operator, build_transition,
                     dense_trajectory_covariance, initial_condition,
                     propagate, sample_prior, transition_from_drift)
from spdekit import state_space
from spdekit.operators import _ring_pattern, _stencil_table
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
    from spdekit.estimation import _mean_nll, _step_terms
    from spdekit.precision import PriorStructure
    # drift I/dt makes A = I - dt*F exactly zero: the banded LU meets a
    # zero pivot and the loss's Schur sweep a singular block, and each of
    # their readers fails typed
    ic = state_space.InitialCondition(mode="white", m=2)
    # the prior's theta is read for its grid step dt = 1 alone
    theta = ParamFields.stationary(SpaceTimeGrid(nx=3, ny=3, nt=4))
    states = np.ones((4, 2, 1))

    def nll_of(step):
        prior = PriorStructure(theta, [step], ic)
        return _mean_nll(states, prior, _step_terms(states, prior))

    for call in (lambda s: s.propagate(np.ones(2)),
                 lambda s: s.dense_inverse(), nll_of):
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
    inverse = np.linalg.inv(step.a_solve.toarray())
    assert _rel_err(step.propagate(np.eye(theta.grid.m)), inverse) <= 1e-12
    assert _rel_err(step.dense_inverse(), inverse) <= 1e-12
    # the band is read from the pattern: nx + 1 at alpha = 2, twice that
    # at alpha = 4 (the squared stencil)
    _, _, kl, ku = step._banded_lu()
    reach = (theta.alpha // 2) * (theta.grid.nx + 1)
    assert kl == ku == reach, name


def _sparse_product_step(theta, t):
    """A_t by the sparse-product recipe: the assembled operator (exact
    zeros dropped), its power and I - dt F."""
    g = theta.grid
    power = apply_fractional(assemble_fdm_operator(theta, t),
                             theta.alpha).to_sparse()
    return transition_from_drift(-power, g.dt, t=t,
                                 noise_scale=theta.tau.values[t].ravel())


def _values_path_cases():
    cases = [(name, theta) for name, theta in _factor_cases()
             if theta.alpha == 2]
    for n in (16, 24):
        g = SpaceTimeGrid(nx=n, ny=n, nt=3)
        cases.append((f"{n}x{n}", random_theta(g, n)))
        cases.append((f"{n}x{n}, h12 = 0, no advection",
                      random_theta(g, n, advect=False, anisotropic=False)))
    return cases


@pytest.mark.parametrize("name, theta", _values_path_cases())
def test_values_path_is_bit_identical_to_sparse_product_path(name, theta):
    # A_t = I + dt L_t straight on the stencil pattern stores the bits of
    # the sparse-product recipe; pattern slots that recipe drops (h12 = 0,
    # zero advection) are explicit zeros, inert in the LU and its solves
    g = theta.grid
    table = _stencil_table(g)
    for step in build_transition(theta, g):
        ref = _sparse_product_step(theta, step.t)
        assert step.pattern is table
        assert np.array_equal(step.a_solve.toarray(), ref.a_solve.toarray())
        # scipy's index width at this size, which Q's products inherit
        assert step.a_solve.indices.dtype == step.a_solve.indptr.dtype \
            == np.int32
        assert np.array_equal(step.noise_scale, ref.noise_scale)
        assert np.array_equal(
            state_space.schur_sweep([step], g.nx).log_abs_det,
            state_space.schur_sweep([ref], g.nx).log_abs_det), name
        assert np.array_equal(step.dense_inverse(), ref.dense_inverse())


def _higher_alpha_cases():
    # 6 grid rows split into whole blocks of k = 2 or 3 rows, 7 do not
    cases = []
    for alpha in (4, 6):
        for nx, ny in ((7, 6), (5, 7)):
            g = SpaceTimeGrid(nx=nx, ny=ny, nt=3, dy=1.3, dt=0.1)
            for anisotropic in (True, False):
                cases.append(pytest.param(
                    random_theta(g, nx + alpha, anisotropic=anisotropic,
                                 alpha=alpha),
                    id=f"{nx}x{ny}, alpha={alpha}"
                       + ("" if anisotropic else ", h12 = 0")))
    return cases


def _chebyshev_distance(grid):
    """Dense (m, m) max(|dy|, |dx|) between every pair of cells."""
    y, x = np.divmod(np.arange(grid.m), grid.nx)
    return np.maximum(np.abs(y[:, None] - y), np.abs(x[:, None] - x))


def test_the_one_ring_is_the_stencil_table():
    for nx, ny in ((3, 3), (7, 6), (5, 7)):
        g = SpaceTimeGrid(nx=nx, ny=ny, nt=2)
        table = _stencil_table(g)
        assert _ring_pattern(g, 1) is table
        ring = np.zeros((g.m, g.m), dtype=bool)
        ring[table.rows, table.indices] = True
        assert np.array_equal(ring, _chebyshev_distance(g) <= 1)


@pytest.mark.parametrize("theta", _higher_alpha_cases())
def test_higher_alpha_steps_store_the_operator_power_on_the_ring(theta):
    # A_t = I + dt L_t^k from the stencil table's values, on the k-ring:
    # the bits of the zero-free operator's sparse power
    g = theta.grid
    k = theta.alpha // 2
    ring = _ring_pattern(g, k)
    within = _chebyshev_distance(g) <= k
    assert np.array_equal(within[ring.rows, ring.indices],
                          np.ones(ring.rows.size, dtype=bool))
    assert ring.rows.size == np.count_nonzero(within)
    for step in build_transition(theta, g):
        power = apply_fractional(assemble_fdm_operator(theta, step.t),
                                 theta.alpha).to_sparse()
        ref = (sparse.identity(g.m, format="csr") + g.dt * power).toarray()
        assert step.pattern is ring
        assert np.array_equal(step.a_solve.toarray(), ref)
        assert not np.any(ref[~within])
        _, _, kl, ku = step._banded_lu()
        assert kl == ku == k * (g.nx + 1)


@pytest.mark.parametrize("theta", [pytest.param(theta, id=name)
                                   for name, theta in _factor_cases()]
                         + _higher_alpha_cases())
def test_sweep_log_det_matches_dense_slogdet(theta):
    # log|det A_t| = sum_i log|det S_i| over the Schur blocks, the padding
    # rows adding log|det I| = 0, for every step of the sweep at once
    g = theta.grid
    steps = build_transition(theta, g)
    sweep = state_space.schur_sweep(steps, theta.alpha // 2 * g.nx)
    assert sweep.log_abs_det.shape == (len(steps),)
    for step, ours in zip(steps, sweep.log_abs_det):
        sign, dense = np.linalg.slogdet(step.a_solve.toarray())
        assert sign != 0
        assert abs(ours - dense) <= 1e-12 * abs(dense), step.t


@pytest.mark.parametrize("theta", _higher_alpha_cases())
def test_selected_inverse_at_higher_alpha_matches_dense_inverse(theta):
    # blocks of k grid rows, the last one padded with identity rows when
    # k does not divide ny
    g = theta.grid
    _assert_selected_inverse_matches(build_transition(theta, g),
                                     theta.alpha // 2 * g.nx)


def test_one_slab_build_is_the_batched_build():
    # the precision cache rebuilds single slabs: the same bits as the
    # batched build of every slab
    g = SpaceTimeGrid(nx=5, ny=4, nt=4, dx=0.7, dy=1.3)
    theta = random_theta(g, 36)
    batched = build_transition(theta, g)
    for t in (3, 1):
        alone, = build_transition(theta, g, slabs=[t])
        assert alone.t == t
        assert np.array_equal(alone.a_solve.data, batched[t - 1].a_solve.data)


def test_non_spd_tensor_in_build_transition_names_first_cell():
    from spdekit.errors import InvalidParams
    g = SpaceTimeGrid(nx=4, ny=4, nt=4)
    h12 = np.zeros(g.shape)
    h12[3, 0, 0] = 5.0                          # det = 1 - 25 < 0
    h12[2, 3, 1] = 5.0
    h12[2, 1, 2] = -5.0
    theta = ParamFields.stationary(g).replace_fields(h12=h12)
    for build in (lambda: build_transition(theta, g),
                  lambda: assemble_fdm_operator(theta, 2)):
        with pytest.raises(InvalidParams, match=r"\(t=2, y=1, x=2\): "
                           r"h11=1, h12=-5, h22=1"):
            build()
    with pytest.raises(InvalidParams, match=r"t=3, y=0, x=0"):
        build_transition(theta, g, slabs=[3])


def _old_banded_lu(a):
    """dgbtrf on the band read from a CSR's own entries, every call."""
    from scipy.linalg.lapack import dgbtrf
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    offsets = a.indices - rows
    kl, ku = int(-offsets.min(initial=0)), int(offsets.max(initial=0))
    ab = np.zeros((2 * kl + ku + 1, a.shape[0]), order="F")
    ab[kl + ku - offsets, a.indices] = a.data
    lu, piv, info = dgbtrf(ab, kl, ku)
    assert info == 0
    return lu, piv, kl, ku


def test_hand_built_pattern_matches_table_pattern():
    # a step on the pattern of its nonzeros (as transition_from_drift
    # builds it) and the same matrix on the stencil table give one banded
    # LU, bit for bit where the bands overlap, and one selected inverse;
    # the hand-built LU is dgbtrf on the band read from the CSR itself
    g = SpaceTimeGrid(nx=6, ny=5, nt=2)
    theta = random_theta(g, 37, advect=False, anisotropic=False)
    step = build_transition(theta, g)[0]
    nonzero = step.a_solve.copy()
    nonzero.eliminate_zeros()
    assert nonzero.nnz < step.a_solve.nnz
    hand = state_space.TransitionStep(
        t=1, a_solve=nonzero, noise_scale=step.noise_scale,
        pattern=state_space.SlotPattern(nonzero.indptr, nonzero.indices))
    old = _old_banded_lu(nonzero)
    for ours, ref in zip(hand._banded_lu(), old):
        assert np.array_equal(ours, ref)
    lu, piv, kl, ku = step._banded_lu()
    assert (kl, ku) == (old[2] + 1, old[3] + 1)
    assert np.array_equal(lu[kl + ku], old[0][old[2] + old[3]])
    assert np.array_equal(piv, old[1])
    assert np.array_equal(hand.dense_inverse(), step.dense_inverse())
    assert np.array_equal(_selected_entries([hand], g.nx),
                          _selected_entries([step], g.nx))


def _selected_entries(steps, nx):
    """Every entry of each step's inverse in the three block diagonals,
    from the Schur sweep in blocks of nx cells."""
    rows, cols = _block_tridiagonal_entries(nx, steps[0].a_solve.shape[0])
    return state_space.selected_inverse(state_space.schur_sweep(steps, nx),
                                        rows, cols)


def _block_tridiagonal_entries(nx, m):
    """Every (row, col) whose cells lie at most one block row apart."""
    block = np.arange(m) // nx
    return np.nonzero(np.abs(block[:, None] - block[None, :]) <= 1)


def _assert_selected_inverse_matches(steps, nx):
    rows, cols = _block_tridiagonal_entries(nx, steps[0].a_solve.shape[0])
    ours = _selected_entries(steps, nx)
    assert ours.shape == (len(steps), rows.size)
    for step, entries in zip(steps, ours):
        inverse = np.linalg.inv(step.a_solve.toarray())
        assert _rel_err(entries, inverse[rows, cols]) <= 1e-12, step.t


@pytest.mark.parametrize("name, theta",
                         [c for c in _factor_cases() if c[1].alpha == 2])
def test_selected_inverse_matches_dense_inverse(name, theta):
    g = theta.grid
    _assert_selected_inverse_matches(build_transition(theta, g), g.nx)


def test_a_sweep_serves_one_selected_inverse():
    # the backward pass writes the blocks of the inverse over the sweep's
    g = SpaceTimeGrid(nx=5, ny=4, nt=3)
    steps = build_transition(random_theta(g, 45), g)
    sweep = state_space.schur_sweep(steps, g.nx)
    log_abs_det = sweep.log_abs_det.copy()
    rows, cols = _block_tridiagonal_entries(g.nx, g.m)
    state_space.selected_inverse(sweep, rows, cols)
    assert sweep.blocks is None
    assert np.array_equal(sweep.log_abs_det, log_abs_det)
    with pytest.raises(ValueError, match="earlier selected inverse"):
        state_space.selected_inverse(sweep, rows, cols)


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
    return transition_from_drift(np.eye(9) - a, dt=1.0, t=t,
                                 noise_scale=np.ones(9))


@pytest.mark.parametrize("pivot", [0.0, 1e-300])
def test_singular_schur_block_is_typed(pivot):
    from spdekit import log_det_block
    from spdekit.errors import SingularTransition
    from spdekit.estimation import _mean_nll, _step_terms
    from spdekit.precision import PriorStructure, prior_precision
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    steps = [transition_from_drift(-np.eye(9), dt=1.0, t=1,
                                   noise_scale=np.ones(9)),
             _swap_step(2, pivot)]
    # A_2 is nonsingular, and a pivoting LU factors it; the block
    # recursion does not pivot across block rows, so the loss fails where
    # the gradient does, naming the step and the block row
    sign, log_abs_det = np.linalg.slogdet(steps[1].a_solve.toarray())
    assert sign != 0 and abs(log_abs_det) < 1e-12
    states = np.ones((g.nt, g.m, 1))
    prior = PriorStructure(ParamFields.stationary(g), steps,
                           initial_condition(steps[0], g, "white"))
    q = prior_precision(prior)
    for call in (lambda: _selected_entries(steps, 3),
                 lambda: _mean_nll(states, prior, _step_terms(states, prior)),
                 lambda: log_det_block(q)):
        with pytest.raises(SingularTransition, match="block row 0") as info:
            call()
        assert info.value.t == 2


def test_zero_pivot_in_selected_inverse_raises_from_banded_lu():
    from spdekit.errors import SingularTransition
    step = transition_from_drift(np.eye(9), dt=1.0, t=4)     # A = 0
    with pytest.raises(SingularTransition,
                       match="singular Schur block in block row 0") as info:
        _selected_entries([step], 3)
    assert info.value.t == 4


def test_blocked_inverse_is_bit_identical_to_one_solve():
    # dgbtrs works column by column, so the in-place solve of a Fortran
    # identity that dense_inverse makes matches a copying solve of the whole
    # identity and a solve in 256-column blocks bit for bit
    from scipy.linalg.lapack import dgbtrs
    g = SpaceTimeGrid(nx=17, ny=16, nt=2)
    step = build_transition(random_theta(g, 34), g)[0]
    lu, piv, kl, ku = step._banded_lu()
    whole, info = dgbtrs(lu, kl, ku, np.eye(g.m), piv)
    assert info == 0
    blocked = np.hstack([dgbtrs(lu, kl, ku, np.eye(g.m)[:, c:c + 256],
                                piv)[0] for c in range(0, g.m, 256)])
    assert g.m > 256
    assert np.array_equal(step.dense_inverse(), whole)
    assert np.array_equal(step.dense_inverse(), blocked)
    assert np.array_equal(step.propagate(np.eye(g.m)), whole)


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


@pytest.mark.parametrize("base_seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
def test_keyed_normals_match_the_tuple_key(base_seed):
    # the uint32 key array is the entropy a seed sequence makes of the
    # tuple (base_seed, member, stream, step), for seeds of one, two and
    # three 32-bit words and members up to 2^31
    from oracles import _keyed_normal
    members = [0, 1, 7, 2**31 - 1, 2**31]
    for stream, step in ((0, 0), (0, 20), (1, 9), (2, 0)):
        ours = state_space._keyed_normals(base_seed, members, stream, step,
                                          11)
        for j, member in enumerate(members):
            ref = _keyed_normal(base_seed, member, stream, step, 11)
            assert ours[:, j].tobytes() == ref.tobytes()


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
    ic = initial_condition(steps[0], g, p0_mode="burnin", burn_in=10)
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
    ic = initial_condition(steps[0], g, p0_mode="burnin", burn_in=burn_in)
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
        initial_condition(singular, g, p0_mode="burnin", burn_in=5)
    assert info.value.t == 1


def test_zero_burn_in_is_unit_white():
    g = SpaceTimeGrid(nx=4, ny=3, nt=2)
    theta = random_theta(g, 22)
    steps = build_transition(theta, g)
    ic = initial_condition(steps[0], g, p0_mode="burnin", burn_in=0)
    cov = burnin_covariance(ic, steps[0], g.dt)
    assert np.array_equal(cov, np.eye(g.m))
    assert np.array_equal(ic.prec, np.eye(g.m))
    assert ic.logdet_prec == 0.0


@pytest.mark.parametrize("p0_mode", ["burnin", "white"])
def test_negative_burn_in_is_rejected(p0_mode):
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 23)
    with pytest.raises(ValueError, match="burn_in"):
        initial_condition(build_transition(theta, g)[0], g, p0_mode=p0_mode,
                          burn_in=-1)
    with pytest.raises(ValueError, match="burn_in"):
        sample_prior(theta, g, p0_mode=p0_mode, burn_in=-1)


def test_burnin_path_stays_off_numpy_linalg(monkeypatch):
    # numpy and scipy load separate OpenBLAS builds with separate thread
    # pools; the burn-in marginal and its adjoint run on scipy's BLAS
    # kernels, so that its LAPACK calls (dgbtrs, dpotrf, dpotri) and the
    # banded posterior factor after them share one pool
    from spdekit.estimation import _burnin_adjoint, _stack_states

    def refuse(*args, **kwargs):
        raise AssertionError("numpy linalg called on the burn-in path")

    for name in ("cholesky", "inv", "solve", "slogdet"):
        monkeypatch.setattr(np.linalg, name, refuse)
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    theta = random_theta(g, 24)
    steps = build_transition(theta, g)
    ic = initial_condition(steps[0], g, p0_mode="burnin", burn_in=7,
                           keep_tape=True)
    assert ic.logdet_prec != 0.0
    x0 = _stack_states(sample_prior(theta, g, n_members=2, base_seed=17,
                                    burn_in=7).members, g)[0]
    tau_bar, a_bar = _burnin_adjoint(x0, steps[0], ic, g.dt,
                                     _ring_pattern(g, 1))
    assert np.all(np.isfinite(tau_bar)) and np.all(np.isfinite(a_bar))


def test_unknown_p0_mode_is_rejected():
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 23)
    with pytest.raises(ValueError, match="p0_mode"):
        sample_prior(theta, g, p0_mode="whte")


def test_burnin_marginal_that_is_not_positive_definite_is_typed():
    # near-pure advection at alpha = 4 leaves P_B numerically indefinite:
    # LAPACK's failure is typed, naming step 1 and the burn-in marginal
    from spdekit.errors import SingularTransition
    g = SpaceTimeGrid(nx=5, ny=5, nt=4)
    theta = ParamFields.stationary(g, kappa=1e-6, m=(-2452.0, 2699.0),
                                   h=(1e-6, 0.0, 1e-6), tau=1.2e5, alpha=4)
    with pytest.raises(SingularTransition, match="burn-in marginal") as info:
        initial_condition(build_transition(theta, g)[0], g,
                          p0_mode="burnin")
    assert info.value.t == 1


@pytest.mark.parametrize("trans_a", [False, True])
@pytest.mark.parametrize("trans_b", [False, True])
@pytest.mark.parametrize("order_a, order_b", [("C", "C"), ("C", "F"),
                                              ("F", "C"), ("F", "F")])
def test_dense_product_matches_matmul_in_every_layout(trans_a, trans_b,
                                                      order_a, order_b):
    # the burn-in's dense products are scipy's dgemm, dsymm, dsyrk and
    # dsyr2k, on operands in either memory order: each matches numpy's
    # product with the flags the burn-in uses (transposes, dsymm's side),
    # dsymm reading only the upper triangle of its symmetric operand and
    # the rank-k updates writing the upper triangle of theirs
    from scipy.linalg.blas import dgemm, dsymm, dsyr2k, dsyrk
    rng = np.random.default_rng(45)

    def draw(shape, order):
        return np.asarray(rng.standard_normal(shape), order=order)

    def close(ours, ref):
        return np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    a = draw((7, 5), order_a)
    b = draw((7, 5) if trans_a != trans_b else (5, 7), order_b)
    ref = (a.T if trans_a else a) @ (b.T if trans_b else b)
    assert close(dgemm(1.0, a, b, trans_a=trans_a, trans_b=trans_b), ref)

    sym = draw((7, 7), "C")
    sym = sym + sym.T
    other = draw((5, 7) if trans_b else (7, 5), order_b)
    ours = dsymm(1.0, np.asarray(np.triu(sym), order=order_a), other,
                 side=int(trans_b))
    assert close(ours, other @ sym if trans_b else sym @ other)

    y = draw((7, 5), order_b)
    n = 5 if trans_a else 7
    c = draw((n, n), "C")
    c = np.asarray(c + c.T, order=order_b)
    upper = np.triu_indices(n)
    gram = a.T @ a if trans_a else a @ a.T
    pair = a.T @ y + y.T @ a if trans_a else a @ y.T + y @ a.T
    ours = dsyrk(0.5, a, beta=1.0, c=c, trans=int(trans_a))
    assert close(ours[upper], (0.5 * gram + c)[upper])
    ours = dsyr2k(0.5, a, y, beta=1.0, c=c, trans=int(trans_a))
    assert close(ours[upper], (0.5 * pair + c)[upper])


@pytest.mark.parametrize("burn_in", [0, 1, 2, 3, 7, 20])
def test_doubling_from_a_c_ordered_propagator_matches_recursion(burn_in):
    # dense_inverse hands the doubling a Fortran-ordered M; a C-ordered one
    # is copied by scipy's BLAS wrappers, and both give the upper triangle
    # of the P_B of the step-by-step SuperLU recursion
    from scipy.sparse.linalg import splu

    from oracles import _burnin_covariances
    g = SpaceTimeGrid(nx=5, ny=4, nt=2)
    theta = random_theta(g, 46, advect=True)
    step = build_transition(theta, g)[0]
    prop = step.dense_inverse()
    noise_var = (g.dt * step.noise_scale)**2
    ref = _burnin_covariances(step, splu(step.a_solve.tocsc()), g.dt,
                              burn_in)[-1]
    upper = np.triu_indices(g.m)
    for m in (prop, np.ascontiguousarray(prop)):
        ours = state_space._burnin_doubling(m, noise_var, burn_in)[upper]
        assert np.max(np.abs(ours - ref[upper])) \
            <= 1e-12 * np.max(np.abs(ref))


def test_doubling_of_twenty_steps_makes_sixteen_products(monkeypatch):
    # S_1 is one dsyrk; each of the four squarings is dsymm, dsyr2k and
    # dgemm; the first apply is one dsyrk and the second dsymm and dsyr2k
    calls = []

    def counted(name):
        kernel = getattr(state_space, name)

        def call(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)
        return call

    for name in ("dgemm", "dsymm", "dsyrk", "dsyr2k"):
        monkeypatch.setattr(state_space, name, counted(name))
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    step = build_transition(random_theta(g, 47), g)[0]
    state_space._burnin_doubling(step.dense_inverse(),
                                 (g.dt * step.noise_scale)**2, 20)
    assert len(calls) == 16
    assert calls.count("dgemm") == 4 and calls.count("dsyrk") == 2
