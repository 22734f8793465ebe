"""Block-tridiagonal precision against the dense recursion covariance."""

import numpy as np
import pytest

from spdekit import (BlockPrecision, InitialCondition, ObservationSet,
                     SpaceTimeGrid, apply_precision, assemble_block_precision,
                     dense_trajectory_covariance, dump_coordinate_triplets,
                     posterior_precision, quadratic_form, sample_prior,
                     sparse_cholesky, transition_from_drift)
from spdekit.errors import DegenerateNoise

from oracles import block_precision_reference, random_theta


def _identity_dynamics_q(grid, tau=1.0, sigma0=1.0):
    """Q for M = I (zero drift) per-cell random walks, via the real assembly."""
    steps = [transition_from_drift(np.zeros((grid.m, grid.m)), grid.dt, t=t,
                                   noise_scale=np.full(grid.m, tau))
             for t in range(1, grid.nt)]
    ic = InitialCondition(mode="white", sigma0=sigma0, m=grid.m,
                          logdet_prec=-2.0 * grid.m * np.log(sigma0))
    return assemble_block_precision(None, grid, transitions=steps, ic=ic)


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

    rng = np.random.default_rng(seed)
    mask = rng.random(g.shape) < 0.3
    noise = 0.1 + rng.random(int(mask.sum()))
    obs = ObservationSet(g, mask, np.zeros(noise.size), noise)
    add = np.zeros(g.dim)
    add[obs.indices] = 1.0 / noise
    ref_post = block_precision_reference(q.prior.transitions, q.prior.ic,
                                         g.dt, add)
    assert _same_csr(posterior_precision(q, obs).to_csr(), ref_post)


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
    each = sum(quadratic_form(q, stack[:, :, k]) for k in range(3))
    assert quadratic_form(q, stack) == pytest.approx(each, rel=1e-12)


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
    vals = [quadratic_form(q, m) for m in ens.members]
    assert np.mean(vals) == pytest.approx(g.dim, rel=0.10)


def test_quadratic_form_positive():
    g = SpaceTimeGrid(nx=3, ny=3, nt=3)
    theta = random_theta(g, 7)
    q = assemble_block_precision(theta, g)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(g.dim)
    assert quadratic_form(q, v.reshape(g.nt, g.m)) > 0
    assert quadratic_form(q, np.zeros((g.nt, g.m))) == 0.0


def test_block_tridiagonal_sparsity():
    g = SpaceTimeGrid(nx=4, ny=4, nt=4)
    theta = random_theta(g, 8)
    q = assemble_block_precision(theta, g, p0_mode="white")
    full = q.to_csr().tocoo()
    for i, j in zip(full.row, full.col):
        assert abs(int(i) // g.m - int(j) // g.m) <= 1


def test_coordinate_triplet_dump(tmp_path):
    g = SpaceTimeGrid(nx=3, ny=3, nt=2)
    theta = random_theta(g, 9)
    q = assemble_block_precision(theta, g, p0_mode="white")
    path = tmp_path / "q.txt"
    dump_coordinate_triplets(q, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split()
    assert header[1:] == [str(g.dim), str(g.dim), str(q.to_csr().nnz)]
    rebuilt = np.zeros((g.dim, g.dim))
    for line in lines[1:]:
        i, j, v = line.split()
        rebuilt[int(i), int(j)] = float(v)
    assert np.max(np.abs(rebuilt - q.to_csr().toarray())) < 1e-15


def test_interpolation_precision_keeps_no_tape():
    # the burn-in doubling's tape (about 9 dense m x m arrays) is held only
    # where a trace gradient follows, never by the precision an
    # interpolation or an ensemble builds
    import tracemalloc
    from spdekit import initial_condition
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
    _, taped = retained(lambda: assemble_block_precision(
        theta, g, ic=initial_condition(theta, g, keep_tape=True)))
    assert taped - plain > 8 * g.m**2 * 8, (plain, taped)
