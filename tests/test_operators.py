"""Slab operator assembly against the loop-built dense oracle."""

import numpy as np
import pytest

from spdekit import (ParamFields, SpaceTimeGrid, apply_fractional,
                     assemble_fdm_operator, project_params, validate_params)
from spdekit.errors import InvalidParams, UnsupportedAlpha
from spdekit.estimation import PARAM_NAMES
from spdekit.operators import _stencil_table, operator_adjoint

from oracles import (dense_operator_oracle, operator_adjoint_reference,
                     random_theta)


def test_laplacian_stencil_interior_row():
    g = SpaceTimeGrid(nx=5, ny=5, nt=2, dx=0.5, dy=2.0)
    theta = ParamFields.stationary(g, kappa=1.0)
    op = assemble_fdm_operator(theta, 0).toarray()
    j = 2 * 5 + 2
    assert op[j, j] == pytest.approx(1.0 + 2 / 0.5**2 + 2 / 2.0**2)
    assert op[j, j - 1] == pytest.approx(-1 / 0.5**2)
    assert op[j, j + 1] == pytest.approx(-1 / 0.5**2)
    assert op[j, j - 5] == pytest.approx(-1 / 2.0**2)
    assert op[j, j + 5] == pytest.approx(-1 / 2.0**2)


def test_constants_annihilated_everywhere():
    # kappa = 0, m = 0, H = I: the operator kills constants at the
    # boundary too (zero-flux closure)
    g = SpaceTimeGrid(nx=4, ny=5, nt=2)
    theta = ParamFields.stationary(g, kappa=0.0)
    op = assemble_fdm_operator(theta, 0)
    assert np.max(np.abs(op @ np.ones(g.m))) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_dense_stencil_oracle_match(seed):
    g = SpaceTimeGrid(nx=5, ny=5, nt=3, dx=0.8, dy=1.3)
    theta = random_theta(g, seed)
    for t in range(g.nt):
        ours = assemble_fdm_operator(theta, t).toarray()
        oracle = dense_operator_oracle(theta, t)
        assert np.max(np.abs(ours - oracle)) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_symmetry_without_advection(seed):
    g = SpaceTimeGrid(nx=6, ny=5, nt=2)
    theta = random_theta(g, seed, advect=False)
    op = assemble_fdm_operator(theta, 0).toarray()
    assert np.max(np.abs(op - op.T)) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_positive_definite_without_advection(seed):
    g = SpaceTimeGrid(nx=8, ny=8, nt=2)
    theta = random_theta(g, seed, advect=False)
    op = assemble_fdm_operator(theta, 0).toarray()
    assert np.linalg.eigvalsh(op).min() > 0


@pytest.mark.parametrize("seed", range(3))
def test_interior_row_sums_vanish_without_damping(seed):
    g = SpaceTimeGrid(nx=6, ny=6, nt=2)
    theta = random_theta(g, seed)
    theta = theta.replace_fields(kappa=np.zeros(g.shape))
    op = assemble_fdm_operator(theta, 0).toarray()
    sums = op.sum(axis=1).reshape(g.ny, g.nx)
    assert np.max(np.abs(sums[1:-1, 1:-1])) < 1e-12
    # this closure actually conserves constants on boundary rows too
    assert np.max(np.abs(sums)) < 1e-12


def test_stencil_locality():
    g = SpaceTimeGrid(nx=6, ny=5, nt=2)
    theta = random_theta(g, 9)
    op = assemble_fdm_operator(theta, 1).tocoo()
    for i, j in zip(op.row, op.col):
        yi, xi = divmod(int(i), g.nx)
        yj, xj = divmod(int(j), g.nx)
        assert abs(yi - yj) <= 1 and abs(xi - xj) <= 1
    assert np.max(np.diff(op.tocsr().indptr)) <= 9


@pytest.mark.parametrize("advect, anisotropic",
                         [(True, True), (False, True), (True, False)])
@pytest.mark.parametrize("nx, ny", [(3, 3), (5, 4), (8, 8)])
def test_pattern_is_oracle_nonzeros(nx, ny, advect, anisotropic):
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=2, dx=0.8, dy=1.3)
    theta = random_theta(g, nx + ny, advect=advect, anisotropic=anisotropic)
    op = assemble_fdm_operator(theta, 1)
    assert op.has_canonical_format
    assert np.all(op.data != 0)
    assert np.array_equal(op.toarray() != 0,
                          dense_operator_oracle(theta, 1) != 0)


@pytest.mark.parametrize("advect, anisotropic",
                         [(True, True), (False, True), (True, False)])
@pytest.mark.parametrize("nx, ny", [(3, 3), (5, 4), (8, 8)])
def test_table_adjoint_matches_reference(nx, ny, advect, anisotropic):
    # advect=False puts every advection component at exactly 0, where both
    # sides must take the u+ branch
    g = SpaceTimeGrid(nx=nx, ny=ny, nt=3, dx=0.8, dy=1.3)
    theta = random_theta(g, 3 * nx + ny, advect=advect,
                         anisotropic=anisotropic)
    rng = np.random.default_rng(nx * ny)
    for t in range(g.nt):
        l_bar = rng.standard_normal((g.m, g.m))
        ours = {n: np.zeros(g.shape) for n in PARAM_NAMES}
        ref = {n: np.zeros(g.shape) for n in PARAM_NAMES}
        operator_adjoint(l_bar, theta, t, ours)
        operator_adjoint_reference(l_bar, theta, t, ref)
        for name in PARAM_NAMES:
            scale = max(np.max(np.abs(ref[name])), 1e-300)
            assert np.max(np.abs(ours[name] - ref[name])) <= 1e-12 * scale


def test_table_adjoint_is_transpose_of_assembly():
    # <l_bar, dL> equals <theta_bar, dtheta> for a perturbation that keeps
    # every advection sign, where L is linear in (kappa^2, m, H)
    g = SpaceTimeGrid(nx=5, ny=4, nt=2, dx=0.8, dy=1.3)
    theta = random_theta(g, 21)
    rng = np.random.default_rng(5)
    l_bar = rng.standard_normal((g.m, g.m))
    grads = {n: np.zeros(g.shape) for n in PARAM_NAMES}
    operator_adjoint(l_bar, theta, 1, grads)
    names = ("m_u", "m_v", "h11", "h12", "h22")
    arrays = theta.field_arrays()
    step = {n: 1e-3 * arrays[n] * rng.random(g.shape) for n in names}
    moved = theta.replace_fields(**{n: arrays[n] + step[n] for n in names})
    d_op = (assemble_fdm_operator(moved, 1)
            - assemble_fdm_operator(theta, 1)).toarray()
    lhs = np.sum(l_bar * d_op)
    rhs = sum(np.sum(grads[n][1] * step[n][1]) for n in names)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_table_built_once_per_grid():
    g = SpaceTimeGrid(nx=6, ny=5, nt=2, dx=0.8, dy=1.3)
    theta = random_theta(g, 8)
    _stencil_table.cache_clear()
    for _ in range(99):
        assemble_fdm_operator(theta, 1)
    info = _stencil_table.cache_info()
    assert (info.misses, info.hits) == (1, 98)


def test_non_spd_cell_raises_with_coordinates():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    h12 = np.zeros(g.shape)
    h12[1, 2, 3] = 5.0                          # det = 1 - 25 < 0
    theta = ParamFields.stationary(g).replace_fields(h12=h12)
    with pytest.raises(InvalidParams, match=r"t=1, y=2, x=3"):
        assemble_fdm_operator(theta, 1)
    # other slabs stay assemblable
    assemble_fdm_operator(theta, 0)


def test_fractional_alpha2_is_core():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    core = assemble_fdm_operator(random_theta(g, 1), 0)
    handle = apply_fractional(core, 2)
    v = np.random.default_rng(0).standard_normal(g.m)
    assert np.array_equal(handle.to_sparse() @ v, core @ v)
    assert (handle.to_sparse() != core).nnz == 0


def test_fractional_alpha4_matches_double_apply():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    core = assemble_fdm_operator(random_theta(g, 2), 0)
    handle = apply_fractional(core, 4)
    v = np.random.default_rng(1).standard_normal(g.m)
    assert np.max(np.abs(handle.to_sparse() @ v - core @ (core @ v))) < 1e-14


def test_fractional_alpha4_dense_power_oracle():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    core = assemble_fdm_operator(random_theta(g, 3), 0)
    dense_sq = np.linalg.matrix_power(core.toarray(), 2)
    v = np.random.default_rng(2).standard_normal(g.m)
    power = apply_fractional(core, 4).to_sparse()
    assert np.max(np.abs(power @ v - dense_sq @ v)) < 1e-10
    assert np.max(np.abs(apply_fractional(core, 4).to_sparse().toarray()
                         - dense_sq)) < 1e-10


@pytest.mark.parametrize("alpha", [1, 3, 0, -2])
def test_fractional_rejects_bad_alpha(alpha):
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    core = assemble_fdm_operator(ParamFields.stationary(g), 0)
    with pytest.raises(UnsupportedAlpha):
        apply_fractional(core, alpha)


def test_validate_clean_params():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    report = validate_params(ParamFields.stationary(g))
    assert report.ok and not report.advisories


def test_validate_flags_spd_violation_cell():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    h12 = np.zeros(g.shape)
    h12[0, 1, 1] = 5.0
    report = validate_params(ParamFields.stationary(g).replace_fields(h12=h12))
    assert not report.ok
    assert [v.cell for v in report.violations] == [(0, 1, 1)]
    assert report.violations[0].kind == "non_spd_diffusion"


def test_validate_stability_advisory():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    report = validate_params(ParamFields.stationary(g, kappa=10.0))
    # dt * (0 + 2*1*(1+1) + 100) = 104 over the default threshold 50
    assert report.stability_statistic == pytest.approx(104.0)
    assert report.advisories and report.ok


def test_projection_idempotent_on_valid():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    theta = random_theta(g, 4)
    again = project_params(theta)
    assert again is theta


def test_projection_repairs_invalid():
    g = SpaceTimeGrid(nx=4, ny=4, nt=2)
    kappa = np.full(g.shape, -1.0)
    h12 = np.full(g.shape, 3.0)                 # det = 1 - 9 < 0
    theta = ParamFields.stationary(g).replace_fields(kappa=kappa, h12=h12)
    fixed = project_params(theta)
    assert validate_params(fixed).ok
    # projecting again changes nothing
    again = project_params(fixed)
    assert again is fixed
    # the repaired tensor keeps its top eigenvalue direction
    h11, h12v, h22 = (fixed.h11.values[0, 0, 0], fixed.h12.values[0, 0, 0],
                      fixed.h22.values[0, 0, 0])
    eigs = np.linalg.eigvalsh(np.array([[h11, h12v], [h12v, h22]]))
    assert eigs.min() >= 1e-6 - 1e-12
    assert eigs.max() == pytest.approx(4.0)     # (1+3+...) top eig of [[1,3],[3,1]]
