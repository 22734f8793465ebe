"""Observation patterns, metrics, config parsing, file round trips, benchmark."""

import numpy as np
import pytest

from spdekit import oi
from spdekit import (BlocksPattern, ParamFields, RandomPattern, SpaceTimeGrid,
                     TracksPattern, Trajectory, benchmark, evaluate,
                     generate_obs_mask, read_observations, read_theta,
                     resolved_scales, sample_prior, write_observations,
                     write_theta)
from spdekit.errors import ConfigError
from spdekit.experiment import parse_config, build_grid, build_theta
from spdekit.precision import ObservationSet

from oracles import random_theta


def test_random_pattern_full_density():
    g = SpaceTimeGrid(nx=5, ny=4, nt=3)
    mask = generate_obs_mask(g, RandomPattern(1.0), seed=0)
    assert mask.all()


def test_random_pattern_frozen_popcount():
    # fixed-seed regression value captured at first run
    g = SpaceTimeGrid(nx=20, ny=20, nt=5)
    mask = generate_obs_mask(g, RandomPattern(0.1), seed=1234)
    assert int(mask.sum()) == 193
    again = generate_obs_mask(g, RandomPattern(0.1), seed=1234)
    assert np.array_equal(mask, again)


def test_diagonal_track_is_main_diagonal():
    g = SpaceTimeGrid(nx=10, ny=10, nt=2)
    mask = generate_obs_mask(
        g, TracksPattern(n_tracks=1, width=1.0, angle_range=(45.0, 45.0)),
        seed=0)
    assert np.array_equal(mask[0], np.eye(10, dtype=bool))


def test_tracks_reported_fraction_reasonable():
    g = SpaceTimeGrid(nx=20, ny=20, nt=4)
    mask = generate_obs_mask(g, TracksPattern(n_tracks=3, width=2.0),
                             seed=5)
    frac = mask.mean()
    assert 0.05 < frac < 0.5
    # per-slab offsets differ from slab to slab
    assert not np.array_equal(mask[0], mask[1])


def test_blocks_pattern_cuts_rectangles():
    g = SpaceTimeGrid(nx=12, ny=12, nt=3)
    mask = generate_obs_mask(g, BlocksPattern(n_blocks=2, block_ny=4,
                                              block_nx=4), seed=2)
    assert not mask.all()
    missing = (~mask).sum(axis=(1, 2))
    assert np.all(missing >= 16)                 # at least one full block


@pytest.mark.parametrize("n_blocks,block_ny,block_nx",
                         [(2, -3, 4), (-1, 4, 4), (2, 0, 4)])
def test_blocks_pattern_refuses_bad_sizes(n_blocks, block_ny, block_nx):
    # unchecked, these observed 0.778 of a 6x6x3 grid through negative
    # slice stops, or every cell
    with pytest.raises(ConfigError):
        BlocksPattern(n_blocks, block_ny, block_nx)


def test_blocks_pattern_without_blocks_observes_everything():
    g = SpaceTimeGrid(nx=6, ny=6, nt=3)
    assert generate_obs_mask(g, BlocksPattern(0, 4, 4), seed=1).all()


def test_evaluate_perfect_and_zero():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    rng = np.random.default_rng(0)
    truth = Trajectory.from_flat(g, rng.standard_normal(g.dim))
    perfect = evaluate(truth.copy(), truth)
    assert perfect.mu_score == pytest.approx(1.0)
    assert perfect.sigma_score == pytest.approx(0.0)
    assert perfect.global_rmse == 0.0
    zero = evaluate(Trajectory.zeros(g), truth)
    assert zero.mu_score == pytest.approx(0.0)


def test_evaluate_skips_empty_slabs_with_warning():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    states = np.ones((g.nt, g.m))
    states[1] = 0.0
    truth = Trajectory(g, states)
    with pytest.warns(UserWarning, match="zero truth RMS"):
        metrics = evaluate(Trajectory.zeros(g), truth)
    assert metrics.skipped_slabs == [1]
    assert len(metrics.slab_scores) == 2


def test_evaluate_permutation_invariance():
    g = SpaceTimeGrid(nx=4, ny=4, nt=3)
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((g.nt, g.m))
    est = truth + 0.3 * rng.standard_normal((g.nt, g.m))
    perm = rng.permutation(g.m)
    a = evaluate(Trajectory(g, est), Trajectory(g, truth))
    b = evaluate(Trajectory(g, est[:, perm]), Trajectory(g, truth[:, perm]))
    assert a.mu_score == pytest.approx(b.mu_score)
    assert a.sigma_score == pytest.approx(b.sigma_score)
    assert a.global_rmse == pytest.approx(b.global_rmse)


def test_resolved_scales_roughly_ordered():
    g = SpaceTimeGrid(nx=16, ny=16, nt=8)
    theta = ParamFields.stationary(g, kappa=0.4, h=(0.6, 0.0, 0.6), tau=1.0)
    truth = sample_prior(theta, g, n_members=1, base_seed=0).members[0]
    rng = np.random.default_rng(1)
    slightly_off = Trajectory(g, truth.states
                              + 0.05 * rng.standard_normal((g.nt, g.m)))
    badly_off = Trajectory(g, truth.states
                           + 1.0 * rng.standard_normal((g.nt, g.m)))
    lx_good, lt_good = resolved_scales(slightly_off, truth)
    lx_bad, lt_bad = resolved_scales(badly_off, truth)
    # a noisier estimate resolves only coarser scales (or nothing at all)
    assert np.isnan(lx_bad) or lx_bad >= lx_good


CONFIG = """
# sample experiment file
[grid]
nx = 6
ny = 5
nt = 4
dx = 1.0        # unit grid
dy = 1.0
dt = 1.0

[params]
source = preset
kappa = 0.5
tau = 1.0
h11 = 0.8
h22 = 0.8
alpha = 2

[observations]
pattern = random
density = 0.3
noise_var = 0.05

[sampler]
p0_mode = white
n_members = 2

[run]
seed = 3
out_dir = out
"""


def test_config_parse_and_defaults(tmp_path):
    cfg = parse_config(CONFIG, base_dir=tmp_path)
    grid = build_grid(cfg)
    assert grid.shape == (4, 5, 6)
    theta = build_theta(cfg, grid)
    assert theta.kappa.values[0, 0, 0] == 0.5
    assert theta.m_u.values.max() == 0.0          # defaulted
    assert cfg.get_int("run", "seed") == 3
    assert cfg.get_path("run", "out_dir") == (tmp_path / "out").resolve()
    assert cfg.get_bool("fit", "stationary", True) is True


def test_config_errors():
    with pytest.raises(ConfigError, match="missing"):
        build_grid(parse_config("[grid]\nnx = 4\n"))
    with pytest.raises(ConfigError, match="not an integer"):
        parse_config("[grid]\nnx = four\n").get_int("grid", "nx")
    with pytest.raises(ConfigError, match="true/false"):
        parse_config("[a]\nflag = yes\n").get_bool("a", "flag")
    with pytest.raises(ConfigError):
        parse_config("not a config at all [")
    bad_grid = parse_config("[grid]\nnx = 1\nny = 5\nnt = 4\n")
    with pytest.raises(ConfigError, match="bad grid"):
        build_grid(bad_grid)


def test_theta_file_roundtrip(tmp_path):
    g = SpaceTimeGrid(nx=4, ny=5, nt=3)
    theta = random_theta(g, 3)
    write_theta(theta, tmp_path / "theta")
    back = read_theta(tmp_path / "theta", g)
    for name, arr in theta.field_arrays().items():
        assert np.array_equal(back.field_arrays()[name], arr), name


def test_observation_file_roundtrip(tmp_path):
    g = SpaceTimeGrid(nx=5, ny=4, nt=3)
    rng = np.random.default_rng(4)
    mask = rng.random(g.shape) < 0.25
    n = int(mask.sum())
    obs = ObservationSet(g, mask, rng.standard_normal(n),
                         0.01 + 0.1 * rng.random(n))
    write_observations(obs, tmp_path / "obs")
    back = read_observations(tmp_path / "obs", g)
    assert np.array_equal(back.mask, obs.mask)
    assert np.array_equal(back.values, obs.values)
    assert np.array_equal(back.noise_var, obs.noise_var)


def test_benchmark_smoke():
    rows = benchmark(sizes=(6,), nt=4, obs_density=0.3,
                     methods=("dense", "direct_sparse", "pcg"), seed=0)
    methods = {r.method for r in rows}
    assert methods == {"dense", "direct_sparse", "pcg"}
    for row in rows:
        assert row.residual < 1e-6
        assert row.max_diff_vs_direct < 1e-6
        if row.method == "pcg":
            assert row.iterations > 0


def test_benchmark_dense_guard_skips(monkeypatch):
    monkeypatch.setattr(oi, "DENSE_GUARD", 100)
    rows = benchmark(sizes=(10,), nt=4, obs_density=0.2,
                     methods=("dense", "direct_sparse"), seed=0)
    assert {r.method for r in rows} == {"direct_sparse"}
