"""End-to-end command-line runs in temporary directories."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spdekit
from spdekit import oi, read_array, read_field
from spdekit.cli import main

BASE = """
[grid]
nx = 6
ny = 6
nt = 4

[params]
source = preset
kappa = 0.8
h11 = 0.5
h22 = 0.5
tau = 1.0

[observations]
pattern = random
density = 0.3
noise_var = 0.05
source = simulate

[sampler]
p0_mode = white
n_members = 3
burn_in = 10

[solver]
n_iterations = 40
step = adam
lr = 0.3
eps = 10.0

[fit]
trajectories = sim/member_*.stgf
max_steps = 3
stationary = true
grad_mode = trace
lr = 0.02

[run]
seed = 5
out_dir = out
"""


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "experiment.cfg").write_text(BASE, encoding="utf-8")
    return tmp_path


def _run(workdir, command, **overrides):
    args = [command, "--config", str(workdir / "experiment.cfg")]
    for key, value in overrides.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return main(args)


def test_simulate_writes_members_and_manifest(workdir):
    out = workdir / "out"
    assert _run(workdir, "simulate", out_dir=out) == 0
    members = sorted(out.glob("member_*.stgf"))
    assert len(members) == 3
    manifest = (out / "manifest.txt").read_text()
    assert "config_sha256" in manifest and "seed = 5" in manifest
    field = read_field(members[0])
    assert field.values.shape == (4, 6, 6)


def test_simulate_bit_reproducible(workdir):
    assert _run(workdir, "simulate", out_dir=workdir / "a") == 0
    assert _run(workdir, "simulate", out_dir=workdir / "b") == 0
    for name in ["member_0000.stgf", "member_0002.stgf"]:
        assert (workdir / "a" / name).read_bytes() == \
            (workdir / "b" / name).read_bytes()


def test_interpolate_twin(workdir):
    out = workdir / "oi"
    assert _run(workdir, "interpolate", out_dir=out) == 0
    assert (out / "x_star.stgf").is_file()
    assert (out / "truth.stgf").is_file()
    assert (out / "observations.mask.stgf").is_file()
    assert (out / "metrics.csv").is_file()
    text = (out / "metrics.csv").read_text()
    assert "mu_score" in text


def test_interpolate_from_observation_files(workdir):
    twin = workdir / "oi"
    assert _run(workdir, "interpolate", out_dir=twin) == 0
    cfg = BASE.replace("source = simulate",
                       f"source = files\nobs_file = oi/observations")
    (workdir / "experiment.cfg").write_text(cfg, encoding="utf-8")
    out = workdir / "oi2"
    assert _run(workdir, "interpolate", out_dir=out) == 0
    a = read_array(twin / "x_star.stgf")
    b = read_array(out / "x_star.stgf")
    assert np.array_equal(a, b)


def test_joint_solve_outputs(workdir):
    out = workdir / "joint"
    assert _run(workdir, "joint-solve", out_dir=out) == 0
    assert (out / "x_star.stgf").is_file()
    assert (out / "theta_star" / "kappa.stgf").is_file()
    diag = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert diag[0].startswith("iteration,cost")
    assert len(diag) == 41


def _alternating_config(workdir, extra=""):
    # 4x4x3, alternating x and theta steps from a burn-in start
    (workdir / "experiment.cfg").write_text(
        BASE.replace("nx = 6\nny = 6\nnt = 4", "nx = 4\nny = 4\nnt = 3")
        .replace("p0_mode = white", "p0_mode = burnin")
        .replace("n_iterations = 40", "n_iterations = 6\n"
                 "update_mode = alternating\nx_steps = 1\ntheta_steps = 1\n"
                 "theta_lr = 0.01" + extra),
        encoding="utf-8")


@pytest.mark.parametrize("key", ["theta_stationary", "theta_expected"])
def test_bad_theta_gradient_key_exits_2(workdir, capsys, key):
    _alternating_config(workdir, f"\n{key} = banana")
    assert _run(workdir, "joint-solve", out_dir=workdir / "x") == 2
    assert f"[solver] {key} = 'banana': expected true/false" in \
        capsys.readouterr().err


def test_expected_theta_gradient_above_the_dense_guard_exits_3(
        workdir, capsys, monkeypatch):
    # refused before the first iteration: no state gradient, no x_star
    from spdekit import solver
    _alternating_config(workdir, "\ntheta_expected = true")
    monkeypatch.setattr(oi, "DENSE_GUARD", 4 * 4 * 3 - 1)
    calls = []
    state_gradient = solver._state_gradient

    def counted(*args):
        calls.append(1)
        return state_gradient(*args)

    monkeypatch.setattr(solver, "_state_gradient", counted)
    out = workdir / "x"
    assert _run(workdir, "joint-solve", out_dir=out) == 3
    assert "numerical failure: the expected-moments gradient's dense " \
        "posterior Cholesky refused at dimension 48 (limit 47)" in \
        capsys.readouterr().err
    assert calls == [] and not (out / "x_star.stgf").exists()


def test_theta_stationary_keeps_every_field_flat(workdir):
    from spdekit.experiment import read_theta
    from spdekit.grid import SpaceTimeGrid
    grid = SpaceTimeGrid(nx=4, ny=4, nt=3)
    fields = {}
    for flag in ("false", "true"):
        _alternating_config(workdir, f"\ntheta_stationary = {flag}")
        out = workdir / flag
        assert _run(workdir, "joint-solve", out_dir=out) == 0
        fields[flag] = read_theta(out / "theta_star", grid).field_arrays()
    for name, values in fields["true"].items():
        assert np.ptp(values) == 0.0, name
    # per cell, the fields move apart (slab 0 has no gradient)
    assert np.ptp(fields["false"]["tau"]) > 0.0


def test_theta_expected_matches_run_solver(workdir):
    import dataclasses

    from spdekit.cli import _solver_config
    from spdekit.experiment import (build_grid, build_theta, load_config,
                                    read_observations, read_theta)
    from spdekit.grid import Trajectory
    from spdekit.solver import run_solver
    _alternating_config(workdir)
    cfg = load_config(workdir / "experiment.cfg")
    _alternating_config(workdir, "\ntheta_expected = true")
    out = workdir / "expected"
    assert _run(workdir, "joint-solve", out_dir=out) == 0
    grid = build_grid(cfg)
    theta0 = build_theta(cfg, grid)
    result = run_solver(Trajectory.zeros(grid), theta0,
                        read_observations(out / "observations", grid),
                        dataclasses.replace(_solver_config(cfg),
                                            theta_expected=True))
    assert np.array_equal(read_array(out / "x_star.stgf"),
                          result.x.states.reshape(grid.shape))
    theta = read_theta(out / "theta_star", grid).field_arrays()
    for name, values in result.theta.field_arrays().items():
        assert np.array_equal(theta[name], values), name


def test_sample_posterior_outputs(workdir):
    out = workdir / "post"
    assert _run(workdir, "sample-posterior", out_dir=out) == 0
    assert (out / "posterior_mean.stgf").is_file()
    assert (out / "posterior_std.stgf").is_file()
    assert len(list(out.glob("member_*.stgf"))) == 3
    std = read_array(out / "posterior_std.stgf")
    assert np.all(std >= 0)


def test_fit_command(workdir):
    assert _run(workdir, "simulate", out_dir=workdir / "sim") == 0
    out = workdir / "fitted"
    assert _run(workdir, "fit", out_dir=out) == 0
    assert (out / "theta_star" / "tau.stgf").is_file()
    loss = (out / "loss.csv").read_text().strip().splitlines()
    assert loss[0] == "step,nll"
    assert len(loss) == 5                        # header + start + 3 steps


def test_fit_at_alpha_4_takes_the_exact_gradient(workdir):
    (workdir / "experiment.cfg").write_text(
        BASE.replace("tau = 1.0", "tau = 1.0\nalpha = 4"), encoding="utf-8")
    assert _run(workdir, "simulate", out_dir=workdir / "sim") == 0
    out = workdir / "fitted"
    assert _run(workdir, "fit", out_dir=out) == 0
    loss = (out / "loss.csv").read_text().strip().splitlines()
    assert len(loss) == 5
    assert all(math.isfinite(float(row.split(",")[1])) for row in loss[1:])


def test_retired_gradient_keys_are_ignored(workdir):
    # configs written when [fit] grad_mode and [solver] theta_grad_mode
    # picked the gradient still run, silently and to the same bits: alpha
    # picks it now
    assert "grad_mode = trace" in BASE
    assert _run(workdir, "simulate", out_dir=workdir / "sim") == 0
    outputs = []
    for old, new in [("grad_mode = trace\n", ""),
                     ("grad_mode = trace", "grad_mode = trace"),
                     ("grad_mode = trace", "grad_mode = finite_diff"),
                     ("[solver]\n", "[solver]\nupdate_mode = joint\n"),
                     ("[solver]\n", "[solver]\nupdate_mode = joint\n"
                      "theta_grad_mode = finite_diff\n")]:
        (workdir / "experiment.cfg").write_text(BASE.replace(old, new),
                                                encoding="utf-8")
        out = workdir / f"run{len(outputs)}"
        command = "joint-solve" if "joint" in new else "fit"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(workdir, command, out_dir=out) == 0, new
        outputs.append({p.relative_to(out): p.read_bytes()
                        for p in sorted(out.rglob("*"))
                        if p.is_file() and p.name != "manifest.txt"})
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[3] == outputs[4]


def test_fit_into_a_degenerate_burnin_exits_3(workdir, capsys):
    assert _run(workdir, "simulate", out_dir=workdir / "sim") == 0
    params = ("kappa = 1e-6\nm_u = -2452\nm_v = 2699\nh11 = 1e-6\n"
              "h22 = 1e-6\ntau = 1.2e5\nalpha = 4\n")
    cfg = BASE.replace("kappa = 0.8\nh11 = 0.5\nh22 = 0.5\ntau = 1.0\n",
                       params).replace("p0_mode = white", "p0_mode = burnin")
    assert params in cfg and "p0_mode = burnin" in cfg
    (workdir / "experiment.cfg").write_text(cfg, encoding="utf-8")
    assert _run(workdir, "fit", out_dir=workdir / "x") == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "t=1" in err \
        and "burn-in marginal" in err


def test_readme_config_keys_are_all_read():
    # every key of the README's config reference is read by the CLI
    import re
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = spdekit.experiment.parse_config(example)
    src = Path(spdekit.__file__).resolve().parent
    code = "".join((src / name).read_text(encoding="utf-8")
                   for name in ("cli.py", "experiment.py"))
    keys = list(cfg.items())
    assert len(keys) > 50
    for section, key, _ in keys:
        call = rf'cfg\.get_\w+\(\s*"{section}",\s*"{key}"'
        assert re.search(call, code), f"[{section}] {key}"


def test_evaluate_command(workdir):
    assert _run(workdir, "interpolate", out_dir=workdir / "oi") == 0
    cfg = BASE + "\n[evaluate]\ntruth = oi/truth.stgf\nestimate = oi/x_star.stgf\n"
    (workdir / "experiment.cfg").write_text(cfg, encoding="utf-8")
    out = workdir / "scores"
    assert _run(workdir, "evaluate", out_dir=out) == 0
    assert (out / "metrics.csv").is_file()


def test_benchmark_command(workdir):
    cfg = BASE + "\n[benchmark]\nsizes = 6\nnt = 3\nmethods = direct_sparse,pcg\n"
    (workdir / "experiment.cfg").write_text(cfg, encoding="utf-8")
    out = workdir / "bench"
    assert _run(workdir, "benchmark", out_dir=out) == 0
    rows = (out / "benchmark.csv").read_text().strip().splitlines()
    assert rows[0].startswith("nx,ny,nt,dim,method")
    assert len(rows) == 3


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_value_exits_2(workdir, capsys):
    (workdir / "experiment.cfg").write_text(
        BASE.replace("nx = 6", "nx = banana"), encoding="utf-8")
    assert _run(workdir, "simulate", out_dir=workdir / "x") == 2
    # an unknown choice is refused before any work, naming the allowed ones
    for command, old, new, message in [
            ("simulate", "p0_mode = white", "p0_mode = whte",
             "[sampler] p0_mode = 'whte': expected one of burnin, white"),
            ("interpolate", "p0_mode = white", "p0_mode = whte",
             "[sampler] p0_mode = 'whte': expected one of burnin, white"),
            ("interpolate", "[solver]\n", "[solver]\noi_method = qr\n",
             "[solver] oi_method = 'qr': expected one of direct, pcg"),
            ("joint-solve", "[solver]\n", "[solver]\nupdate_mode = both\n",
             "[solver] update_mode = 'both': expected one of x_only, joint, "
             "alternating"),
            ("joint-solve", "step = adam", "step = sgd",
             "[solver] step = 'sgd': expected one of plain, momentum, adam"),
            ("simulate", "tau = 1.0", "tau = 1.0\nalpha = 3",
             "[params] alpha = '3': expected one of 2, 4, 6"),
            ("joint-solve", "[solver]\n",
             "[solver]\ntheta_params = kappa,kapa\n",
             "[solver] theta_params = 'kappa,kapa': expected one of kappa, "
             "m_u"),
            ("benchmark", "[solver]\n", "[benchmark]\nsizes = 4,x\n[solver]\n",
             "[benchmark] sizes = '4,x': 'x' is not a positive integer"),
            ("benchmark", "[solver]\n", "[benchmark]\nsizes = 4,0\n[solver]\n",
             "[benchmark] sizes = '4,0': '0' is not a positive integer"),
            # values the library refuses are refused before the twin files
            ("joint-solve", "[solver]\n",
             "[solver]\nupdate_mode = alternating\nx_steps = 0\n"
             "theta_steps = 0\n",
             "[solver] x_steps = 0 and theta_steps = 0: their sum must be"),
            ("joint-solve", "[solver]\n", "[solver]\ntheta_steps = -1\n",
             "[solver] theta_steps = -1: must be >= 0"),
            ("joint-solve", "n_iterations = 40", "n_iterations = 0",
             "[solver] n_iterations = 0: must be >= 1"),
            ("joint-solve", "[solver]\n", "[solver]\nlambda = 0\n",
             "[solver] lambda = 0.0: must be > 0"),
            ("simulate", "n_members = 3", "n_members = 0",
             "[sampler] n_members = 0: must be >= 1"),
            ("sample-posterior", "n_members = 3", "n_members = 0",
             "[sampler] n_members = 0: must be >= 1"),
            ("interpolate", "noise_var = 0.05", "noise_var = 0",
             "[observations] noise_var = 0.0: must be > 0"),
            ("interpolate", "density = 0.3", "density = 0",
             "[observations] density = 0.0: must be in (0, 1]"),
            ("sample-posterior", "density = 0.3", "density = 1.5",
             "[observations] density = 1.5: must be in (0, 1]"),
            ("interpolate", "pattern = random",
             "pattern = tracks\nn_tracks = 0",
             "[observations] n_tracks = 0: must be >= 1"),
            ("interpolate", "pattern = random",
             "pattern = tracks\nwidth = 0.5",
             "[observations] width = 0.5: must be >= 1"),
            ("interpolate", "pattern = random",
             "pattern = blocks\nn_blocks = -1",
             "[observations] n_blocks = -1: must be >= 0"),
            ("joint-solve", "pattern = random",
             "pattern = blocks\nblock_ny = 0",
             "[observations] block_ny = 0: must be >= 1"),
            ("interpolate", "pattern = random",
             "pattern = blocks\nblock_ny = -3",
             "[observations] block_ny = -3: must be >= 1"),
            ("interpolate", "pattern = random",
             "pattern = blocks\nblock_nx = 0",
             "[observations] block_nx = 0: must be >= 1"),
            ("interpolate", "burn_in = 10", "burn_in = 10\nsigma0 = -1.0",
             "[sampler] sigma0 = -1.0: must be > 0"),
            ("sample-posterior", "burn_in = 10", "burn_in = 10\nsigma0 = 0",
             "[sampler] sigma0 = 0.0: must be > 0"),
            ("joint-solve", "burn_in = 10", "burn_in = 10\nsigma0 = 0",
             "[sampler] sigma0 = 0.0: must be > 0"),
            ("fit", "burn_in = 10", "burn_in = 10\nsigma0 = 0",
             "[sampler] sigma0 = 0.0: must be > 0"),
            ("simulate", "burn_in = 10", "burn_in = 10\nsigma0 = -1.0",
             "[sampler] sigma0 = -1.0: must be >= 0"),
            ("fit", "max_steps = 3", "max_steps = -3",
             "[fit] max_steps = -3: must be >= 0"),
            ("benchmark", "[solver]\n", "[benchmark]\nsizes = 2\n[solver]\n",
             "[benchmark] sizes = '2': '2' is not a positive integer >= 3"),
            ("benchmark", "[solver]\n", "[benchmark]\nnt = 1\n[solver]\n",
             "[benchmark] nt = 1: must be >= 2"),
            ("benchmark", "[solver]\n", "[benchmark]\ndensity = 0\n[solver]\n",
             "[benchmark] density = 0.0: must be in (0, 1]"),
            ("benchmark", "[solver]\n",
             "[benchmark]\ndensity = 1.5\n[solver]\n",
             "[benchmark] density = 1.5: must be in (0, 1]")]:
        (workdir / "experiment.cfg").write_text(BASE.replace(old, new),
                                                encoding="utf-8")
        out = workdir / "bad"
        assert _run(workdir, command, out_dir=out) == 2, (command, new)
        assert message in capsys.readouterr().err
        assert not list(out.glob("*.stgf")), (command, new)
        assert not list(out.glob("*.csv")), (command, new)


def test_simulate_accepts_zero_sigma0(workdir):
    # prior draws may start from x_0 = 0; only a precision needs sigma0 > 0
    (workdir / "experiment.cfg").write_text(
        BASE.replace("burn_in = 10", "burn_in = 10\nsigma0 = 0"),
        encoding="utf-8")
    out = workdir / "out"
    assert _run(workdir, "simulate", out_dir=out) == 0
    assert np.all(read_array(out / "member_0000.stgf")[0] == 0.0)


@pytest.mark.parametrize("command", ["simulate", "interpolate"])
def test_negative_burn_in_exits_2(workdir, capsys, command):
    (workdir / "experiment.cfg").write_text(
        BASE.replace("burn_in = 10", "burn_in = -1"), encoding="utf-8")
    assert _run(workdir, command, out_dir=workdir / "x") == 2
    assert "[sampler] burn_in = -1" in capsys.readouterr().err


def test_numerical_failure_exits_3(workdir, capsys):
    (workdir / "experiment.cfg").write_text(
        BASE.replace("tau = 1.0", "tau = 1e-12"), encoding="utf-8")
    assert _run(workdir, "interpolate", out_dir=workdir / "x") == 3
    assert "numerical failure" in capsys.readouterr().err


def test_failed_member_solve_exits_3(workdir, capsys, monkeypatch):
    # x_star rides as column 0 of the first member block's solve, so the
    # three members and x_star are one call; a failed column names member
    # 1, or x_star
    solve_system = oi.PosteriorSolver._solve_system
    calls = []
    spoiled = []

    def spoil_column(self, rhs):
        x = solve_system(self, rhs)
        calls.append(rhs.shape[1])
        x[:, spoiled[0]] = 0.0
        return x

    monkeypatch.setattr(oi.PosteriorSolver, "_solve_system", spoil_column)
    for column, name in ((2, "member 1"), (0, "x_star")):
        spoiled[:] = [column]
        calls.clear()
        assert _run(workdir, "sample-posterior", out_dir=workdir / "x") == 3
        assert f"numerical failure: {name}: posterior solve residual" in \
            capsys.readouterr().err
        assert calls == [4]


def test_threads_option_is_refused(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(workdir, "simulate", out_dir=workdir / "x", threads=2)
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_module_entry_point(workdir):
    out = workdir / "out_mod"
    # the child imports the same spdekit as the tests, installed or not
    src = str(Path(spdekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spdekit", "simulate",
         "--config", str(workdir / "experiment.cfg"),
         "--out-dir", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.txt").is_file()
