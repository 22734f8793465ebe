"""End-to-end command-line runs in temporary directories."""

import os
import subprocess
import sys
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
             "[observations] noise_var = 0.0: must be > 0")]:
        (workdir / "experiment.cfg").write_text(BASE.replace(old, new),
                                                encoding="utf-8")
        out = workdir / "bad"
        assert _run(workdir, command, out_dir=out) == 2, (command, new)
        assert message in capsys.readouterr().err
        assert not list(out.glob("*.stgf")), (command, new)


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
    # the x_star solve is the first call, member 1's block the second
    solve_system = oi.PosteriorSolver._solve_system
    calls = []

    def spoil_members(self, rhs):
        x = solve_system(self, rhs)
        calls.append(rhs.shape[1])
        if len(calls) == 2:
            x[:, 1] = 0.0
        return x

    monkeypatch.setattr(oi.PosteriorSolver, "_solve_system", spoil_members)
    assert _run(workdir, "sample-posterior", out_dir=workdir / "x") == 3
    assert "numerical failure: member 1: posterior solve residual" in \
        capsys.readouterr().err
    assert calls == [1, 3]


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
