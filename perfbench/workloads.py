"""The four benchmark workloads: seeded input files and one CLI op each.

Every workload writes its inputs (parameter fields, observation triplet,
config, and for the fit the trajectories) into a work directory during
set-up. The timed op is one ``spdekit.cli.main([...])`` call that receives
only those files; ``[observations] source = files`` keeps the twin draw out
of the timed region. ``--threads`` is never passed.

Why each workload exists and which layer it isolates is documented in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from spdekit import cli
from spdekit.experiment import (read_observations, read_theta,
                                write_observations, write_theta)
from spdekit.grid import SpaceTimeGrid, Trajectory, read_field
from spdekit.operators import ParamFields
from spdekit.precision import ObservationSet
from spdekit.state_space import sample_prior

NOISE_VAR = 0.05
OBS_DENSITY = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    nx: int
    nt: int
    work_unit: str         # what one unit of `work_per_s` counts
    work_per_op: int
    config: str            # experiment.cfg body after the [grid] section

    def grid(self) -> SpaceTimeGrid:
        return SpaceTimeGrid(nx=self.nx, ny=self.nx, nt=self.nt)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="interp_burnin", command="interpolate", nx=24, nt=10,
        work_unit="interpolations", work_per_op=1,
        config="""
[params]
source = files
theta_dir = theta

[observations]
source = files
obs_file = obs/pass1

[sampler]
p0_mode = burnin
burn_in = 20

[solver]
oi_method = direct
"""),
    Workload(
        name="ensemble_white", command="sample-posterior", nx=24, nt=10,
        work_unit="members", work_per_op=100,
        config="""
[params]
source = files
theta_dir = theta

[observations]
source = files
obs_file = obs/pass1

[sampler]
p0_mode = white
sigma0 = 1.0
n_members = 100
"""),
    Workload(
        name="fit_trace", command="fit", nx=16, nt=10,
        work_unit="fit_steps", work_per_op=10,
        config="""
[params]
source = files
theta_dir = theta0

[sampler]
p0_mode = white
sigma0 = 1.0

[fit]
trajectories = sim/member_*.stgf
max_steps = 10
stationary = false
grad_mode = trace
step = adam
lr = 0.05
"""),
    Workload(
        name="joint_alternating", command="joint-solve", nx=16, nt=10,
        work_unit="solver_iters", work_per_op=22,
        config="""
[params]
source = files
theta_dir = theta0

[observations]
source = files
obs_file = obs/pass1

[sampler]
p0_mode = burnin
burn_in = 20

[solver]
n_iterations = 22
step = adam
lr = 0.1
update_mode = alternating
x_steps = 10
theta_steps = 1
theta_step = plain
theta_lr = 0.001
"""),
)}

# fit and joint-solve start from parameters away from the truth, so that
# their descent has work to do; fixed factors keep every seed well posed
_START_FACTORS = {"kappa": 1.3, "m_u": 0.5, "m_v": 0.5, "h11": 1.2,
                  "h12": 0.0, "h22": 0.8, "tau": 0.85}


def true_params(grid: SpaceTimeGrid, seed: int) -> ParamFields:
    """Stationary parameters drawn from the seed inside a stable range.

    The advection components stay positive: their signs pick the upwind
    neighbours, so fixed signs give every seed the same sparsity pattern
    and therefore the same factorization work.
    """
    rng = np.random.default_rng((seed, 1))
    return ParamFields.stationary(
        grid,
        kappa=rng.uniform(0.4, 0.6),
        m=(rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)),
        h=(rng.uniform(0.6, 1.0), rng.uniform(-0.2, 0.2),
           rng.uniform(0.6, 1.0)),
        tau=rng.uniform(0.8, 1.2))


def start_params(theta: ParamFields) -> ParamFields:
    arrays = theta.field_arrays()
    return theta.replace_fields(
        **{n: arrays[n] * f for n, f in _START_FACTORS.items()})


def _run_cli(args: list[str]) -> int:
    """One CLI call with its progress line captured instead of printed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(args)


def write_inputs(work: Workload, seed: int, root: Path) -> Path:
    """Write every input file of one workload under root; return the config.

    The same seed writes the same bytes.
    """
    grid = work.grid()
    root.mkdir(parents=True, exist_ok=True)
    theta = true_params(grid, seed)
    if work.name in ("fit_trace", "joint_alternating"):
        write_theta(start_params(theta), root / "theta0")
    else:
        write_theta(theta, root / "theta")
    header = (f"[grid]\nnx = {grid.nx}\nny = {grid.ny}\nnt = {grid.nt}\n"
              f"{work.config}\n[run]\nseed = {seed}\nout_dir = out\n")
    cfg = root / "experiment.cfg"
    cfg.write_text(header, encoding="utf-8")

    if work.name == "fit_trace":
        write_theta(theta, root / "theta_true")
        (root / "simulate.cfg").write_text(
            f"[grid]\nnx = {grid.nx}\nny = {grid.ny}\nnt = {grid.nt}\n"
            "[params]\nsource = files\ntheta_dir = theta_true\n"
            "[sampler]\np0_mode = white\nsigma0 = 1.0\nn_members = 20\n"
            f"[run]\nseed = {seed}\nout_dir = sim\n", encoding="utf-8")
        code = _run_cli(["simulate", "--config", str(root / "simulate.cfg")])
        if code != 0:
            raise RuntimeError(f"spdekit simulate exited with {code}")
        return cfg

    p0_mode = "white" if work.name == "ensemble_white" else "burnin"
    truth = sample_prior(theta, grid, n_members=1, base_seed=seed,
                         p0_mode=p0_mode).members[0]
    mask = np.random.default_rng((seed, 2)).random(grid.shape) < OBS_DENSITY
    obs = ObservationSet.from_truth(truth, mask, NOISE_VAR,
                                    seed=int(np.random.default_rng(
                                        (seed, 3)).integers(2**31)))
    write_observations(obs, root / "obs" / "pass1")
    return cfg


def run_op(work: Workload, cfg: Path, out_dir: Path) -> int:
    """The timed op: the workload's CLI command, outputs into out_dir."""
    return _run_cli([work.command, "--config", str(cfg),
                     "--out-dir", str(out_dir)])


# --- outputs -----------------------------------------------------------------

def csv_column(path: Path, column: str) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    k = header.index(column)
    return np.array([float(line.split(",")[k]) for line in lines[1:]])


def read_outputs(work: Workload, out_dir: Path) -> dict[str, np.ndarray]:
    """The checked outputs of one op, by name, as float64 arrays."""
    grid = work.grid()
    out: dict[str, np.ndarray] = {}
    if work.name in ("interp_burnin", "ensemble_white", "joint_alternating"):
        out["x_star"] = read_field(out_dir / "x_star.stgf", grid).values
    if work.name == "ensemble_white":
        for name in ("posterior_mean", "posterior_std"):
            out[name] = read_field(out_dir / f"{name}.stgf", grid).values
        members = sorted(out_dir.glob("member_*.stgf"))
        out["n_member_files"] = np.array([float(len(members))])
    if work.name in ("fit_trace", "joint_alternating"):
        theta = read_theta(out_dir / "theta_star", grid)
        for name, values in theta.field_arrays().items():
            out[f"theta_star.{name}"] = values
    if work.name == "fit_trace":
        out["loss"] = csv_column(out_dir / "loss.csv", "nll")
    if work.name == "joint_alternating":
        for column in ("cost", "data_term", "prior_term", "grad_norm",
                       "blocks_rebuilt"):
            out[f"diagnostics.{column}"] = csv_column(
                out_dir / "diagnostics.csv", column)
    return out


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    """Raw bytes of every output file, the manifest included."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _read_trajectories(directory: Path,
                       grid: SpaceTimeGrid) -> list[np.ndarray]:
    return [Trajectory.from_field(read_field(p, grid)).states
            for p in sorted(directory.glob("member_*.stgf"))]


def oracle_problems(work: Workload, inputs: Path, out: Path) -> list[str]:
    """Check one op's outputs against the independent oracles in checks.py."""
    grid = work.grid()
    outputs = read_outputs(work, out)
    if work.name == "fit_trace":
        theta0 = read_theta(inputs / "theta0", grid)
        theta_star = read_theta(out / "theta_star", grid)
        return checks.check_fit(outputs["loss"],
                                checks.Model(theta0, "white"),
                                checks.Model(theta_star, "white"),
                                _read_trajectories(inputs / "sim", grid))
    obs = read_observations(inputs / "obs" / "pass1", grid)
    if work.name == "joint_alternating":
        theta_star = read_theta(out / "theta_star", grid)
        return checks.check_joint(outputs, checks.Model(theta_star, "burnin"),
                                  obs, lam=1.0)
    theta = read_theta(inputs / "theta", grid)
    if work.name == "interp_burnin":
        return checks.check_posterior_mean(
            outputs["x_star"], checks.Model(theta, "burnin"), obs)
    problems = checks.check_posterior_mean(
        outputs["x_star"], checks.Model(theta, "white"), obs)
    return problems + checks.check_ensemble(
        outputs, _read_trajectories(out, grid), n_members=work.work_per_op)
