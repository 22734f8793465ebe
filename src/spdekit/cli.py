"""Command-line surface.

    spdekit <subcommand> --config experiment.cfg [--seed N] [--out-dir D]

Subcommands: simulate, interpolate, joint-solve, sample-posterior, fit,
evaluate, benchmark. Every run writes a manifest (config hash, seeds,
version) into the output directory so results can be reproduced
bit-identically.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, SpdekitError
from .estimation import PARAM_NAMES, fit_params
from .experiment import (ExperimentConfig, benchmark, benchmark_csv,
                         build_grid, build_theta, evaluate, generate_obs_mask,
                         load_config, pattern_from_config, read_observations,
                         resolved_scales, write_observations, write_theta)
from .grid import Trajectory, read_field, write_field
from .oi import PosteriorSolver, oi_solve_precision
from .precision import ObservationSet, assemble_block_precision
from .solver import SolverConfig, run_solver
from .state_space import sample_prior
from .uncertainty import conditional_sample, ensemble_stats

_P0_MODES = ("burnin", "white")
_STEP_KINDS = ("plain", "momentum", "adam")
_GRAD_MODES = ("trace", "finite_diff")


def _write_manifest(cfg: ExperimentConfig, args, out_dir: Path,
                    extra: dict | None = None) -> None:
    lines = ["[manifest]",
             f"command = {args.command}",
             f"version = {__version__}",
             f"config = {cfg.path}",
             f"config_sha256 = {cfg.sha256}",
             f"seed = {args.seed}",
             f"out_dir = {out_dir}"]
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    lines.append("")
    lines.append("[config]  # resolved key = value entries")
    for section, key, value in cfg.items():
        lines.append(f"{section}.{key} = {value}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")


def _sampler_opts(cfg: ExperimentConfig) -> dict:
    return dict(p0_mode=cfg.get_choice("sampler", "p0_mode", _P0_MODES,
                                       "burnin"),
                sigma0=cfg.get_float("sampler", "sigma0", 1.0),
                burn_in=cfg.get_int("sampler", "burn_in", 20, minimum=0))


def _load_or_make_obs(cfg, grid, theta, seed, out_dir):
    """Observations from a file triplet, or synthesized twin observations.

    The twin path draws one prior trajectory as truth, masks it with the
    configured pattern, adds N(0, R) noise, and writes truth + observation
    files next to the outputs.
    """
    source = cfg.get_choice("observations", "source", ("simulate", "files"),
                            "simulate")
    if source == "files":
        stem = cfg.get_path("observations", "obs_file", required=True)
        return read_observations(stem, grid), None
    noise_var = cfg.get_float("observations", "noise_var", 0.01)
    if not noise_var > 0:
        raise ConfigError(f"[observations] noise_var = {noise_var}: "
                          "must be > 0")
    pattern = pattern_from_config(cfg)
    mask = generate_obs_mask(grid, pattern, seed=seed + 1)
    truth = sample_prior(theta, grid, n_members=1, base_seed=seed,
                         **_sampler_opts(cfg)).members[0]
    obs = ObservationSet.from_truth(truth, mask, noise_var, seed=seed + 2)
    write_field(truth.to_field(), out_dir / "truth.stgf")
    write_observations(obs, out_dir / "observations")
    return obs, truth


def _cmd_simulate(cfg, args, out_dir):
    grid = build_grid(cfg)
    theta = build_theta(cfg, grid)
    n_members = cfg.get_int("sampler", "n_members", 1, minimum=1)
    ens = sample_prior(theta, grid, n_members=n_members, base_seed=args.seed,
                       **_sampler_opts(cfg))
    for i, member in enumerate(ens.members):
        write_field(member.to_field(), out_dir / f"member_{i:04d}.stgf")
    _write_manifest(cfg, args, out_dir, {"n_members": n_members})
    print(f"wrote {n_members} prior trajectories to {out_dir}")
    return 0


def _cmd_interpolate(cfg, args, out_dir):
    grid = build_grid(cfg)
    theta = build_theta(cfg, grid)
    method = cfg.get_choice("solver", "oi_method", ("direct", "pcg"),
                            "direct")
    obs, truth = _load_or_make_obs(cfg, grid, theta, args.seed, out_dir)
    q = assemble_block_precision(theta, grid, **_sampler_opts(cfg))
    x_star = oi_solve_precision(q, obs, method=method)
    write_field(x_star.to_field(), out_dir / "x_star.stgf")
    extra = {"n_obs": obs.n_obs,
             "obs_fraction": f"{obs.n_obs / grid.dim:.4f}"}
    if truth is not None:
        metrics = evaluate(x_star, truth)
        _metrics_csv(out_dir / "metrics.csv", metrics, x_star, truth)
        extra["mu_score"] = f"{metrics.mu_score:.4f}"
    _write_manifest(cfg, args, out_dir, extra)
    print(f"interpolated {obs.n_obs} observations -> {out_dir / 'x_star.stgf'}")
    return 0


def _solver_config(cfg: ExperimentConfig) -> SolverConfig:
    step = {"kind": cfg.get_choice("solver", "step", _STEP_KINDS, "adam"),
            "lr": cfg.get_float("solver", "lr", 0.1)}
    if step["kind"] == "momentum":
        step["beta"] = cfg.get_float("solver", "beta", 0.9)
    elif step["kind"] == "adam":
        step["beta1"] = cfg.get_float("solver", "beta1", 0.9)
        step["beta2"] = cfg.get_float("solver", "beta2", 0.999)
        step["eps"] = cfg.get_float("solver", "eps", 1e-2)
    theta_step = {"kind": cfg.get_choice("solver", "theta_step", _STEP_KINDS,
                                         "plain"),
                  "lr": cfg.get_float("solver", "theta_lr", 1e-3)}
    sampler = _sampler_opts(cfg)
    lam = cfg.get_float("solver", "lambda", 1.0)
    if not lam > 0:
        raise ConfigError(f"[solver] lambda = {lam}: must be > 0")
    x_steps = cfg.get_int("solver", "x_steps", 10, minimum=0)
    theta_steps = cfg.get_int("solver", "theta_steps", 1, minimum=0)
    if x_steps + theta_steps < 1:
        raise ConfigError("[solver] x_steps = 0 and theta_steps = 0: "
                          "their sum must be >= 1")
    return SolverConfig(
        n_iterations=cfg.get_int("solver", "n_iterations", 200, minimum=1),
        step=step,
        lam=lam,
        update_mode=cfg.get_choice("solver", "update_mode",
                                   ("x_only", "joint", "alternating"),
                                   "x_only"),
        x_steps=x_steps,
        theta_steps=theta_steps,
        theta_step=theta_step,
        theta_params=cfg.get_choice("solver", "theta_params", PARAM_NAMES,
                                    ",".join(PARAM_NAMES), many=True),
        theta_grad_mode=cfg.get_choice("solver", "theta_grad_mode",
                                       _GRAD_MODES, "trace"),
        p0_mode=sampler["p0_mode"], sigma0=sampler["sigma0"],
        burn_in=sampler["burn_in"])


def _cmd_joint_solve(cfg, args, out_dir):
    grid = build_grid(cfg)
    theta0 = build_theta(cfg, grid)
    solver_cfg = _solver_config(cfg)
    obs, truth = _load_or_make_obs(cfg, grid, theta0, args.seed, out_dir)
    result = run_solver(Trajectory.zeros(grid), theta0, obs, solver_cfg)
    write_field(result.x.to_field(), out_dir / "x_star.stgf")
    write_theta(result.theta, out_dir / "theta_star")
    with open(out_dir / "diagnostics.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=result.diagnostics_columns())
        writer.writeheader()
        writer.writerows(result.diagnostics)
    extra = {"iterations": solver_cfg.n_iterations,
             "final_cost": f"{result.diagnostics[-1]['cost']:.6g}"}
    if truth is not None:
        extra["mu_score"] = f"{evaluate(result.x, truth).mu_score:.4f}"
    _write_manifest(cfg, args, out_dir, extra)
    print(f"joint solve finished: cost {extra['final_cost']}")
    return 0


def _cmd_sample_posterior(cfg, args, out_dir):
    grid = build_grid(cfg)
    theta = build_theta(cfg, grid)
    n_members = cfg.get_int("sampler", "n_members", 100, minimum=1)
    obs, _ = _load_or_make_obs(cfg, grid, theta, args.seed, out_dir)
    q = assemble_block_precision(theta, grid, **_sampler_opts(cfg))
    post = PosteriorSolver(q, obs)
    x_star = post.solve()
    ens = conditional_sample(x_star, post, n_members=n_members,
                             base_seed=args.seed)
    mean, std = ensemble_stats(ens)
    write_field(x_star.to_field(), out_dir / "x_star.stgf")
    write_field(mean.to_field(), out_dir / "posterior_mean.stgf")
    write_field(std.to_field(), out_dir / "posterior_std.stgf")
    for i, member in enumerate(ens.members):
        write_field(member.to_field(), out_dir / f"member_{i:04d}.stgf")
    _write_manifest(cfg, args, out_dir, {"n_members": n_members})
    print(f"wrote {n_members} posterior members to {out_dir}")
    return 0


def _cmd_fit(cfg, args, out_dir):
    grid = build_grid(cfg)
    theta0 = build_theta(cfg, grid)
    traj_glob = cfg.get_str("fit", "trajectories", required=True)
    paths = sorted(cfg.base_dir.glob(traj_glob))
    if not paths:
        raise ConfigError(f"[fit] trajectories = {traj_glob!r}: no files")
    trajectories = [Trajectory.from_field(read_field(p, grid)) for p in paths]
    sampler = _sampler_opts(cfg)
    theta_star, curve = fit_params(
        trajectories, theta0,
        step_kind=cfg.get_choice("fit", "step", _STEP_KINDS, "adam"),
        step_params={"lr": cfg.get_float("fit", "lr", 0.02)},
        max_steps=cfg.get_int("fit", "max_steps", 100),
        stationary=cfg.get_bool("fit", "stationary", True),
        grad_mode=cfg.get_choice("fit", "grad_mode", _GRAD_MODES),
        **sampler)
    write_theta(theta_star, out_dir / "theta_star")
    with open(out_dir / "loss.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "nll"])
        writer.writerows(enumerate(curve))
    _write_manifest(cfg, args, out_dir,
                    {"n_trajectories": len(trajectories),
                     "final_nll": f"{min(curve):.6g}"})
    print(f"fit over {len(trajectories)} trajectories: "
          f"nll {curve[0]:.4f} -> {min(curve):.4f}")
    return 0


def _metrics_csv(path, metrics, x_star, truth):
    lam_x, lam_t = resolved_scales(x_star, truth)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerow(["mu_score", f"{metrics.mu_score:.6f}"])
        writer.writerow(["sigma_score", f"{metrics.sigma_score:.6f}"])
        writer.writerow(["global_rmse", f"{metrics.global_rmse:.6e}"])
        writer.writerow(["lambda_x_approx", f"{lam_x:.4f}"])
        writer.writerow(["lambda_t_approx", f"{lam_t:.4f}"])
        for t, s in enumerate(metrics.slab_scores):
            writer.writerow([f"score_t{t}", f"{s:.6f}"])


def _cmd_evaluate(cfg, args, out_dir):
    grid = build_grid(cfg)
    truth_path = cfg.get_path("evaluate", "truth", required=True)
    est_path = cfg.get_path("evaluate", "estimate", required=True)
    truth = Trajectory.from_field(read_field(truth_path, grid))
    est = Trajectory.from_field(read_field(est_path, grid))
    metrics = evaluate(est, truth)
    _metrics_csv(out_dir / "metrics.csv", metrics, est, truth)
    _write_manifest(cfg, args, out_dir,
                    {"mu_score": f"{metrics.mu_score:.4f}",
                     "sigma_score": f"{metrics.sigma_score:.4f}"})
    print(f"mu(score) = {metrics.mu_score:.4f}, "
          f"sigma(score) = {metrics.sigma_score:.4f}, "
          f"rmse = {metrics.global_rmse:.4e}")
    return 0


def _cmd_benchmark(cfg, args, out_dir):
    sizes_raw = cfg.get_str("benchmark", "sizes", "8,12,16,24")
    sizes = []
    for item in (s.strip() for s in sizes_raw.split(",")):
        if item:
            try:
                size = int(item)
            except ValueError:
                size = 0
            if size < 1:
                raise ConfigError(f"[benchmark] sizes = {sizes_raw!r}: "
                                  f"{item!r} is not a positive integer")
            sizes.append(size)
    methods = cfg.get_choice("benchmark", "methods",
                             ("dense", "direct_sparse", "pcg"),
                             "dense,direct_sparse,pcg", many=True)
    rows = benchmark(
        sizes,
        nt=cfg.get_int("benchmark", "nt", 10),
        obs_density=cfg.get_float("benchmark", "density", 0.2),
        methods=methods, seed=args.seed,
        p0_mode=cfg.get_choice("benchmark", "p0_mode", _P0_MODES, "white"))
    benchmark_csv(rows, out_dir / "benchmark.csv")
    _write_manifest(cfg, args, out_dir, {"cases": len(rows)})
    for row in rows:
        print(f"{row.dim:>6d} {row.method:>14s} {row.wall_time:9.4f}s "
              f"resid {row.residual:.2e} iters {row.iterations}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "interpolate": _cmd_interpolate,
    "joint-solve": _cmd_joint_solve,
    "sample-posterior": _cmd_sample_posterior,
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "benchmark": _cmd_benchmark,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdekit",
        description="Space-time interpolation with sparse precision priors")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True,
                        help="experiment config file (key = value sections)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override [run] seed")
    parser.add_argument("--out-dir", default=None,
                        help="override [run] out_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is None:
            args.seed = cfg.get_int("run", "seed", required=True)
        out_dir = Path(args.out_dir) if args.out_dir else \
            cfg.get_path("run", "out_dir", required=True)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpdekitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
