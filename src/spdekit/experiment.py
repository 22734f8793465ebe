"""Experiment configuration, synthetic observing patterns, metrics, benchmark.

Config files are UTF-8 ``key = value`` lines under ``[section]`` headers
with ``#`` comments; booleans are true/false; paths are resolved relative
to the config file. The grammar is documented in the README.
"""

from __future__ import annotations

import configparser
import hashlib
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oi
from .errors import ConfigError
from .grid import (SpaceTimeGrid, Trajectory, read_array, read_field,
                   write_array)
from .oi import PosteriorSolver, oi_solve_dense_oracle
from .operators import ParamFields
from .precision import ObservationSet, assemble_block_precision

PARAM_FILE_KEYS = ("kappa", "m_u", "m_v", "diffusion", "tau")
POSITIVE = (lambda v: v > 0, "must be > 0")
FRACTION = (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")


# --- configuration -----------------------------------------------------------

class ExperimentConfig:
    """Typed access to a parsed experiment config."""

    def __init__(self, parser: configparser.ConfigParser,
                 base_dir: Path, text: str, path: Path | None = None):
        self.parser = parser
        self.base_dir = base_dir
        self.text = text
        self.path = path

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()

    def has(self, section: str, key: str) -> bool:
        return self.parser.has_option(section, key)

    def _raw(self, section: str, key: str, default=None, required=False):
        if not self.parser.has_option(section, key):
            if required:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        return self.parser.get(section, key)

    def get_str(self, section, key, default=None, required=False):
        return self._raw(section, key, default, required)

    def get_int(self, section, key, default=None, required=False,
                minimum=None):
        """An integer; with minimum given, a smaller one is a ConfigError."""
        raw = self._raw(section, key, default, required)
        if raw is default and not isinstance(raw, str):
            return raw
        try:
            value = int(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: not an integer") \
                from exc
        if minimum is not None and value < minimum:
            raise ConfigError(f"[{section}] {key} = {value}: must be >= "
                              f"{minimum}")
        return value

    def get_float(self, section, key, default=None, required=False,
                  valid=None):
        """A number; with valid = (test, rule) given, a value that fails
        test is a ConfigError quoting rule."""
        raw = self._raw(section, key, default, required)
        if raw is default and not isinstance(raw, str):
            return raw
        try:
            value = float(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: not a number") \
                from exc
        if valid is not None and not valid[0](value):
            raise ConfigError(f"[{section}] {key} = {value}: {valid[1]}")
        return value

    def get_bool(self, section, key, default=None, required=False):
        raw = self._raw(section, key, default, required)
        if raw is default and not isinstance(raw, str):
            return raw
        if raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        raise ConfigError(f"[{section}] {key} = {raw!r}: expected true/false")

    def get_choice(self, section, key, choices, default=None, many=False):
        """One of choices, or with many=True a tuple of comma-separated
        ones; any other value is a ConfigError naming the allowed ones."""
        raw = self._raw(section, key, default)
        if raw is None:
            return None
        items = [s.strip() for s in raw.split(",") if s.strip()] if many \
            else [raw]
        if any(item not in choices for item in items):
            raise ConfigError(f"[{section}] {key} = {raw!r}: expected one of "
                              f"{', '.join(choices)}")
        return tuple(items) if many else raw

    def get_path(self, section, key, default=None, required=False):
        raw = self._raw(section, key, default, required)
        if raw is None:
            return None
        return (self.base_dir / raw).resolve()

    def items(self):
        for section in self.parser.sections():
            for key, value in self.parser.items(section):
                yield section, key, value


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    return parse_config(text, base_dir=path.parent, path=path)


def parse_config(text: str, base_dir=".", path=None) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return ExperimentConfig(parser, Path(base_dir), text, path)


def build_grid(cfg: ExperimentConfig) -> SpaceTimeGrid:
    try:
        return SpaceTimeGrid(
            nx=cfg.get_int("grid", "nx", required=True),
            ny=cfg.get_int("grid", "ny", required=True),
            nt=cfg.get_int("grid", "nt", required=True),
            dx=cfg.get_float("grid", "dx", 1.0),
            dy=cfg.get_float("grid", "dy", 1.0),
            dt=cfg.get_float("grid", "dt", 1.0))
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def build_theta(cfg: ExperimentConfig, grid: SpaceTimeGrid) -> ParamFields:
    source = cfg.get_choice("params", "source", ("preset", "files"),
                            "preset")
    alpha = int(cfg.get_choice("params", "alpha", ("2", "4", "6"), "2"))
    if source == "preset":
        return ParamFields.stationary(
            grid,
            kappa=cfg.get_float("params", "kappa", 1.0),
            m=(cfg.get_float("params", "m_u", 0.0),
               cfg.get_float("params", "m_v", 0.0)),
            h=(cfg.get_float("params", "h11", 1.0),
               cfg.get_float("params", "h12", 0.0),
               cfg.get_float("params", "h22", 1.0)),
            tau=cfg.get_float("params", "tau", 1.0),
            alpha=alpha)
    stem = cfg.get_path("params", "theta_dir", required=True)
    return read_theta(stem, grid, alpha=alpha)


# --- parameter and observation files -----------------------------------------

def write_theta(theta: ParamFields, directory) -> None:
    """Five field files: kappa, m_u, m_v, diffusion (h11/h12/h22 stacked), tau."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_array(theta.kappa.values, directory / "kappa.stgf")
    write_array(theta.m_u.values, directory / "m_u.stgf")
    write_array(theta.m_v.values, directory / "m_v.stgf")
    diffusion = np.stack([theta.h11.values, theta.h12.values,
                          theta.h22.values])
    write_array(diffusion, directory / "diffusion.stgf")
    write_array(theta.tau.values, directory / "tau.stgf")


def read_theta(directory, grid: SpaceTimeGrid, alpha: int = 2) -> ParamFields:
    directory = Path(directory)
    kappa = read_field(directory / "kappa.stgf", grid).values
    m_u = read_field(directory / "m_u.stgf", grid).values
    m_v = read_field(directory / "m_v.stgf", grid).values
    diffusion = read_array(directory / "diffusion.stgf")
    if diffusion.shape != (3, *grid.shape):
        raise ConfigError(
            f"diffusion.stgf has shape {diffusion.shape}, expected "
            f"{(3, *grid.shape)}")
    tau = read_field(directory / "tau.stgf", grid).values
    return ParamFields.from_arrays(grid, kappa, m_u, m_v,
                                   diffusion[0], diffusion[1], diffusion[2],
                                   tau, alpha=alpha)


def write_observations(obs: ObservationSet, stem) -> None:
    """Triplet <stem>.mask/.values/.noise.stgf (dense, zeros off the mask)."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    grid = obs.grid
    write_array(obs.mask.astype(np.float32), f"{stem}.mask.stgf")
    dense = np.zeros(grid.dim)
    dense[obs.indices] = obs.values
    write_array(dense.reshape(grid.shape), f"{stem}.values.stgf")
    dense = np.zeros(grid.dim)
    dense[obs.indices] = obs.noise_var
    write_array(dense.reshape(grid.shape), f"{stem}.noise.stgf")


def read_observations(stem, grid: SpaceTimeGrid) -> ObservationSet:
    mask = read_array(f"{stem}.mask.stgf") > 0.5
    if mask.shape != grid.shape:
        raise ConfigError(f"observation mask shape {mask.shape} != grid "
                          f"{grid.shape}")
    values = read_field(f"{stem}.values.stgf", grid).values
    noise = read_field(f"{stem}.noise.stgf", grid).values
    flat = np.flatnonzero(mask.reshape(-1))
    return ObservationSet(grid, mask, values.reshape(-1)[flat],
                          noise.reshape(-1)[flat])


# --- observation masks --------------------------------------------------------

@dataclass(frozen=True)
class RandomPattern:
    density: float

    def __post_init__(self):
        if not 0.0 < self.density <= 1.0:
            raise ConfigError(f"density must be in (0, 1], got {self.density}")


@dataclass(frozen=True)
class TracksPattern:
    """Thin straight tracks per slab, offsets cycling slab to slab."""

    n_tracks: int
    width: float = 1.0
    angle_range: tuple[float, float] = (25.0, 65.0)

    def __post_init__(self):
        if self.n_tracks < 1:
            raise ConfigError("n_tracks must be >= 1")
        if self.width < 1:
            raise ConfigError("track width must be >= 1 cell")


@dataclass(frozen=True)
class BlocksPattern:
    """Observe everything except n_blocks random rectangles per slab."""

    n_blocks: int
    block_ny: int
    block_nx: int

    def __post_init__(self):
        if self.n_blocks < 0:
            raise ConfigError(f"n_blocks must be >= 0, got {self.n_blocks}")
        if self.block_ny < 1 or self.block_nx < 1:
            raise ConfigError(f"block sides must be >= 1 cell, got "
                              f"{self.block_ny} x {self.block_nx}")


def generate_obs_mask(grid: SpaceTimeGrid, pattern, seed: int = 0
                      ) -> np.ndarray:
    """Boolean (nt, ny, nx) mask for the requested observing pattern."""
    rng = np.random.default_rng(seed)
    if isinstance(pattern, RandomPattern):
        return rng.random(grid.shape) < pattern.density
    if isinstance(pattern, TracksPattern):
        return _tracks_mask(grid, pattern, rng)
    if isinstance(pattern, BlocksPattern):
        mask = np.ones(grid.shape, dtype=bool)
        bny = min(pattern.block_ny, grid.ny)
        bnx = min(pattern.block_nx, grid.nx)
        for t in range(grid.nt):
            for _ in range(pattern.n_blocks):
                y0 = int(rng.integers(0, grid.ny - bny + 1))
                x0 = int(rng.integers(0, grid.nx - bnx + 1))
                mask[t, y0:y0 + bny, x0:x0 + bnx] = False
        return mask
    raise ConfigError(f"unknown observation pattern {pattern!r}")


def _tracks_mask(grid: SpaceTimeGrid, pattern: TracksPattern, rng
                 ) -> np.ndarray:
    """Rasterize straight tracks: a cell is observed when its center lies
    within width/2 (cell units) of the track line. Track k of slab t sits
    at the perpendicular offset ((k + 1/2)/n + t/(n*nt) mod 1) across the
    projected grid extent, so single-track, single-slab masks are centered
    (a 45-degree track on a square grid is exactly the main diagonal)."""
    nt, ny, nx = grid.shape
    mask = np.zeros(grid.shape, dtype=bool)
    xs, ys = np.meshgrid(np.arange(nx, dtype=float),
                         np.arange(ny, dtype=float))
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    lo, hi = pattern.angle_range
    for t in range(nt):
        for k in range(pattern.n_tracks):
            angle = np.deg2rad(rng.uniform(lo, hi)) if hi > lo \
                else np.deg2rad(lo)
            normal = (-np.sin(angle), np.cos(angle))
            extent = abs(normal[0]) * (nx - 1) + abs(normal[1]) * (ny - 1)
            frac = ((k + 0.5) / pattern.n_tracks
                    + t / (pattern.n_tracks * nt)) % 1.0
            offset = (frac - 0.5) * extent
            dist = np.abs((xs - cx) * normal[0] + (ys - cy) * normal[1]
                          - offset)
            mask[t] |= dist < pattern.width / 2.0
    return mask


def pattern_from_config(cfg: ExperimentConfig) -> object:
    kind = cfg.get_choice("observations", "pattern",
                          ("random", "tracks", "blocks"), "random")
    if kind == "random":
        return RandomPattern(cfg.get_float("observations", "density", 0.2,
                                           valid=FRACTION))
    if kind == "tracks":
        return TracksPattern(
            n_tracks=cfg.get_int("observations", "n_tracks", 3, minimum=1),
            width=cfg.get_float("observations", "width", 1.0,
                                valid=(lambda v: v >= 1.0, "must be >= 1")),
            angle_range=(cfg.get_float("observations", "angle_min", 25.0),
                         cfg.get_float("observations", "angle_max", 65.0)))
    return BlocksPattern(
        n_blocks=cfg.get_int("observations", "n_blocks", 2, minimum=0),
        block_ny=cfg.get_int("observations", "block_ny", 4, minimum=1),
        block_nx=cfg.get_int("observations", "block_nx", 4, minimum=1))


# --- metrics ------------------------------------------------------------------

@dataclass
class Metrics:
    mu_score: float
    sigma_score: float
    global_rmse: float
    slab_scores: list[float]
    skipped_slabs: list[int] = field(default_factory=list)


def evaluate(x_star: Trajectory, x_true: Trajectory) -> Metrics:
    """Normalized per-slab skill: s_t = 1 - RMSE_t / RMS_t(truth).

    mu/sigma are the mean and standard deviation of s_t over slabs; slabs
    with zero truth RMS are excluded with a warning. Simultaneous spatial
    permutation of both inputs leaves every score unchanged.
    """
    if x_star.grid != x_true.grid:
        raise ValueError("trajectories live on different grids")
    diff = x_star.states - x_true.states
    rmse_t = np.sqrt(np.mean(diff**2, axis=1))
    rms_t = np.sqrt(np.mean(x_true.states**2, axis=1))
    scores, skipped = [], []
    for t in range(x_true.grid.nt):
        if rms_t[t] == 0.0:
            skipped.append(t)
            continue
        scores.append(1.0 - rmse_t[t] / rms_t[t])
    if skipped:
        warnings.warn(f"slabs {skipped} have zero truth RMS; score "
                      "undefined there, excluded")
    arr = np.asarray(scores)
    return Metrics(
        mu_score=float(arr.mean()) if arr.size else float("nan"),
        sigma_score=float(arr.std()) if arr.size else float("nan"),
        global_rmse=float(np.sqrt(np.mean(diff**2))),
        slab_scores=[float(s) for s in scores],
        skipped_slabs=skipped)


def _resolved_scale(truth: np.ndarray, err: np.ndarray, step: float
                    ) -> float:
    """Wavelength where 1 - PSD(err)/PSD(truth) crosses 0.5 (periodogram).

    Approximate reimplementation of the minimal-resolved-scale score; not
    a certified match of any external evaluation pipeline.
    """
    n = truth.shape[-1]
    if n < 4:
        return float("nan")
    p_truth = np.mean(np.abs(np.fft.rfft(truth, axis=-1))**2, axis=0)
    p_err = np.mean(np.abs(np.fft.rfft(err, axis=-1))**2, axis=0)
    freqs = np.fft.rfftfreq(n, d=step)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = 1.0 - p_err / p_truth
    # scan from the largest scale down to the first failure
    for i in range(1, len(freqs)):
        if not np.isfinite(score[i]):
            continue
        if score[i] < 0.5:
            if i == 1:
                return float("nan")
            # linear interpolation in frequency between the neighbors
            f_lo, f_hi = freqs[i - 1], freqs[i]
            s_lo, s_hi = score[i - 1], score[i]
            if s_lo == s_hi:
                return float(1.0 / f_hi)
            f_cross = f_lo + (s_lo - 0.5) * (f_hi - f_lo) / (s_lo - s_hi)
            return float(1.0 / f_cross)
    return float(1.0 / freqs[-1])


def resolved_scales(x_star: Trajectory, x_true: Trajectory
                    ) -> tuple[float, float]:
    """(spatial, temporal) minimal resolved scales in grid units."""
    grid = x_true.grid
    truth = x_true.states.reshape(grid.nt, grid.ny, grid.nx)
    err = (x_true.states - x_star.states).reshape(grid.nt, grid.ny, grid.nx)
    lam_x = _resolved_scale(truth.reshape(-1, grid.nx),
                            err.reshape(-1, grid.nx), grid.dx)
    truth_t = np.moveaxis(x_true.states, 0, -1)      # (m, nt)
    err_t = np.moveaxis(x_true.states - x_star.states, 0, -1)
    lam_t = _resolved_scale(truth_t, err_t, grid.dt)
    return lam_x, lam_t


# --- benchmark ----------------------------------------------------------------

@dataclass
class BenchmarkRow:
    nx: int
    ny: int
    nt: int
    dim: int
    method: str
    wall_time: float
    nnz: int
    n_blocks: int
    residual: float
    iterations: int
    max_diff_vs_direct: float


def benchmark(sizes, nt: int = 10, obs_density: float = 0.2,
              methods=("dense", "direct_sparse", "pcg"), seed: int = 0,
              p0_mode: str = "white") -> list[BenchmarkRow]:
    """Time the interpolation paths over a ladder of grid sizes.

    The dense path is skipped automatically above oi.DENSE_GUARD.
    All methods that run must agree on the posterior mean.
    """
    from .precision import apply_precision, posterior_precision

    rows: list[BenchmarkRow] = []
    for size in sizes:
        grid = SpaceTimeGrid(nx=size, ny=size, nt=nt)
        theta = ParamFields.stationary(grid, kappa=0.6, h=(0.8, 0.0, 0.8),
                                       tau=1.0)
        rng = np.random.default_rng((seed, size))
        mask = rng.random(grid.shape) < obs_density
        n_obs = int(mask.sum())
        values = rng.standard_normal(n_obs)
        obs = ObservationSet(grid, mask, values, np.full(n_obs, 0.05))
        q = assemble_block_precision(theta, grid, p0_mode=p0_mode)
        qp = posterior_precision(q, obs)
        rhs = np.zeros(grid.dim)
        rhs[obs.indices] = obs.values / obs.noise_var
        rhs_norm = float(np.linalg.norm(rhs))

        size_rows: list[BenchmarkRow] = []
        results: dict[str, Trajectory] = {}
        for method in methods:
            t0 = time.perf_counter()
            iterations = 0
            if method == "dense":
                if grid.dim > oi.DENSE_GUARD:
                    continue
                x = oi_solve_dense_oracle(theta, grid, obs, p0_mode=p0_mode)
            elif method == "direct_sparse":
                solver = PosteriorSolver(q, obs, method="direct")
                x = solver.solve()
            elif method == "pcg":
                solver = PosteriorSolver(q, obs, method="pcg", tol=1e-10)
                x = solver.solve()
                iterations = solver.last_pcg.iterations
            else:
                raise ConfigError(f"unknown benchmark method {method!r}")
            wall = time.perf_counter() - t0
            results[method] = x
            resid = float(np.linalg.norm(
                rhs - apply_precision(qp, x.states).reshape(-1)) / rhs_norm)
            size_rows.append(BenchmarkRow(
                nx=size, ny=size, nt=nt, dim=grid.dim, method=method,
                wall_time=wall, nnz=q.nnz, n_blocks=2 * grid.nt - 1,
                residual=resid, iterations=iterations,
                max_diff_vs_direct=float("nan")))
        if "direct_sparse" in results:
            ref = results["direct_sparse"].flat
            for row in size_rows:
                row.max_diff_vs_direct = float(np.max(np.abs(
                    results[row.method].flat - ref)))
        rows.extend(size_rows)
    return rows


def benchmark_csv(rows: list[BenchmarkRow], path) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nx", "ny", "nt", "dim", "method", "wall_time",
                         "nnz", "n_blocks", "residual", "iterations",
                         "max_diff_vs_direct"])
        for r in rows:
            writer.writerow([r.nx, r.ny, r.nt, r.dim, r.method,
                             f"{r.wall_time:.6f}", r.nnz, r.n_blocks,
                             f"{r.residual:.3e}", r.iterations,
                             f"{r.max_diff_vs_direct:.3e}"])
