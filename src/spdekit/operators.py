"""Non-stationary drift-operator parameters and their finite-difference assembly.

Each time slab gets an m x m sparse operator

    L = kappa^2 I  -  m . grad  -  div(H grad .)

discretized on the cell grid with:

* face-centered fluxes for the axis-aligned diffusion terms (arithmetic
  mean of the cell coefficients on each interior face),
* a central cross stencil for the mixed-derivative term (so the full
  diffusion block stays exactly symmetric),
* first-order upwind differences for the advection term, the upwind side
  picked per cell and per component from the sign of the advection field
  (applied in advective form, which keeps constants in the kernel),
* zero-flux (Neumann) boundary conditions throughout.

Boundary handling is localized in the difference-operator builders below,
so a different closure could be swapped in without touching the assembly.
Every row touches at most itself and its 8 spatial neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import InvalidParams, UnsupportedAlpha
from .grid import Field, SpaceTimeGrid

_SUPPORTED_ALPHA = (2, 4, 6)


def _as_field(grid: SpaceTimeGrid, value, name: str) -> Field:
    if isinstance(value, Field):
        if value.is_single_slab:
            raise ValueError(f"{name} must cover all time slabs")
        return value
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(grid.shape, float(arr))
    return Field(grid, arr)


@dataclass(frozen=True)
class ParamFields:
    """Per-cell, per-slab drift parameters plus the global smoothness power.

    kappa and tau must be strictly positive; (h11, h12, h22) encodes a
    symmetric positive-definite 2x2 tensor per cell. Violations are not
    rejected at construction (updates work on raw fields); use
    ``validate_params`` or ``project_params``.
    """

    grid: SpaceTimeGrid
    kappa: Field
    m_u: Field
    m_v: Field
    h11: Field
    h12: Field
    h22: Field
    tau: Field
    alpha: int = 2

    def __post_init__(self):
        if self.alpha not in _SUPPORTED_ALPHA:
            raise UnsupportedAlpha(
                f"alpha must be one of {_SUPPORTED_ALPHA}, got {self.alpha}")

    @classmethod
    def from_arrays(cls, grid, kappa, m_u, m_v, h11, h12, h22, tau, alpha=2):
        return cls(grid,
                   _as_field(grid, kappa, "kappa"),
                   _as_field(grid, m_u, "m_u"),
                   _as_field(grid, m_v, "m_v"),
                   _as_field(grid, h11, "h11"),
                   _as_field(grid, h12, "h12"),
                   _as_field(grid, h22, "h22"),
                   _as_field(grid, tau, "tau"),
                   alpha)

    @classmethod
    def stationary(cls, grid, kappa=1.0, m=(0.0, 0.0), h=(1.0, 0.0, 1.0),
                   tau=1.0, alpha=2):
        """Spatially and temporally constant parameters."""
        return cls.from_arrays(grid, kappa, m[0], m[1],
                               h[0], h[1], h[2], tau, alpha)

    def replace_fields(self, **arrays) -> "ParamFields":
        """New ParamFields with the named fields replaced by raw arrays."""
        updates = {name: _as_field(self.grid, arr, name)
                   for name, arr in arrays.items()}
        return replace(self, **updates)

    def field_arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name).values
                for name in ("kappa", "m_u", "m_v", "h11", "h12", "h22", "tau")}

    def slab_key(self, t: int) -> bytes:
        """Content digest of slab t, used for lazy reassembly."""
        parts = [getattr(self, n).values[t].tobytes()
                 for n in ("kappa", "m_u", "m_v", "h11", "h12", "h22", "tau")]
        return b"".join(parts) + bytes([self.alpha])


@dataclass
class Violation:
    kind: str
    cell: tuple[int, int, int] | None
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation]
    advisories: list[str]
    stability_statistic: float

    @property
    def ok(self) -> bool:
        return not self.violations


# --- difference operators ----------------------------------------------------

def _slab_index(grid: SpaceTimeGrid) -> np.ndarray:
    return np.arange(grid.m).reshape(grid.ny, grid.nx)


@dataclass(frozen=True)
class SlabNeighbors:
    """Per-cell neighbor indexing shared by assembly and its adjoint.

    xp/xm/yp/ym are clamped at the boundary (reflected ghosts), flattened
    to (m,); the has_* masks flag cells whose face in that direction is
    interior.
    """

    xp: np.ndarray
    xm: np.ndarray
    yp: np.ndarray
    ym: np.ndarray
    has_xp: np.ndarray
    has_xm: np.ndarray
    has_yp: np.ndarray
    has_ym: np.ndarray


def slab_neighbors(grid: SpaceTimeGrid) -> SlabNeighbors:
    ny, nx = grid.ny, grid.nx
    idx = _slab_index(grid)
    xp = np.minimum(np.arange(nx) + 1, nx - 1)
    xm = np.maximum(np.arange(nx) - 1, 0)
    yp = np.minimum(np.arange(ny) + 1, ny - 1)
    ym = np.maximum(np.arange(ny) - 1, 0)
    return SlabNeighbors(
        xp=idx[:, xp].ravel(), xm=idx[:, xm].ravel(),
        yp=idx[yp, :].ravel(), ym=idx[ym, :].ravel(),
        has_xp=np.tile(np.arange(nx) < nx - 1, ny),
        has_xm=np.tile(np.arange(nx) > 0, ny),
        has_yp=np.repeat(np.arange(ny) < ny - 1, nx),
        has_ym=np.repeat(np.arange(ny) > 0, nx))


def _central_diff(grid: SpaceTimeGrid, plus, minus, step) -> sparse.csr_array:
    """Cell-centered difference with reflected (zero-gradient) ghosts."""
    m = grid.m
    rows = np.concatenate([np.arange(m), np.arange(m)])
    cols = np.concatenate([plus, minus])
    c = 1.0 / (2.0 * step)
    vals = np.concatenate([np.full(m, c), np.full(m, -c)])
    out = sparse.csr_array((vals, (rows, cols)), shape=(m, m))
    out.sum_duplicates()
    return out


def _axis_flux_entries(idx_lo, idx_hi, coeff, step):
    """COO entries of a face-flux second-difference along one axis."""
    c = coeff / step**2
    rows = np.concatenate([idx_lo, idx_hi, idx_lo, idx_hi])
    cols = np.concatenate([idx_lo, idx_hi, idx_hi, idx_lo])
    vals = np.concatenate([c, c, -c, -c])
    return rows, cols, vals


def _upwind_entries(idx, vel, axis_neighbors, step):
    """COO entries of -vel * d/daxis with per-cell upwind differencing.

    axis_neighbors = (idx_plus, idx_minus, has_plus, has_minus) where the
    has_* masks flag interior faces; boundary terms vanish under the
    reflected-ghost closure.
    """
    idx_p, idx_m, has_p, has_m = axis_neighbors
    v = vel.ravel()
    pos = (v > 0) & has_p
    neg = (v < 0) & has_m
    rows = np.concatenate([idx[pos], idx[pos], idx[neg], idx[neg]])
    cols = np.concatenate([idx[pos], idx_p[pos], idx[neg], idx_m[neg]])
    vals = np.concatenate([v[pos] / step, -v[pos] / step,
                           -v[neg] / step, v[neg] / step])
    return rows, cols, vals


def assemble_fdm_operator(theta: ParamFields, t: int,
                          grid: SpaceTimeGrid | None = None) -> sparse.csr_array:
    """Assemble the m x m slab operator L_t for the core (alpha=2) case.

    Raises InvalidParams naming the first offending cell when the diffusion
    tensor is not positive definite there.
    """
    grid = grid or theta.grid
    if not 0 <= t < grid.nt:
        raise IndexError(f"t axis out of range: {t} not in [0, {grid.nt})")
    kappa = theta.kappa.values[t]
    m_u = theta.m_u.values[t]
    m_v = theta.m_v.values[t]
    h11 = theta.h11.values[t]
    h12 = theta.h12.values[t]
    h22 = theta.h22.values[t]

    det = h11 * h22 - h12**2
    bad = (h11 <= 0) | (h22 <= 0) | (det <= 0)
    if np.any(bad):
        y, x = np.argwhere(bad)[0]
        raise InvalidParams(
            f"diffusion tensor not positive definite at cell "
            f"(t={t}, y={y}, x={x}): h11={h11[y, x]:.4g}, "
            f"h12={h12[y, x]:.4g}, h22={h22[y, x]:.4g}")

    ny, nx, m = grid.ny, grid.nx, grid.m
    idx = _slab_index(grid)
    rows_all, cols_all, vals_all = [], [], []

    # damping
    rows_all.append(idx.ravel())
    cols_all.append(idx.ravel())
    vals_all.append((kappa**2).ravel())

    # axis-aligned diffusion, face-averaged coefficients
    r, c, v = _axis_flux_entries(idx[:, :-1].ravel(), idx[:, 1:].ravel(),
                                 0.5 * (h11[:, :-1] + h11[:, 1:]).ravel(),
                                 grid.dx)
    rows_all.append(r); cols_all.append(c); vals_all.append(v)
    r, c, v = _axis_flux_entries(idx[:-1, :].ravel(), idx[1:, :].ravel(),
                                 0.5 * (h22[:-1, :] + h22[1:, :]).ravel(),
                                 grid.dy)
    rows_all.append(r); cols_all.append(c); vals_all.append(v)

    # advection, upwind per cell per component
    flat = idx.ravel()
    nb = slab_neighbors(grid)
    r, c, v = _upwind_entries(flat, m_u, (nb.xp, nb.xm, nb.has_xp, nb.has_xm),
                              grid.dx)
    rows_all.append(r); cols_all.append(c); vals_all.append(v)
    r, c, v = _upwind_entries(flat, m_v, (nb.yp, nb.ym, nb.has_yp, nb.has_ym),
                              grid.dy)
    rows_all.append(r); cols_all.append(c); vals_all.append(v)

    op = sparse.csr_array(
        (np.concatenate(vals_all),
         (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(m, m))

    # mixed-derivative diffusion via the central cross stencil
    if np.any(h12):
        dxc = _central_diff(grid, nb.xp, nb.xm, grid.dx)
        dyc = _central_diff(grid, nb.yp, nb.ym, grid.dy)
        cross = (dxc.T @ (sparse.diags_array(h12.ravel()) @ dyc)).tocsr()
        op = op + cross + cross.T

    op.sum_duplicates()
    op.sort_indices()
    op.eliminate_zeros()
    return op


class FractionalOperator:
    """Integer power of a sparse slab operator.

    ``to_sparse`` multiplies the sparse factors together (still sparse,
    never a dense power).
    """

    def __init__(self, base: sparse.csr_array, power: int):
        self.base = base
        self.power = power
        self.shape = base.shape

    def to_sparse(self) -> sparse.csr_array:
        out = self.base
        for _ in range(self.power - 1):
            out = (out @ self.base).tocsr()
        out.sort_indices()
        return out


def apply_fractional(f_core: sparse.csr_array, alpha: int) -> FractionalOperator:
    """Wrap the core operator as its alpha/2 power."""
    if alpha % 2 != 0 or alpha < 2:
        raise UnsupportedAlpha(
            f"alpha must be a positive even integer, got {alpha}")
    return FractionalOperator(f_core, alpha // 2)


def validate_params(theta: ParamFields, grid: SpaceTimeGrid | None = None,
                    stability_threshold: float = 50.0) -> ValidationReport:
    """Report hard parameter violations plus a conditioning advisory.

    The advisory statistic is
    dt * max_cell(|m|/min(dx,dy) + 2*lam_max(H)*(1/dx^2+1/dy^2) + kappa^2);
    the implicit stepping is unconditionally stable, but large values make
    the per-step solves ill-conditioned.
    """
    grid = grid or theta.grid
    a = theta.field_arrays()
    kappa, tau = a["kappa"], a["tau"]
    h11, h12, h22 = a["h11"], a["h12"], a["h22"]

    violations: list[Violation] = []

    def record(mask, kind, fmt):
        for t, y, x in np.argwhere(mask):
            violations.append(Violation(kind, (int(t), int(y), int(x)),
                                        fmt(t, y, x)))

    record(kappa <= 0, "nonpositive_kappa",
           lambda t, y, x: f"kappa={kappa[t, y, x]:.4g}")
    record(tau <= 0, "nonpositive_tau",
           lambda t, y, x: f"tau={tau[t, y, x]:.4g}")
    det = h11 * h22 - h12**2
    record((h11 <= 0) | (h22 <= 0) | (det <= 0), "non_spd_diffusion",
           lambda t, y, x: (f"h11={h11[t, y, x]:.4g} h12={h12[t, y, x]:.4g} "
                            f"h22={h22[t, y, x]:.4g} det={det[t, y, x]:.4g}"))

    speed = np.hypot(a["m_u"], a["m_v"])
    lam_max = 0.5 * (h11 + h22) + np.sqrt((0.5 * (h11 - h22))**2 + h12**2)
    stat = grid.dt * float(np.max(
        speed / min(grid.dx, grid.dy)
        + 2.0 * lam_max * (1.0 / grid.dx**2 + 1.0 / grid.dy**2)
        + kappa**2))
    advisories = []
    if stat > stability_threshold:
        advisories.append(
            f"stiffness statistic {stat:.3g} exceeds {stability_threshold:g}; "
            "per-step solves may be ill-conditioned")
    return ValidationReport(violations, advisories, stat)


def project_params(theta: ParamFields, floor: float = 1e-6) -> ParamFields:
    """Project onto the valid set: floor kappa/tau, clip H eigenvalues.

    Cells whose tensor is already positive definite (smallest eigenvalue
    >= floor) pass through bit-exactly, so the projection is idempotent.
    """
    kappa = np.maximum(theta.kappa.values, floor)
    tau = np.maximum(theta.tau.values, floor)
    h11 = theta.h11.values
    h12 = theta.h12.values
    h22 = theta.h22.values

    mean = 0.5 * (h11 + h22)
    radius = np.sqrt((0.5 * (h11 - h22))**2 + h12**2)
    lam_lo = mean - radius
    bad = lam_lo < floor
    if np.any(bad):
        h11 = h11.copy(); h12 = h12.copy(); h22 = h22.copy()
        lam_hi = np.maximum((mean + radius)[bad], floor)
        lam_lo_c = np.full(lam_hi.shape, floor)
        a, b, c = h11[bad], h12[bad], h22[bad]
        # eigenvector of the larger eigenvalue; axis-aligned when b ~ 0
        vx = np.where(np.abs(b) > 1e-300, b, np.where(a >= c, 1.0, 0.0))
        vy = np.where(np.abs(b) > 1e-300, (mean + radius)[bad] - a,
                      np.where(a >= c, 0.0, 1.0))
        norm = np.hypot(vx, vy)
        norm = np.where(norm == 0, 1.0, norm)
        cs, sn = vx / norm, vy / norm
        h11[bad] = lam_hi * cs**2 + lam_lo_c * sn**2
        h22[bad] = lam_hi * sn**2 + lam_lo_c * cs**2
        h12[bad] = (lam_hi - lam_lo_c) * cs * sn

    changed = {}
    if not np.array_equal(kappa, theta.kappa.values):
        changed["kappa"] = kappa
    if not np.array_equal(tau, theta.tau.values):
        changed["tau"] = tau
    if np.any(bad):
        changed.update(h11=h11, h12=h12, h22=h22)
    return theta.replace_fields(**changed) if changed else theta
