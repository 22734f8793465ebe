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

L is linear in the per-cell coefficients (kappa^2, H, and the two upwind
parts of each advection component), so one stencil table per grid holds
the whole discretization: the fixed sparsity pattern and a sparse matrix J
that maps the coefficients to the pattern's values. Assembly is J @ phi;
the parameter adjoint is J^T applied to the operator gradient at the
pattern. The boundary closure lives only in the table's builder. Every
row touches at most itself and its 8 spatial neighbors.
"""

from __future__ import annotations

import functools
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


# --- stencil table -----------------------------------------------------------

# Per-cell features phi of a slab, each an m-vector, in this order along the
# columns of the table's J: u+ = max(u, 0) and u- = min(u, 0) pick the
# upwind side of each advection component.
_N_FEATURES = 8     # kappa^2, h11, h22, h12, u+, u-, v+, v-


@dataclass(frozen=True)
class _StencilTable:
    """The fixed CSR pattern of a grid's slab operators and the sparse map J
    (pattern slots x 8m) from the features phi to the stored values, so
    L_t = csr(J @ phi_t) and, L_t being linear in phi, phi_bar = J^T l_bar
    read at the pattern slots."""

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    jac: sparse.csr_array


@functools.lru_cache(maxsize=8)
def _stencil_table(grid: SpaceTimeGrid) -> _StencilTable:
    ny, nx, m = grid.ny, grid.nx, grid.m
    idx = np.arange(m).reshape(ny, nx)
    cell = idx.ravel()
    # neighbors clamped at the boundary (reflected ghosts): a boundary
    # term lands twice on the same slot and feature with opposite signs,
    # and summing the duplicates cancels it exactly
    xp = idx[:, np.minimum(np.arange(nx) + 1, nx - 1)].ravel()
    xm = idx[:, np.maximum(np.arange(nx) - 1, 0)].ravel()
    yp = idx[np.minimum(np.arange(ny) + 1, ny - 1), :].ravel()
    ym = idx[np.maximum(np.arange(ny) - 1, 0), :].ravel()
    entries = []                       # (row, col, column of J, coefficient)

    def add(row, col, feature, owner, coeff):
        entries.append((row, col, feature * m + owner,
                        np.full(row.shape, coeff)))

    add(cell, cell, 0, cell, 1.0)                          # damping
    # axis diffusion: each interior face carries the mean of its two cells
    for feature, lo, hi, step in ((1, idx[:, :-1], idx[:, 1:], grid.dx),
                                  (2, idx[:-1, :], idx[1:, :], grid.dy)):
        lo, hi = lo.ravel(), hi.ravel()
        c = 0.5 / step**2
        for owner in (lo, hi):
            for row, col, coeff in ((lo, lo, c), (hi, hi, c),
                                    (lo, hi, -c), (hi, lo, -c)):
                add(row, col, feature, owner, coeff)
    # mixed term: cross = Dx^T diag(h12) Dy plus its transpose, with Dx, Dy
    # the central differences
    c = 1.0 / (4.0 * grid.dx * grid.dy)
    for i, sx in ((xp, c), (xm, -c)):
        for j, sy in ((yp, 1.0), (ym, -1.0)):
            add(i, j, 3, cell, sx * sy)
            add(j, i, 3, cell, sx * sy)
    # advection -m . grad, upwind per cell and component
    for feature, plus, minus, step in ((4, xp, xm, grid.dx),
                                       (6, yp, ym, grid.dy)):
        add(cell, cell, feature, cell, 1.0 / step)
        add(cell, plus, feature, cell, -1.0 / step)
        add(cell, cell, feature + 1, cell, -1.0 / step)
        add(cell, minus, feature + 1, cell, 1.0 / step)

    row, col, feature, coeff = (np.concatenate(a) for a in zip(*entries))
    slots, slot_of = np.unique(row * m + col, return_inverse=True)
    jac = sparse.csr_array((coeff, (slot_of, feature)),
                           shape=(slots.size, _N_FEATURES * m))
    jac.eliminate_zeros()
    rows, indices = np.divmod(slots, m)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    for arr in (indptr, indices, rows):
        arr.setflags(write=False)
    return _StencilTable(indptr, indices, rows, jac)


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

    phi = np.concatenate([kappa**2, h11, h22, h12,
                          np.maximum(m_u, 0.0), np.minimum(m_u, 0.0),
                          np.maximum(m_v, 0.0), np.minimum(m_v, 0.0)],
                         axis=None)
    table = _stencil_table(grid)
    op = sparse.csr_array((table.jac @ phi, table.indices, table.indptr),
                          shape=(grid.m, grid.m), copy=True)
    op.eliminate_zeros()
    return op


def operator_adjoint(l_bar: np.ndarray, theta: ParamFields, t: int,
                     grads: dict[str, np.ndarray]) -> None:
    """Add d(loss)/d(theta_t) to grads[name][t], given the dense gradient
    l_bar = d(loss)/dL_t.

    phi_bar = J^T l_bar[pattern], then kappa_bar = 2 kappa phi_bar_kappa^2
    and each advection component reads the upwind side in use (u+ where
    u >= 0, else u-).
    """
    grid = theta.grid
    table = _stencil_table(grid)
    phi_bar = (table.jac.T @ l_bar[table.rows, table.indices]) \
        .reshape(_N_FEATURES, grid.ny, grid.nx)
    kappa2, h11, h22, h12, u_pos, u_neg, v_pos, v_neg = phi_bar
    grads["kappa"][t] += 2.0 * theta.kappa.values[t] * kappa2
    grads["h11"][t] += h11
    grads["h22"][t] += h22
    grads["h12"][t] += h12
    grads["m_u"][t] += np.where(theta.m_u.values[t] >= 0, u_pos, u_neg)
    grads["m_v"][t] += np.where(theta.m_v.values[t] >= 0, v_pos, v_neg)


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
