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

The table is made once per grid and also holds J^T as CSR (one product
maps the gradients of many slabs, one column each). The step matrices
A_t = I + dt L_t^k, k = alpha/2, are stored as values on the pattern of
every pair of cells at most k apart along each axis (the Chebyshev k-ring,
``_ring_pattern``; at k = 1 the table itself), which holds the diagonal
slots and each slot's place in the LAPACK band and in the
block-tridiagonal view (``SlotPattern``). ``assemble_fdm_operator``
returns L_t itself with exact zeros dropped; a step matrix keeps unused
slots as explicit zeros.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import InvalidParams, UnsupportedAlpha
from .grid import Field, SpaceTimeGrid

_SUPPORTED_ALPHA = (2, 4, 6)
_STABILITY_THRESHOLD = 50.0   # the stiffness statistic's advisory level
_PARAM_FLOOR = 1e-6           # project_params' floor on kappa, tau and H


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

    def same_slab(self, other: "ParamFields", t: int) -> bool:
        """Whether slab t holds the same bits as other's, at the same alpha;
        the fields are compared in turn, up to the first that differs."""
        return self.alpha == other.alpha and all(
            getattr(self, n).values[t].tobytes()
            == getattr(other, n).values[t].tobytes()
            for n in ("kappa", "m_u", "m_v", "h11", "h12", "h22", "tau"))


def _theta_grid(theta: ParamFields, grid) -> SpaceTimeGrid:
    """theta's grid, which a grid given must equal."""
    if grid not in (None, theta.grid):
        raise ValueError(f"grid {grid} is not theta's grid {theta.grid}")
    return theta.grid


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


class SlotPattern:
    """A canonical CSR pattern (columns sorted within each row, no
    duplicates) of an m x m step matrix, with the place of every stored
    slot in the two factorizations that read the values, the banded LU
    and the Schur sweep:

    * ``band_slots``: flat offsets into the Fortran-ordered LAPACK dgbtrf
      band ab of shape (2 kl + ku + 1, m), ab[kl + ku + i - j, j] = A[i, j]
      (kl extra rows on top take the fill-in of row pivoting);
    * ``block_slots(size)``: block index 3 by + (cy - by + 1) and position
      size bx + cx of each slot in the block-tridiagonal view with blocks
      of size cells, (by, bx) and (cy, cx) the slot's row and column cells
      split by size.

    Both are computed once per pattern, so a matrix stored on it is
    scattered straight to those positions.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        m = indptr.size - 1
        self.indptr = indptr
        self.indices = indices
        self.rows = np.repeat(np.arange(m), np.diff(indptr))
        cols = indices.astype(np.int64)
        offsets = cols - self.rows                          # j - i
        self.kl = int(-offsets.min(initial=0))
        self.ku = int(offsets.max(initial=0))
        self.band_slots = (cols * (2 * self.kl + self.ku + 1)
                           + self.kl + self.ku - offsets)
        self._blocks: dict[int, tuple] = {}
        for arr in (indptr, indices, self.rows, self.band_slots):
            arr.setflags(write=False)

    def block_slots(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(block, position) of every slot for blocks of size cells; a
        pattern outside the three block diagonals raises ValueError."""
        if size not in self._blocks:
            (by, bx), (cy, cx) = (np.divmod(self.rows, size),
                                  np.divmod(self.indices, size))
            if np.any(np.abs(cy - by) > 1):
                raise ValueError("step matrix is not block tridiagonal "
                                 f"with blocks of {size} cells")
            slots = (3 * by + cy - by + 1, size * bx + cx)
            for arr in slots:
                arr.setflags(write=False)
            self._blocks[size] = slots
        return self._blocks[size]


class _GridPattern(SlotPattern):
    """The SlotPattern of a grid's m cells with the given sorted flat slots
    row * m + col, plus ``diag``, the slot of each row's diagonal entry,
    and ``matrix``, which holds values at the slots as a CSR matrix."""

    def __init__(self, m: int, slots: np.ndarray):
        rows, indices = np.divmod(slots, m)
        super().__init__(
            np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))]),
            indices)
        self.diag = np.flatnonzero(self.rows == self.indices)
        self.diag.setflags(write=False)
        # scipy's own index width for this size (int32 unless it overflows),
        # which a matrix given int64 indices would keep, and so would every
        # product of it, Q included
        index = np.int32 if slots.size < 2**31 else np.int64
        self._template = sparse.csr_array(
            (np.zeros(slots.size), self.indices.astype(index),
             self.indptr.astype(index)), shape=(m, m))
        # every step matrix shares these: an in-place change must fail
        for arr in (self._template.indices, self._template.indptr):
            arr.setflags(write=False)

    def matrix(self, data: np.ndarray) -> sparse.csr_array:
        """The m x m CSR matrix holding data at the pattern slots. It is a
        shallow copy of a template that scipy checked once, sharing its
        read-only index arrays: at 16x16 that takes 5 us, a checked
        construction 32 us, and a fit builds one per step per theta."""
        out = copy.copy(self._template)
        out.data = data
        return out


class _StencilTable(_GridPattern):
    """The fixed pattern of a grid's slab operators and the sparse map J
    (pattern slots x 8m) from the features phi to the stored values, so
    L_t = csr(J @ phi_t) and, L_t being linear in phi, phi_bar = J^T l_bar
    read at the pattern slots. ``jac_t`` is J^T as CSR."""

    def __init__(self, m: int, slots: np.ndarray, jac: sparse.csr_array):
        super().__init__(m, slots)
        self.jac = jac
        self.jac_t = sparse.csr_array(jac.T)

    def operator(self, values: np.ndarray) -> sparse.csr_array:
        """L_t as a CSR matrix of its own, from its values at the pattern
        slots, with exact zeros dropped."""
        m = self.indptr.size - 1
        op = sparse.csr_array((values, self.indices, self.indptr),
                              shape=(m, m), copy=True)
        op.eliminate_zeros()
        return op


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
    return _StencilTable(m, slots, jac)


@functools.lru_cache(maxsize=8)
def _ring_pattern(grid: SpaceTimeGrid, k: int) -> _GridPattern:
    """The pattern of A_t = I + dt L_t^k: every pair of cells at most k
    apart along each axis (the Chebyshev k-ring), which holds L_t^k since
    L_t couples only cells one apart. At k = 1 it is the stencil table,
    whose pattern is exactly that ring."""
    if k == 1:
        return _stencil_table(grid)
    y, x = np.divmod(np.arange(grid.m), grid.nx)
    slots = []
    for dy in range(-k, k + 1):
        for dx in range(-k, k + 1):
            cell = np.flatnonzero((0 <= y + dy) & (y + dy < grid.ny)
                                  & (0 <= x + dx) & (x + dx < grid.nx))
            slots.append(cell * grid.m + cell + dy * grid.nx + dx)
    return _GridPattern(grid.m, np.sort(np.concatenate(slots)))


def _slab_features(theta: ParamFields, ts) -> np.ndarray:
    """The features phi of slabs ts as the columns of an (8m, len(ts))
    array. Raises InvalidParams naming the first cell (t, y, x), t in the
    order of ts, whose diffusion tensor is not positive definite."""
    ts = list(ts)
    kappa, m_u, m_v, h11, h12, h22 = (
        getattr(theta, name).values[ts]
        for name in ("kappa", "m_u", "m_v", "h11", "h12", "h22"))
    bad = (h11 <= 0) | (h22 <= 0) | (h11 * h22 - h12**2 <= 0)
    if np.any(bad):
        k, y, x = np.argwhere(bad)[0]
        raise InvalidParams(
            f"diffusion tensor not positive definite at cell "
            f"(t={ts[k]}, y={y}, x={x}): h11={h11[k, y, x]:.4g}, "
            f"h12={h12[k, y, x]:.4g}, h22={h22[k, y, x]:.4g}")
    phi = np.empty((_N_FEATURES, theta.grid.m, len(ts)))
    features = (kappa**2, h11, h22, h12,
                np.maximum(m_u, 0.0), np.minimum(m_u, 0.0),
                np.maximum(m_v, 0.0), np.minimum(m_v, 0.0))
    for feature, value in zip(phi, features):
        feature[...] = value.reshape(len(ts), -1).T
    return phi.reshape(-1, len(ts))


def assemble_fdm_operator(theta: ParamFields, t: int,
                          grid: SpaceTimeGrid | None = None) -> sparse.csr_array:
    """Assemble the m x m slab operator L_t for the core (alpha=2) case,
    with exact zeros dropped.

    Raises InvalidParams naming the first offending cell when the diffusion
    tensor is not positive definite there; a grid given must be theta's.
    """
    grid = _theta_grid(theta, grid)
    if not 0 <= t < grid.nt:
        raise IndexError(f"t axis out of range: {t} not in [0, {grid.nt})")
    table = _stencil_table(grid)
    return table.operator(table.jac @ _slab_features(theta, [t])[:, 0])


def operator_adjoint(l_bar: np.ndarray, theta: ParamFields, t,
                     grads: dict[str, np.ndarray]) -> None:
    """Add d(loss)/d(theta_t) to grads[name][t], given the operator gradient
    l_bar = d(loss)/dL_t at the stencil pattern, l_bar[k] at slot
    (rows[k], indices[k]) of the grid's table. For a sequence of distinct
    slabs t, column j of the (slots, len(t)) l_bar belongs to slab t[j],
    and one product with J^T serves them all.

    phi_bar = J^T l_bar, then kappa_bar = 2 kappa phi_bar_kappa^2 and each
    advection component reads the upwind side in use (u+ where u >= 0,
    else u-).
    """
    grid = theta.grid
    table = _stencil_table(grid)
    ts = np.atleast_1d(t)
    shape = (table.rows.size,) + np.shape(t)
    if l_bar.shape != shape:
        raise ValueError(f"l_bar must hold the {table.rows.size} pattern "
                         f"entries of each slab, got shape {l_bar.shape}")
    if np.unique(ts).size != ts.size:
        # grads[name][ts] += ... would keep one update of a repeated slab
        raise ValueError(f"slabs must be distinct, got {ts.tolist()}")
    phi_bar = (table.jac_t @ l_bar.reshape(table.rows.size, -1)).reshape(
        _N_FEATURES, grid.ny, grid.nx, ts.size).transpose(0, 3, 1, 2)
    kappa2, h11, h22, h12, u_pos, u_neg, v_pos, v_neg = phi_bar
    grads["kappa"][ts] += 2.0 * theta.kappa.values[ts] * kappa2
    grads["h11"][ts] += h11
    grads["h22"][ts] += h22
    grads["h12"][ts] += h12
    grads["m_u"][ts] += np.where(theta.m_u.values[ts] >= 0, u_pos, u_neg)
    grads["m_v"][ts] += np.where(theta.m_v.values[ts] >= 0, v_pos, v_neg)


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
        out = _power(self.base, self.power).tocsr()
        out.sort_indices()
        return out


def _power(base: sparse.csr_array, k: int) -> sparse.csr_array:
    """base^k by k - 1 sparse products, each on the right."""
    out = base
    for _ in range(k - 1):
        out = out @ base
    return out


def apply_fractional(f_core: sparse.csr_array, alpha: int) -> FractionalOperator:
    """Wrap the core operator as its alpha/2 power."""
    if alpha % 2 != 0 or alpha < 2:
        raise UnsupportedAlpha(
            f"alpha must be a positive even integer, got {alpha}")
    return FractionalOperator(f_core, alpha // 2)


def validate_params(theta: ParamFields, grid: SpaceTimeGrid | None = None
                    ) -> ValidationReport:
    """Report hard parameter violations plus a conditioning advisory.

    The advisory statistic is
    dt * max_cell(|m|/min(dx,dy) + 2*lam_max(H)*(1/dx^2+1/dy^2) + kappa^2);
    the implicit stepping is unconditionally stable, but large values make
    the per-step solves ill-conditioned. A grid given must be theta's.
    """
    grid = _theta_grid(theta, grid)
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
    if stat > _STABILITY_THRESHOLD:
        advisories.append(
            f"stiffness statistic {stat:.3g} exceeds "
            f"{_STABILITY_THRESHOLD:g}; "
            "per-step solves may be ill-conditioned")
    return ValidationReport(violations, advisories, stat)


def project_params(theta: ParamFields) -> ParamFields:
    """Project onto the valid set: floor kappa/tau, clip H eigenvalues.

    Cells whose tensor is already positive definite (smallest eigenvalue
    >= the floor, 1e-6) pass through bit-exactly, so the projection is
    idempotent.
    """
    kappa = np.maximum(theta.kappa.values, _PARAM_FLOOR)
    tau = np.maximum(theta.tau.values, _PARAM_FLOOR)
    h11 = theta.h11.values
    h12 = theta.h12.values
    h22 = theta.h22.values

    mean = 0.5 * (h11 + h22)
    radius = np.sqrt((0.5 * (h11 - h22))**2 + h12**2)
    lam_lo = mean - radius
    bad = lam_lo < _PARAM_FLOOR
    if np.any(bad):
        h11 = h11.copy(); h12 = h12.copy(); h22 = h22.copy()
        lam_hi = np.maximum((mean + radius)[bad], _PARAM_FLOOR)
        lam_lo_c = np.full(lam_hi.shape, _PARAM_FLOOR)
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
