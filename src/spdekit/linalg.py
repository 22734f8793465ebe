"""Sparse SPD factorization, log-determinants, Cholesky adjoint, and PCG.

The trajectory precision is block-tridiagonal; factorization works in
banded storage (LAPACK *pbtrf) under a structured ordering of the
unknowns, with no ordering library. ``sparse_cholesky`` is the checked,
unscaled factor of any SPD matrix in its own (time-major) order,
half-bandwidth p = m + k (nx + 1) with k = alpha/2. A grid precision (the
posterior solver's, and ``log_det_block``'s without a prior) is factored
by ``factor_precision``: Jacobi-scaled, s = 1 / sqrt(diag), and in the
narrower of that order and the row-time order, unknown (t, y, x) at
(y nt + t) nx + x (x and y swapped when nx > ny), where p = 2k (nt
min(nx, ny) + 1), both read from the matrix (Rue & Held 2005, 2.4). At
nt = 10 and alpha = 2, p measured 273 (time-major) against 322 (row-time)
at 16 a side, 601/482 at 24, 1057/642 at 32 and 2353/962 at 48 (at alpha
= 4, 1090/1284 at 32 and 2402/1924 at 48); a burn-in start's dense P_0^-1
makes row-time p about dim, so it keeps time-major.
One writer, ``lower_band``, writes every SPD band from a CSR matrix under
an optional scale and permutation (checking the values it writes, not the
band, for finiteness), and ``cholesky_banded`` factors it in place with
one dpbtrf call, reading a failed pivot's row from LAPACK's info; the
factor carries the scale and the permutation, so its solve and log-det
are those of the matrix itself, in its natural order. Solves
read that band in place, 64 columns of L at a time, with numpy's level-3
BLAS on 16-column panels of the right-hand side
(``CholeskyFactor.solve``); the PCG block preconditioner's one-vector
solves use LAPACK *pbtrs.

numpy and scipy each load their own OpenBLAS build (numpy
``scipy_openblas64``, scipy ``scipy_openblas32``), each with its own
thread pool, and a kernel that starts right after the other pool's
threaded work runs slowly while that pool's workers still spin: dpbtrf
of the 24x24x10 posterior band took 80 ms alone and 182 ms right after
16 numpy products of 576 x 576 (2-core VM, 2 BLAS threads). The factor
(``cholesky_banded``, scipy's LAPACK dpbtrf) runs on scipy's pool,
as does everything before it on a burn-in start: the dense propagator
(dgbtrs), the doubling's BLAS kernels and the marginal's dpotrf/dpotri.
The solve's panel products run on
numpy's, because scipy's wrappers would copy the strided band views they
read; that leaves one pool switch per posterior, from factor to solve,
which measured no slower than a solve after numpy's own work.

Tolerances are fixed here: factorization residual 1e-10 (relative,
max-norm), PCG default 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as la
from scipy import sparse
from scipy.linalg.lapack import dpbtrf

from .errors import MaxIterations, NotPositiveDefinite
from .grid import SpaceTimeGrid
from .precision import _prior_log_det

FACTOR_TOL = 1e-10
# Column-block width of the blocked substitution, and the fixed panel width
# every right-hand side is solved in (see CholeskyFactor.solve).
_BLOCK = 64
_PANEL = 16
# entries per chunk of the row-time bandwidth scan (_posterior_order)
_SCAN = 1 << 16


def _tril_inverse(tri: np.ndarray) -> np.ndarray:
    """Inverses of a C-ordered (b, s, s) stack of lower triangles, s a
    power of two, read from the diagonal and below only.

    Doubling: with the inverses of a diagonal block's two halves known,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], so each
    level is one batched product over zero-copy views of the blocks.
    """
    b, s, _ = tri.shape
    inv = np.zeros_like(tri)
    d = range(s)
    inv[:, d, d] = 1.0 / tri[:, d, d]
    size = tri.itemsize
    h = 1
    while h < s:
        # the (s/2h) diagonal blocks of side 2h of every triangle
        shape = (b, s // (2 * h), 2 * h, 2 * h)
        strides = (s * s * size, 2 * h * (s + 1) * size, s * size, size)
        t = np.ndarray(shape, tri.dtype, buffer=tri, strides=strides)
        blk = np.ndarray(shape, inv.dtype, buffer=inv, strides=strides)
        blk[..., h:, :h] = -(blk[..., h:, h:] @ t[..., h:, :h]) \
            @ blk[..., :h, :h]
        h *= 2
    return inv


@dataclass
class CholeskyFactor:
    """Lower Cholesky factor in banded storage, L L^T = P S A S P^T.

    band[k, j] holds L[j + k, j] for k = 0..bandwidth. ``perm`` places
    unknown i at row perm[i] of L (None: the identity) and ``scale`` is
    the diagonal of the Jacobi scale S (None: no scale), so L, its
    diagonal and ``as_dense_lower`` are in that order and scale, while
    ``solve`` and ``logdet`` are A's, in A's own order.
    """

    band: np.ndarray
    perm: np.ndarray | None = None
    scale: np.ndarray | None = None
    _cache: list | None = field(default=None, init=False, repr=False,
                                compare=False)

    @property
    def n(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] - 1

    @property
    def diagonal(self) -> np.ndarray:
        return self.band[0]

    def logdet(self) -> float:
        """log|A| = 2 * sum(log diag(L)) - 2 * sum(log s)."""
        out = 2.0 * float(np.sum(np.log(self.band[0])))
        if self.scale is not None:
            out -= 2.0 * float(np.sum(np.log(self.scale)))
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Forward+backward substitution for A x = b (b of shape (n,) or
        (n, k)), blocked so that each pass reads the band once per call.

        L is walked in column blocks of width ``_BLOCK``; each block costs
        one product with its diagonal triangle's inverse, one with the
        full rows below it (a zero-copy view of the band) and one with the
        trailing upper trapezoid. The right-hand side is cut into
        zero-padded panels of ``_PANEL`` columns, all solved together as
        one stack, and every product runs at that one width: OpenBLAS
        gives a column different bits at different widths, so this keeps
        each column's result the same whatever else is solved with it.

        Under ``scale`` b's rows are scaled on the way in and x's on the
        way out. Under ``perm`` the rows of b are scattered to their rows
        of L as the panels are filled and gathered back at the end, which
        moves values but changes no bits.

        The band is not scanned for NaNs: it comes out of a checked
        factorization, and a non-finite b comes back non-finite, which
        callers test in their residual check.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, factor is {self.n}")
        cols = b.reshape(self.n, -1)
        k = cols.shape[1]
        panels = -(-k // _PANEL)
        x = np.zeros((panels * _PANEL, self.n))
        rows = slice(None) if self.perm is None else self.perm
        x[:k, rows] = (cols if self.scale is None
                       else self.scale[:, None] * cols).T
        # (panels, n, _PANEL): row block c:c+w of every panel is x[:, c:c+w]
        x = np.ascontiguousarray(
            x.reshape(panels, _PANEL, self.n).transpose(0, 2, 1))
        blocks = self._blocks()
        for c, w, inv, below, trap in blocks:        # L y = b
            y = inv @ x[:, c:c + w]
            x[:, c:c + w] = y
            end = c + w + below.shape[0]
            x[:, c + w:end] -= below @ y
            x[:, end:end + trap.shape[0]] -= trap @ y
        for c, w, inv, below, trap in reversed(blocks):  # L^T x = y
            end = c + w + below.shape[0]
            z = x[:, c:c + w]
            z -= below.T @ x[:, c + w:end]
            z -= trap.T @ x[:, end:end + trap.shape[0]]
            x[:, c:c + w] = inv.T @ z
        out = x.transpose(1, 0, 2).reshape(self.n, panels * _PANEL)
        out = out[:, :k] if self.perm is None else out[self.perm, :k]
        if self.scale is not None:
            out *= self.scale[:, None]
        return np.ascontiguousarray(out).reshape(b.shape)

    def _blocks(self) -> list:
        """Per column block c:c+w of L: (c, w, inverse of the diagonal
        triangle, view of the full rows c+w..c+p below it, copy of the
        trailing upper trapezoid of rows c+p+1..c+p+w-1), made once.

        In a Fortran band L[i, j] sits at flat offset i + j*p, so a view
        with strides (8, 8p) reads any block of L in place. Entries such a
        view reads outside the band belong to other columns: the triangle's
        inverse reads none of them, and the trapezoid is cut out with triu.
        The inverses and trapezoids take about 2*n*64*8 bytes in all.
        """
        if self._cache is not None:
            return self._cache
        n, p = self.n, self.bandwidth
        band = np.asfortranarray(self.band)
        size = band.itemsize

        def view(row, col, shape, block_step=0):
            """L[row:, col:] as a (rows, cols) view, or as a (blocks, rows,
            cols) stack of such views, each block_step rows and columns
            down the diagonal from the last."""
            strides = (size, size * p)
            if block_step:
                strides = (size * block_step * (p + 1),) + strides
            return np.ndarray(shape, band.dtype, buffer=band,
                              offset=size * (row + col * p), strides=strides)

        width = max(1, min(_BLOCK, p))
        full_blocks, rest = divmod(n, width)
        # the triangles, identity-padded to a power-of-two side; their upper
        # parts hold other columns' entries, which _tril_inverse never reads
        side = 1 << (width - 1).bit_length()
        tri = np.zeros((full_blocks + (rest > 0), side, side))
        tri[:, range(side), range(side)] = 1.0
        tri[:full_blocks, :width, :width] = view(0, 0, (full_blocks, width,
                                                      width), width)
        if rest:
            c = n - rest
            tri[-1, :rest, :rest] = view(c, c, (rest, rest))
        inverses = _tril_inverse(tri)
        # rows past n in a full block's trapezoid are cut off below
        traps = np.triu(view(p + 1, 0, (full_blocks, width - 1, width),
                             width), 1)
        self._cache = []
        for i, c in enumerate(range(0, n, width)):
            w = min(width, n - c)
            full = max(0, min(c + p + 1, n) - (c + w))
            tail = max(0, min(c + p + w, n) - (c + p + 1))
            self._cache.append((c, w, inverses[i, :w, :w],
                                view(c + w, c, (full, w)),
                                # a short last block has no trapezoid
                                traps[min(i, full_blocks - 1), :tail, :w]))
        return self._cache

    def as_dense_lower(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for k in range(self.bandwidth + 1):
            idx = np.arange(self.n - k)
            out[idx + k, idx] = self.band[k, : self.n - k]
        return out


def lower_band(a: sparse.csr_array, scale: np.ndarray | None = None,
               perm: np.ndarray | None = None) -> np.ndarray:
    """Fortran-ordered lower band of the symmetric, duplicate-free CSR
    matrix a, or of diag(s) a diag(s) with a scale s, under a permutation
    that puts unknown i at row perm[i] (None: the identity). With I =
    perm[i] and J = perm[j], each entry with I >= J is written as a_ij, or
    (s_i a_ij) s_j, at band[I - J, J], with row numbers from indptr in the
    width of a's indices (or of perm). A non-finite value written raises
    ValueError (a scan of the nnz values, not the band)."""
    n = a.shape[0]
    rows = np.repeat(np.arange(n, dtype=a.indices.dtype) if perm is None
                     else perm, np.diff(a.indptr))
    cols = a.indices if perm is None else perm[a.indices]
    if perm is not None and scale is not None:
        placed = np.empty_like(scale)
        placed[perm] = scale
        scale = placed
    offsets = rows - cols
    lower = offsets >= 0
    rows, cols, offsets = rows[lower], cols[lower], offsets[lower]
    band = np.zeros((int(offsets.max(initial=0)) + 1, n), order="F")
    values = a.data[lower] if scale is None else \
        (scale[rows] * a.data[lower]) * scale[cols]
    if not np.isfinite(values).all():
        raise ValueError("matrix has non-finite entries")
    band[offsets, cols] = values
    return band


def _checked_csr(a) -> sparse.csr_array:
    """a as a float64 CSR matrix, duplicate entries summed on a copy;
    ValueError unless it is square and symmetric."""
    a = sparse.csr_array(a, dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    scale = float(np.max(np.abs(a.data))) if a.nnz else 0.0
    asym = abs(a - a.T)
    if asym.nnz and float(asym.max()) > 1e-8 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    return a


def sparse_cholesky(a) -> CholeskyFactor:
    """Cholesky of a symmetric positive-definite sparse (or dense) matrix.

    Works in banded storage under the natural ordering, unscaled, summing
    duplicate entries on a copy. Raises NotPositiveDefinite with the
    offending row when a pivot fails, ValueError for a non-square,
    asymmetric or non-finite matrix.
    """
    return cholesky_banded(lower_band(_checked_csr(a)))


def cholesky_banded(band: np.ndarray, perm: np.ndarray | None = None,
                    scale: np.ndarray | None = None) -> CholeskyFactor:
    """Factor, in place, the Fortran-ordered lower band of a symmetric
    positive-definite matrix (band[k, j] = A[j + k, j]) with LAPACK dpbtrf;
    perm and scale are those ``lower_band`` wrote it under, which the
    factor carries.

    A Fortran-ordered band is handed to LAPACK as is, so the factor takes
    no second band-sized copy; nor is it scanned (``lower_band`` checks
    its values). A failed pivot raises NotPositiveDefinite with its row of
    the unpermuted matrix.
    """
    factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info > 0:
        row = info - 1 if perm is None else int(np.argmax(perm == info - 1))
        raise NotPositiveDefinite(row)
    if info < 0:
        raise ValueError(f"dpbtrf: illegal value in argument {-info}")
    return CholeskyFactor(band=factor, perm=perm, scale=scale)


def _time_major_bandwidth(a) -> int:
    """Half-bandwidth of the symmetric CSR matrix a in its own order, none
    of whose rows is empty: the largest distance from a row to its first
    column, in O(dim) memory."""
    first = np.minimum.reduceat(a.indices, a.indptr[:-1])
    return int(np.max(np.arange(a.shape[0]) - first))


def _row_time_positions(grid: SpaceTimeGrid, dtype) -> np.ndarray:
    """Row of unknown (t, y, x) in the row-time order, (y nt + t) nx + x,
    with x and y swapped when nx > ny so that the shorter axis runs
    fastest: at stencil radius k = alpha/2 its half-bandwidth is
    2k (nt min(nx, ny) + 1), against m + k (nx + 1) time-major."""
    t, y, x = np.indices(grid.shape, dtype=dtype)
    if grid.nx > grid.ny:
        x, y = y, x
    return ((y * grid.nt + t) * min(grid.nx, grid.ny) + x).reshape(-1)


def _posterior_order(a, grid: SpaceTimeGrid) -> np.ndarray | None:
    """The narrower ordering of the symmetric (dim, dim) CSR matrix a, none
    of whose rows is empty: None for its own time-major order, or the
    row-time positions (``_row_time_positions``) when their
    half-bandwidth, read from a's entries, is smaller. The row-time width
    is read in chunks of about ``_SCAN`` entries and the scan stops once
    it reaches the time-major width, so a burn-in start, whose dense
    P_0^-1 fills the first rows, stops in its first chunk and takes no
    nnz-sized temporary."""
    limit = _time_major_bandwidth(a)
    pos = _row_time_positions(grid, a.indices.dtype)
    width, start = 0, 0
    while start < grid.dim:
        # the rows from start holding at most _SCAN entries, at least one
        stop = max(int(np.searchsorted(a.indptr, a.indptr[start] + _SCAN,
                                       "right")) - 1, start + 1)
        rows = np.repeat(pos[start:stop], np.diff(a.indptr[start:stop + 1]))
        cols = pos[a.indices[a.indptr[start]:a.indptr[stop]]]
        width = max(width, int(np.max(rows - cols)))
        if width >= limit:
            return None
        start = stop
    return pos


def factor_precision(a: sparse.csr_array, grid: SpaceTimeGrid
                     ) -> CholeskyFactor:
    """Cholesky factor of a grid precision: the symmetric, duplicate-free
    (dim, dim) CSR matrix a, unchecked but for its diagonal and finite
    values.

    A is Jacobi-equilibrated, diag(s) A diag(s) with s = 1 / sqrt(diag A),
    so that near-zero noise variances (huge diagonal information) do not
    degrade the achievable residual, and ordered by ``_posterior_order``;
    ``lower_band`` writes its band and ``cholesky_banded`` factors it. The
    factor carries s and the ordering, so it solves and takes the log-det
    of A itself. The first diagonal entry <= 0 (an empty row's included)
    raises NotPositiveDefinite with its row before s is taken; a failed
    pivot raises it with the pivot's row of A.
    """
    diag = a.diagonal()
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        raise NotPositiveDefinite(int(bad[0]))
    scale = 1.0 / np.sqrt(diag)
    perm = _posterior_order(a, grid)
    return cholesky_banded(lower_band(a, scale, perm), perm, scale)


def log_det_block(q) -> float:
    """log-determinant of a BlockPrecision.

    With the prior structure held (``q.prior``), the generative split
    log|Q| = log|P_0^{-1}| + sum_t log|S_t^{-1}| with log|S_t^{-1}| =
    2 log|det A_t| + sum(log w_t) in closed form
    (``precision._prior_log_det``), where log|det A_t| is read off the
    prior's Schur sweep of its steps and nothing else is factored; it is
    exact for an unmodified prior precision. A sweep built here is dropped
    once read (at 48x48x10 it holds 31.9 MB), while one the prior already
    held for a coming gradient stays. Without a prior (a posterior or
    hand-built precision), the held matrix is checked as
    ``sparse_cholesky`` checks it (duplicates summed on a copy, square,
    symmetric) and factored by ``factor_precision``, the posterior
    solver's factor.
    """
    if q.prior is not None:
        return _prior_log_det(q.prior, hold_sweep=False)
    return factor_precision(_checked_csr(q.to_csr()), q.grid).logdet()


def _ltu(w: np.ndarray) -> np.ndarray:
    """Symmetric matrix built from the lower triangle of w."""
    lower = np.tril(w)
    return lower + np.tril(w, -1).T


def cholesky_backward(l_factor, l_bar) -> np.ndarray:
    """Adjoint of the Cholesky factorization A = L L^T.

    Given the gradient l_bar of a scalar with respect to L, returns the
    symmetric gradient with respect to A:

        A_bar = 1/2 L^{-T} ltu(L^T l_bar) L^{-1}

    Dense computation; intended for per-step blocks at desk scale.
    """
    if isinstance(l_factor, CholeskyFactor):
        l_mat = l_factor.as_dense_lower()
    else:
        l_mat = np.asarray(l_factor, dtype=np.float64)
    l_bar = np.asarray(l_bar, dtype=np.float64)
    if l_mat.shape != l_bar.shape:
        raise ValueError(
            f"factor shape {l_mat.shape} != gradient shape {l_bar.shape}")
    s = _ltu(l_mat.T @ l_bar)
    y = la.solve_triangular(l_mat, s, lower=True, trans="T")
    a_bar = 0.5 * la.solve_triangular(l_mat, y.T, lower=True, trans="T").T
    return 0.5 * (a_bar + a_bar.T)


# --- preconditioned conjugate gradients -------------------------------------

@dataclass
class PcgResult:
    x: np.ndarray
    iterations: int
    residual: float


def block_diagonal_preconditioner(q) -> Callable[[np.ndarray], np.ndarray]:
    """Per-time-step Cholesky of the diagonal blocks of a BlockPrecision,
    each sliced out of its matrix: r -> blockdiag(D_0, ..., D_N)^{-1} r.

    PCG applies it to one vector per iteration, so each block's band goes
    to LAPACK *pbtrs as is: CholeskyFactor.solve would pad every vector
    to a 16-column panel."""
    a = q.to_csr()
    m = q.m
    bands = [sparse_cholesky(a[t * m:(t + 1) * m, t * m:(t + 1) * m]).band
             for t in range(q.nt)]

    def apply(r: np.ndarray) -> np.ndarray:
        out = np.empty_like(r)
        for t, band in enumerate(bands):
            out[t * m:(t + 1) * m] = la.cho_solve_banded(
                (band, True), r[t * m:(t + 1) * m], check_finite=False)
        return out

    return apply


def pcg_solve(apply_a: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
              preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
              tol: float = 1e-8, max_iter: int | None = None,
              x0: np.ndarray | None = None) -> PcgResult:
    """Conjugate gradients on a symmetric positive-definite operator.

    Stops when ||b - A x|| <= tol * ||b||; raises MaxIterations (carrying
    the final relative residual) otherwise, and ValueError at once for a
    non-finite b.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    norm_b = float(np.linalg.norm(b))
    if not np.isfinite(norm_b):
        raise ValueError("right-hand side has non-finite entries")
    if norm_b == 0.0:
        return PcgResult(np.zeros(n), 0, 0.0)
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - apply_a(x) if x0 is not None else b.copy()
    z = preconditioner(r) if preconditioner is not None else r
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        ap = apply_a(p)
        alpha = rz / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        res = float(np.linalg.norm(r)) / norm_b
        if res <= tol:
            return PcgResult(x, k, res)
        z = preconditioner(r) if preconditioner is not None else r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise MaxIterations(max_iter, float(np.linalg.norm(r)) / norm_b)
