"""Sparse SPD factorization, log-determinants, Cholesky adjoint, and PCG.

The trajectory precision is block-tridiagonal, so the natural (time-major)
ordering is already near-optimal for fill: factorization works in banded
storage (LAPACK *pbtrf/*pbtrs) with bandwidth about m + nx. No external
ordering library is involved; the permutation is the identity.

Tolerances are fixed here: factorization residual 1e-10 (relative,
max-norm), PCG default 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as la
from scipy import sparse

from .errors import MaxIterations, NotPositiveDefinite
from .precision import _prior_log_det

FACTOR_TOL = 1e-10


def _to_coo(a) -> sparse.coo_array:
    if sparse.issparse(a):
        return sparse.coo_array(a)
    return sparse.coo_array(np.asarray(a, dtype=np.float64))


@dataclass
class CholeskyFactor:
    """Lower Cholesky factor in banded storage; permutation is identity.

    band[k, j] holds L[j + k, j] for k = 0..bandwidth.
    """

    band: np.ndarray
    n: int
    bandwidth: int

    @property
    def diagonal(self) -> np.ndarray:
        return self.band[0]

    def logdet(self) -> float:
        """log|A| = 2 * sum(log diag(L))."""
        return 2.0 * float(np.sum(np.log(self.band[0])))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Forward+backward substitution for A x = b (2-D b solved columnwise).

        The band is not scanned for NaNs: it comes out of a checked
        factorization, and a non-finite b comes back non-finite, which
        callers test in their residual check.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, factor is {self.n}")
        return la.cho_solve_banded((self.band, True), b, check_finite=False)

    def as_sparse_lower(self) -> sparse.csr_array:
        rows, cols, vals = [], [], []
        for k in range(self.bandwidth + 1):
            j = np.arange(self.n - k)
            v = self.band[k, : self.n - k]
            keep = v != 0.0
            rows.append(j[keep] + k)
            cols.append(j[keep])
            vals.append(v[keep])
        out = sparse.csr_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n))
        out.sort_indices()
        return out

    def as_dense_lower(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for k in range(self.bandwidth + 1):
            idx = np.arange(self.n - k)
            out[idx + k, idx] = self.band[k, : self.n - k]
        return out


def sparse_cholesky(a) -> CholeskyFactor:
    """Cholesky of a symmetric positive-definite sparse (or dense) matrix.

    Works in banded storage under the natural ordering. Raises
    NotPositiveDefinite with the offending row when a pivot fails.
    """
    coo = _to_coo(a)
    n = coo.shape[0]
    if coo.shape[0] != coo.shape[1]:
        raise ValueError("matrix must be square")
    scale = float(np.max(np.abs(coo.data))) if coo.nnz else 0.0
    asym = abs(coo - coo.T)
    if asym.nnz and float(asym.max()) > 1e-8 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")

    lower = coo.row >= coo.col
    rows, cols = coo.row[lower], coo.col[lower]
    vals = coo.data[lower]
    p = int(np.max(rows - cols)) if rows.size else 0
    # factor in place: a Fortran-ordered band is handed to LAPACK as is,
    # so the factor takes no second band-sized copy
    band = np.zeros((p + 1, n), order="F")
    band[rows - cols, cols] = vals
    try:
        lb = la.cholesky_banded(band, lower=True, overwrite_ab=True)
    except la.LinAlgError as exc:
        row = -1
        for token in str(exc).replace("-", " ").split():
            if token.isdigit():
                row = int(token) - 1
                break
        raise NotPositiveDefinite(row) from exc
    return CholeskyFactor(band=lb, n=n, bandwidth=p)


def log_det_block(q, method: str = "auto") -> float:
    """log-determinant of a BlockPrecision.

    "blockwise" uses the generative split log|Q| = log|P_0^{-1}| +
    sum_t log|S_t^{-1}| with log|S_t^{-1}| = 2 log|det A_t| + sum(log w_t)
    in closed form (``precision._prior_log_det``), where log|det A_t| is
    read off each step's banded LU and nothing else is factored; it is
    exact for an unmodified prior precision and only available when the
    generator metadata is present. "cholesky"
    factorizes the assembled matrix and is always available (and is the
    arbiter if the two ever disagree).
    """
    if method not in ("auto", "blockwise", "cholesky"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "blockwise" if q.prior is not None else "cholesky"
    if method == "blockwise":
        if q.prior is None:
            raise ValueError(
                "blockwise log-determinant needs the prior structure; "
                "this precision was modified after assembly")
        return _prior_log_det(q.prior.ic, q.prior.transitions, q.grid.dt)
    return sparse_cholesky(q.to_csr()).logdet()


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


def jacobi_preconditioner(diag: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    inv = 1.0 / np.asarray(diag, dtype=np.float64)
    return lambda r: inv * r


def block_diagonal_preconditioner(q) -> Callable[[np.ndarray], np.ndarray]:
    """Per-time-step Cholesky of the diagonal blocks of a BlockPrecision,
    each sliced out of its matrix: r -> blockdiag(D_0, ..., D_N)^{-1} r."""
    a = q.to_csr()
    m = q.m
    factors = [sparse_cholesky(a[t * m:(t + 1) * m, t * m:(t + 1) * m])
               for t in range(q.nt)]

    def apply(r: np.ndarray) -> np.ndarray:
        out = np.empty_like(r)
        for t, fac in enumerate(factors):
            out[t * m:(t + 1) * m] = fac.solve(r[t * m:(t + 1) * m])
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
