"""Exception types shared across the package.

Every error raised by library code derives from SpdekitError so callers
(and the CLI exit-code mapping) can distinguish our failures from bugs.
"""


class SpdekitError(Exception):
    """Base class for all spdekit errors."""


class ConfigError(SpdekitError):
    """Invalid experiment configuration (bad file, missing key, bad value)."""


# --- field file I/O -------------------------------------------------------

class StgfError(SpdekitError):
    """Base class for field-file format errors."""


class BadMagic(StgfError):
    """File does not start with the STGF magic bytes."""


class UnsupportedVersion(StgfError):
    """Header declares a format version this reader does not understand."""


class UnsupportedDtype(StgfError):
    """Header declares a payload dtype other than f32/f64 little-endian."""


class DimensionMismatch(StgfError):
    """Header dims disagree with the payload size or with the target grid."""


# --- parameters and operators --------------------------------------------

class InvalidParams(SpdekitError):
    """Hard parameter violation (non-SPD diffusion cell, non-positive field)."""


class UnsupportedAlpha(SpdekitError):
    """Smoothness exponent is not an even integer >= 2."""


# --- transitions / precision ----------------------------------------------

class SingularTransition(SpdekitError):
    """The implicit time-step matrix could not be factorized at step t."""

    def __init__(self, t, detail=""):
        self.t = t
        super().__init__(f"singular transition matrix at step t={t}" +
                         (f": {detail}" if detail else ""))


class DegenerateNoise(SpdekitError):
    """Noise regularization too close to zero for a precision block: tau at
    a step t >= 1, or at t = 0 the white start's sigma0."""

    def __init__(self, t, tau_min):
        self.t = t
        self.tau_min = tau_min
        if t == 0:
            message = (f"white-start scale sigma0 = {tau_min:.3e} gives x_0 "
                       "no precision; use sigma0 > 0")
        else:
            message = (f"noise scale tau ~ {tau_min:.3e} at step t={t} makes "
                       "the precision block numerically singular; floor tau "
                       "(e.g. 1e-6) before assembling")
        super().__init__(message)


# --- linear algebra --------------------------------------------------------

class NotPositiveDefinite(SpdekitError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, row):
        self.row = row
        super().__init__(f"matrix not positive definite (pivot at row {row})")


class MaxIterations(SpdekitError):
    """Iterative solver exhausted its iteration budget."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(relative residual {residual:.3e})")


class SolveFailure(SpdekitError):
    """A linear solve failed its residual contract; ``column`` is the
    failing right-hand side of a multi-column solve."""

    def __init__(self, message, column=0):
        self.column = column
        super().__init__(message)


class DimensionGuard(SpdekitError):
    """The dense path ``path`` refused a problem too large for dense work."""

    def __init__(self, dim, limit, path):
        self.dim = dim
        self.limit = limit
        super().__init__(f"{path} refused at dimension {dim} "
                         f"(limit {limit})")


# --- iterative solvers over the augmented state ----------------------------

class DivergedStep(SpdekitError):
    """Non-finite gradient or state encountered during solver iteration."""

    def __init__(self, iteration, detail=""):
        self.iteration = iteration
        super().__init__(f"solver diverged at iteration {iteration}" +
                         (f": {detail}" if detail else ""))


class DivergedFit(SpdekitError):
    """Parameter fitting produced a non-finite loss."""
