"""Dense complex matrix arithmetic, the inverse and the tolerance policy.

All matrices are square ``numpy.ndarray`` values of dtype complex128.  Every
operation is a pure function over immutable inputs; nothing here keeps state.
The one elimination is :func:`extended_inverse`, in numpy, checking its own
pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteEntry, SingularMatrix

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "max_norm",
    "inverse",
    "extended_inverse",
    "power_int",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the package.

    Parameters
    ----------
    rank_tol : float
        Relative threshold for rank / pivot decisions, and for a zero
        eigenvalue of the balanced Schur form.
    root_tol : float
        An eigenvalue (cluster centre) whose imaginary part is at most
        ``1e3 * root_tol`` relative to its magnitude is snapped onto the
        real axis.  The root finder (companion-matrix eigenvalues) takes no
        tolerance.
    cluster_tol : float
        Radius used when merging nearby polynomial roots into one eigenvalue.
    residual_tol : float
        Relative residual accepted for matrix equations (annihilating
        relations, inverse checks).
    cond_warn : float
        Condition-estimate level above which a warning is emitted.
    """

    rank_tol: float = 1e-10
    root_tol: float = 1e-12
    cluster_tol: float = 1e-7
    residual_tol: float = 1e-9
    cond_warn: float = 1e12

    def __post_init__(self):
        for name in ("rank_tol", "root_tol", "cluster_tol", "residual_tol", "cond_warn"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    m = np.ascontiguousarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m.view(np.float64)).all():
        raise NonFiniteEntry("matrix contains NaN or infinite entries")
    return m


def max_norm(a) -> float:
    """Maximum entry magnitude; the norm used for every relative comparison."""
    return float(np.abs(np.asarray(a, dtype=np.complex128)).max())


def _singular(pivot: float) -> SingularMatrix:
    return SingularMatrix(
        f"pivot {pivot:.3e} at or below rank tolerance; matrix is numerically singular"
    )


def inverse(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """:func:`extended_inverse` of ``a`` rounded to complex128."""
    return extended_inverse(as_matrix(a), tol).astype(np.complex128)


def extended_inverse(a, tol: ToleranceConfig | None = None) -> np.ndarray:
    """Gauss-Jordan inverse in extended precision (``clongdouble`` result).

    Used where inversion error would otherwise be amplified by heavy
    cancellation downstream (Vandermonde coefficients, negative-power
    chains); matrices stay small, so the cost is negligible.  With ``tol``
    given, a partial pivot at or below ``rank_tol * max_norm(a)`` raises
    :class:`SingularMatrix` before it is divided by; without it, callers
    check singularity themselves.
    """
    a = np.asarray(a)
    n = a.shape[0]
    threshold = None if tol is None else tol.rank_tol * max(max_norm(a), 1e-300)
    work = np.hstack([a.astype(np.clongdouble), np.eye(n, dtype=np.clongdouble)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(work[col:, col])))
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
        if threshold is not None and abs(work[col, col]) <= threshold:
            raise _singular(float(abs(work[col, col])))
        pivot_row = work[col] / work[col, col]
        work -= work[:, col, None] * pivot_row
        work[col] = pivot_row
    return work[:, n:]


def power_int(a, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Integer matrix power by square-and-multiply; ``k = 0`` gives the identity.

    Negative ``k`` requires an invertible matrix and raises
    :class:`SingularMatrix` otherwise.
    """
    a = as_matrix(a)
    k = int(k)
    if k < 0:
        a = inverse(a, tol)
        k = -k
    result = np.eye(a.shape[0], dtype=np.complex128)
    base = a
    while k > 0:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result
