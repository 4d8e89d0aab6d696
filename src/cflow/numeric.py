"""Dense complex matrix arithmetic, the inverse and the two shared thresholds.

All matrices are square ``numpy.ndarray`` values of dtype complex128.  Every
operation is a pure function over immutable inputs; nothing here keeps state.
The one elimination is :func:`extended_inverse`, in numpy, on a copy
equilibrated by powers of two, checking its own pivots.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteEntry, SingularMatrix

__all__ = [
    "as_matrix",
    "max_norm",
    "inverse",
    "extended_inverse",
    "power_int",
]


# Relative threshold of the Krylov dependence test, of the default pivot test
# of extended_inverse and of a zero eigenvalue of the balanced Schur form.
_RANK_TOL = 1e-10
# Condition estimate above which the Vandermonde table and pow's sum warn.
_COND_WARN = 1e12


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


def inverse(a) -> np.ndarray:
    """:func:`extended_inverse` of ``a``, its pivot test included, rounded to complex128."""
    return extended_inverse(as_matrix(a)).astype(np.complex128)


def _equilibrated(a):
    """``(r, w, c)``, ``w = diag(r) a diag(c)`` in ``clongdouble`` (no modulus
    overflows): powers of two bring each row's, then column's, largest modulus
    into ``[1/2, 1)``."""
    w = np.asarray(a).astype(np.clongdouble)
    r = np.ldexp(np.longdouble(1), -np.frexp(np.abs(w).max(1))[1])
    w *= r[:, None]
    c = np.ldexp(np.longdouble(1), -np.frexp(np.abs(w).max(0))[1])
    w *= c
    return r, w, c


def extended_inverse(a, pivot_tol: float = _RANK_TOL) -> np.ndarray:
    """Gauss-Jordan inverse in extended precision (``clongdouble`` result), for
    callers whose cancellation downstream amplifies its error (Vandermonde
    coefficients, negative-power chains).  It eliminates the :func:`_equilibrated`
    copy, so graded entries are not mistaken for singularity: a partial pivot at
    or below ``pivot_tol`` times the copy's largest magnitude raises
    :class:`SingularMatrix`, and the inverse is unscaled exactly."""
    r, work, c = _equilibrated(a)
    n = work.shape[0]
    threshold = pivot_tol * float(np.abs(work).max())
    work = np.hstack([work, np.eye(n, dtype=np.clongdouble)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(work[col:, col])))
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
        if (pivot := float(abs(work[col, col]))) <= threshold:
            raise SingularMatrix(
                f"pivot {pivot:.3e} at or below rank tolerance; matrix is numerically singular"
            )
        pivot_row = work[col] / work[col, col]
        work -= work[:, col, None] * pivot_row
        work[col] = pivot_row
    return c[:, None] * work[:, n:] * r


def power_int(a, k: int) -> np.ndarray:
    """``A^k`` as a new array by ``numpy.linalg.matrix_power``, ``k = 0`` the
    identity; a negative ``k`` powers :func:`inverse`, which raises
    :class:`SingularMatrix` for a singular matrix."""
    k = int(k)
    if k == 1:  # matrix_power returns its argument itself
        return as_matrix(a).copy()
    return np.linalg.matrix_power(as_matrix(a) if k >= 0 else inverse(a), abs(k))
