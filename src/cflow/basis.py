"""Analytic ingredients of a flow: scalar powers, binomial polynomials,
the values of the basis functions, and the generalized Vandermonde system.

Each basis function has the shape ``g_j(z) * lambda^(z-j)`` for an eigenvalue
``lambda`` of the relation and a shift ``j`` below its multiplicity, where
``g_j`` is the polynomial continuation of the binomial coefficient; their
order is the spectrum's (:attr:`cflow.annihilator.Spectrum.terms`).  The power
is always computed as ``exp((z - j) * log(lambda))`` in a single step with the
fixed branch log, so all shifts of one eigenvalue share a coherent branch.
Outside the mpmath tier a phase ``Im((z - j) log)`` of ``2^45`` or more keeps
no digit, and is refused (:func:`_checked_exponent`).
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .annihilator import Spectrum
from .errors import ConditioningWarning, NonFiniteEntry, SingularMatrix, ZeroEigenvalue
from .numeric import _COND_WARN, as_matrix, extended_inverse, max_norm

__all__ = [
    "generalized_binomial",
    "branch_log",
    "scalar_flow",
    "CoefficientTable",
    "basis_values",
    "vandermonde_matrix",
    "invert_vandermonde",
]


def generalized_binomial(j: int, z: complex) -> complex:
    """Polynomial continuation of ``binomial(z, j)``.

    Running product ``z (z-1) ... (z-j+1)`` divided by ``j!``; equals the
    integer binomial coefficient whenever ``z`` is an integer, including the
    vanishing cases ``0 <= z < j``.
    """
    if j < 0:
        raise ValueError("shift must be nonnegative")
    if j == 0:
        return 1.0 + 0.0j
    z = complex(z)
    acc = 1.0 + 0.0j
    for i in range(j):
        acc *= z - i
    return acc / math.factorial(j)


def branch_log(lam: complex) -> complex:
    """Principal-branch logarithm, imaginary part in ``(-pi, pi]``."""
    lam = complex(lam)
    if lam == 0:
        raise ZeroEigenvalue("log of zero requested; the matrix is not invertible")
    return cmath.log(lam)


def scalar_flow(lam: complex, z: complex) -> complex:
    """``lam^z`` under the principal branch: ``exp(z * branch_log(lam))``."""
    return cmath.exp(complex(z) * branch_log(lam))


@dataclass(frozen=True)
class CoefficientTable:
    """Verified inverse of a generalized Vandermonde matrix.

    ``work``, the inverse in the arithmetic of its form's ``mu`` (``clongdouble``
    outside the mpmath tier, an object array of ``mpc`` in it), gives the
    paper's ``mu(z) = work f(z)``; ``e`` is its double-precision rounding.
    """

    work: np.ndarray
    condition_estimate: float

    @cached_property
    def e(self) -> np.ndarray:
        return self.work.astype(np.complex128)

    def warn_if_ill_conditioned(self) -> None:
        """Emit a :class:`ConditioningWarning` (never an error) when the
        condition estimate exceeds ``1e12``, attributed to the first caller
        outside cflow (and the ``functools`` of its cached forms)."""
        if self.condition_estimate > _COND_WARN:
            frame, level = sys._getframe(), 1
            while frame.f_back and frame.f_globals["__name__"].startswith(("cflow.", "functools")):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"generalized Vandermonde condition estimate {self.condition_estimate:.3e} "
                f"exceeds {_COND_WARN:.1e}; coefficients may be inaccurate",
                ConditioningWarning,
                stacklevel=level,
            )


# A phase Im((z - j) log) at or beyond this keeps no digit: its rounding
# error, about eps |z log lambda|, reaches 2^45 eps (about 1e-2 rad).
_PHASE_LIMIT = 2.0**45


def _checked_exponent(spectrum: Spectrum, z) -> complex:
    """``z`` as a Python complex once it is finite and every phase ``Im((z -
    j) log)`` of the spectrum's terms lies below ``2^45`` in magnitude.

    Raises :class:`NonFiniteEntry` otherwise, for an infinite phase too.
    """
    w = complex(z)
    if not cmath.isfinite(w):
        raise NonFiniteEntry(f"exponent {z} is not finite")
    if not all(abs(((w - j) * log).imag) < _PHASE_LIMIT for j, log, _ in spectrum.term_table):
        raise NonFiniteEntry(
            f"A^z keeps no digit: the phase of a basis value reaches 2^45 rad at z={z}"
        )
    return w


def term_values(table, z, exp=cmath.exp) -> list:
    """The basis values ``g_j(z) exp((z - j) log)`` of a term table
    (:attr:`Spectrum.term_table`) at a finite ``z``, unchecked:
    ``generalized_binomial(j, z)`` times the power, inlined in the same order
    of operations.  ``z`` and ``exp`` choose one of three arithmetics: double
    precision (Python complex, ``cmath.exp``), extended (``np.clongdouble``,
    ``np.exp``) or working precision (``mpc``, ``mpmath.exp``, which
    ``cmath.exp`` would round to double precision).

    Under ``cmath.exp`` raises ``OverflowError`` when a power overflows, and
    ``ValueError`` when its phase ``(z - j) log`` has an infinite imaginary
    part, which :func:`_checked_exponent` rules out.
    """
    values = []
    for j, log, factorial in table:
        if j == 0:
            values.append(exp(z * log))
        else:
            acc = 1.0 + 0.0j
            for i in range(j):
                acc *= z - i
            values.append(acc / factorial * exp((z - j) * log))
    return values


def _extended_values(spectrum: Spectrum, z) -> list:
    _checked_exponent(spectrum, z)
    return term_values(spectrum.term_table, np.clongdouble(z), np.exp)


def basis_values(spectrum: Spectrum, z: complex) -> list:
    """Values of every basis function at ``z``, as Python complex numbers.

    Raises :class:`NonFiniteEntry` when ``z`` is not finite, a value
    overflows or its phase reaches ``2^45`` (:func:`_checked_exponent`).
    """
    z = _checked_exponent(spectrum, z)
    try:
        return term_values(spectrum.term_table, z)
    except OverflowError as exc:
        raise NonFiniteEntry(
            f"A^z overflows: a basis value exceeds double precision at z={z}"
        ) from exc


def vandermonde_matrix(spectrum: Spectrum) -> np.ndarray:
    """The ``p x p`` matrix with row ``i``, column ``j`` entry ``f_j(-i)``
    (``i, j`` counted from 1).

    Raises :class:`NonFiniteEntry` when an entry exceeds double precision.
    """
    values = np.array([_extended_values(spectrum, -i) for i in range(1, spectrum.degree + 1)])
    with np.errstate(over="ignore"):
        b = values.astype(np.complex128)
    if not np.isfinite(b).all():
        raise NonFiniteEntry(
            "an intermediate of the build overflows: an entry of the generalized "
            "Vandermonde matrix exceeds double precision"
        )
    return b


# Ill-conditioned (but provably nonsingular) tables of high-degree relations:
# reject only pivots at rounding level, not at the default 1e-10.
_VANDERMONDE_PIVOT = 1e3 * float(np.finfo(np.float64).eps)


def _singular_vandermonde(where: str, cause: Exception) -> SingularMatrix:
    """The error of a pivot failure ``where`` (empty in double precision)."""
    return SingularMatrix(
        f"generalized Vandermonde matrix is numerically singular{where}; a nonzero "
        "determinant is guaranteed for distinct eigenvalue clusters, so "
        "root clustering upstream has likely merged or split eigenvalues "
        f"incorrectly ({cause})"
    )


def invert_vandermonde(b) -> CoefficientTable:
    """Invert a generalized Vandermonde matrix by one :func:`extended_inverse`,
    whose pivot test is the singularity check, and two Newton steps.

    The exact matrix is provably nonsingular for distinct eigenvalue
    clusters, so a pivot failure here points at the clustering upstream.
    It never warns: the paper's form reports the table's
    :meth:`CoefficientTable.warn_if_ill_conditioned` once its tier is decided.
    """
    b = as_matrix(b)
    p = b.shape[0]
    try:
        e_ext = extended_inverse(b, _VANDERMONDE_PIVOT)
    except SingularMatrix as exc:
        raise _singular_vandermonde("", exc) from exc
    b_ext = b.astype(np.clongdouble)
    eye = np.eye(p, dtype=np.clongdouble)
    for _ in range(2):  # Newton steps square the inverse residual
        e_ext = e_ext @ (2.0 * eye - b_ext @ e_ext)
    return CoefficientTable(e_ext, max_norm(b) * max_norm(e_ext.astype(np.complex128)) * p)
