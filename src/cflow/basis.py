"""Analytic ingredients of a flow: scalar powers, binomial polynomials,
the ordered basis functions, and the generalized Vandermonde system.

Each basis function has the shape ``g_j(z) * lambda^(z-j)`` for an eigenvalue
``lambda`` of the relation and a shift ``j`` below its multiplicity, where
``g_j`` is the polynomial continuation of the binomial coefficient.  The power
is always computed as ``exp((z - j) * log(lambda))`` in a single step with the
fixed branch log, so all shifts of one eigenvalue share a coherent branch.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .annihilator import Spectrum
from .errors import ConditioningWarning, NonFiniteEntry, SingularMatrix, ZeroEigenvalue
from .numeric import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    extended_inverse,
    max_norm,
)

__all__ = [
    "generalized_binomial",
    "branch_log",
    "scalar_flow",
    "BasisDescriptor",
    "CoefficientTable",
    "build_basis",
    "basis_values",
    "eval_basis",
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
class BasisDescriptor:
    """The ordered analytic basis of a flow.

    ``terms`` is a tuple of ``(cluster_index, shift)`` pairs; term ``k``
    denotes the function ``g_shift(z) * lambda^(z - shift)`` for the
    eigenvalue of that cluster.  The order follows the spectrum's cluster
    order (descending magnitude, ascending argument) with shifts ascending
    inside each cluster, and is part of the coefficient-table contract.
    """

    terms: tuple
    spectrum: Spectrum

    @property
    def size(self) -> int:
        return len(self.terms)

    @cached_property
    def term_table(self) -> tuple:
        """``(shift, branch log, shift!)`` of every term, in term order."""
        clusters = self.spectrum.clusters
        return tuple((j, clusters[ci].log, math.factorial(j)) for ci, j in self.terms)


@dataclass(frozen=True)
class CoefficientTable:
    """Verified inverse of a generalized Vandermonde matrix.

    ``e_extended`` keeps the extended-precision working copy used internally
    by flow evaluation; ``e`` is its double-precision rounding.
    """

    e: np.ndarray
    condition_estimate: float
    e_extended: np.ndarray | None = None

    def warn_if_ill_conditioned(self, tol: ToleranceConfig = DEFAULT_TOL) -> None:
        """Emit a :class:`ConditioningWarning` (never an error) when the
        condition estimate exceeds ``cond_warn``, attributed to the first
        caller outside cflow (and the ``functools`` of its cached forms)."""
        if self.condition_estimate > tol.cond_warn:
            frame, level = sys._getframe(), 1
            while frame.f_back and frame.f_globals["__name__"].startswith(("cflow.", "functools")):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"generalized Vandermonde condition estimate {self.condition_estimate:.3e} "
                f"exceeds {tol.cond_warn:.1e}; coefficients may be inaccurate",
                ConditioningWarning,
                stacklevel=level,
            )


def build_basis(spectrum: Spectrum) -> BasisDescriptor:
    """Lay out the ``p`` basis functions for a spectrum."""
    terms = []
    for ci, cluster in enumerate(spectrum.clusters):
        for j in range(cluster.multiplicity):
            terms.append((ci, j))
    return BasisDescriptor(terms=tuple(terms), spectrum=spectrum)


def _finite_exponent(z: complex) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise NonFiniteEntry(f"exponent {z} is not finite")
    return z


def term_values(table, z, exp=cmath.exp) -> list:
    """The basis values ``g_j(z) exp((z - j) log)`` of a term table
    (:attr:`BasisDescriptor.term_table`) at a finite ``z``, unchecked:
    ``generalized_binomial(j, z)`` times the power, inlined in the same order
    of operations.  ``z``, the logs and ``exp`` share one arithmetic: Python
    complex numbers with ``cmath.exp``, or ``mpc`` with ``mpmath.exp`` (which
    ``cmath.exp`` would round to double precision).

    Raises ``OverflowError`` when a power overflows double precision.
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


def basis_values(basis: BasisDescriptor, z: complex) -> list:
    """Values of every basis function at ``z``, as Python complex numbers.

    Raises :class:`NonFiniteEntry` when ``z`` is not finite or a value
    overflows.
    """
    z = _finite_exponent(z)
    try:
        return term_values(basis.term_table, z)
    except OverflowError as exc:
        raise NonFiniteEntry(
            f"A^z overflows: a basis value exceeds double precision at z={z}"
        ) from exc


def eval_basis(basis: BasisDescriptor, z: complex) -> np.ndarray:
    """:func:`basis_values` as a double-precision vector."""
    return np.array(basis_values(basis, z), dtype=np.complex128)


def eval_basis_extended(basis: BasisDescriptor, z) -> np.ndarray:
    """Extended-precision values of every basis function at ``z``: a vector
    for a scalar ``z``, one row per exponent for an array of them."""
    zs = np.asarray(z, dtype=np.complex128)
    if not np.isfinite(zs).all():
        raise NonFiniteEntry(f"exponent {z} is not finite")
    zs = zs.astype(np.clongdouble)[..., None]
    shifts = np.array([j for j, _, _ in basis.term_table])
    logs = np.array([log for _, log, _ in basis.term_table], dtype=np.clongdouble)
    values = np.exp((zs - shifts) * logs)
    top = int(shifts.max())
    if top:  # the binomial factors g_j(z) of multiple eigenvalues
        binomial = np.ones_like(values)
        for i in range(top):
            binomial *= np.where(i < shifts, zs - i, 1)
        values *= binomial / np.array([f for _, _, f in basis.term_table], dtype=np.clongdouble)
    return values


def vandermonde_matrix(basis: BasisDescriptor) -> np.ndarray:
    """The ``p x p`` matrix with row ``i``, column ``j`` entry ``f_j(-i)``
    (``i, j`` counted from 1).

    Raises :class:`NonFiniteEntry` when an entry exceeds double precision.
    """
    values = eval_basis_extended(basis, -np.arange(1, basis.size + 1))
    with np.errstate(over="ignore"):
        b = values.astype(np.complex128)
    if not np.isfinite(b).all():
        raise NonFiniteEntry(
            "an intermediate of the build overflows: an entry of the generalized "
            "Vandermonde matrix exceeds double precision"
        )
    return b


def _singular_vandermonde(where: str, cause: Exception) -> SingularMatrix:
    """The error of a pivot failure ``where`` (empty in double precision)."""
    return SingularMatrix(
        f"generalized Vandermonde matrix is numerically singular{where}; a nonzero "
        "determinant is guaranteed for distinct eigenvalue clusters, so "
        "root clustering upstream has likely merged or split eigenvalues "
        f"incorrectly ({cause})"
    )


def invert_vandermonde(b, tol: ToleranceConfig = DEFAULT_TOL) -> CoefficientTable:
    """Invert a generalized Vandermonde matrix by extended-precision
    Gauss-Jordan elimination, with two Newton steps.

    The exact matrix is provably nonsingular for distinct eigenvalue
    clusters, so a pivot failure here points at the clustering upstream.
    Emits a :class:`ConditioningWarning` (never an error) when the condition
    estimate exceeds ``cond_warn``.
    """
    b = as_matrix(b)
    p = b.shape[0]
    # Row magnitudes vary like |lambda|^(-i); the pivot check eliminates an
    # equilibrated copy so bad scaling is not mistaken for singularity, and
    # discards its inverse.
    row_scale = np.max(np.abs(b), axis=1)
    col_scale = np.max(np.abs(b) / row_scale[:, None], axis=0)
    # High-degree relations give legitimately ill-conditioned (but provably
    # nonsingular) matrices, which extended precision below absorbs; reject
    # only pivots at rounding level rather than at the generic rank_tol.
    pivot_tol = replace(tol, rank_tol=1e3 * float(np.finfo(np.float64).eps))
    try:
        extended_inverse(as_matrix(b / row_scale[:, None] / col_scale[None, :]), pivot_tol)
    except SingularMatrix as exc:
        raise _singular_vandermonde("", exc) from exc
    b_ext = b.astype(np.clongdouble)
    eye = np.eye(p, dtype=np.clongdouble)
    e_ext = extended_inverse(b)
    for _ in range(2):  # Newton steps square the inverse residual
        e_ext = e_ext @ (2.0 * eye - b_ext @ e_ext)
    e = e_ext.astype(np.complex128)
    cond = max_norm(b) * max_norm(e) * p
    table = CoefficientTable(e=e, condition_estimate=cond, e_extended=e_ext)
    table.warn_if_ill_conditioned(tol)
    return table
