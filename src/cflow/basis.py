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
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .annihilator import Spectrum
from .errors import ConditioningWarning, NonFiniteEntry, SingularMatrix, ZeroEigenvalue
from .numeric import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    extended_inverse,
    lu_factor,
    max_norm,
)

__all__ = [
    "generalized_binomial",
    "branch_log",
    "scalar_flow",
    "BasisDescriptor",
    "CoefficientTable",
    "build_basis",
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
    acc = 1.0 + 0.0j
    for i in range(j):
        acc *= complex(z) - i
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


@dataclass(frozen=True)
class CoefficientTable:
    """Verified inverse of a generalized Vandermonde matrix.

    ``e_extended`` keeps the extended-precision working copy used internally
    by flow evaluation; ``e`` is its double-precision rounding.
    """

    e: np.ndarray
    condition_estimate: float
    e_extended: np.ndarray | None = None


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


def eval_basis(basis: BasisDescriptor, z: complex) -> np.ndarray:
    """Values of every basis function at ``z``, in double precision.

    Raises :class:`NonFiniteEntry` when ``z`` is not finite or a value
    overflows.
    """
    z = _finite_exponent(z)
    clusters = basis.spectrum.clusters
    out = np.empty(basis.size, dtype=np.complex128)
    try:
        for k, (ci, j) in enumerate(basis.terms):
            power = cmath.exp((z - j) * clusters[ci].log)
            out[k] = power if j == 0 else generalized_binomial(j, z) * power
    except OverflowError as exc:
        raise NonFiniteEntry(
            f"A^z overflows: a basis value exceeds double precision at z={z}"
        ) from exc
    return out


def eval_basis_extended(basis: BasisDescriptor, z: complex) -> np.ndarray:
    """Extended-precision values of every basis function at ``z``."""
    z = np.clongdouble(_finite_exponent(z))
    out = np.empty(basis.size, dtype=np.clongdouble)
    for k, (ci, j) in enumerate(basis.terms):
        log = np.clongdouble(basis.spectrum.clusters[ci].log)
        acc = np.clongdouble(1.0)
        for i in range(j):
            acc *= z - i
        out[k] = acc / math.factorial(j) * np.exp((z - j) * log)
    return out


def vandermonde_matrix(basis: BasisDescriptor) -> np.ndarray:
    """The ``p x p`` matrix with row ``i``, column ``j`` entry ``f_j(-i)``
    (``i, j`` counted from 1)."""
    p = basis.size
    b = np.empty((p, p), dtype=np.complex128)
    for i in range(p):
        b[i, :] = eval_basis_extended(basis, -(i + 1))
    return b


def invert_vandermonde(b, tol: ToleranceConfig = DEFAULT_TOL) -> CoefficientTable:
    """Invert a generalized Vandermonde matrix via LU, with refinement.

    The exact matrix is provably nonsingular for distinct eigenvalue
    clusters, so a pivot failure here points at the clustering upstream.
    Emits a :class:`ConditioningWarning` (never an error) when the condition
    estimate exceeds ``cond_warn``.
    """
    b = as_matrix(b)
    p = b.shape[0]
    # Row magnitudes vary like |lambda|^(-i); equilibrate before the pivot
    # check so bad scaling is not mistaken for singularity.
    row_scale = np.max(np.abs(b), axis=1)
    col_scale = np.max(np.abs(b) / row_scale[:, None], axis=0)
    # High-degree relations give legitimately ill-conditioned (but provably
    # nonsingular) matrices, which extended precision below absorbs; reject
    # only pivots at rounding level rather than at the generic rank_tol.
    pivot_tol = replace(tol, rank_tol=1e3 * float(np.finfo(np.float64).eps))
    try:
        f = lu_factor(b / row_scale[:, None] / col_scale[None, :], pivot_tol)
    except SingularMatrix as exc:
        raise SingularMatrix(
            "generalized Vandermonde matrix is numerically singular; a nonzero "
            "determinant is guaranteed for distinct eigenvalue clusters, so "
            "root clustering upstream has likely merged or split eigenvalues "
            f"incorrectly ({exc})"
        ) from exc
    b_ext = b.astype(np.clongdouble)
    eye = np.eye(p, dtype=np.clongdouble)
    e_ext = extended_inverse(b)
    for _ in range(2):  # Newton steps square the inverse residual
        e_ext = e_ext @ (2.0 * eye - b_ext @ e_ext)
    e = e_ext.astype(np.complex128)
    cond = max_norm(b) * max_norm(e) * p
    if cond > tol.cond_warn:
        warnings.warn(
            f"generalized Vandermonde condition estimate {cond:.3e} exceeds "
            f"{tol.cond_warn:.1e}; coefficients may be inaccurate",
            ConditioningWarning,
            stacklevel=2,
        )
    return CoefficientTable(e=e, condition_estimate=cond, e_extended=e_ext)
