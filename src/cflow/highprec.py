"""The paper's form of badly amplified flows, at arbitrary precision.

The representation ``A^z = sum_i mu_i(z) A^{-i}`` cancels heavily when the
relation mixes large and small eigenvalue magnitudes with multiplicities:
``sum_i |mu_i(z)| * |A^{-i}|`` can exceed ``|A^z|`` by many orders, and every
error -- in the relation coefficients, the coefficient table, or the sum --
is amplified by that ratio.  Where the measured amplification pushes the
extended-precision (80-bit) error estimate above the accuracy target,
:class:`cflow.flow.PaperForm` keeps its ``mu`` here, at a working precision
chosen to absorb it: the relation, its polished roots and branch logs, and
the ``p x p`` coefficient table, set up on first use.  ``A^z`` itself comes
from the Schur covariants (:func:`cflow.flow.schur_covariants`).

The relation comes from one Krylov sequence ``v, A v, ..., A^p v`` of a fixed
random vector, in mpmath: solved for when it comes from
``minimal_polynomial``, and refined from its start otherwise.  Its roots are
polished by the extended-precision form's Newton iteration
(``annihilator._polish``) run at working precision; the logarithms and basis
values are taken in mpmath too, and the table is inverted by mpmath's LU at
the working precision.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from .annihilator import (
    AnnihilatorPolynomial,
    Cluster,
    Spectrum,
    _polish,
    cluster_roots,
    find_roots,
    validate_relation,
)
from .basis import CoefficientTable, _singular_vandermonde, term_values

__all__ = ["HighPrecisionFlow"]


def _mpc_from_extended(x) -> mp.mpc:
    """Convert a ``clongdouble`` scalar to ``mpc`` without dropping the bits
    beyond double precision (high/low split)."""
    hi = complex(np.complex128(x))
    lo = complex(np.complex128(x - np.clongdouble(hi)))
    return mp.mpc(hi) + mp.mpc(lo)


def _extended_matrix(m: np.ndarray) -> np.ndarray:
    """An array of mpmath numbers rounded to ``clongdouble`` (high/low split)."""
    hi = m.astype(np.complex128)
    lo = (m - hi).astype(np.complex128)
    return hi.astype(np.clongdouble) + lo


def _krylov_relation(a: np.ndarray, start: AnnihilatorPolynomial) -> list:
    """Ascending monic coefficients of the degree-``p`` relation of ``a`` at
    working precision, from the Krylov sequence ``v, A v, ..., A^p v`` of a
    fixed random vector.

    A relation found by :func:`minimal_polynomial` (one that carries its
    ``residual``) has the minimal degree, so ``A^p v = sum_i c_i A^i v``
    determines it, and the coefficients are solved for by least squares in
    mpmath: such a double-precision relation can be wrong in every digit once
    the Krylov basis outgrows double precision (n = 20 to 24), and refining
    it does not converge.  Any other relation, or one whose system mpmath
    reports singular, may lie above the minimal degree, where the system has
    many solutions; ``start.work`` is then refined on the same system: residuals
    at working precision, corrections from a double-precision least-squares
    solve.  The entries of ``a`` are taken as exact.
    """
    n, p = a.shape[0], start.degree
    rng = np.random.default_rng(0)
    v = mp.matrix((rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist())
    am = mp.matrix(a.tolist())
    krylov = [v]
    for _ in range(p):
        krylov.append(am * krylov[-1])
    k = mp.matrix(n, p)
    for j in range(p):
        for i in range(n):
            k[i, j] = krylov[j][i]
    if start.residual is not None:
        try:
            c = mp.lu_solve(k, krylov[p]) if p == n else mp.qr_solve(k, krylov[p])[0]
            return [-c[i] for i in range(p)] + [mp.mpc(1)]
        except (ZeroDivisionError, ValueError):  # mpmath's reports of a singular system
            pass
    k_dbl = np.array(k.tolist(), dtype=np.complex128)
    c = mp.matrix([-_mpc_from_extended(x) for x in start.work[:-1]])
    for _ in range(6):
        r_dbl = np.array((krylov[p] - k * c).tolist(), dtype=np.complex128)[:, 0]
        if np.max(np.abs(r_dbl)) == 0.0:
            break
        delta, *_ = np.linalg.lstsq(k_dbl, r_dbl, rcond=None)
        c += mp.matrix(delta.tolist())
    return [-c[i] for i in range(p)] + [mp.mpc(1)]


class HighPrecisionFlow:
    """The paper's form of one matrix's flow at ``dps`` decimal digits.

    Built from the double-precision representation's relation and branch
    choices.  Nothing is computed until the form is first read: then a
    relation from ``minimal_polynomial`` is solved for afresh and any other
    refined (:func:`_krylov_relation`), and the spectrum (clusters, their
    eigenvalues polished at once by ``annihilator._polish`` at working
    precision, branch logs) and coefficient table are those of the result.
    ``relation`` is that relation rounded to extended precision (its
    ``work``, through :meth:`AnnihilatorPolynomial.from_work`), ``coeffs``
    its table (``work`` at working precision), ``spectrum`` its spectrum (``mpc``
    logs on the branches of the ``spectrum`` given); ``relation_residual`` is the
    relation's :func:`validate_relation` measure, and ``mu_mp`` the coefficient
    functions at working precision.
    """

    def __init__(self, a: np.ndarray, relation, spectrum, dps: int = 50):
        self.dps = dps
        self._a = np.asarray(a, dtype=np.complex128)
        self._start = relation
        self._given = spectrum

    @functools.cached_property
    def _form(self) -> SimpleNamespace:
        """The relation, spectrum and table at working precision."""
        p = self._start.degree
        with mp.workdps(self.dps):
            asc = np.array(_krylov_relation(self._a, self._start), dtype=object)
            # the spectrum of the relation at working precision, rounded
            q = AnnihilatorPolynomial.from_work(_extended_matrix(asc))
            found = cluster_roots(find_roots(q), polynomial=q).clusters
            groups = [[c.value] * c.multiplicity for c in found]
            centres = _polish(asc, groups, math.inf, 10.0 ** (5 - self.dps))
            winding = [self._given.winding_near(c.value) for c in found]
            logs = [mp.log(x) + 2j * mp.pi * k for (x, _), k in zip(centres, winding)]
            clusters = [Cluster(complex(x), m, log) for (x, m), log in zip(centres, logs)]
            spectrum = Spectrum(tuple(clusters))
            b = np.array(
                [term_values(spectrum.term_table, mp.mpc(-(i + 1)), mp.exp) for i in range(p)],
                dtype=object,
            )
            try:
                inv = mp.matrix(b.T.tolist()) ** -1
            except ZeroDivisionError as exc:  # mpmath's report of a numerically singular matrix
                raise _singular_vandermonde(" at working precision", exc) from exc
            e = np.array(inv.tolist(), dtype=object)
            table = CoefficientTable(e, float(np.max(np.abs(b)) * np.max(np.abs(e))) * p)
        residual = validate_relation(self._a, q)
        return SimpleNamespace(
            relation=q, coeffs=table, spectrum=spectrum, relation_residual=residual
        )

    relation = property(lambda self: self._form.relation)
    coeffs = property(lambda self: self._form.coeffs)
    spectrum = property(lambda self: self._form.spectrum)
    relation_residual = property(lambda self: self._form.relation_residual)

    def mu_mp(self, z: complex) -> list:
        """The coefficient vector as a list of ``mpc`` values."""
        form = self._form
        with mp.workdps(self.dps):
            values = term_values(form.spectrum.term_table, mp.mpc(complex(z)), mp.exp)
            return list(form.coeffs.work @ np.array(values, dtype=object))

    def mu(self, z: complex) -> np.ndarray:
        return np.array([complex(v) for v in self.mu_mp(z)], dtype=np.complex128)
