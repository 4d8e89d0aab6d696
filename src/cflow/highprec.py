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
``minimal_polynomial``, and refined from its start otherwise.  The refinement
(``annihilator._refined``) and the root polish (``annihilator._polish``) are
the extended-precision form's, run at working precision; the logarithms are
taken in mpmath too, the basis values by ``basis.paper_values`` over object
arrays of ``mpc``, and the table is inverted by mpmath's
LU at the working precision; values cross precisions as high/low pairs of
doubles (:func:`_split`).
"""

from __future__ import annotations

import functools
import itertools
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from .annihilator import (
    AnnihilatorPolynomial,
    Cluster,
    Spectrum,
    _polish,
    _refined,
    cluster_roots,
    find_roots,
    validate_relation,
)
from .basis import CoefficientTable, _singular_vandermonde, paper_values

__all__ = ["HighPrecisionFlow"]

_exp = np.frompyfunc(mp.exp, 1, 1)  # elementwise, at the working precision of each call


def _split(x: np.ndarray) -> tuple:
    """``x`` (``clongdouble``, or ``mpc`` in an object array) as complex128
    ``hi + lo``: its double rounding and that of the rest (Dekker's
    double-length pair, *Numer. Math.* 18, 1971), which carries either to the other."""
    hi = x.astype(np.complex128)
    return hi, (x - hi).astype(np.complex128)


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
    many solutions; ``start.work`` is then refined on the same system by 6
    rounds of ``annihilator._refined``.  The system is one object array of
    ``mpc``, which mpmath's solvers read as an ``mp.matrix``.  The entries of
    ``a`` are taken as exact.
    """
    n, p = a.shape[0], start.degree
    rng = np.random.default_rng(0)
    v = mp.matrix((rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist())
    am = mp.matrix(a.tolist())
    krylov = list(itertools.accumulate([am] * p, lambda x, m: m * x, initial=v))
    k = np.array([[krylov[j][i] for j in range(p)] for i in range(n)], dtype=object)
    if start.residual is not None:
        try:
            km = mp.matrix(k.tolist())
            c = mp.lu_solve(km, krylov[p]) if p == n else mp.qr_solve(km, krylov[p])[0]
            return [-c[i] for i in range(p)] + [mp.mpc(1)]
        except (ZeroDivisionError, ValueError):  # mpmath's reports of a singular system
            pass
    hi, lo = _split(start.work[:-1])
    c = np.array([-(mp.mpc(h) + l) for h, l in zip(hi.tolist(), lo.tolist())], dtype=object)
    c = _refined(k, np.array(krylov[p], dtype=object), c, 6)
    return [-x for x in c] + [mp.mpc(1)]


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

    def __init__(self, a: np.ndarray, relation, spectrum, dps: int):
        self.dps = dps
        self._a = a
        self._start = relation
        self._given = spectrum

    @functools.cached_property
    def _form(self) -> SimpleNamespace:
        """The relation, spectrum and table at working precision."""
        p = self._start.degree
        with mp.workdps(self.dps):
            asc = np.array(_krylov_relation(self._a, self._start), dtype=object)
            # the spectrum of the relation at working precision, rounded
            q = AnnihilatorPolynomial.from_work(np.sum(_split(asc), axis=0, dtype=np.clongdouble))
            found = cluster_roots(find_roots(q), polynomial=q).clusters
            groups = [[c.value] * c.multiplicity for c in found]
            centres = _polish(asc, groups, math.inf, 10.0 ** (5 - self.dps))
            winding = [self._given.winding_near(c.value) for c in found]
            logs = [mp.log(x) + 2j * mp.pi * k for (x, _), k in zip(centres, winding)]
            clusters = [Cluster(complex(x), m, log) for (x, m), log in zip(centres, logs)]
            spectrum = Spectrum(tuple(clusters))
            b = paper_values(spectrum, [mp.mpc(-(i + 1)) for i in range(p)], _exp)
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
            return list(form.coeffs.work @ paper_values(form.spectrum, [mp.mpc(complex(z))], _exp)[0])

    def mu(self, z: complex) -> np.ndarray:
        return np.array([complex(v) for v in self.mu_mp(z)], dtype=np.complex128)
