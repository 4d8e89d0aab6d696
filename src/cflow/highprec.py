"""The paper's form of badly amplified flows, at arbitrary precision.

The representation ``A^z = sum_i mu_i(z) A^{-i}`` cancels heavily when the
relation mixes large and small eigenvalue magnitudes with multiplicities:
``sum_i |mu_i(z)| * |A^{-i}|`` can exceed ``|A^z|`` by many orders, and every
error -- in the relation coefficients, the coefficient table, or the sum --
is amplified by that ratio.  Where the measured amplification pushes the
extended-precision (80-bit) error estimate above the accuracy target,
``build_flow`` takes ``A^z`` from the Schur covariants instead
(:func:`cflow.flow.schur_covariants`), and this module keeps the paper's
``mu`` at a working precision chosen to absorb the amplification: the
relation, its polished roots and branch logs, and the ``p x p`` coefficient
table.  It is set up on first use, by ``mu_functions``, ``analyze`` or the
evaluation condition estimate; building and evaluating a flow never run it.

The relation comes from one Krylov sequence ``v, A v, ..., A^p v`` of a fixed
random vector, in mpmath: solved for when ``build_flow`` discovered it, and
refined from its start otherwise.  Scalar work (root polish, logarithms, the
basis values) uses mpmath too.  The table inverse runs on a block
fixed-point kernel: a matrix is a pair of Python-int arrays (real and
imaginary parts) times one power of two, holding the working precision plus
guard bits relative to its largest entry, so rounding is norm-wise per
matrix.  The inverse is a Newton-Schulz refinement of the extended-precision
inverse on that kernel, with mpmath's LU as the fallback when the extended
start is too far off to converge.  Importing this module also loads the tier's
``scipy.linalg`` (Schur form): one load point, whatever matrices follow.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import SimpleNamespace
from typing import NamedTuple

import mpmath as mp
import numpy as np
import scipy.linalg  # noqa: F401  (schur_covariants)

from .annihilator import (
    AnnihilatorPolynomial,
    Cluster,
    Spectrum,
    cluster_roots,
    find_roots,
    validate_relation,
)
from .basis import CoefficientTable, build_basis
from .numeric import DEFAULT_TOL, ToleranceConfig, extended_inverse

__all__ = ["HighPrecisionFlow", "extended_matrix"]

GUARD_BITS = 32


class _Block(NamedTuple):
    """A complex array ``(re + i * im) * 2**exp`` with Python-int parts."""

    re: np.ndarray
    im: np.ndarray
    exp: int


def _working_bits(dps: int) -> int:
    return int(math.ceil(dps * math.log2(10))) + GUARD_BITS


def _top_bits(b: _Block) -> int:
    return max(map(int.bit_length, itertools.chain(b.re.flat, b.im.flat)), default=0)


def _shift(ints: np.ndarray, by: int) -> np.ndarray:
    """``ints * 2**by``, truncated when ``by`` is negative."""
    if by > 0:
        return ints << by
    if by < 0:
        return ints >> -by
    return ints


def _normalized(b: _Block, bits: int) -> _Block:
    """Drop the low bits so the largest part keeps ``bits`` bits."""
    excess = _top_bits(b) - bits
    if excess > 0:
        return _Block(b.re >> excess, b.im >> excess, b.exp + excess)
    return b


def _product(a: _Block, b: _Block) -> _Block:
    """Exact complex product ``a @ b`` in three integer matmuls."""
    rr = a.re @ b.re
    ii = a.im @ b.im
    mixed = (a.re + a.im) @ (b.re + b.im)
    return _Block(rr - ii, mixed - rr - ii, a.exp + b.exp)


def _mul(a: _Block, b: _Block, bits: int) -> _Block:
    return _normalized(_product(a, b), bits)


def _sum(a: _Block, b: _Block, sign: int = 1) -> _Block:
    """Exact ``a + sign * b`` of equal-shape blocks."""
    exp = min(a.exp, b.exp)
    re = _shift(a.re, a.exp - exp) + sign * _shift(b.re, b.exp - exp)
    im = _shift(a.im, a.exp - exp) + sign * _shift(b.im, b.exp - exp)
    return _Block(re, im, exp)


def _identity(n: int) -> _Block:
    one = np.zeros((n, n), dtype=object)
    np.fill_diagonal(one, 1)
    return _Block(one, np.zeros_like(one), 0)


def _from_parts(parts: list, shape: tuple, bits: int) -> _Block:
    """Block from ``(mantissa, exponent)`` pairs, alternating real and
    imaginary parts.  Exact, except for parts more than ``2 * bits`` bits
    below the largest."""
    nonzero = [(m, e) for m, e in parts if m]
    if not nonzero:
        zeros = np.zeros(shape, dtype=object)
        return _Block(zeros, zeros.copy(), 0)
    top = max(e + abs(m).bit_length() for m, e in nonzero)
    exp = max(min(e for _, e in nonzero), top - 2 * bits)
    ints = np.empty(len(parts), dtype=object)
    ints[:] = [m << (e - exp) if e >= exp else m >> (exp - e) for m, e in parts]
    return _Block(ints[0::2].reshape(shape), ints[1::2].reshape(shape), exp)


def _from_mp(values, shape: tuple, bits: int) -> _Block:
    """Block holding mpmath numbers (row-major ``values``)."""
    parts = []
    for x in values:
        for y in (x.real, x.imag):
            sign, man, e, _ = y._mpf_
            parts.append((-man if sign else man, e))
    return _from_parts(parts, shape, bits)


def _from_complex(a: np.ndarray, bits: int) -> _Block:
    """Block holding a complex128 or clongdouble array (exactly, for a
    modest entry range)."""
    mant, e = np.frexp(np.stack([a.real, a.imag], axis=-1).reshape(-1))
    digits = min(np.finfo(mant.dtype).nmant + 1, 63)
    ints = np.ldexp(mant, digits).astype(np.int64)
    parts = [(int(m), int(x) - digits) for m, x in zip(ints, e)]
    return _from_parts(parts, a.shape, bits)


def _to_mp(b: _Block) -> np.ndarray:
    """A block as an object array of ``mpc`` values."""
    out = np.empty(b.re.shape, dtype=object)
    for idx, re in np.ndenumerate(b.re):
        out[idx] = mp.mpc(mp.mpf((re, b.exp)), mp.mpf((b.im[idx], b.exp)))
    return out


def _mpc_from_extended(x) -> mp.mpc:
    """Convert a ``clongdouble`` scalar to ``mpc`` without dropping the bits
    beyond double precision (high/low split)."""
    hi = complex(np.complex128(x))
    lo = complex(np.complex128(x - np.clongdouble(hi)))
    return mp.mpc(hi) + mp.mpc(lo)


def extended_matrix(m: np.ndarray) -> np.ndarray:
    """An array of mpmath numbers rounded to ``clongdouble`` (high/low split)."""
    hi = m.astype(np.complex128)
    lo = (m - hi).astype(np.complex128)
    return hi.astype(np.clongdouble) + lo


def _newton_inverse(a: _Block, start: np.ndarray, bits: int) -> _Block | None:
    """Refine an approximate inverse of ``a`` to working precision by the
    Newton-Schulz iteration ``X <- X + X (I - A X)``, which squares the
    residual each step.  ``None`` when ``start`` is too far off for it."""
    one = _identity(a.re.shape[0])
    x = _from_complex(start, bits)
    for _ in range(12):
        r = _sum(one, _product(a, x), -1)
        size = _top_bits(r) + r.exp  # |I - A X| < 2**size
        if size >= 0:
            return None
        x = _normalized(_sum(x, _mul(x, _normalized(r, bits), bits)), bits)
        if 2 * size <= -bits:  # this step squared the residual below working precision
            return x
    return None


def _inverse(m: np.ndarray, bits: int) -> _Block:
    """Inverse of an object array of mpmath numbers at working precision:
    Newton-Schulz from the extended-precision inverse, or mpmath's LU when
    that start is too far off."""
    a = _from_mp(m.flat, m.shape, bits)
    x = _newton_inverse(a, extended_inverse(extended_matrix(m)), bits)
    if x is None:
        inv = mp.matrix(m.tolist()) ** -1
        x = _from_mp(itertools.chain(*inv.tolist()), m.shape, bits)
    return x


def _krylov_relation(a: np.ndarray, start: AnnihilatorPolynomial, solve: bool) -> list:
    """Ascending monic coefficients of the degree-``p`` relation of ``a`` at
    working precision, from the Krylov sequence ``v, A v, ..., A^p v`` of a
    fixed random vector.

    With ``solve``, ``A^p v = sum_i c_i A^i v`` is solved for the
    coefficients by least squares in mpmath: a discovered double-precision
    relation can be wrong in every digit once the Krylov basis outgrows
    double precision (n = 20 to 24), and refining such a start does not
    converge.  Otherwise, or when the vectors below degree ``p`` are
    dependent (``p`` is above the minimal degree), ``start`` is refined on
    the same system: residuals at working precision, corrections from a
    double-precision least-squares solve.  The entries of ``a`` are taken
    as exact.
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
    if solve:
        try:
            c = mp.lu_solve(k, krylov[p]) if p == n else mp.qr_solve(k, krylov[p])[0]
            return [-c[i] for i in range(p)] + [mp.mpc(1)]
        except ZeroDivisionError:  # mpmath's report of a numerically singular system
            pass
    k_dbl = np.array(k.tolist(), dtype=np.complex128)
    c = mp.matrix([-_mpc_from_extended(x) for x in start.monic_coefficients_extended()[:-1]])
    for _ in range(6):
        r_dbl = np.array((krylov[p] - k * c).tolist(), dtype=np.complex128)[:, 0]
        if np.max(np.abs(r_dbl)) == 0.0:
            break
        delta, *_ = np.linalg.lstsq(k_dbl, r_dbl, rcond=None)
        c += mp.matrix(delta.tolist())
    return [-c[i] for i in range(p)] + [mp.mpc(1)]


def _basis_values(terms, logs: list, z: mp.mpc) -> list:
    """``g_j(z) lam^(z - j)`` for every basis term, given each cluster's
    branch log, in mpmath."""
    out = []
    for ci, j in terms:
        acc = mp.mpc(1)
        for i in range(j):
            acc *= z - i
        out.append(acc / math.factorial(j) * mp.exp((z - j) * logs[ci]))
    return out


class HighPrecisionFlow:
    """The paper's form of one matrix's flow at ``dps`` decimal digits.

    Built from the double-precision representation's relation and branch
    choices.  Nothing is computed until the form is first read: then a
    ``discovered`` relation is solved for afresh and a supplied one refined
    (:func:`_krylov_relation`), and the spectrum (clusters, polished
    eigenvalues, branch logs) and coefficient table are those of the result.
    ``relation`` is that relation and ``coeffs`` its table, both rounded to
    extended precision; ``relation_residual`` is the relation's
    :func:`validate_relation` measure, ``basis`` carries their spectrum, and
    ``mu_mp`` the coefficient functions at working precision.
    """

    def __init__(
        self,
        a: np.ndarray,
        relation,
        basis,
        dps: int = 50,
        tol: ToleranceConfig = DEFAULT_TOL,
        discovered: bool = False,
    ):
        self.dps = dps
        self._a = np.asarray(a, dtype=np.complex128)
        self._start = relation
        self._given = basis
        self._tol = tol
        self._discovered = discovered

    @functools.cached_property
    def _form(self) -> SimpleNamespace:
        """The relation, table, basis and branch logs at working precision."""
        p = self._start.degree
        with mp.workdps(self.dps):
            asc = _krylov_relation(self._a, self._start, solve=self._discovered)
            # the spectrum of the relation at working precision, rounded
            coeffs = -np.array(asc[:-1], dtype=object)
            q = AnnihilatorPolynomial(
                tuple(coeffs.astype(np.complex128)), coeffs_extended=tuple(extended_matrix(coeffs))
            )
            logs = []
            clusters = []
            tol = self._tol
            for cluster in cluster_roots(find_roots(q, tol), tol, polynomial=q).clusters:
                center = self._polish_root(asc, cluster.value, cluster.multiplicity)
                winding = self._given.spectrum.winding_near(cluster.value)
                log = mp.log(center) + 2j * mp.pi * winding
                logs.append(log)
                clusters.append(Cluster(complex(center), cluster.multiplicity, complex(log)))
            basis = build_basis(Spectrum(tuple(clusters)))
            b = np.array(
                [_basis_values(basis.terms, logs, mp.mpc(-(i + 1))) for i in range(p)], dtype=object
            )
            e = _to_mp(_inverse(b.T, _working_bits(self.dps)))
            table = CoefficientTable(
                e=e.astype(np.complex128),
                condition_estimate=float(np.max(np.abs(b)) * np.max(np.abs(e))) * p,
                e_extended=extended_matrix(e),
            )
        residual = validate_relation(self._a, q, tol)
        return SimpleNamespace(
            relation=q, coeffs=table, basis=basis, logs=logs, e=e, relation_residual=residual
        )

    relation = property(lambda self: self._form.relation)
    coeffs = property(lambda self: self._form.coeffs)
    basis = property(lambda self: self._form.basis)
    relation_residual = property(lambda self: self._form.relation_residual)

    @staticmethod
    def _polish_root(asc: list, x0: complex, multiplicity: int) -> mp.mpc:
        """Newton on the (m-1)-th derivative, where the m-fold root is simple."""
        d = asc
        for _ in range(multiplicity - 1):
            d = [d[i] * i for i in range(1, len(d))]
        dd = [d[i] * i for i in range(1, len(d))]

        def horner(c, x):
            v = mp.mpc(0)
            for coeff in reversed(c):
                v = v * x + coeff
            return v

        x = mp.mpc(x0)
        for _ in range(100):
            denom = horner(dd, x)
            if abs(denom) == 0:
                break
            step = horner(d, x) / denom
            x -= step
            if abs(step) <= mp.mpf(10) ** (-mp.mp.dps + 5) * (1 + abs(x)):
                break
        return x

    def mu_mp(self, z: complex) -> list:
        """The coefficient vector as a list of ``mpc`` values."""
        form = self._form
        with mp.workdps(self.dps):
            values = _basis_values(form.basis.terms, form.logs, mp.mpc(complex(z)))
            return list(form.e @ np.array(values, dtype=object))

    def mu(self, z: complex) -> np.ndarray:
        return np.array([complex(v) for v in self.mu_mp(z)], dtype=np.complex128)
