"""Arbitrary-precision set-up for badly amplified flows.

The representation ``A^z = sum_i mu_i(z) A^{-i}`` cancels heavily when the
relation mixes large and small eigenvalue magnitudes with multiplicities:
``sum_i |mu_i(z)| * |A^{-i}|`` can exceed ``|A^z|`` by many orders, and every
error -- in the relation coefficients, the coefficient table, the
negative-power chain, or the contraction -- is amplified by that ratio.
When the measured amplification pushes the extended-precision (80-bit) error
estimate above the accuracy target, the flow is set up here instead: the
whole chain is redone at a working precision chosen to absorb the
amplification, starting from the relation coefficients themselves (their
storage rounding alone would otherwise dominate).  The cancellation is then folded away once, into the Frobenius
covariants ``M_k = sum_i e_ik A^{-i}`` with ``A^z = sum_k f_k(z) M_k``, which
are rounded to complex128; evaluation never returns here.

Scalar work (root polish, logarithms, the basis values) uses mpmath.
Matrix products run on a block fixed-point kernel: a matrix is a pair of
Python-int arrays (real and imaginary parts) times one power of two, holding
the working precision plus guard bits relative to its largest entry.
Rounding is then norm-wise per matrix, which is the error model the
precision choice (``sum |mu_i| |A^{-i}| / |A|``) is made in.  The two
inverses (``A^{-1}`` and the ``p x p`` table) are Newton-Schulz refinements
of the extended-precision inverse on that kernel, with mpmath's LU as the
fallback when the extended start is too far off to converge.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .annihilator import AnnihilatorPolynomial, Cluster, Spectrum, cluster_roots, find_roots
from .basis import build_basis
from .numeric import DEFAULT_TOL, ToleranceConfig, extended_inverse

__all__ = ["HighPrecisionFlow", "extended_matrix"]

GUARD_BITS = 32
_FLOAT_BITS = 1000  # int parts are cut to this many bits before float conversion


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


def _to_complex(b: _Block) -> np.ndarray:
    """Round a block to complex128."""
    b = _normalized(b, _FLOAT_BITS)
    return np.ldexp(b.re.astype(np.float64), b.exp) + 1j * np.ldexp(
        b.im.astype(np.float64), b.exp
    )


def _stack(blocks: list, bits: int) -> _Block:
    """Equal-shape blocks flattened into the rows of one block at a common
    exponent; exact, except for parts more than ``2 * bits`` bits below the
    largest."""
    top = max(b.exp + _top_bits(b) for b in blocks)
    exp = max(min(b.exp for b in blocks), top - 2 * bits)
    re = np.stack([_shift(b.re, b.exp - exp).reshape(-1) for b in blocks])
    im = np.stack([_shift(b.im, b.exp - exp).reshape(-1) for b in blocks])
    return _Block(re, im, exp)


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
    """Inverse of a complex128 matrix or of an object array of mpmath
    numbers, at working precision: Newton-Schulz from the extended-precision
    inverse, or mpmath's LU when that start is too far off."""
    exact = m.dtype == object
    a = _from_mp(m.flat, m.shape, bits) if exact else _from_complex(m, bits)
    x = _newton_inverse(a, extended_inverse(extended_matrix(m) if exact else m), bits)
    if x is None:
        inv = mp.matrix(m.tolist()) ** -1
        x = _from_mp(itertools.chain(*inv.tolist()), m.shape, bits)
    return x


def _minimal_relation(a: np.ndarray, p: int) -> list | None:
    """Ascending monic coefficients of the degree-``p`` minimal relation of
    ``a`` at working precision; ``None`` when the Krylov vectors below
    degree ``p`` are dependent (``p`` is above the minimal degree).

    The relation is solved for directly from the Krylov sequence of a fixed
    random vector, ``A^p v = sum_i c_i A^i v``, by least squares in mpmath:
    its double-precision discovery can be wrong in every digit once the
    Krylov basis outgrows double precision (n = 20 to 24), and refining
    such a start does not converge.
    """
    n = a.shape[0]
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
    try:
        c = mp.lu_solve(k, krylov[p]) if p == n else mp.qr_solve(k, krylov[p])[0]
    except ZeroDivisionError:  # mpmath's report of a numerically singular system
        return None
    return [-c[i] for i in range(p)] + [mp.mpc(1)]


def _refine_against_matrix(a: _Block, asc: list, bits: int) -> list:
    """Refine ascending monic coefficients so the relation annihilates ``a``
    at working precision.

    Mixed-precision iteration on the flattened Krylov system: residuals at
    working precision, corrections from a double-precision least-squares
    solve.  The entries of ``a`` are taken as exact.
    """
    p = len(asc) - 1
    powers = [a]
    for _ in range(p - 1):
        powers.append(_mul(powers[-1], a, bits))
    krylov = _stack([_identity(a.re.shape[0])] + powers[: p - 1], bits)
    k_dbl = _to_complex(krylov).T
    top = _stack(powers[-1:], bits)
    coef = [-asc[i] for i in range(p)]
    for _ in range(6):
        fit = _product(_from_mp(coef, (1, p), bits), krylov)
        r_dbl = _to_complex(_sum(top, fit, -1))[0]
        if np.max(np.abs(r_dbl)) == 0.0:
            break
        delta, *_ = np.linalg.lstsq(k_dbl, r_dbl, rcond=None)
        coef = [coef[i] + mp.mpc(complex(delta[i])) for i in range(p)]
    return [-c for c in coef] + [mp.mpc(1)]


class HighPrecisionFlow:
    """One matrix's flow, set up at ``dps`` decimal digits.

    Built from the double-precision representation's relation and branch
    choices, with every numerical ingredient recomputed at working
    precision: a supplied relation is refined against the matrix, a
    ``discovered`` one is solved for afresh, and the spectrum (clusters,
    polished eigenvalues, branch logs) is that of the result.  ``basis``
    carries that spectrum, and ``covariants`` the matching ``M_k`` rounded
    to complex128.
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
        self._bits = bits = _working_bits(dps)
        a = np.asarray(a, dtype=np.complex128)
        n = a.shape[0]
        p = relation.degree
        with mp.workdps(dps):
            asc = _minimal_relation(a, p) if discovered else None
            if asc is None:
                asc = [_mpc_from_extended(c) for c in relation.monic_coefficients_extended()]
                asc = _refine_against_matrix(_from_complex(a, bits), asc, bits)
            self._asc = asc
            # the spectrum of the relation at working precision, rounded
            coeffs = -np.array(asc[:-1], dtype=object)
            q = AnnihilatorPolynomial(
                tuple(coeffs.astype(np.complex128)), coeffs_extended=tuple(extended_matrix(coeffs))
            )
            self._centers = []
            clusters = []
            for cluster in cluster_roots(find_roots(q, tol), tol, polynomial=q).clusters:
                center = self._polish_root(asc, cluster.value, cluster.multiplicity)
                # carry over the winding number of the nearest given cluster
                given = min(basis.spectrum.clusters, key=lambda c: abs(c.value - cluster.value))
                winding = round((given.log - cmath.log(given.value)).imag / (2.0 * math.pi))
                log = mp.log(center) + 2j * mp.pi * winding
                self._centers.append((center, cluster.multiplicity, log))
                clusters.append(Cluster(complex(center), cluster.multiplicity, complex(log)))
            self.basis = build_basis(Spectrum(tuple(clusters)))
            self._terms = self.basis.terms
            b = np.array([self._basis_values(mp.mpc(-(i + 1))) for i in range(p)], dtype=object)
            self._e = _to_mp(_inverse(b.T, bits))
            inv = _inverse(a, bits)
            negs = [inv]
            for _ in range(p - 1):
                negs.append(_mul(negs[-1], inv, bits))
            self._negs = _stack(negs, bits)
            self._dim = n
            self.covariants = self.fold(self._e)

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

    def _basis_values(self, z: mp.mpc) -> list:
        out = []
        for ci, j in self._terms:
            center, _, log = self._centers[ci]
            acc = mp.mpc(1)
            for i in range(j):
                acc *= z - i
            out.append(acc / math.factorial(j) * mp.exp((z - j) * log))
        return out

    def fold(self, table: np.ndarray) -> np.ndarray:
        """``M_k = sum_i table[i, k] A^{-i}`` for every column ``k`` of a
        ``p x p`` table, rounded to complex128 with shape ``(p, n, n)``.

        The sum is exact over the stored negative powers; its cancellation
        is what the working precision was chosen for.
        """
        p = len(self._terms)
        t = _from_mp(table.T.flat, (p, p), self._bits)
        return _to_complex(_product(t, self._negs)).reshape(p, self._dim, self._dim)

    def mu_mp(self, z: complex) -> list:
        """The coefficient vector as a list of ``mpc`` values."""
        with mp.workdps(self.dps):
            return list(self._e @ np.array(self._basis_values(mp.mpc(complex(z))), dtype=object))

    def mu(self, z: complex) -> np.ndarray:
        return np.array([complex(v) for v in self.mu_mp(z)], dtype=np.complex128)
