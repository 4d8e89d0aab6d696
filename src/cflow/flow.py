"""Complete flows A^z: the evaluated Schur construction, the paper's form,
the Jordan-block oracle, and the structural checks tying them together.

:func:`build_flow` evaluates ``A^z = sum_k f_k(z) M_k`` over the covariants
``M_(lam, j) = P_lam (A - lam I)^j`` of the confluent Sylvester formula, from
one balanced complex Schur form: no relation and no negative powers.  The
paper's form ``A^z = sum_i mu_i(z) A^{-i}`` over the negative powers of the
relation degree ``p`` is an independent second construction, built on first
read (:class:`PaperForm`): the generalized Vandermonde table.  The companion
method, ``C^z c`` for the companion matrix ``C`` of the relation, has the
same table: ``C e_1 = c`` and ``C e_{j+1} = e_j`` give ``C^{-j} c = e_j``.
"""

from __future__ import annotations

import cmath
import importlib.util
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from .annihilator import (
    AnnihilatorPolynomial,
    Cluster,
    Spectrum,
    characteristic_polynomial,
    cluster_roots,
    companion_matrix,
    find_roots,
    group_roots,
    minimal_polynomial,
    validate_relation,
)
from .basis import (
    CoefficientTable,
    _checked_exponent,
    _extended_values,
    basis_values,
    generalized_binomial,
    invert_vandermonde,
    scalar_flow,
    term_values,
    vandermonde_matrix,
)
from .errors import (
    AmbiguousRank,
    CFlowError,
    ConditioningWarning,
    DimensionMismatch,
    NonConvergence,
    NonFiniteEntry,
    RelationInvalid,
    ZeroEigenvalue,
)
from .numeric import as_matrix, extended_inverse, inverse, max_norm

__all__ = [
    "FlowRepresentation",
    "FlowAxiomReport",
    "spectral_table",
    "schur_covariants",
    "check_relation",
    "build_flow",
    "evaluate_flow",
    "CompanionFlow",
    "evaluate_companion_flow",
    "jordan_block_flow",
    "jordan_oracle",
    "check_flow_axioms",
]

_RELATION_TOL = 1e-9  # the relative residual at which a relation is accepted


@cache
def _lapack():
    """scipy's compiled LAPACK wrapper, loaded on first use by file path (a
    few ms, against about 0.25 s for ``import scipy.linalg``), or
    ``scipy.linalg.lapack`` where scipy's layout has no such file."""
    found = sorted(Path(scipy.__file__).parent.glob("linalg/_flapack*"))
    if not found:
        return importlib.import_module("scipy.linalg.lapack")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", found[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class PaperForm:
    """The paper's form ``A^z = sum_i mu_i(z) A^{-i}`` of its own checked
    matrix ``a``, built on first read of any attribute, or by :meth:`mu` or :meth:`power`.

    A supplied relation ``q`` is validated at once.  Otherwise the minimal
    polynomial is discovered, or, when its rank is ambiguous, the
    characteristic polynomial is validated like a supplied relation.
    ``spectrum`` and ``coeffs`` are its :func:`spectral_table`, branch logs
    shifted by ``branch``.  Where the sum's cancellation (``sum |mu_i(z)|
    |A^{-i}|`` against ``|A^z|`` over a working range of ``z``) is beyond
    extended precision, ``high_precision`` is the form at working precision
    (:class:`cflow.highprec.HighPrecisionFlow`); otherwise it is None, a
    discovered relation is validated too, and an ill-conditioned table warns.
    """

    def __init__(self, a, q=None, branch=None):
        self._a, self._q, self._branch = a, q, branch
        self._residual = None if q is None else check_relation(self._a, q)

    relation = property(lambda self: self._form.relation)
    spectrum = property(lambda self: self._form.spectrum)
    coeffs = property(lambda self: self._form.coeffs)
    relation_residual = property(lambda self: self._form.relation_residual)
    high_precision = property(lambda self: self._form.high_precision)
    degree = property(lambda self: self._form.relation.degree)

    @cached_property
    def _form(self) -> SimpleNamespace:
        a, q, residual = self._a, self._q, self._residual
        if discovered := q is None:
            try:
                q = minimal_polynomial(a)
                residual = q.residual
            except AmbiguousRank:
                q, discovered = characteristic_polynomial(a), False
                source = "characteristic polynomial (minimal polynomial rank ambiguous): "
                residual = _accepted(validate_relation(a, q), source)
        spectrum, coeffs = spectral_table(q, self._branch)
        negs_ext = np.stack(_negative_powers_extended(a, q.degree))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            neg_scales = np.max(np.abs(negs_ext), axis=(1, 2)).astype(np.float64)
            f = np.array([_extended_values(spectrum, z) for z in (1.0, 5.0, -3.0)])
            mu_probe = np.abs(f @ coeffs.work.T).astype(np.float64)
            amp = float(np.max(mu_probe @ neg_scales)) / max(1.0, max_norm(a))
        if not math.isfinite(amp):
            raise NonFiniteEntry(
                "an intermediate of the build overflows: the amplification estimate "
                "of the negative-power sum exceeds double precision"
            )
        hp, mu = None, lambda z: coeffs.work @ _extended_values(spectrum, z)
        if amp > 1e8:
            from .highprec import HighPrecisionFlow

            hp = HighPrecisionFlow(a, q, spectrum, min(60, 35 + int(np.log10(amp))))
            mu = hp.mu
        else:  # the table's conditioning is reported once the tier is decided
            coeffs.warn_if_ill_conditioned()
            if discovered:
                _accepted(residual)
        return SimpleNamespace(
            relation=q, spectrum=spectrum, coeffs=coeffs, relation_residual=residual,
            high_precision=hp, negs=negs_ext, amplification=amp, mu=mu,
        )

    def mu(self, z: complex) -> np.ndarray:
        """The coefficient vector ``mu(z)``, which must be finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # rounded, then checked
            return _finite(self._form.mu(z).astype(np.complex128), "mu", z)

    def power(self, z: complex) -> np.ndarray:
        """The paper's sum ``A^z = sum_i mu_i(z) A^{-i}`` over the extended
        chain.  In the mpmath tier, where it cancels by more than 1e8 and only
        ``mu`` is at working precision, it warns (:class:`ConditioningWarning`)."""
        if self.high_precision is not None:
            amp = self._form.amplification
            warnings.warn(f"the paper's sum cancels by about {amp:.1e}", ConditioningWarning, 2)
        with np.errstate(over="ignore", invalid="ignore"):  # rounded, then checked
            mu = _finite(self._form.mu(z), "mu", z)  # extended outside the tier
            return _finite(np.tensordot(mu, self._form.negs, 1).astype(np.complex128), "A^z", z)


@dataclass(frozen=True)
class FlowRepresentation:
    """Everything needed to evaluate ``A^z = sum_k f_k(z) M_k`` at any ``z``:
    ``spectrum`` and ``covariants`` are :func:`schur_covariants`, ``scales``
    their ``max|M_k|`` from the Schur factors, within a few ulps.  ``relation``
    is that of ``paper``, the matrix's :class:`PaperForm`, and raises its errors;
    ``high_precision`` is None where that form fails and outside the mpmath tier.
    """

    spectrum: Spectrum
    covariants: np.ndarray = field(compare=False, repr=False)
    scales: np.ndarray = field(compare=False, repr=False)
    paper: PaperForm = field(compare=False, repr=False)

    relation = property(lambda self: self.paper.relation)

    @cached_property  # a failed form is not built again on every read
    def high_precision(self):
        try:
            return self.paper.high_precision
        except CFlowError:
            return None

    @cached_property
    def _contraction(self) -> tuple:
        """What every evaluation reads, built on first use: the covariants as
        one ``(p, n*n)`` matrix (a view of the stack), ``n``, and the radius
        of :func:`_finite_radius` over the largest of ``scales``."""
        p, n, _ = self.covariants.shape
        return self.covariants.reshape(p, n * n), n, _finite_radius(self.spectrum, float(self.scales.max()))

    def evaluation_condition(self, z: complex) -> float:
        """Condition of the sum :func:`evaluate_flow` computes at ``z``:
        ``sum_k |f_k(z)| |M_k| / |A^z|`` in the max norm, over the terms
        ``f_k(z) = ff_j(z) lambda^z`` of :func:`basis_values` and the
        scale-free covariants (:func:`schur_covariants`).

        At least 1 up to rounding, by the triangle inequality; the rounding
        errors of the double-precision sum are amplified by this ratio.  Raises
        :class:`NonFiniteEntry` where :func:`basis_values` refuses ``z``, and
        where the ratio is not finite (a falling factorial that overflows).
        """
        flat = self._contraction[0]
        z = _checked_exponent(self.spectrum, z)
        # Every power is divided by e^c, the largest modulus among them: the
        # ratio is unchanged, and no modulus overflows or all underflow.
        with np.errstate(over="ignore", invalid="ignore"):
            c = float(np.max((z * self.spectrum.logs).real))
            f = term_values(self.spectrum, z, lambda w: np.exp(w - c))
            cond = np.abs(f) @ self.scales / max(max_norm(f.dot(flat)), 1e-300)
            return float(_finite(cond, "the evaluation condition", z))


def _finite_radius(spectrum: Spectrum, top: float) -> float:
    """A radius ``R`` such that every ``|z| <= R`` gives finite basis values
    and ``sum_k |f_k(z)| max|M| <= 1e300``, over the terms ``f_k(z) = ff_j(z)
    lambda^z`` and the scale-free covariants, which proves ``A^z`` finite with
    room for rounding; -1 when ``top``, the largest term scale (within a few
    ulps of ``max|M|``, far inside that room), is not finite.

    A term of shift ``j`` is at most ``|ff_j(z)| e^(Re z log lam) max|M|``,
    and ``|ff_j(z)| <= (|z| + J)^J`` once ``|z| + J >= 1``, with ``J`` the
    largest shift.  With ``L = max |log lam|``, every term is at most ``(|z| +
    J)^J e^(|z| L) max|M|``, and the bound holds while ``J log(|z| + J) + |z|
    L <= B = log(1e300 / (p max|M|))``.  ``R0 = B / L`` drops the logarithm,
    so it is at least the largest such ``|z|``, and ``R = (B - J log(R0 +
    J)) / L`` satisfies the bound when ``R0 + J > 1``: a closed form, not an
    iteration.  ``R`` is finite, so an infinite ``z`` lies outside.  Inside,
    every falling factorial and every power is at most ``e^B <= 1e300``, and
    every phase ``|z log lam| <= RL <= B < 691`` lies far below the ``2^45``
    that :func:`_checked_exponent` refuses.
    """
    if not math.isfinite(top):
        return -1.0
    shift = max(c.multiplicity for c in spectrum.clusters) - 1
    spread = max(abs(c.log) for c in spectrum.clusters)
    budget = math.log(1e300 / max(spectrum.degree * top, 1.0))
    if spread == 0.0:  # every eigenvalue is 1 on the principal branch
        r = math.exp(budget / shift) - shift if shift else math.inf
    else:
        r = budget / spread
        if shift and r + shift > 1.0:
            r = (budget - shift * math.log(r + shift)) / spread
    return min(r, sys.float_info.max)


def _negative_powers_extended(a: np.ndarray, p: int) -> list:
    """``[A^{-1}, ..., A^{-p}]`` of a checked matrix, ``p >= 1``, in extended precision:
    the chain's rounding error is amplified by the cancellation in ``sum mu_i A^{-i}``."""
    return list(itertools.accumulate([extended_inverse(a)] * p, np.matmul))


def spectral_table(
    q: AnnihilatorPolynomial, branch_offsets: dict | Spectrum | None = None
) -> tuple[Spectrum, CoefficientTable]:
    """The spectrum and coefficient table of a relation: its roots, clustered
    into eigenvalues with branch logs (:meth:`Spectrum.with_branch_offsets`),
    and the inverse of the generalized Vandermonde system of their terms.

    These depend on the relation alone, not on a matrix it annihilates.
    """
    spectrum = cluster_roots(find_roots(q), polynomial=q)
    if branch_offsets:
        spectrum = spectrum.with_branch_offsets(branch_offsets)
    # mu_i = sum_j e_ij f_j requires the inverse of (f_i(-j)), the transpose
    # of the row-per-evaluation-point layout returned by vandermonde_matrix.
    return spectrum, invert_vandermonde(vandermonde_matrix(spectrum).T)


def schur_covariants(a) -> tuple[Spectrum, np.ndarray]:
    """The spectrum of ``a`` and its scale-free covariants ``M_(lam, j) lam^(-j)
    / j!``, ``M_(lam, j) = P_lam (A - lam I)^j``, from one complex Schur form,
    with no relation and no negative powers.  With the values ``ff_j(z) lam^z``
    of :func:`cflow.basis.basis_values` they sum to ``A^z``: ``binom(z, j)
    lam^(z - j) M_j`` is the same term, and every factor of it stays within
    ``A^z``'s own range, however large or small ``lam`` is.

    The form ``B = Q T Q*`` is that of ``B = D^{-1} A D / s``, ``D`` from
    LAPACK ``zgebal`` (scaling only; Parlett and Reinsch, *Numer. Math.* 13,
    1969) and ``s = 2^floor(log2 max|B|)``: powers of two, so every threshold
    is relative to ``A``'s scale and the map back is exact, ``lam = s mu``.
    :func:`group_roots` groups the diagonal
    of ``T`` by index; each multiple group is reordered to the top in turn
    (``ztrsen`` keeps the order of the rest), so each group is one block ``b
    = [lo, hi)``.  ``R`` is upper triangular with ``R T R^{-1}`` block
    diagonal (Bavely and Stewart 1979): a simple position's row is a left
    eigenvector of ``T``, all from one ``zgeev`` (``ztrevc3``), and a
    multiple block's rows are ``[0 I X]``, ``T_bb X - X T[hi:, hi:] =
    T[lo:hi, hi:]`` (``ztrsyl``, for multiple blocks only); ``L = R^{-1}``
    (``ztrtri``).  With ``mu`` the mean of ``diag(T_bb)``, the covariants
    are ``D (Q L)[:, b] ((T_bb - mu I) / mu)^j (R Q*)[b, :] D^{-1} / j!``,
    ``j < m`` (Higham, *Functions of Matrices*, 2008, section 1.2): one
    batched outer product for all simple eigenvalues, one product per
    multiple one, whose powers divide by ``j`` as they are formed.  Returns
    ``A``'s spectrum (principal branch) and the ``(n, n, n)`` stack in its
    term order; :func:`build_flow` also keeps the factors' term scales.

    An eigenvalue of ``B`` at or below ``1e-10`` (``max|B|`` lies in
    ``[1, 2)``), or a group centred there, raises :class:`ZeroEigenvalue`;
    a failed Schur iteration, reordering, ``zgeev``, Sylvester solve or
    triangular inverse raises :class:`NonConvergence`.
    """
    return _schur_covariants(as_matrix(a))[:2]


def _schur_covariants(a: np.ndarray) -> tuple[Spectrum, np.ndarray, np.ndarray]:
    """:func:`schur_covariants` of a matrix already checked by :func:`as_matrix`, and
    the terms' scales (``FlowRepresentation.scales``): a rank-one term ``u v^T``'s
    ``max|u| max|v|``, not finite where an entry is not, or a cluster term's ``max|M|``."""
    lapack, n = _lapack(), a.shape[0]
    b, _, _, d, _ = lapack.zgebal(a, scale=1)
    s = math.ldexp(1.0, math.frexp(max_norm(b))[1] - 1)
    t, _, _, q, _, info = lapack.zgees(lambda _: None, b / s)
    if info != 0:
        raise NonConvergence(f"Schur form did not converge (zgees info {info})")
    groups = group_roots(t.diagonal())
    # owner[i]: the group of diagonal position i, kept in step with the reordering
    owner = [0] * n
    for ci, (_, g) in enumerate(groups):
        for i in g:
            owner[i] = ci
    for ci in [ci for ci, (_, g) in enumerate(groups) if len(g) > 1]:
        t, q, *_, info = lapack.ztrsen([o == ci for o in owner], t, q, job="N")
        if info != 0:
            raise NonConvergence(f"Schur reordering failed (ztrsen info {info})")
        owner = [o for o in owner if o == ci] + [o for o in owner if o != ci]
    starts = [0] + [i for i in range(1, n) if owner[i] != owner[i - 1]]
    blocks = list(zip(starts, starts[1:] + [n]))
    r = np.eye(n, dtype=np.complex128)
    if len(blocks) > 1:  # a simple position's row: a left eigenvector of t (ztrevc3)
        _, vl, _, info = lapack.zgeev(t, compute_vl=1, compute_vr=0)
        if info != 0:
            raise NonConvergence(f"left eigenvectors failed (zgeev info {info})")
        r = vl.T.conj()
    for lo, hi in [(lo, hi) for lo, hi in blocks if hi - lo > 1]:  # rows [0 I X]
        r[lo:hi] = np.eye(hi - lo, n, lo)
        if hi < n:
            x, scale, info = lapack.ztrsyl(t[lo:hi, lo:hi], t[hi:, hi:], t[lo:hi, hi:], isgn=-1)
            if info != 0:
                raise NonConvergence(f"Sylvester solve failed (ztrsyl info {info})")
            r[lo:hi, hi:] = x / scale
    l, info = lapack.ztrtri(r)
    if info != 0:
        raise NonConvergence(f"inverting the block diagonalization failed (ztrtri info {info})")
    left, right = (d[:, None] * q) @ l, (r @ q.conj().T) / d
    # Every position's rank-one term u v^T and its scale, in term order (each
    # simple eigenvalue's covariant); a multiple cluster's terms are then replaced.
    order = sorted(range(n), key=owner.__getitem__)
    idx = np.array(order)
    lt, rt = left.T[idx], right[idx]
    out = lt[:, :, None] @ rt[:, None, :]
    scales = np.abs(lt).max(axis=1) * np.abs(rt).max(axis=1)
    clusters = [None] * len(groups)
    for lo, hi in blocks:
        ci, m = owner[lo], hi - lo
        mu = groups[ci][0]  # diag(T_bb)'s mean: ztrsen swaps diagonal entries exactly, in order
        clusters[ci] = Cluster(s * mu, m, cmath.log(s * mu))
        if m > 1:  # its m terms in one product over the stacked I, N, ..., N^(m-1)
            powers = np.empty((m, m, m), dtype=np.complex128)
            powers[0] = np.eye(m)
            nil = (t[lo:hi, lo:hi] - mu * powers[0]) / mu
            for k in range(1, m):
                np.matmul(powers[k - 1], nil, out=powers[k])
                powers[k] /= k
            j = order.index(lo)
            np.matmul(left[:, lo:hi] @ powers, right[lo:hi], out=out[j : j + m])
            scales[j : j + m] = np.abs(out[j : j + m]).max(axis=(1, 2))
    return Spectrum(tuple(clusters)), out, scales


def _accepted(residual: float, source: str = "") -> float:
    if not residual <= _RELATION_TOL:  # a NaN residual is refused too
        raise RelationInvalid(
            f"{source}relation residual {residual:.3e} exceeds {_RELATION_TOL:.1e}"
        )
    return residual


def check_relation(a, q: AnnihilatorPolynomial) -> float:
    """:func:`validate_relation`, raising :class:`RelationInvalid` above 1e-9."""
    return _accepted(validate_relation(a, q))


def build_flow(
    a, q: AnnihilatorPolynomial | None = None, branch_offsets: dict | None = None
) -> FlowRepresentation:
    """The flow representation of ``a``: its :func:`schur_covariants`, and
    its :class:`PaperForm` with ``q`` validated now, or discovered on first
    read when omitted.  ``branch_offsets`` maps a cluster index of the Schur
    spectrum to an integer winding number added to that eigenvalue's branch
    log (each choice yields a different, equally valid flow), and the paper's
    form carries the choice over to its nearest clusters.
    """
    a = as_matrix(a)  # the one check; the paper's form reads a private copy
    spectrum, covariants, scales = _schur_covariants(a)
    if branch_offsets:
        spectrum = spectrum.with_branch_offsets(branch_offsets)
    return FlowRepresentation(spectrum, covariants, scales, PaperForm(a.copy(), q, spectrum))


def _finite(x: np.ndarray, what: str, z: complex) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NonFiniteEntry(f"{what} is not finite at z={complex(z)}")
    return x


def evaluate_flow(rep: FlowRepresentation, z: complex) -> np.ndarray:
    """Evaluate ``A^z = sum_k f_k(z) M_k`` from a representation.

    Raises :class:`NonFiniteEntry` when ``z`` or the result is not finite, or
    a phase keeps no digit (:func:`basis_values`).
    """
    flat, n, radius = rep._contraction
    z = complex(z)
    # Inside the radius the basis values and the result are finite, so
    # nothing is checked; a NaN or infinite z fails the comparison.  (abs()
    # can raise OverflowError on a NaN, from a stale errno.)
    if math.hypot(z.real, z.imag) <= radius:
        return term_values(rep.spectrum, z).dot(flat).reshape(n, n)
    # Beyond it, the entries are checked.
    values = basis_values(rep.spectrum, z)
    with np.errstate(over="ignore", invalid="ignore"):
        out = values.dot(flat).reshape(n, n)
    return _finite(out, "A^z", z)


class CompanionFlow(PaperForm):
    """The paper's form of the companion matrix ``C`` of a relation ``q``:
    since ``C^z = sum_i nu_i(z) C^{-i}`` and ``C^{-i} c = e_i``, its ``mu``
    are the relation's ``C^z c``.  ``C`` is balanced by ``D^{-1} C D``, ``D``
    powers of ``2^k`` with ``k`` the rounded ``log2`` of the geometric-mean
    root magnitude, which keeps the precision probe of high-degree relations
    meaningful; its :meth:`power` is the flow of that balanced matrix."""

    def __init__(self, q: AnnihilatorPolynomial, branch_offsets: dict | None = None):
        if not np.isfinite(q.coeffs).all():
            raise NonFiniteEntry("a coefficient of the relation is not finite")
        if abs(q.coeffs[0]) == 0.0:
            raise ZeroEigenvalue(
                "constant coefficient is zero; zero is a root of the relation"
            )
        p = q.degree
        # Powers of two keep the similarity exact, so q stays the balanced
        # matrix's relation to the last bit.
        scale = np.ldexp(1.0, round(math.log2(abs(q.coeffs[0])) / p) * np.arange(p))
        balanced = companion_matrix(q) * np.outer(1.0 / scale, scale)
        super().__init__(as_matrix(balanced), q, branch_offsets)


def evaluate_companion_flow(
    a, q: AnnihilatorPolynomial, z: complex, branch_offsets: dict | None = None
) -> np.ndarray:
    """``A^z`` of ``a`` with the relation ``q`` validated: :func:`evaluate_flow`
    of its representation, from the covariants.  The paper's sum with ``mu =
    C^z c`` is :meth:`PaperForm.power` of ``build_flow(a, q).paper``."""
    return evaluate_flow(build_flow(a, q, branch_offsets), z)


def jordan_block_flow(lam: complex, size: int, z: complex) -> np.ndarray:
    """Flow of a single Jordan block ``lam * I + N``:
    ``sum_j g_j(z) lam^(z-j) N^j`` (upper-triangular Toeplitz)."""
    if size < 1:
        raise ValueError("block size must be positive")
    lam = complex(lam)
    z = complex(z)
    out = np.zeros((size, size), dtype=np.complex128)
    for j in range(size):
        val = generalized_binomial(j, z) * scalar_flow(lam, z - j)
        for i in range(size - j):
            out[i, i + j] = val
    return out


def jordan_oracle(blocks, t, z: complex) -> np.ndarray:
    """Ground-truth flow ``T J^z T^{-1}`` for a synthetic Jordan structure.

    ``blocks`` is a list of ``(eigenvalue, size)`` pairs whose sizes must sum
    to the dimension of ``t``.
    """
    t = as_matrix(t)
    n = t.shape[0]
    if sum(s for _, s in blocks) != n:
        raise DimensionMismatch("block sizes do not sum to the matrix dimension")
    jz = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for lam, size in blocks:
        jz[pos : pos + size, pos : pos + size] = jordan_block_flow(lam, size, z)
        pos += size
    return t @ jz @ inverse(t)


@dataclass(frozen=True)
class FlowAxiomReport:
    """Measured residuals of the three flow axioms for one representation."""

    identity_residual: float
    generator_residual: float
    group_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.identity_residual, self.generator_residual, self.group_residual)


def check_flow_axioms(rep: FlowRepresentation, a, samples) -> FlowAxiomReport:
    """Measure ``|F(0) - I|``, ``|F(1) - A|`` and the group law over sample
    ``(z, w)`` pairs; pure measurement, never raises on large residuals.

    The endpoint checks are normalized by ``max(1, |A|)``, each group-law
    sample by ``max(1, |F(z)| * |F(w)|)``; the paper's form is not built.
    """
    a = as_matrix(a)
    scale = max(1.0, max_norm(a))
    ident = max_norm(evaluate_flow(rep, 0.0) - np.eye(a.shape[0])) / scale
    gen = max_norm(evaluate_flow(rep, 1.0) - a) / scale
    group = 0.0
    for z, w in samples:
        fz = evaluate_flow(rep, z)
        fw = evaluate_flow(rep, w)
        fzw = evaluate_flow(rep, complex(z) + complex(w))
        denom = max(1.0, max_norm(fz) * max_norm(fw))
        group = max(group, max_norm(fz @ fw - fzw) / denom)
    return FlowAxiomReport(identity_residual=ident, generator_residual=gen, group_residual=group)
