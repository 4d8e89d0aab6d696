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
    BasisDescriptor,
    CoefficientTable,
    _extended_values,
    _finite_exponent,
    _infinite_phase,
    basis_values,
    build_basis,
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
    NotJordanForm,
    RelationInvalid,
    ZeroEigenvalue,
)
from .numeric import _RANK_TOL, as_matrix, extended_inverse, inverse, max_norm

__all__ = [
    "FlowRepresentation",
    "FlowAxiomReport",
    "negative_powers",
    "spectral_table",
    "schur_covariants",
    "check_relation",
    "build_flow",
    "evaluate_flow",
    "mu_functions",
    "companion_matrix",
    "CompanionFlow",
    "companion_flow_mu",
    "evaluate_companion_flow",
    "jordan_block_flow",
    "jordan_oracle",
    "extend_matrix",
    "companion_action_check",
    "check_flow_axioms",
]

_RELATION_TOL = 1e-9  # the relative residual at which a relation is accepted
_SAME_EIGENVALUE = 1e-7  # Jordan-form eigenvalues this close are one eigenvalue


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
    ``basis`` and ``coeffs`` are its :func:`spectral_table`, branch logs
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
    basis = property(lambda self: self._form.basis)
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
        basis, coeffs = spectral_table(q, self._branch)
        negs_ext = np.stack(_negative_powers_extended(a, q.degree))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            neg_scales = np.max(np.abs(negs_ext), axis=(1, 2)).astype(np.float64)
            f = np.array([_extended_values(basis, z) for z in (1.0, 5.0, -3.0)])
            mu_probe = np.abs(f @ coeffs.e_extended.T).astype(np.float64)
            amp = float(np.max(mu_probe @ neg_scales)) / max(1.0, max_norm(a))
        if not math.isfinite(amp):
            raise NonFiniteEntry(
                "an intermediate of the build overflows: the amplification estimate "
                "of the negative-power sum exceeds double precision"
            )
        hp, mu = None, lambda z: coeffs.e_extended @ _extended_values(basis, z)
        if amp > 1e8:
            from .highprec import HighPrecisionFlow

            hp = HighPrecisionFlow(a, q, basis, min(60, 35 + int(np.log10(amp))))
            mu = hp.mu
        else:  # the table's conditioning is reported once the tier is decided
            coeffs.warn_if_ill_conditioned()
            if discovered:
                _accepted(residual)
        return SimpleNamespace(
            relation=q, basis=basis, coeffs=coeffs, relation_residual=residual,
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
    ``basis`` and ``covariants`` are :func:`schur_covariants`.  ``relation``,
    ``coeffs``, ``relation_residual`` and ``degree`` are those of ``paper``,
    the matrix's :class:`PaperForm`, and raise its errors; ``high_precision``
    is None where that form fails as well as outside the mpmath tier.
    """

    basis: BasisDescriptor
    covariants: np.ndarray = field(compare=False, repr=False)
    paper: PaperForm = field(compare=False, repr=False)

    relation = property(lambda self: self.paper.relation)
    coeffs = property(lambda self: self.paper.coeffs)
    relation_residual = property(lambda self: self.paper.relation_residual)
    degree = property(lambda self: self.paper.degree)

    @cached_property  # a failed form is not built again on every read
    def high_precision(self):
        try:
            return self.paper.high_precision
        except CFlowError:
            return None

    @cached_property
    def _contraction(self) -> tuple:
        """What every evaluation reads, built on first use: the covariants as
        one contiguous ``(p, n*n)`` matrix, their scales ``max|M_k|``, ``n``,
        and the radius of :func:`_finite_radius`."""
        p, n, _ = self.covariants.shape
        flat = np.ascontiguousarray(self.covariants.reshape(p, n * n))
        scales = np.max(np.abs(flat), axis=1)
        return flat, scales, n, _finite_radius(self.basis, float(np.max(scales)))

    def evaluation_condition(self, z: complex) -> float:
        """Condition of the sum :func:`evaluate_flow` computes at ``z``:
        ``sum_k |f_k(z)| |M_k| / |A^z|`` in the max norm.

        At least 1 up to rounding, by the triangle inequality; the rounding
        errors of the double-precision sum are amplified by this ratio.
        """
        flat, scales, *_ = self._contraction
        z = _finite_exponent(z)
        table = self.basis.term_table
        # Every power is divided by e^c, the largest modulus among them: the
        # ratio is unchanged, and no modulus overflows or all underflow.
        c = max(((z - j) * log).real for j, log, _ in table)
        try:
            values = term_values(table, z, lambda w: cmath.exp(w - c))
        except ValueError as exc:
            raise _infinite_phase(z) from exc
        f = np.array(values, dtype=np.complex128)
        return float(np.abs(f) @ scales) / max(max_norm(f.dot(flat)), 1e-300)


def _finite_radius(basis: BasisDescriptor, top: float) -> float:
    """A radius ``R`` such that every ``|z| <= R`` gives finite basis values
    and ``sum_k |f_k(z)| max|M| <= 1e300``, which proves ``A^z`` finite with
    room for rounding; -1 when a covariant is not finite.

    A term of shift ``j`` is at most ``(|z| + j)^j e^((|z| + j) |log lam|) /
    j!``.  With ``J`` the largest shift, ``L = max |log lam|`` and ``s = |z| +
    J``, every term is at most ``s^J e^(sL)``, and the bound holds while ``J
    log s + sL <= B = log(1e300 / (p max|M|))``.  ``s0 = B / L`` drops the
    logarithm, so it is at least the largest such ``s``, and ``s1 = (B - J
    log s0) / L`` satisfies the bound when ``s0 > 1``: a closed form, not an
    iteration.  ``R = s1 - J`` is finite, so an infinite ``z`` lies outside.
    """
    if not math.isfinite(top):
        return -1.0
    shift = max(j for j, _, _ in basis.term_table)
    spread = max(abs(log) for _, log, _ in basis.term_table)
    budget = math.log(1e300 / max(basis.size * top, 1.0))
    if spread == 0.0:  # every eigenvalue is 1 on the principal branch
        s = math.exp(budget / shift) if shift else math.inf
    else:
        s = budget / spread
        if shift and s > 1.0:
            s = (budget - shift * math.log(s)) / spread
    return min(s - shift, sys.float_info.max)


def negative_powers(a, p: int) -> list:
    """``[A^{-1}, ..., A^{-p}]`` by inverting once and multiplying repeatedly.

    The chain is carried in extended precision: its rounding error is later
    amplified by the cancellation in ``sum mu_i A^{-i}``.  Singularity is
    still detected from the inverse's partial pivots.
    """
    return [m.astype(np.complex128) for m in _negative_powers_extended(a, p)]


def _negative_powers_extended(a, p: int) -> list:
    """The negative-power chain kept in extended precision."""
    a = as_matrix(a)
    if p < 1:
        raise ValueError("need at least one negative power")
    out = [extended_inverse(a)]
    for _ in range(p - 1):
        out.append(out[-1] @ out[0])
    return out


def spectral_table(
    q: AnnihilatorPolynomial, branch_offsets: dict | Spectrum | None = None
) -> tuple[BasisDescriptor, CoefficientTable]:
    """The basis and coefficient table of a relation: its roots, clustered
    into eigenvalues with branch logs (:meth:`Spectrum.with_branch_offsets`),
    the basis functions, and the inverse of the generalized Vandermonde system.

    These depend on the relation alone, not on a matrix it annihilates.
    """
    spectrum = cluster_roots(find_roots(q), polynomial=q)
    if branch_offsets:
        spectrum = spectrum.with_branch_offsets(branch_offsets)
    basis = build_basis(spectrum)
    # mu_i = sum_j e_ij f_j requires the inverse of (f_i(-j)), the transpose
    # of the row-per-evaluation-point layout returned by vandermonde_matrix.
    return basis, invert_vandermonde(vandermonde_matrix(basis).T)


def schur_covariants(a) -> tuple[BasisDescriptor, np.ndarray]:
    """The spectrum of ``a`` and its covariants ``M_(lam, j) = P_lam (A - lam I)^j``
    from one complex Schur form, with no relation and no negative powers.

    The form ``B = Q T Q*`` is that of ``B = D^{-1} A D / s``, ``D`` from
    LAPACK ``zgebal`` (scaling only; Parlett and Reinsch, *Numer. Math.* 13,
    1969) and ``s = 2^floor(log2 max|B|)``: powers of two, so every threshold
    is relative to ``A``'s scale and the map back is exact, ``lam = s mu``
    and ``M_j = s^j D N_j D^{-1}``.  :func:`group_roots` groups the diagonal
    of ``T`` by index; each multiple group is reordered to the top in turn
    (``ztrsen`` keeps the order of the rest), so each group is one block ``b
    = [lo, hi)``.  ``R`` is upper triangular with ``R T R^{-1}`` block
    diagonal (Bavely and Stewart 1979): a simple position's row is a left
    eigenvector of ``T``, all from one ``zgeev`` (``ztrevc3``), and a
    multiple block's rows are ``[0 I X]``, ``T_bb X - X T[hi:, hi:] =
    T[lo:hi, hi:]`` (``ztrsyl``, for multiple blocks only); ``L = R^{-1}``
    (``ztrtri``).  With ``mu`` the mean of ``diag(T_bb)``, ``B``'s covariants
    are ``N_j = (Q L)[:, b] (T_bb - mu I)^j (R Q*)[b, :]``, ``j < m`` (Higham,
    *Functions of Matrices*, 2008, section 1.2): one batched outer product
    for all simple eigenvalues, one product per multiple one.  Returns the
    basis of ``A``'s spectrum (principal branch) and the ``(n, n, n)`` stack.

    An eigenvalue of ``B`` at or below ``1e-10`` (``max|B|`` lies in
    ``[1, 2)``), or a group centred there, raises :class:`ZeroEigenvalue`;
    a failed Schur iteration, reordering, ``zgeev``, Sylvester solve or
    triangular inverse raises :class:`NonConvergence`.
    """
    return _schur_covariants(as_matrix(a))


def _schur_covariants(a: np.ndarray) -> tuple[BasisDescriptor, np.ndarray]:
    """:func:`schur_covariants` of a matrix already checked by :func:`as_matrix`."""
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
            r[lo:hi, hi:] = x if scale == 1.0 else x / scale
    l, info = lapack.ztrtri(r)
    if info != 0:
        raise NonConvergence(f"inverting the block diagonalization failed (ztrtri info {info})")
    left, right = (d[:, None] * q) @ l, (r @ q.conj().T) / d
    # Every position's rank-one term, in term order (each simple eigenvalue's
    # covariant); a multiple cluster's terms are then replaced.
    order = sorted(range(n), key=owner.__getitem__)
    out = left.T[order, :, None] @ right[order, None, :]
    clusters = [None] * len(groups)
    for lo, hi in blocks:
        ci, m = owner[lo], hi - lo
        mu = groups[ci][0]  # diag(T_bb)'s mean: ztrsen swaps diagonal entries exactly, in order
        clusters[ci] = Cluster(s * mu, m, cmath.log(s * mu))
        if m > 1:  # its m terms in one product over the stacked I, N, ..., N^(m-1)
            powers = np.empty((m, m, m), dtype=np.complex128)
            powers[0] = np.eye(m)
            nil = (t[lo:hi, lo:hi] - mu * powers[0]) * s
            for k in range(1, m):
                np.matmul(powers[k - 1], nil, out=powers[k])
            j = order.index(lo)
            np.matmul(left[:, lo:hi] @ powers, right[lo:hi], out=out[j : j + m])
    return build_basis(Spectrum(tuple(clusters))), out


def _accepted(residual: float, source: str = "") -> float:
    if residual > _RELATION_TOL:
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
    basis, covariants = _schur_covariants(a)
    if branch_offsets:
        basis = build_basis(basis.spectrum.with_branch_offsets(branch_offsets))
    return FlowRepresentation(basis, covariants, PaperForm(a.copy(), q, basis.spectrum))


def _finite(x: np.ndarray, what: str, z: complex) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NonFiniteEntry(f"{what} is not finite at z={complex(z)}")
    return x


def mu_functions(rep: FlowRepresentation, z: complex) -> np.ndarray:
    """The coefficient vector ``mu(z)`` with ``A^z = sum mu_i(z) A^{-i}``."""
    return rep.paper.mu(z)


def evaluate_flow(rep: FlowRepresentation, z: complex) -> np.ndarray:
    """Evaluate ``A^z = sum_k f_k(z) M_k`` from a representation.

    Raises :class:`NonFiniteEntry` when ``z`` or the result is not finite.
    """
    flat, _, n, radius = rep._contraction
    z = complex(z)
    # Inside the radius the basis values and the result are finite, so
    # nothing is checked; a NaN or infinite z fails the comparison.  (abs()
    # can raise OverflowError on a NaN, from a stale errno.)
    if math.hypot(z.real, z.imag) <= radius:
        values = term_values(rep.basis.term_table, z)
        return np.array(values, dtype=np.complex128).dot(flat).reshape(n, n)
    # Beyond it, the entries are checked.
    values = basis_values(rep.basis, z)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array(values, dtype=np.complex128).dot(flat).reshape(n, n)
    return _finite(out, "A^z", z)


class CompanionFlow:
    """The coefficient functions ``mu(z) = C^z c`` of a relation.

    ``representation`` is the :class:`PaperForm` of the companion matrix
    ``C`` with the relation ``q``: since ``C^z = sum_i nu_i(z) C^{-i}`` and
    ``C^{-i} c = e_i``, its ``nu`` are ``C^z c`` itself.  ``C`` is balanced by
    ``D^{-1} C D``, ``D`` powers of ``2^k`` with ``k`` the rounded ``log2`` of
    the geometric-mean root magnitude, which keeps the precision probe of
    high-degree relations meaningful.
    """

    def __init__(self, q: AnnihilatorPolynomial, branch_offsets: dict | None = None):
        if abs(q.coeffs[0]) == 0.0:
            raise ZeroEigenvalue(
                "constant coefficient is zero; zero is a root of the relation"
            )
        p = q.degree
        # Powers of two keep the similarity exact, so q stays the balanced
        # matrix's relation to the last bit.
        scale = np.ldexp(1.0, round(math.log2(abs(q.coeffs[0])) / p) * np.arange(p))
        balanced = companion_matrix(q) * np.outer(1.0 / scale, scale)
        self.representation = PaperForm(as_matrix(balanced), q, branch_offsets)

    def mu(self, z: complex) -> np.ndarray:
        return self.representation.mu(z)


def companion_flow_mu(
    q: AnnihilatorPolynomial, z: complex, branch_offsets: dict | None = None
) -> np.ndarray:
    """``mu(z) = C^z c`` for the companion matrix ``C`` of the relation."""
    return CompanionFlow(q, branch_offsets).mu(z)


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


def _parse_jordan_blocks(a):
    """Split a Jordan-form matrix into (eigenvalue, size) blocks, or raise."""
    a = as_matrix(a)
    n = a.shape[0]
    off = np.abs(a - np.diag(np.diag(a)) - np.diag(np.diag(a, 1), 1))
    scale = max(1.0, max_norm(a))
    if np.max(off, initial=0.0) > _RANK_TOL * scale:
        raise NotJordanForm("matrix has entries outside the diagonal and superdiagonal")
    blocks = []
    start = 0
    for i in range(n - 1):
        s = a[i, i + 1]
        if abs(s - 1.0) <= _RANK_TOL * scale:
            if abs(a[i, i] - a[i + 1, i + 1]) > _SAME_EIGENVALUE * scale:
                raise NotJordanForm("superdiagonal one joins two different eigenvalues")
            continue
        if abs(s) <= _RANK_TOL * scale:
            blocks.append((complex(a[start, start]), i + 1 - start))
            start = i + 1
        else:
            raise NotJordanForm("superdiagonal entries must be exactly zero or one")
    blocks.append((complex(a[start, start]), n - start))
    return blocks


def extend_matrix(a, new_root: complex, spectrum_of_a: Spectrum) -> np.ndarray:
    """Enlarge ``a`` by a last row and column so that its minimal polynomial
    gains the factor ``(X - new_root)``, while the top-left ``n x n`` block of
    any flow of the result is the flow of ``a``.

    ``a`` is the result's top-left block.  A root away from the existing
    spectrum is the new diagonal entry, alone.  A repeated root requires ``a``
    in Jordan (block-diagonal) form: the largest block with that eigenvalue
    grows by one, its eigenvalue on the new diagonal entry and a one in the
    new column on that block's last row.  The result is that Jordan matrix
    with the grown block's new row and column moved last, a permutation
    similarity that keeps the flow of ``a`` on the other rows and columns.
    """
    a = as_matrix(a)
    n = a.shape[0]
    out = np.zeros((n + 1, n + 1), dtype=np.complex128)
    out[:n, :n] = a
    out[n, n] = new_root
    if any(abs(out[n, n] - c.value) <= _SAME_EIGENVALUE for c in spectrum_of_a.clusters):
        blocks = _parse_jordan_blocks(a)
        last_rows = np.cumsum([size for _, size in blocks]) - 1
        candidates = [
            k for k, (lam, _) in enumerate(blocks) if abs(lam - out[n, n]) <= _SAME_EIGENVALUE
        ]
        target = max(candidates, key=lambda k: blocks[k][1])
        out[last_rows[target], n] = 1.0
        out[n, n] = blocks[target][0]
    return out


def companion_action_check(a, q: AnnihilatorPolynomial, coeff_vec) -> float:
    """Residual of the identity ``A * <v, powers> = <C v, powers>`` over the
    negative-power basis, normalized by the magnitude of the two sides.

    This pins down the companion-matrix orientation: it vanishes exactly
    when the relation coefficients run down the first column with ones on
    the superdiagonal.
    """
    a = as_matrix(a)
    v = np.asarray(coeff_vec, dtype=np.complex128)
    p = q.degree
    if v.shape != (p,):
        raise DimensionMismatch(f"coefficient vector must have length {p}")
    negs = negative_powers(a, p)
    lhs = a @ sum(vi * m for vi, m in zip(v, negs))
    w = companion_matrix(q) @ v
    rhs = sum(wi * m for wi, m in zip(w, negs))
    scale = max(1.0, max_norm(lhs), max_norm(rhs))
    return max_norm(lhs - rhs) / scale


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
