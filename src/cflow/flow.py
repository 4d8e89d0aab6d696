"""Complete flows A^z: the direct generalized-Vandermonde construction, the
companion-matrix construction, the Jordan-block oracle, and the structural
checks tying them together.

Both constructions express ``A^z`` as ``sum_i mu_i(z) A^{-i}`` over the
negative powers ``A^{-1}, ..., A^{-p}`` of the relation degree ``p``.  The
direct method obtains the coefficient functions by inverting a generalized
Vandermonde system; the companion method evaluates ``C^z c`` for the
companion matrix ``C`` of the relation.  The two coincide: ``C e_1 = c`` and
``C e_{j+1} = e_j`` give ``C^{-j} c = e_j``, so ``C^z c`` has the same
values ``mu(-j) = e_j`` and the same table ``E`` as the direct method.  The
companion route is therefore the direct representation, and the Jordan
oracle is the only independent check.

With ``mu(z) = E f(z)`` over the basis functions ``f_k``, the same sum is
``A^z = sum_k f_k(z) M_k`` with ``M_k = sum_i e_ik A^{-i}``: the Frobenius
covariants of the confluent Sylvester formula.  The cancellation of the
negative-power sum is confined to ``M``, which is built once per
representation in extended (or arbitrary) precision; evaluation is then a
double-precision sum of ``p`` matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

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
    minimal_polynomial,
    validate_relation,
)
from .basis import (
    BasisDescriptor,
    CoefficientTable,
    basis_values,
    build_basis,
    eval_basis,
    eval_basis_extended,
    generalized_binomial,
    invert_vandermonde,
    scalar_flow,
    vandermonde_matrix,
)
from .errors import (
    AmbiguousRank,
    DimensionMismatch,
    NonConvergence,
    NonFiniteEntry,
    NotJordanForm,
    RelationInvalid,
    ZeroEigenvalue,
)
from .numeric import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    extended_inverse,
    inverse,
    max_norm,
)

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


@dataclass(frozen=True)
class FlowRepresentation:
    """Everything needed to evaluate ``A^z`` at any ``z``.

    ``neg_powers`` holds ``[A^{-1}, ..., A^{-p}]``; ``coeffs.e`` is the
    ``p x p`` table with ``mu_i(z) = sum_j e[i, j] * f_j(z)`` over the basis
    functions ``f_j`` of ``basis``.  ``covariants`` holds the ``(p, n, n)``
    stack ``M_k = sum_i e[i, k] A^{-i}``, so that ``A^z = sum_k f_k(z) M_k``.
    ``relation_residual`` is the relation's :func:`validate_relation`
    measure.  In the mpmath tier (``high_precision`` set), ``basis`` and
    ``covariants`` come from :func:`schur_covariants` instead: one term per
    eigenvalue and algebraic multiplicity, ``M_(lam, j) = P_lam (A - lam I)^j``.
    The paper's form at working precision (its ``relation``, ``coeffs``,
    ``basis``, ``mu`` and ``relation_residual``) is on ``high_precision``;
    ``relation``, ``coeffs`` and ``relation_residual`` here are that form's
    double-precision start.
    """

    relation: AnnihilatorPolynomial
    basis: BasisDescriptor
    coeffs: CoefficientTable
    neg_powers: tuple
    source_dim: int
    relation_residual: float
    covariants: np.ndarray = field(compare=False, repr=False)
    high_precision: object | None = field(default=None, compare=False, repr=False)

    @property
    def degree(self) -> int:
        return self.relation.degree

    @cached_property
    def _contraction(self) -> tuple:
        """What every evaluation reads, built on first use: the covariants as
        one contiguous ``(p, n*n)`` matrix, their scales ``max|M_k|``, the
        largest scale, and ``n``."""
        p, n, _ = self.covariants.shape
        flat = np.ascontiguousarray(self.covariants.reshape(p, n * n))
        scales = np.max(np.abs(flat), axis=1)
        return flat, scales, float(np.max(scales)), n

    def evaluation_condition(self, z: complex) -> float:
        """Condition of the sum :func:`evaluate_flow` computes at ``z``:
        ``sum_k |f_k(z)| |M_k| / |A^z|`` in the max norm.

        At least 1 up to rounding, by the triangle inequality; the rounding
        errors of the double-precision sum are amplified by this ratio.  It
        reads the covariants that are evaluated, in or out of the mpmath tier.
        """
        flat, scales, *_ = self._contraction
        f = eval_basis(self.basis, z)
        return float(np.abs(f) @ scales) / max(max_norm(f.dot(flat)), 1e-300)


def negative_powers(a, p: int, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """``[A^{-1}, ..., A^{-p}]`` by inverting once and multiplying repeatedly.

    The chain is carried in extended precision: its rounding error is later
    amplified by the cancellation in ``sum mu_i A^{-i}``.  Singularity is
    still detected from the inverse's partial pivots.
    """
    return [m.astype(np.complex128) for m in _negative_powers_extended(a, p, tol)]


def _negative_powers_extended(a, p: int, tol: ToleranceConfig) -> list:
    """The negative-power chain kept in extended precision."""
    a = as_matrix(a)
    if p < 1:
        raise ValueError("need at least one negative power")
    inv = extended_inverse(a, tol)
    out = [inv]
    for _ in range(p - 1):
        out.append(out[-1] @ inv)
    return out


def spectral_table(
    q: AnnihilatorPolynomial,
    tol: ToleranceConfig = DEFAULT_TOL,
    branch_offsets: dict | None = None,
) -> tuple[BasisDescriptor, CoefficientTable]:
    """The basis and coefficient table of a relation: its roots, clustered
    into eigenvalues with branch logs (shifted by ``branch_offsets``), the
    basis functions, and the inverse of the generalized Vandermonde system.

    These depend on the relation alone, not on a matrix it annihilates.
    """
    spectrum = cluster_roots(find_roots(q, tol), tol, polynomial=q)
    if branch_offsets:
        spectrum = spectrum.with_branch_offsets(branch_offsets)
    basis = build_basis(spectrum)
    # mu_i = sum_j e_ij f_j requires the inverse of (f_i(-j)), the transpose
    # of the row-per-evaluation-point layout returned by vandermonde_matrix.
    return basis, invert_vandermonde(vandermonde_matrix(basis).T, tol)


def schur_covariants(
    a, basis: BasisDescriptor, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[BasisDescriptor, np.ndarray]:
    """The spectrum of ``a`` and its covariants ``M_(lam, j) = P_lam (A - lam I)^j``
    from one complex Schur form, with no relation and no negative powers.

    The Schur diagonal is grouped by :func:`cluster_roots`.  Each cluster is
    reordered to the top (``ztrsen``), ``T11 X - X T22 = -T12`` is solved
    (``ztrsyl``), and with ``lam = trace(T11) / m`` the covariants are
    ``Q1 (T11 - lam I)^j (Q1* - X Q2*)`` for ``j < m``: block diagonalization
    (Bavely and Stewart 1979), the confluent Sylvester form of Higham,
    *Functions of Matrices* (2008), section 1.2.  Each cluster's branch log
    carries the winding number of the nearest cluster of ``basis``.  Returns
    the basis of this spectrum and the ``(len(terms), n, n)`` stack in its
    term order.

    Raises :class:`NonConvergence` when the Schur iteration, the reordering
    or the Sylvester solve fails.
    """
    a = as_matrix(a)
    n = a.shape[0]
    try:
        t, q = scipy.linalg.schur(a, output="complex", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"Schur form did not converge: {exc}") from exc
    diag = np.diag(t)
    spectrum = cluster_roots(diag, tol)
    centers = np.array([c.value for c in spectrum.clusters])
    owner = np.argmin(np.abs(diag[:, None] - centers[None, :]), axis=1)
    clusters, blocks = [], []
    for ci, cluster in enumerate(spectrum.clusters):
        select = owner == ci
        ts, qs, *_, info = scipy.linalg.lapack.ztrsen(select, t, q, job="N")
        if info != 0:
            raise NonConvergence(f"Schur reordering failed (ztrsen info {info})")
        m = int(select.sum())
        t11, q1, q2 = ts[:m, :m], qs[:, :m], qs[:, m:]
        x = np.zeros((m, n - m), dtype=np.complex128)
        if m < n:
            x, scale, info = scipy.linalg.lapack.ztrsyl(t11, ts[m:, m:], -ts[:m, m:], isgn=-1)
            if info != 0:
                raise NonConvergence(f"Sylvester solve failed (ztrsyl info {info})")
            x = x / scale
        lam = complex(np.trace(t11)) / m
        if cluster.value.imag == 0.0:  # cluster_roots put it on the real axis
            lam = complex(lam.real, 0.0)
        winding = basis.spectrum.winding_near(lam)
        clusters.append(Cluster(lam, m, cmath.log(lam) + 2j * math.pi * winding))
        right = q1.conj().T - x @ q2.conj().T
        nil = t11 - lam * np.eye(m)
        power = np.eye(m, dtype=np.complex128)
        for _ in range(m):
            blocks.append(q1 @ power @ right)
            power = power @ nil
    return build_basis(Spectrum(tuple(clusters))), np.array(blocks)


def _accepted(residual: float, tol: ToleranceConfig, source: str = "") -> float:
    if residual > tol.residual_tol:
        raise RelationInvalid(
            f"{source}relation residual {residual:.3e} exceeds {tol.residual_tol:.1e}"
        )
    return residual


def check_relation(a, q: AnnihilatorPolynomial, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """:func:`validate_relation`, raising :class:`RelationInvalid` above ``residual_tol``."""
    return _accepted(validate_relation(a, q, tol), tol)


def build_flow(
    a,
    q: AnnihilatorPolynomial | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
    branch_offsets: dict | None = None,
) -> FlowRepresentation:
    """Assemble the direct (Vandermonde) flow representation of ``a``.

    This is the one place that decides the relation.  A supplied ``q`` is
    validated first.  With ``q`` omitted the minimal polynomial is
    discovered; when its rank decision is too close to call
    (:class:`AmbiguousRank`), the characteristic polynomial is taken and
    validated like a supplied relation.  A discovered relation is checked
    against ``residual_tol`` too, with the residual of its own extended
    refinement, unless the matrix enters the mpmath tier, which solves for
    its relation afresh.  A relation above ``residual_tol`` raises
    :class:`RelationInvalid`; ``relation_residual`` records the residual.
    ``branch_offsets`` maps a cluster index to an integer winding number
    added to that eigenvalue's branch log (each choice yields a different,
    equally valid flow).
    """
    a = as_matrix(a)
    discovered, source = q is None, ""
    if discovered:
        try:
            q = minimal_polynomial(a, tol)
        except AmbiguousRank:
            q, discovered = characteristic_polynomial(a), False
            source = "characteristic polynomial (minimal polynomial rank ambiguous): "
    residual = q.residual if discovered else _accepted(validate_relation(a, q, tol), tol, source)
    # The double-precision table is folded into the covariants only outside
    # the mpmath tier, so its conditioning is reported once that is decided.
    basis, coeffs = spectral_table(q, replace(tol, cond_warn=math.inf), branch_offsets)
    n = a.shape[0]
    negs_ext = np.stack(_negative_powers_extended(a, q.degree, tol))
    # Estimated cancellation of the sum over the negative powers for a
    # working range of z; when extended precision cannot absorb it, the
    # covariants are built at arbitrary precision.  (At z = k the result
    # |A^k| can be dwarfed by the terms |mu_i(k)| |A^{-i}|, and every
    # rounding error scales with the terms.)
    e_ext = coeffs.e_extended
    neg_scales = np.max(np.abs(negs_ext), axis=(1, 2)).astype(np.float64)
    a_scale = max(1.0, max_norm(a))
    amp = 0.0
    for f in eval_basis_extended(basis, np.array([1.0, 5.0, -3.0])):
        mu_probe = np.abs(e_ext @ f).astype(np.float64)
        amp = max(amp, float(mu_probe @ neg_scales) / a_scale)
    if not math.isfinite(amp):
        raise NonFiniteEntry(
            "an intermediate of the build overflows: the amplification estimate "
            "of the negative-power sum exceeds double precision"
        )
    high_precision = None
    if amp > 1e8:
        from .highprec import HighPrecisionFlow

        dps = min(60, 35 + int(np.log10(amp)))
        high_precision = HighPrecisionFlow(a, q, basis, dps, tol, discovered)
        basis, covariants = schur_covariants(a, basis, tol)
    else:
        coeffs.warn_if_ill_conditioned(tol)
        if discovered:
            _accepted(residual, tol)
        stacked = negs_ext.reshape(q.degree, n * n)
        covariants = (e_ext.T @ stacked).astype(np.complex128).reshape(q.degree, n, n)
    return FlowRepresentation(
        relation=q,
        basis=basis,
        coeffs=coeffs,
        neg_powers=tuple(negs_ext.astype(np.complex128)),
        source_dim=n,
        relation_residual=residual,
        covariants=covariants,
        high_precision=high_precision,
    )


def _finite(x: np.ndarray, what: str, z: complex) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NonFiniteEntry(f"{what} is not finite at z={complex(z)}")
    return x


def _rounded(x: np.ndarray, what: str, z: complex) -> np.ndarray:
    """An extended-precision result rounded to complex128, which must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = x.astype(np.complex128)
    return _finite(x, what, z)


def mu_functions(rep: FlowRepresentation, z: complex) -> np.ndarray:
    """The coefficient vector ``mu(z)`` with ``A^z = sum mu_i(z) A^{-i}``."""
    if rep.high_precision is not None:
        return _finite(rep.high_precision.mu(z), "mu", z)
    e = rep.coeffs.e_extended
    if e is None:
        e = rep.coeffs.e.astype(np.clongdouble)
    return _rounded(e @ eval_basis_extended(rep.basis, z), "mu", z)


def evaluate_flow(rep: FlowRepresentation, z: complex) -> np.ndarray:
    """Evaluate ``A^z = sum_k f_k(z) M_k`` from a representation.

    Raises :class:`NonFiniteEntry` when ``z`` or the result is not finite.
    """
    flat, _, top, n = rep._contraction
    values = basis_values(rep.basis, z)
    out = np.array(values, dtype=np.complex128).dot(flat).reshape(n, n)
    # Every entry is at most sum_k |f_k| max|M|, so a bound far below the
    # overflow threshold proves the result finite; a NaN fails the comparison.
    if not sum(map(abs, values)) * top <= 1e300:
        _finite(out, "A^z", z)
    return out


class CompanionFlow:
    """The coefficient functions ``mu(z) = C^z c`` of a relation.

    ``C^z`` is obtained from the direct construction applied to ``C``
    (legitimate because the relation is both the characteristic and the
    minimal polynomial of its companion matrix), with the same branch policy.
    Since ``C^z = sum_i nu_i(z) C^{-i}`` and ``C^{-i} c = e_i``, its
    coefficients ``nu`` are ``C^z c`` itself.  The construction actually
    runs on a diagonal similarity ``D^{-1} C D`` with ``D`` powers of the
    geometric-mean root magnitude: companion matrices of high-degree
    relations are badly scaled, and balancing keeps the precision probe of
    that construction meaningful.
    """

    def __init__(
        self,
        q: AnnihilatorPolynomial,
        tol: ToleranceConfig = DEFAULT_TOL,
        branch_offsets: dict | None = None,
    ):
        if abs(q.coeffs[0]) == 0.0:
            raise ZeroEigenvalue(
                "constant coefficient is zero; zero is a root of the relation"
            )
        p = q.degree
        scale = (abs(q.coeffs[0]) ** (1.0 / p)) ** np.arange(p)
        balanced = companion_matrix(q) * np.outer(1.0 / scale, scale)
        self._rep = build_flow(balanced, q, tol, branch_offsets)

    def mu(self, z: complex) -> np.ndarray:
        return mu_functions(self._rep, z)


def companion_flow_mu(
    q: AnnihilatorPolynomial,
    z: complex,
    tol: ToleranceConfig = DEFAULT_TOL,
    branch_offsets: dict | None = None,
) -> np.ndarray:
    """``mu(z) = C^z c`` for the companion matrix ``C`` of the relation."""
    return CompanionFlow(q, tol, branch_offsets).mu(z)


def evaluate_companion_flow(
    a,
    q: AnnihilatorPolynomial,
    z: complex,
    tol: ToleranceConfig = DEFAULT_TOL,
    branch_offsets: dict | None = None,
) -> np.ndarray:
    """Evaluate ``A^z = sum mu_i(z) A^{-i}`` with ``mu = C^z c``.

    ``C^z c`` has the table of the direct construction (see the module
    docstring), so this is :func:`evaluate_flow` of ``a``'s representation.
    """
    return evaluate_flow(build_flow(a, q, tol, branch_offsets), z)


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


def jordan_oracle(blocks, t, z: complex, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
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
    return t @ jz @ inverse(t, tol)


def _parse_jordan_blocks(a, tol: ToleranceConfig):
    """Split a Jordan-form matrix into (eigenvalue, size) blocks, or raise."""
    a = as_matrix(a)
    n = a.shape[0]
    off = np.abs(a - np.diag(np.diag(a)) - np.diag(np.diag(a, 1), 1))
    scale = max(1.0, max_norm(a))
    if np.max(off, initial=0.0) > tol.rank_tol * scale:
        raise NotJordanForm("matrix has entries outside the diagonal and superdiagonal")
    blocks = []
    start = 0
    for i in range(n - 1):
        s = a[i, i + 1]
        if abs(s - 1.0) <= tol.rank_tol * scale:
            if abs(a[i, i] - a[i + 1, i + 1]) > tol.cluster_tol * scale:
                raise NotJordanForm("superdiagonal one joins two different eigenvalues")
            continue
        if abs(s) <= tol.rank_tol * scale:
            blocks.append((complex(a[start, start]), i + 1 - start))
            start = i + 1
        else:
            raise NotJordanForm("superdiagonal entries must be exactly zero or one")
    blocks.append((complex(a[start, start]), n - start))
    return blocks


def extend_matrix(
    a,
    new_root: complex,
    spectrum_of_a: Spectrum,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Enlarge ``a`` so its minimal polynomial gains the factor ``(X - new_root)``
    while the top-left block of any flow of the result reproduces the flow of ``a``.

    A root away from the existing spectrum is appended as a 1x1 diagonal
    block.  A repeated root requires ``a`` in Jordan (block-diagonal) form;
    the largest block with that eigenvalue grows by one row and column.
    """
    a = as_matrix(a)
    new_root = complex(new_root)
    is_eigenvalue = any(
        abs(new_root - c.value) <= tol.cluster_tol for c in spectrum_of_a.clusters
    )
    if not is_eigenvalue:
        n = a.shape[0]
        out = np.zeros((n + 1, n + 1), dtype=np.complex128)
        out[:n, :n] = a
        out[n, n] = new_root
        return out
    blocks = _parse_jordan_blocks(a, tol)
    candidates = [
        k for k, (lam, _) in enumerate(blocks) if abs(lam - new_root) <= tol.cluster_tol
    ]
    target = max(candidates, key=lambda k: blocks[k][1])
    lam, size = blocks[target]
    blocks[target] = (lam, size + 1)
    n = a.shape[0] + 1
    out = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for lam, size in blocks:
        out[pos : pos + size, pos : pos + size] = lam * np.eye(size) + np.diag(
            np.ones(size - 1), 1
        )
        pos += size
    return out


def companion_action_check(
    a,
    q: AnnihilatorPolynomial,
    coeff_vec,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
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
    negs = negative_powers(a, p, tol)
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

    The endpoint checks are normalized by ``max(1, |A|, |A^{-p}|)``; each
    group-law sample by ``max(1, |F(z)| * |F(w)|)``.
    """
    a = as_matrix(a)
    scale = max(1.0, max_norm(a), max_norm(rep.neg_powers[-1]))
    ident = max_norm(evaluate_flow(rep, 0.0) - np.eye(rep.source_dim)) / scale
    gen = max_norm(evaluate_flow(rep, 1.0) - a) / scale
    group = 0.0
    for z, w in samples:
        fz = evaluate_flow(rep, z)
        fw = evaluate_flow(rep, w)
        fzw = evaluate_flow(rep, complex(z) + complex(w))
        denom = max(1.0, max_norm(fz) * max_norm(fw))
        group = max(group, max_norm(fz @ fw - fzw) / denom)
    return FlowAxiomReport(identity_residual=ident, generator_residual=gen, group_residual=group)
