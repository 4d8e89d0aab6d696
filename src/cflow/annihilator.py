"""Annihilating polynomials, their roots, and clustered eigenvalue data.

A relation ``A^p = c_{p-1} A^{p-1} + ... + c_1 A + c_0 I`` is stored as the
monic polynomial ``X^p - c_{p-1} X^{p-1} - ... - c_0`` via its coefficient
vector ``(c_0, ..., c_{p-1})``.  Its roots are the eigenvalues of its
companion matrix; they are merged into a :class:`Spectrum` carrying
multiplicities and a fixed branch logarithm per eigenvalue, every cluster
polished once against the extended coefficients.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AmbiguousRank, NonConvergence, NonFiniteEntry, UnknownCluster, ZeroEigenvalue
from .numeric import DEFAULT_TOL, ToleranceConfig, as_matrix, max_norm

__all__ = [
    "AnnihilatorPolynomial",
    "Cluster",
    "Spectrum",
    "minimal_polynomial",
    "characteristic_polynomial",
    "validate_relation",
    "companion_matrix",
    "find_roots",
    "cluster_roots",
    "group_roots",
]

_EPS = float(np.finfo(np.float64).eps)

# Scatter of an m-fold root under coefficient rounding grows like eps**(1/m);
# the clustering radius keeps a floor wide enough for multiplicity <= 3.
_CLUSTER_FLOOR = (1e4 * _EPS) ** (1.0 / 3.0)


def _horner(asc, x):
    """Value and slope at ``x`` of the polynomial with ascending coefficients
    ``asc``, by one joint Horner recurrence in the arithmetic of ``x``: a
    Python or numpy scalar, a numpy array of points, or an ``mpc``."""
    value = slope = x - x  # zero in that arithmetic (and shape)
    for a in asc[::-1]:
        slope = slope * x + value
        value = value * x + a
    return value, slope


@dataclass(frozen=True)
class AnnihilatorPolynomial:
    """Monic polynomial ``X^p - c_{p-1} X^{p-1} - ... - c_1 X - c_0``.

    ``coeffs`` stores ``(c_0, ..., c_{p-1})``, the right-hand side of the
    matrix relation ``A^p = sum c_i A^i``.  A relation discovered by
    :func:`minimal_polynomial` carries ``residual``, its
    :func:`validate_relation` measure against the matrix it came from.
    """

    coeffs: tuple
    coeffs_extended: tuple | None = field(default=None, compare=False, repr=False)
    residual: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if self.coeffs_extended is not None:
            if len(self.coeffs_extended) != len(self.coeffs):
                raise ValueError("extended coefficients disagree in degree")
            object.__setattr__(
                self,
                "coeffs_extended",
                tuple(np.clongdouble(c) for c in self.coeffs_extended),
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def monic_coefficients(self) -> np.ndarray:
        """Ascending coefficient array ``[-c_0, ..., -c_{p-1}, 1]``."""
        return np.concatenate([-np.asarray(self.coeffs, dtype=np.complex128), [1.0]])

    def monic_coefficients_extended(self) -> np.ndarray:
        """Ascending monic coefficients in extended precision.

        Uses the extended working copy when the polynomial was discovered
        from a matrix (where coefficient rounding would otherwise dominate
        the accuracy of multiple roots); otherwise just widens ``coeffs``.
        """
        if self.coeffs_extended is not None:
            c = np.array(self.coeffs_extended, dtype=np.clongdouble)
        else:
            c = np.asarray(self.coeffs, dtype=np.complex128).astype(np.clongdouble)
        return np.concatenate([-c, [np.clongdouble(1.0)]])

    @classmethod
    def from_monic_coefficients(cls, ascending) -> "AnnihilatorPolynomial":
        a = np.asarray(ascending, dtype=np.complex128)
        lead = a[-1]
        if abs(lead) == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        return cls(tuple(-a[:-1] / lead))

    @classmethod
    def from_roots(cls, roots) -> "AnnihilatorPolynomial":
        """Expand ``prod (X - r)`` exactly in floating arithmetic."""
        asc = np.array([1.0 + 0.0j])
        for r in roots:
            asc = np.convolve(asc, np.array([-complex(r), 1.0 + 0.0j]))
        return cls.from_monic_coefficients(asc)

    def times_linear(self, root: complex) -> "AnnihilatorPolynomial":
        """Return this polynomial multiplied by ``(X - root)``."""
        asc = np.convolve(self.monic_coefficients(), np.array([-complex(root), 1.0 + 0.0j]))
        asc_ext = np.convolve(
            self.monic_coefficients_extended(),
            np.array([-np.clongdouble(complex(root)), np.clongdouble(1.0)]),
        )
        return AnnihilatorPolynomial(
            tuple(-asc[:-1]), coeffs_extended=tuple(-asc_ext[:-1])
        )

    def __call__(self, x: complex) -> complex:
        return _horner(self.monic_coefficients(), x)[0]

    def derivative_value(self, x: complex) -> complex:
        asc = self.monic_coefficients()
        return _horner(asc[1:] * np.arange(1, len(asc)), x)[0]

    def evaluate_matrix(self, a) -> np.ndarray:
        """Horner evaluation of the polynomial at a square matrix, run in
        extended precision on the extended coefficients and rounded to
        complex128.  (Double-precision Horner leaves rounding noise of order
        ``eps |A|^p``: 6.8e-8 relative for a right relation at n = 20.)"""
        a = as_matrix(a).astype(np.clongdouble)
        eye = np.eye(a.shape[0], dtype=np.clongdouble)
        asc = self.monic_coefficients_extended()
        acc = asc[-1] * eye
        for coeff in asc[-2::-1]:
            acc = acc @ a + coeff * eye
        return acc.astype(np.complex128)


@dataclass(frozen=True)
class Cluster:
    """One eigenvalue of the relation: representative, multiplicity, branch log."""

    value: complex
    multiplicity: int
    log: complex


@dataclass(frozen=True)
class Spectrum:
    """Clustered roots of an annihilating polynomial, deterministically ordered."""

    clusters: tuple

    @property
    def degree(self) -> int:
        return sum(c.multiplicity for c in self.clusters)

    def with_branch_offsets(self, offsets) -> "Spectrum":
        """Shift chosen branch logs by integer multiples of ``2 pi i``.

        ``offsets`` maps a cluster index (0-based, in this spectrum's order)
        to an integer winding number, or is a spectrum whose nearest cluster's
        branch choice each cluster takes over (:meth:`winding_near`).
        """
        if isinstance(offsets, Spectrum):
            offsets = {i: offsets.winding_near(c.value) for i, c in enumerate(self.clusters)}
        new = list(self.clusters)
        for idx, k in offsets.items():
            if not 0 <= idx < len(new):
                raise UnknownCluster(
                    f"no cluster with index {idx}; the spectrum has {len(new)}"
                )
            c = new[idx]
            new[idx] = replace(c, log=c.log + 2j * math.pi * int(k))
        return Spectrum(tuple(new))

    def winding_near(self, value: complex) -> int:
        """The branch offset of the cluster nearest ``value``: the integer
        ``k`` with ``log = principal log + 2 pi i k``.  A spectrum derived
        from this one carries its branch choice over by this number."""
        near = min(self.clusters, key=lambda c: abs(c.value - value))
        return round((near.log - cmath.log(near.value)).imag / (2.0 * math.pi))


def _refine_relation_coefficients(a: np.ndarray, coef: np.ndarray) -> tuple:
    """Iteratively refine relation coefficients against an extended-precision
    Krylov system.

    The double-precision least-squares coefficients carry the rounding of the
    power chain; a few rounds of mixed-precision refinement (extended
    residual, double correction) push the coefficient error down to the
    extended working precision, which the root refinement downstream
    inherits.  Returns the coefficients and ``max |Q(A)|`` of the result,
    the largest entry of its extended residual ``vec(A^p) - K c``.
    """
    p = coef.shape[0]
    ae = a.astype(np.clongdouble)
    powers_ext = [np.eye(a.shape[0], dtype=np.clongdouble)]
    for _ in range(p):
        powers_ext.append(powers_ext[-1] @ ae)
    k_ext = np.column_stack([m.reshape(-1) for m in powers_ext[:p]])
    v_ext = powers_ext[p].reshape(-1)
    k_dbl = k_ext.astype(np.complex128)
    coef = coef.astype(np.clongdouble)
    for _ in range(3):
        r = v_ext - k_ext @ coef
        delta, *_ = np.linalg.lstsq(k_dbl, r.astype(np.complex128), rcond=None)
        coef = coef + delta.astype(np.clongdouble)
    return coef, float(np.max(np.abs(v_ext - k_ext @ coef)))


def _dependence_residuals(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Krylov matrix ``[vec(I), vec(A), ..., vec(A^n)]`` and, for each
    column ``q``, its relative distance from the span of the columns before
    it: ``|R[q, q]| / ||vec(A^q)||`` from one Householder QR.

    From the first power whose norm is not finite on, the residual is NaN and
    those columns stay out of the factorization.  A column beyond the
    ``n^2`` rows (only at ``n = 1``) lies in the span of the ones before it
    and has residual 0; a zero power has residual NaN (``0 / 0``), which is
    no dependence.
    """
    n = a.shape[0]
    powers = [np.eye(n, dtype=np.complex128)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            powers.append(powers[-1] @ a)
        krylov = np.stack(powers).reshape(n + 1, n * n).T
        norms = np.linalg.norm(krylov, axis=0)
        ok = np.isfinite(norms)
        m = n + 1 if ok.all() else int(np.argmin(ok))
        r = np.linalg.qr(krylov[:, :m], mode="r")
        diag = np.zeros(m)
        diag[: min(r.shape)] = np.abs(np.diagonal(r))
        residuals = np.full(n + 1, np.nan)
        residuals[:m] = diag / norms[:m]
    return krylov, residuals


def minimal_polynomial(a, tol: ToleranceConfig = DEFAULT_TOL) -> AnnihilatorPolynomial:
    """Monic annihilating polynomial of least degree.

    Flattens ``I, A, ..., A^n`` into the columns of a Krylov matrix and takes
    the degree at the first linear dependence: the first ``q`` whose QR
    residual ``|R[q, q]| / ||vec(A^q)||`` falls to ``rank_tol``.  The
    coefficients solve the least-squares system on the first ``q`` columns
    and are refined in extended precision.  The result's ``residual`` is read
    off that refinement, which forms ``vec(Q(A))``; it is the
    :func:`validate_relation` measure without a second evaluation.

    Raises
    ------
    AmbiguousRank
        If the dependence decision lands within a factor 10 of ``rank_tol``,
        so the reported degree would be unreliable.
    """
    a = as_matrix(a)
    n = a.shape[0]
    krylov, residuals = _dependence_residuals(a)
    for q in range(1, n + 1):
        rel = residuals[q]
        if rel <= tol.rank_tol:
            coef, *_ = np.linalg.lstsq(krylov[:, :q], krylov[:, q], rcond=None)
            coef_ext, res = _refine_relation_coefficients(a, coef)
            return AnnihilatorPolynomial(
                tuple(coef_ext.astype(np.complex128)),
                coeffs_extended=tuple(coef_ext),
                residual=_relative_residual(res, a, q),
            )
        if rel <= 10.0 * tol.rank_tol or q == n:
            # Cayley-Hamilton forces dependence by q = n, so reaching q = n
            # without one is itself a marginal-rank symptom.
            raise AmbiguousRank(
                f"dependence residual {rel:.3e} too close to rank_tol at degree {q}"
            )
    raise AssertionError("unreachable")


def characteristic_polynomial(a) -> AnnihilatorPolynomial:
    """Degree-``n`` characteristic polynomial via the trace recursion."""
    a = as_matrix(a)
    n = a.shape[0]
    m = np.eye(n, dtype=np.complex128)
    # p(X) = X^n + b[1] X^{n-1} + ... + b[n]
    b = np.zeros(n + 1, dtype=np.complex128)
    b[0] = 1.0
    # An overflow leaves inf or NaN coefficients, which validation reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            if k > 1:
                m = a @ m + b[k - 1] * np.eye(n, dtype=np.complex128)
            b[k] = -np.trace(a @ m) / k
    coeffs = tuple(-b[n - j] for j in range(n))  # c_j multiplies X^j
    return AnnihilatorPolynomial(coeffs)


def _relative_residual(res: float, a: np.ndarray, p: int) -> float:
    try:
        return res / max(1.0, max_norm(a) ** p)
    except OverflowError as exc:
        raise NonFiniteEntry(
            f"an intermediate of the build overflows: |A|^{p} exceeds double precision"
        ) from exc


def validate_relation(a, q: AnnihilatorPolynomial, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Relative residual ``|Q(A)| / max(1, |A|^p)`` (pure measurement)."""
    a = as_matrix(a)
    return _relative_residual(max_norm(q.evaluate_matrix(a)), a, q.degree)


def companion_matrix(q: AnnihilatorPolynomial) -> np.ndarray:
    """Companion matrix of the relation: coefficients ``(c_{p-1}, ..., c_0)``
    down the first column, ones on the superdiagonal."""
    p = q.degree
    c = np.zeros((p, p), dtype=np.complex128)
    c[:, 0] = q.coeffs[::-1]
    c[np.arange(p - 1), np.arange(1, p)] = 1.0
    return c


def find_roots(q: AnnihilatorPolynomial) -> np.ndarray:
    """All ``p`` roots (with repetition): the eigenvalues of the relation's
    companion matrix.

    LAPACK's balanced QR algorithm computes them backward-stably (the roots
    of a nearby polynomial); :func:`cluster_roots` then polishes them against
    the extended coefficients.

    Raises
    ------
    NonConvergence
        If the QR iteration fails (LAPACK reports no convergence, or the
        coefficients are not finite).
    """
    try:
        return np.linalg.eigvals(companion_matrix(q))
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"companion eigenvalues did not converge: {exc}") from exc


def _polish(poly: AnnihilatorPolynomial, groups: list, trust: float) -> list:
    """``(center, multiplicity)`` of each group of one grouping, Newton-polished
    against ``poly`` in extended precision.

    An m-fold root is polished as a simple root of the (m-1)-th derivative,
    every cluster of one multiplicity in one vectorized iteration started at
    the group centroids.  Iteration runs on the extended coefficient copy:
    for discovered relations the double rounding of the coefficients alone
    would already move a root by more than the accuracy the flow needs.  A
    polished value is kept only if it stays within ``trust * (1 + |x0|)`` of
    its centroid.
    """
    centers = np.array([np.mean(g) for g in groups], dtype=np.complex128)
    mults = np.array([len(g) for g in groups])
    asc = poly.monic_coefficients_extended()
    for m in sorted(set(mults.tolist())):  # np.unique would import numpy.ma
        sel = mults == m
        d = asc
        for _ in range(m - 1):
            d = d[1:] * np.arange(1, len(d))
        x0 = centers[sel]
        x = x0.astype(np.clongdouble)
        last = np.inf
        for _ in range(50):
            pv, dv = _horner(d, x)
            flat = np.abs(dv) < 1e-300
            step = np.where(flat, 0.0, pv / np.where(flat, 1.0, dv))
            x = x - step
            # stop at convergence, or once the steps stop shrinking: they
            # are then rounding noise of the extended evaluation
            largest = float(np.max(np.abs(step) / (1.0 + np.abs(x))))
            if largest <= 1e-18 or largest >= last:
                break
            last = largest
        x = x.astype(np.complex128)
        keep = np.abs(x - x0) <= trust * (1.0 + np.abs(x0))
        centers[sel] = np.where(keep, x, x0)  # a value that wandered off keeps its centroid
    return list(zip(centers.tolist(), mults.tolist()))


def _cluster_at_radius(roots: list, pairs: list, radius: float) -> list:
    """Single-linkage grouping of the root list at one radius, over ``(distance,
    i, j)`` pairs: each group's indices into ``roots``, ascending."""
    if not pairs:  # each root is its own group
        return [[i] for i in range(len(roots))]
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for distance, i, j in pairs:
        if distance <= radius:
            parent[find(i)] = find(j)

    groups = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _rebuild_residual(poly: AnnihilatorPolynomial, clusters: list) -> float:
    """Coefficient mismatch between ``poly`` and the monic polynomial rebuilt
    from a candidate ``(center, multiplicity)`` list."""
    asc = np.array([1.0], dtype=np.complex128)
    for center, m in clusters:
        for _ in range(m):
            asc = np.concatenate([[0.0], asc]) - center * np.concatenate([asc, [0.0]])
    target = poly.monic_coefficients()
    return float(np.max(np.abs(asc - target))) / max(1.0, float(np.max(np.abs(target))))


def group_roots(
    roots,
    tol: ToleranceConfig = DEFAULT_TOL,
    polynomial: AnnihilatorPolynomial | None = None,
    zero: float | None = None,
) -> list:
    """The groups of :func:`cluster_roots`, in its order, as ``(centre,
    indices)``: the members' ascending indices into ``roots`` and their mean,
    polished against ``polynomial`` when one is given.  Single linkage on a
    ladder of radii from ``cluster_tol`` (widened by a floor for the scatter
    of multiple roots): without ``polynomial`` it widens while each group of
    ``m`` lies within ``(1e4 eps)^(1/m) scale`` of its centroid, where its
    ``m`` Taylor terms truncate at about ``1e4 eps``; with it, the grouping
    whose polished centres best rebuild the coefficients wins (a multiple
    root scatters far beyond the floor, and merging distinct roots ruins the
    rebuilt coefficients).  Raises as :func:`cluster_roots` does."""
    values = np.asarray(roots, dtype=np.complex128).ravel().tolist()
    if not values:
        raise ValueError("root list is empty")
    zero = tol.cluster_tol if zero is None else zero
    if min(map(abs, values)) <= zero:
        raise ZeroEigenvalue("a root lies at or near zero; the matrix is not invertible")
    scale = 1.0 + max(map(abs, values))
    radii = [max(tol.cluster_tol, _CLUSTER_FLOOR * scale)]
    while radii[-1] < 0.05 * scale:
        radii.append(4.0 * radii[-1])
    # a rung joining a pair beyond reach ends the ladder, so pairs past 4 reach go unused
    reach = 2.0 * (1e4 * _EPS) ** (1 / len(values)) * scale
    limit = radii[-1] if polynomial is not None else min(radii[-1], max(radii[0], 4.0 * reach))
    pairs = itertools.combinations(range(len(values)), 2)
    pairs = [(r, i, j) for i, j in pairs if (r := abs(values[i] - values[j])) <= limit]
    if polynomial is None:
        groups = _cluster_at_radius(values, pairs, radii[0])
        wide = [r for r, _, _ in pairs if r > radii[0]]
        for narrow, radius in zip(radii, radii[1:]) if wide else ():
            joined = [r for r in wide if narrow < r <= radius]
            if not joined:
                continue  # the same groups
            if max(joined) > reach:
                break  # a group joining that pair spreads beyond (1e4 eps)^(1/n) scale
            wider = _cluster_at_radius(values, pairs, radius)
            centroids = [sum(values[i] for i in g) / len(g) for g in wider]
            spreads = [(max(abs(values[i] - c) for i in g), len(g)) for c, g in zip(centroids, wider)]
            if any(r > (1e4 * _EPS) ** (1 / m) * scale for r, m in spreads):
                break
            groups = wider
        centred = [(sum(values[i] for i in g) / len(g), g) for g in groups]
    else:
        centred, seen = None, set()
        for radius in radii:
            groups = _cluster_at_radius(values, pairs, radius)
            # groupings nest in the radius: their sorted sizes name them, each polished once
            signature = tuple(sorted(map(len, groups)))
            if signature in seen:
                continue
            seen.add(signature)
            trust = max(10 * _CLUSTER_FLOOR, 2.0 * radius / scale)
            polished = _polish(polynomial, [[values[i] for i in g] for g in groups], trust)
            res = _rebuild_residual(polynomial, polished)
            if centred is None or res < best_res:
                centred, best_res = [(c, g) for (c, _), g in zip(polished, groups)], res
    out = []
    for center, g in centred:
        if abs(center) <= zero and polynomial is None:  # a nilpotent block's scatter
            raise ZeroEigenvalue("a root cluster is centred at zero; the matrix is not invertible")
        if abs(center) <= zero:
            raise NonConvergence(
                f"polishing a root cluster drove its centre to magnitude {abs(center):.3e}, "
                f"although every root lies above {zero:.1e} in magnitude"
            )
        if abs(center.imag) <= 1e3 * tol.root_tol * (1.0 + abs(center)):
            center = complex(center.real, 0.0)  # deterministic branch on the real axis
        out.append((center, g))
    return sorted(out, key=lambda cg: (-abs(cg[0]), cmath.phase(cg[0])))


def cluster_roots(
    roots,
    tol: ToleranceConfig = DEFAULT_TOL,
    polynomial: AnnihilatorPolynomial | None = None,
    zero: float | None = None,
) -> Spectrum:
    """The :class:`Spectrum` of :func:`group_roots`: each group's centre and
    size, with the centre's principal logarithm as its branch.

    Raises
    ------
    ZeroEigenvalue
        If any root magnitude, or without ``polynomial`` a centroid, is at
        or below ``zero`` (``cluster_tol`` by default): the matrix is not
        invertible, so no flow exists.
    NonConvergence
        If polishing drives a cluster centre to ``zero`` or below although
        no root lies there.
    """
    groups = group_roots(roots, tol, polynomial, zero)
    return Spectrum(tuple(Cluster(c, len(g), cmath.log(c)) for c, g in groups))
