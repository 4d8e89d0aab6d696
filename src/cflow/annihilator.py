"""Annihilating polynomials, their roots, and clustered eigenvalue data.

A relation ``A^p = c_{p-1} A^{p-1} + ... + c_1 A + c_0 I`` is stored as the
monic polynomial ``X^p - c_{p-1} X^{p-1} - ... - c_0`` via its coefficient
vector ``(c_0, ..., c_{p-1})``.  Roots are found by simultaneous
(Aberth-Ehrlich) iteration and merged into a :class:`Spectrum` carrying
multiplicities and a fixed branch logarithm per eigenvalue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AmbiguousRank, NonConvergence, UnknownCluster, ZeroEigenvalue
from .numeric import DEFAULT_TOL, ToleranceConfig, as_matrix, max_norm

__all__ = [
    "AnnihilatorPolynomial",
    "Cluster",
    "Spectrum",
    "minimal_polynomial",
    "characteristic_polynomial",
    "validate_relation",
    "find_roots",
    "cluster_roots",
]

_EPS = float(np.finfo(np.float64).eps)

# Scatter of an m-fold root under coefficient rounding grows like eps**(1/m);
# the clustering radius keeps a floor wide enough for multiplicity <= 3.
_CLUSTER_FLOOR = (1e4 * _EPS) ** (1.0 / 3.0)


@dataclass(frozen=True)
class AnnihilatorPolynomial:
    """Monic polynomial ``X^p - c_{p-1} X^{p-1} - ... - c_1 X - c_0``.

    ``coeffs`` stores ``(c_0, ..., c_{p-1})``, the right-hand side of the
    matrix relation ``A^p = sum c_i A^i``.
    """

    coeffs: tuple
    coeffs_extended: tuple | None = field(default=None, compare=False, repr=False)

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
        asc = self.monic_coefficients()
        acc = 0.0 + 0.0j
        for a in asc[::-1]:
            acc = acc * x + a
        return acc

    def derivative_value(self, x: complex) -> complex:
        asc = self.monic_coefficients()
        der = asc[1:] * np.arange(1, len(asc))
        acc = 0.0 + 0.0j
        for a in der[::-1]:
            acc = acc * x + a
        return acc

    def evaluate_matrix(self, a) -> np.ndarray:
        """Horner evaluation of the polynomial at a square matrix."""
        a = as_matrix(a)
        n = a.shape[0]
        eye = np.eye(n, dtype=np.complex128)
        asc = self.monic_coefficients()
        acc = asc[-1] * eye
        for coeff in asc[-2::-1]:
            acc = acc @ a + coeff * eye
        return acc


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

    def with_branch_offsets(self, offsets: dict) -> "Spectrum":
        """Shift chosen branch logs by integer multiples of ``2 pi i``.

        ``offsets`` maps a cluster index (0-based, in this spectrum's order)
        to an integer winding number.
        """
        new = list(self.clusters)
        for idx, k in offsets.items():
            if not 0 <= idx < len(new):
                raise UnknownCluster(
                    f"no cluster with index {idx}; the spectrum has {len(new)}"
                )
            c = new[idx]
            new[idx] = replace(c, log=c.log + 2j * math.pi * int(k))
        return Spectrum(tuple(new))


def _refine_relation_coefficients(a: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Iteratively refine relation coefficients against an extended-precision
    Krylov system.

    The double-precision least-squares coefficients carry the rounding of the
    power chain; a few rounds of mixed-precision refinement (extended
    residual, double correction) push the coefficient error down to the
    extended working precision, which the root refinement downstream
    inherits.
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
    return coef


def minimal_polynomial(a, tol: ToleranceConfig = DEFAULT_TOL) -> AnnihilatorPolynomial:
    """Monic annihilating polynomial of least degree.

    Flattens ``I, A, A^2, ...`` into vectors and detects the first linear
    dependence by incremental orthogonalization against the running span.

    Raises
    ------
    AmbiguousRank
        If the dependence decision lands within a factor 10 of ``rank_tol``,
        so the reported degree would be unreliable.
    """
    a = as_matrix(a)
    n = a.shape[0]
    basis = []  # orthonormal vectors spanning {vec(A^0), ..., vec(A^{q-1})}
    powers = [np.eye(n, dtype=np.complex128)]
    v0 = powers[0].reshape(-1)
    basis.append(v0 / np.linalg.norm(v0))
    for q in range(1, n + 1):
        powers.append(powers[-1] @ a)
        v = powers[-1].reshape(-1)
        scale = np.linalg.norm(v)
        r = v.copy()
        for _ in range(2):  # re-orthogonalize for a trustworthy residual
            for u in basis:
                r = r - (np.conj(u) @ r) * u
        rel = np.linalg.norm(r) / scale
        if rel <= tol.rank_tol:
            k = np.column_stack([m.reshape(-1) for m in powers[:q]])
            coef, *_ = np.linalg.lstsq(k, v, rcond=None)
            coef_ext = _refine_relation_coefficients(a, coef)
            return AnnihilatorPolynomial(
                tuple(coef_ext.astype(np.complex128)), coeffs_extended=tuple(coef_ext)
            )
        if rel <= 10.0 * tol.rank_tol or q == n:
            # Cayley-Hamilton forces dependence by q = n, so reaching q = n
            # without one is itself a marginal-rank symptom.
            raise AmbiguousRank(
                f"dependence residual {rel:.3e} too close to rank_tol at degree {q}"
            )
        basis.append(r / np.linalg.norm(r))
    raise AssertionError("unreachable")


def characteristic_polynomial(a) -> AnnihilatorPolynomial:
    """Degree-``n`` characteristic polynomial via the trace recursion."""
    a = as_matrix(a)
    n = a.shape[0]
    m = np.eye(n, dtype=np.complex128)
    # p(X) = X^n + b[1] X^{n-1} + ... + b[n]
    b = np.zeros(n + 1, dtype=np.complex128)
    b[0] = 1.0
    for k in range(1, n + 1):
        if k > 1:
            m = a @ m + b[k - 1] * np.eye(n, dtype=np.complex128)
        b[k] = -np.trace(a @ m) / k
    coeffs = tuple(-b[n - j] for j in range(n))  # c_j multiplies X^j
    return AnnihilatorPolynomial(coeffs)


def validate_relation(a, q: AnnihilatorPolynomial, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Relative residual ``|Q(A)| / max(1, |A|^p)`` (pure measurement)."""
    a = as_matrix(a)
    res = max_norm(q.evaluate_matrix(a))
    return res / max(1.0, max_norm(a) ** q.degree)


def _poly_values(asc: np.ndarray, x: np.ndarray):
    """Evaluate polynomial, derivative, and a rounding-floor bound at each x."""
    p = np.zeros_like(x)
    d = np.zeros_like(x)
    bound = np.zeros(x.shape, dtype=np.float64)
    ax = np.abs(x)
    for a in asc[::-1]:
        d = d * x + p
        p = p * x + a
        bound = bound * ax + np.abs(a)
    return p, d, bound


def find_roots(q: AnnihilatorPolynomial, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """All ``p`` roots (with repetition) by simultaneous Aberth-Ehrlich iteration.

    Initial guesses sit on a circle of radius ``1 + max |c_i|``; the sweep
    stops when the largest correction drops below ``root_tol`` (relative to
    the iterate magnitudes) or every residual reaches the evaluation rounding
    floor.

    Raises
    ------
    NonConvergence
        After 500 sweeps without meeting either criterion.
    """
    p = q.degree
    if p == 1:
        return np.array([q.coeffs[0]], dtype=np.complex128)
    asc = q.monic_coefficients()
    radius = 1.0 + max(abs(c) for c in q.coeffs)
    angles = 2.0 * np.pi * (np.arange(p) + 0.25) / p + 0.35
    x = radius * np.exp(1j * angles)
    floor_hits = 0
    for _ in range(500):
        pv, dv, bound = _poly_values(asc, x)
        floor = 8.0 * _EPS * (2.0 * p) * bound
        if np.all(np.abs(pv) <= floor):
            floor_hits += 1
            if floor_hits >= 2:
                return x
        else:
            floor_hits = 0
        tiny = np.abs(dv) < 1e-300
        dv = np.where(tiny, 1e-300, dv)
        newton = pv / dv
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        repulse = inv.sum(axis=1)
        denom = 1.0 - newton * repulse
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = newton / denom
        x = x - step
        if np.max(np.abs(step)) <= tol.root_tol * (1.0 + np.max(np.abs(x))):
            return x
    raise NonConvergence("root iteration did not converge within 500 sweeps")


def _refine_multiple_root(
    poly: AnnihilatorPolynomial,
    x0: complex,
    multiplicity: int,
    trust: float = 10.0 * _CLUSTER_FLOOR,
) -> complex:
    """Newton-polish an m-fold root as a simple root of the (m-1)-th derivative.

    The refined value is kept only if it stays within ``trust * (1 + |x0|)``
    of the starting centroid.  Iteration runs in extended precision on the
    extended coefficient copy: for discovered relations the double rounding
    of the coefficients alone would already move a multiple root by more
    than the accuracy the flow needs.
    """
    asc = poly.monic_coefficients_extended()
    for _ in range(multiplicity - 1):
        asc = asc[1:] * np.arange(1, len(asc))
    der = asc[1:] * np.arange(1, len(asc))
    x = np.clongdouble(complex(x0))
    for _ in range(50):
        pv = np.clongdouble(0.0)
        for a in asc[::-1]:
            pv = pv * x + a
        dv = np.clongdouble(0.0)
        for a in der[::-1]:
            dv = dv * x + a
        if abs(dv) < 1e-300:
            break
        step = pv / dv
        x -= step
        if abs(step) <= 1e-18 * (1.0 + abs(x)):
            break
    x = complex(x)
    if abs(x - x0) <= trust * (1.0 + abs(x0)):
        return x
    return complex(x0)  # refinement wandered off; keep the centroid


def _cluster_at_radius(roots: np.ndarray, radius: float) -> list:
    """Single-linkage grouping of the root list at a fixed merge radius."""
    parent = list(range(roots.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(roots.size):
        for j in range(i + 1, roots.size):
            if abs(roots[i] - roots[j]) <= radius:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(roots.size):
        groups.setdefault(find(i), []).append(roots[i])
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


def cluster_roots(
    roots,
    tol: ToleranceConfig = DEFAULT_TOL,
    polynomial: AnnihilatorPolynomial | None = None,
) -> Spectrum:
    """Merge a root list into a :class:`Spectrum` with multiplicities.

    Transitive (single-linkage) clustering.  The merge radius starts at
    ``cluster_tol`` widened by a floor covering the scatter of multiple roots
    in double precision; when ``polynomial`` is supplied, a ladder of wider
    radii is also tried and the clustering that best reproduces the
    polynomial's coefficients wins.  (A multiple root of a badly conditioned
    polynomial can scatter far beyond the static floor; merging genuinely
    distinct roots, on the other hand, ruins the rebuilt coefficients, so
    the rebuild residual separates the two cases.)  Representatives are
    cluster centroids, polished against ``polynomial`` when it is supplied,
    with branch logarithms on the principal branch.  Clusters are ordered by
    descending magnitude, then ascending argument.

    Raises
    ------
    ZeroEigenvalue
        If any root magnitude is at or below ``cluster_tol`` (the matrix is
        not invertible, so no flow exists).
    """
    roots = np.asarray(roots, dtype=np.complex128)
    if roots.size == 0:
        raise ValueError("root list is empty")
    if np.any(np.abs(roots) <= tol.cluster_tol):
        raise ZeroEigenvalue("a root lies at or near zero; the matrix is not invertible")
    scale = 1.0 + float(np.max(np.abs(roots)))
    base_radius = max(tol.cluster_tol, _CLUSTER_FLOOR * scale)

    radii = [base_radius]
    if polynomial is not None:
        r = base_radius
        while r < 0.05 * scale:
            r *= 4.0
            radii.append(r)

    def refine(groups, radius):
        out = []
        for members in groups:
            m = len(members)
            center = complex(np.mean(members))
            if polynomial is not None and m > 1:
                trust = max(10.0 * _CLUSTER_FLOOR, 2.0 * radius / scale)
                center = _refine_multiple_root(polynomial, center, m, trust)
            out.append((center, m))
        return out

    best = refine(_cluster_at_radius(roots, base_radius), base_radius)
    if len(radii) > 1:
        # Single-linkage groupings are nested in the radius, so the sorted
        # multiplicity signature identifies a grouping uniquely.
        best_res = _rebuild_residual(polynomial, best)
        seen = {tuple(sorted(m for _, m in best))}
        for radius in radii[1:]:
            candidate = refine(_cluster_at_radius(roots, radius), radius)
            signature = tuple(sorted(m for _, m in candidate))
            if signature in seen:
                continue
            seen.add(signature)
            res = _rebuild_residual(polynomial, candidate)
            if res < best_res:
                best, best_res = candidate, res

    clusters = []
    for center, m in best:
        if abs(center.imag) <= 1e3 * tol.root_tol * (1.0 + abs(center)):
            center = complex(center.real, 0.0)  # deterministic branch on the real axis
        clusters.append((center, m))

    clusters.sort(key=lambda cm: (-abs(cm[0]), cmath.phase(cm[0])))
    return Spectrum(tuple(Cluster(c, m, cmath.log(c)) for c, m in clusters))
