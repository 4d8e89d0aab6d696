"""Annihilating polynomials, their roots, and clustered eigenvalue data.

A relation ``A^p = c_{p-1} A^{p-1} + ... + c_1 A + c_0 I`` is stored as the
monic polynomial ``X^p - c_{p-1} X^{p-1} - ... - c_0`` via its coefficient
vector ``(c_0, ..., c_{p-1})``.  Its roots are the eigenvalues of its
companion matrix; they are merged into a :class:`Spectrum` carrying
multiplicities and a fixed branch logarithm per eigenvalue, every cluster
polished once against the relation's extended-precision coefficients, its
``work``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import AmbiguousRank, NonConvergence, NonFiniteEntry, UnknownCluster, ZeroEigenvalue
from .numeric import _RANK_TOL, as_matrix, max_norm

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

# A relation root or polished centre at or below this magnitude is zero.
_ZERO_ROOT = 1e-7

# A centre within this of the real axis, relative to 1 + |centre|, is made real.
_SNAP = 1e-9


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
    matrix relation ``A^p = sum c_i A^i``, in double precision; equality and
    hashing read it alone.  ``work`` is the read-only ascending array
    ``[-c_0, ..., -c_{p-1}, 1]`` in extended precision: a relation's own
    refined coefficients when it comes from :meth:`from_work` (as
    :func:`minimal_polynomial` discovers it), ``coeffs`` widened otherwise;
    ``coeffs`` is always its rounding.  A discovered relation carries
    ``residual``, its :func:`validate_relation` measure against the matrix
    it came from.
    """

    coeffs: tuple
    residual: float | None = field(default=None, compare=False, repr=False)
    work: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        work = np.append(-np.asarray(self.coeffs, dtype=np.clongdouble), 1)
        work.flags.writeable = False
        object.__setattr__(self, "work", work)

    @classmethod
    def from_work(cls, work, residual: float | None = None) -> "AnnihilatorPolynomial":
        """The relation of ascending monic coefficients ``work``, kept in
        extended precision, with ``coeffs`` their double rounding."""
        work = np.array(work, dtype=np.clongdouble)
        work.flags.writeable = False
        q = cls(tuple(-work[:-1].astype(np.complex128)), residual)
        object.__setattr__(q, "work", work)
        return q

    @classmethod
    def from_roots(cls, roots) -> "AnnihilatorPolynomial":
        """Expand ``prod (X - r)`` exactly in floating arithmetic."""
        asc = np.array([1.0 + 0.0j])
        for r in roots:
            asc = np.convolve(asc, np.array([-complex(r), 1.0 + 0.0j]))
        return cls(tuple(-asc[:-1] / asc[-1]))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def monic_coefficients(self) -> np.ndarray:
        """Ascending coefficient array ``[-c_0, ..., -c_{p-1}, 1]``: ``work`` rounded."""
        return self.work.astype(np.complex128)

    def evaluate_matrix(self, a) -> np.ndarray:
        """Horner evaluation of the polynomial at a square matrix, run in
        extended precision on ``work`` and rounded to complex128.
        (Double-precision Horner leaves rounding noise of order
        ``eps |A|^p``: 6.8e-8 relative for a right relation at n = 20.)"""
        a = as_matrix(a).astype(np.clongdouble)
        eye = np.eye(a.shape[0], dtype=np.clongdouble)
        acc = self.work[-1] * eye
        for coeff in self.work[-2::-1]:
            acc = acc @ a + coeff * eye
        return acc.astype(np.complex128)


@dataclass(frozen=True)
class Cluster:
    """One eigenvalue of the relation: representative, multiplicity, branch
    log (an ``mpc`` at working precision in the mpmath tier)."""

    value: complex
    multiplicity: int
    log: complex

    @property
    def winding(self) -> int:
        """The integer ``k`` with ``log = principal log + 2 pi i k``."""
        return round((self.log - cmath.log(self.value)).imag / (2.0 * math.pi))


@dataclass(frozen=True)
class Spectrum:
    """Clustered roots of an annihilating polynomial, deterministically ordered
    (descending magnitude, ascending argument).  ``terms``, a ``(cluster index,
    shift)`` per basis function ``g_shift(z) lambda^(z - shift)`` with shifts
    ascending in each cluster, is the term order of the coefficient table."""

    clusters: tuple

    @property
    def degree(self) -> int:
        return sum(c.multiplicity for c in self.clusters)

    @cached_property
    def terms(self) -> tuple:
        return tuple((ci, j) for ci, c in enumerate(self.clusters) for j in range(c.multiplicity))

    @cached_property
    def term_table(self) -> tuple:
        """``(shift, branch log, shift!)`` of every term, in term order."""
        return tuple((j, self.clusters[ci].log, math.factorial(j)) for ci, j in self.terms)

    def with_branch_offsets(self, offsets) -> "Spectrum":
        """Shift chosen branch logs by integer multiples of ``2 pi i``.

        ``offsets`` maps a cluster index (0-based, in this spectrum's order)
        to an integer winding number, or is a spectrum whose nearest cluster's
        branch choice each cluster takes over (:meth:`winding_near`).  A
        winding number that is not an integer (:func:`operator.index`) raises
        :class:`UnknownCluster`, and one beyond double range :class:`NonFiniteEntry`.
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
            try:
                new[idx] = replace(c, log=c.log + 2j * math.pi * operator.index(k))
            except TypeError as exc:
                raise UnknownCluster(f"winding {k!r} of cluster {idx} is not an integer") from exc
            except OverflowError as exc:
                raise NonFiniteEntry(f"the winding number of cluster {idx} overflows") from exc
        return Spectrum(tuple(new))

    def winding_near(self, value: complex) -> int:
        """The branch offset (:attr:`Cluster.winding`) of the cluster nearest
        ``value``.  A spectrum derived from this one carries its branch
        choice over by this number."""
        return min(self.clusters, key=lambda c: abs(c.value - value)).winding


def _refined(k: np.ndarray, v: np.ndarray, c: np.ndarray, rounds: int) -> np.ndarray:
    """``c`` after ``rounds`` rounds of mixed-precision iterative refinement of
    the least-squares system ``k c = v`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 12 and 20): each takes the residual ``v - k c``
    in the arithmetic of the arrays (``clongdouble``, or ``mpc`` in object
    arrays) and adds to ``c`` its double-precision least-squares correction."""
    k_dbl = k.astype(np.complex128)
    for _ in range(rounds):
        r = v - k @ c
        delta, *_ = np.linalg.lstsq(k_dbl, r.astype(np.complex128), rcond=None)
        c = c + delta
    return c


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


def minimal_polynomial(a) -> AnnihilatorPolynomial:
    """Monic annihilating polynomial of least degree.

    Flattens ``I, A, ..., A^n`` into the columns of a Krylov matrix and takes
    the degree at the first linear dependence: the first ``q`` whose QR
    residual ``|R[q, q]| / ||vec(A^q)||`` falls to ``1e-10``.  The
    coefficients solve the least-squares system on the first ``q`` columns
    and are refined (:func:`_refined`, 3 rounds) on the same system formed
    in extended precision from ``I, A, ..., A^q``.  The result's ``residual``
    is read off that system's ``max |vec(A^q) - K c| = max |Q(A)|``: the
    :func:`validate_relation` measure without a second evaluation.

    Raises
    ------
    AmbiguousRank
        If the dependence decision lands within a factor 10 of ``1e-10``,
        so the reported degree would be unreliable.
    """
    a = as_matrix(a)
    n = a.shape[0]
    krylov, residuals = _dependence_residuals(a)
    for q in range(1, n + 1):
        rel = residuals[q]
        if rel <= _RANK_TOL:
            coef, *_ = np.linalg.lstsq(krylov[:, :q], krylov[:, q], rcond=None)
            eye, ae = np.eye(n, dtype=np.clongdouble), a.astype(np.clongdouble)
            powers = list(itertools.accumulate([ae] * q, np.matmul, initial=eye))
            k, v = np.stack(powers[:q]).reshape(q, n * n).T, powers[q].reshape(-1)
            coef = _refined(k, v, coef.astype(np.clongdouble), 3)
            res = float(np.max(np.abs(v - k @ coef)))
            return AnnihilatorPolynomial.from_work(np.append(-coef, 1), _relative_residual(res, a, q))
        if rel <= 10.0 * _RANK_TOL or q == n:
            # Cayley-Hamilton forces dependence by q = n, so reaching q = n
            # without one is itself a marginal-rank symptom.
            raise AmbiguousRank(
                f"dependence residual {rel:.3e} too close to the rank tolerance at degree {q}"
            )
    raise AssertionError("unreachable")


def characteristic_polynomial(a) -> AnnihilatorPolynomial:
    """Degree-``n`` characteristic polynomial via the trace recursion."""
    a = as_matrix(a)
    n = a.shape[0]
    m = eye = np.eye(n, dtype=np.complex128)
    # p(X) = X^n + b[1] X^{n-1} + ... + b[n]
    b = np.zeros(n + 1, dtype=np.complex128)
    b[0] = 1.0
    # An overflow leaves inf or NaN coefficients, which validation reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            am = a @ m
            b[k] = -np.trace(am) / k
            m = am + b[k] * eye
    coeffs = tuple(-b[n - j] for j in range(n))  # c_j multiplies X^j
    return AnnihilatorPolynomial(coeffs)


def _relative_residual(res: float, a: np.ndarray, p: int) -> float:
    try:
        return res / max(1.0, max_norm(a) ** p)
    except OverflowError as exc:
        raise NonFiniteEntry(
            f"an intermediate of the build overflows: |A|^{p} exceeds double precision"
        ) from exc


def validate_relation(a, q: AnnihilatorPolynomial) -> float:
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


def _polish(asc, groups: list, trust: float, tiny: float = 1e-18) -> list:
    """``(centre, multiplicity)`` of each group of one grouping, Newton-polished
    against the monic polynomial of ascending coefficients ``asc``, in their
    arithmetic: ``clongdouble`` in :func:`cluster_roots`, a relation's ``work``
    (the double rounding of its coefficients alone would move a root by more
    than the flow's accuracy), and ``mpc`` (an object array) in the mpmath tier.

    An m-fold root is polished as a simple root of the (m-1)-th derivative,
    every cluster of one multiplicity in one vectorized iteration started at
    the group centroids, until every step is within ``tiny * (1 + |x|)``.  A
    polished value is kept only if it stays within ``trust * (1 + |x0|)`` of
    its centroid.
    """
    # asc is monic: its leading 1 carries the arithmetic to the centroids
    centers = np.array([np.mean(g) for g in groups], dtype=np.complex128) * asc[-1]
    mults = np.array([len(g) for g in groups])
    for m in sorted(set(mults.tolist())):  # np.unique would import numpy.ma
        sel = mults == m
        d = asc
        for _ in range(m - 1):
            d = d[1:] * np.arange(1, len(d))
        x = x0 = centers[sel]
        last = np.inf
        for _ in range(50):
            pv, dv = _horner(d, x)
            flat = np.abs(dv) < 1e-300
            step = np.where(flat, 0.0, pv / np.where(flat, 1.0, dv))
            x = x - step
            # stop at convergence, or once the steps stop shrinking: they
            # are then rounding noise of the evaluation
            largest = float(np.max(np.abs(step) / (1.0 + np.abs(x))))
            if largest <= tiny or largest >= last:
                break
            last = largest
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
    (:meth:`AnnihilatorPolynomial.from_roots`) from ``(center, multiplicity)`` pairs."""
    roots = [center for center, m in clusters for _ in range(m)]
    asc = AnnihilatorPolynomial.from_roots(roots).monic_coefficients()
    target = poly.monic_coefficients()
    return float(np.max(np.abs(asc - target))) / max(1.0, float(np.max(np.abs(target))))


def _ladder(roots, zero: float) -> tuple:
    """The roots as Python complex values, none at or below ``zero`` in magnitude,
    ``scale = 1 + max |root|``, and the merge radii from ``1.3e-4 scale`` (the
    floor: a threefold root's scatter) by factors of 4 to ``0.05 scale``."""
    values = np.asarray(roots, dtype=np.complex128).ravel().tolist()
    if not values:
        raise ValueError("root list is empty")
    if min(map(abs, values)) <= zero:
        raise ZeroEigenvalue("a root lies at or near zero; the matrix is not invertible")
    scale = 1.0 + max(map(abs, values))
    radii = [_CLUSTER_FLOOR * scale]
    while radii[-1] < 0.05 * scale:
        radii.append(4.0 * radii[-1])
    return values, scale, radii


def _pairs(values: list, limit: float) -> list:
    """``(distance, i, j)`` of every pair ``i < j`` of ``values`` at most ``limit`` apart."""
    pairs = itertools.combinations(range(len(values)), 2)
    return [(r, i, j) for i, j in pairs if (r := abs(values[i] - values[j])) <= limit]


def _ordered(centred) -> list:
    """``(centre, x)`` pairs by descending ``|centre|``, then phase, a centre
    within ``_SNAP (1 + |centre|)`` of the real axis put on it (a deterministic branch)."""
    out = [(complex(c.real) if abs(c.imag) <= _SNAP * (1.0 + abs(c)) else c, x) for c, x in centred]
    return sorted(out, key=lambda cx: (-abs(cx[0]), cmath.phase(cx[0])))


def group_roots(roots) -> list:
    """The eigenvalues of a Schur diagonal ``roots`` as ``(centre, indices)``:
    each group's ascending indices into ``roots`` and their mean, in spectrum
    order.  Single linkage on the ladder of radii of :func:`_ladder`, widening
    while each group of ``m`` lies within ``(1e4 eps)^(1/m) scale`` of its
    centroid, where its ``m`` Taylor terms truncate at about ``1e4 eps``.
    A value or a group mean (a nilpotent block's scatter) at or below
    ``1e-10`` in magnitude raises :class:`ZeroEigenvalue`."""
    values, scale, radii = _ladder(roots, _RANK_TOL)
    # a rung joining a pair beyond reach ends the ladder, so pairs past 4 reach go unused
    reach = 2.0 * (1e4 * _EPS) ** (1 / len(values)) * scale
    pairs = _pairs(values, min(radii[-1], max(radii[0], 4.0 * reach)))
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
    centres = [sum(values[i] for i in g) / len(g) for g in groups]
    if min(map(abs, centres)) <= _RANK_TOL:
        raise ZeroEigenvalue("a root cluster is centred at zero; the matrix is not invertible")
    return _ordered(zip(centres, groups))


def cluster_roots(roots, *, polynomial) -> Spectrum:
    """The :class:`Spectrum` of the roots of ``polynomial``: single linkage on
    the ladder of :func:`group_roots`, every distinct grouping polished against
    ``polynomial.work``, and the one whose centres best rebuild its coefficients
    kept (a multiple root scatters far beyond the floor, and merging distinct
    roots ruins the rebuilt coefficients); each centre's principal logarithm
    is its branch.

    Raises
    ------
    ZeroEigenvalue
        If a root is at or below ``_ZERO_ROOT`` (1e-7) in magnitude: the
        matrix is not invertible, so no flow exists.
    NonConvergence
        If polishing drives a cluster centre to ``_ZERO_ROOT`` or below.
    """
    values, scale, radii = _ladder(roots, _ZERO_ROOT)
    asc = polynomial.work
    pairs, best, seen = _pairs(values, radii[-1]), None, set()
    for radius in radii:
        groups = _cluster_at_radius(values, pairs, radius)
        # groupings nest in the radius: their sorted sizes name them, each polished once
        signature = tuple(sorted(map(len, groups)))
        if signature in seen:
            continue
        seen.add(signature)
        trust = max(10 * _CLUSTER_FLOOR, 2.0 * radius / scale)
        centred = _polish(asc, [[values[i] for i in g] for g in groups], trust)
        polished = [(complex(c), m) for c, m in centred]
        res = _rebuild_residual(polynomial, polished)
        if best is None or res < best_res:
            best, best_res = polished, res
    if low := [abs(c) for c, _ in best if abs(c) <= _ZERO_ROOT]:
        raise NonConvergence(
            f"polishing a root cluster drove its centre to magnitude {low[0]:.3e}, "
            f"although every root lies above {_ZERO_ROOT:.1e} in magnitude"
        )
    return Spectrum(tuple(Cluster(c, m, cmath.log(c)) for c, m in _ordered(best)))
