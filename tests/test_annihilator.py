"""Unit tests for relations, root finding and clustering."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from cflow import (
    AmbiguousRank,
    AnnihilatorPolynomial,
    NonConvergence,
    NonFiniteEntry,
    ZeroEigenvalue,
    build_flow,
    characteristic_polynomial,
    cluster_roots,
    evaluate_flow,
    find_roots,
    group_roots,
    minimal_polynomial,
    schur_covariants,
    spectral_table,
    validate_relation,
)
from cflow import annihilator, flow, highprec, numeric

from conftest import (
    defective_case,
    distinct_case,
    first_suite8_case,
    grouped_spectrum,
    mpc_from_extended,
    overflowing_builds,
    random_suite_case,
)
from lemmas import times_linear


def _coeffs(q):
    return np.asarray(q.coeffs)


class TestPolynomial:
    def test_degree_and_coefficients(self):
        q = AnnihilatorPolynomial((-6, 5))
        assert q.degree == 2
        # X^2 - 5X + 6 has monic coefficients [6, -5, 1]
        assert np.allclose(q.monic_coefficients(), [6, -5, 1])

    def test_from_roots(self):
        q = AnnihilatorPolynomial.from_roots([2, 3])
        assert np.allclose(_coeffs(q), [-6, 5])

    def test_times_linear(self):
        q = AnnihilatorPolynomial((2,))  # X - 2
        q2 = times_linear(q, 3)
        assert np.allclose(q2.monic_coefficients(), [6, -5, 1])

    def test_times_linear_keeps_extended(self):
        third = np.clongdouble(1) / 3  # X - 1/3, with bits beyond double precision
        q2 = times_linear(AnnihilatorPolynomial.from_work([-third, 1]), 3)
        assert np.array_equal(q2.work, [1, -3 - third, 1])
        assert q2.work[1] != q2.monic_coefficients()[1]

    def test_evaluate_matrix_annihilates(self):
        q = AnnihilatorPolynomial((-6, 5))
        a = np.diag([2.0, 3.0])
        assert np.allclose(q.evaluate_matrix(a), 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AnnihilatorPolynomial(())


class TestMinimalPolynomial:
    def test_identity(self):
        q = minimal_polynomial(np.eye(3))
        assert q.degree == 1
        assert np.allclose(_coeffs(q), [1])

    def test_repeated_eigenvalue_drops_degree(self):
        # diag(2, 2, 3) is annihilated by (X-2)(X-3) = X^2 - 5X + 6
        q = minimal_polynomial(np.diag([2.0, 2.0, 3.0]))
        assert q.degree == 2
        assert np.allclose(_coeffs(q), [-6, 5])
        # brute force: no monic degree-1 polynomial annihilates
        a = np.diag([2.0, 2.0, 3.0])
        for c0 in np.linspace(-10, 10, 201):
            assert np.max(np.abs(a - c0 * np.eye(3))) >= 0.5

    def test_jordan_block_needs_square(self):
        b = np.array([[5.0, 1.0], [0.0, 5.0]])
        q = minimal_polynomial(b)
        assert q.degree == 2
        # (X-5)^2 = X^2 - 10X + 25
        assert np.allclose(_coeffs(q), [-25, 10])

    def test_residual_is_tiny(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q = minimal_polynomial(a)
        assert validate_relation(a, q) < 1e-12

    def test_extended_copy_attached(self):
        q = minimal_polynomial(np.diag([2.0, 3.0]))
        assert q.work.dtype == np.clongdouble
        assert np.array_equal(q.work, [6, -5, 1])

    def test_residual_is_the_validate_relation_measure(self, suite):
        # read off the extended refinement, not a second Horner evaluation
        for case in suite[:20]:
            q = minimal_polynomial(case.matrix)
            horner = validate_relation(case.matrix, q)
            assert abs(q.residual - horner) <= 0.25 * horner + 1e-18
        assert AnnihilatorPolynomial((-6, 5)).residual is None


class TestCharacteristicPolynomial:
    def test_diag(self):
        q = characteristic_polynomial(np.diag([2.0, 3.0]))
        assert np.allclose(_coeffs(q), [-6, 5])

    def test_identity_two(self):
        q = characteristic_polynomial(np.eye(2))
        # X^2 - 2X + 1
        assert np.allclose(_coeffs(q), [-1, 2])

    def test_companion_recovers_itself(self):
        # companion of X^2 - c1 X - c0 in the adopted orientation
        c1, c0 = 1.5, -2.0
        c = np.array([[c1, 1.0], [c0, 0.0]])
        q = characteristic_polynomial(c)
        assert np.allclose(_coeffs(q), [c0, c1])

    def test_forms_each_product_once(self):
        # the former loop formed A M_k twice, for M_{k+1} and for its trace,
        # and a fresh identity at every step: the same bits, NaN included
        def former(a):
            n = a.shape[0]
            m = np.eye(n, dtype=np.complex128)
            b = np.zeros(n + 1, dtype=np.complex128)
            b[0] = 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(1, n + 1):
                    if k > 1:
                        m = a @ m + b[k - 1] * np.eye(n, dtype=np.complex128)
                    b[k] = -np.trace(a @ m) / k
            return np.array([-b[n - j] for j in range(n)])

        rng = np.random.default_rng(0)
        inputs = [random_suite_case(rng).matrix for _ in range(50)]
        inputs += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in range(1, 30)]
        inputs += [a * 1e200 for a in inputs[:20]]
        for a in inputs:
            assert np.asarray(characteristic_polynomial(a).coeffs).tobytes() == former(a).tobytes()


class TestValidateRelation:
    def test_identity_exact(self):
        assert validate_relation(np.eye(2), AnnihilatorPolynomial((1,))) == 0.0

    def test_true_relation_small(self):
        q = AnnihilatorPolynomial((-6, 5))
        assert validate_relation(np.diag([2.0, 3.0]), q) <= 1e-14

    def test_wrong_relation_large(self):
        q = AnnihilatorPolynomial((1, 0))  # X^2 - 1
        a = np.diag([2.0, 3.0])
        # Q(A) = diag(3, 8); normalized by max(1, |A|^2) = 9
        assert validate_relation(a, q) == pytest.approx(8.0 / 9.0)

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_right_relation_at_n20_within_residual_tol(self):
        # Horner in double precision measured 6.8e-8 for this relation, whose
        # flow is within 7.6e-16 of the oracle; in extended precision 3.2e-11
        a = distinct_case(np.random.default_rng(0), 20).matrix
        relation = build_flow(a).high_precision.relation
        assert validate_relation(a, relation) <= 1e-10


class TestFindRoots:
    def test_linear(self):
        q = AnnihilatorPolynomial((5,))
        assert np.allclose(find_roots(q), [5])

    def test_plus_minus_one(self):
        q = AnnihilatorPolynomial((1, 0))  # X^2 - 1
        assert np.allclose(sorted(find_roots(q), key=lambda r: r.real), [-1, 1])

    def test_double_root(self):
        q = AnnihilatorPolynomial((-1, 2))  # (X-1)^2
        roots = find_roots(q)
        assert len(roots) == 2
        for r in roots:
            assert abs(np.polyval(q.monic_coefficients()[::-1], r)) < 1e-12
            assert abs(r - 1.0) < 1e-6

    def test_random_polynomials_annihilate(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = int(rng.integers(1, 9))
            roots = rng.uniform(0.5, 4, p) * np.exp(1j * rng.uniform(-np.pi, np.pi, p))
            q = AnnihilatorPolynomial.from_roots(roots)
            found = np.asarray(find_roots(q))
            for r in roots:
                assert np.min(np.abs(found - r)) < 1e-7


    def test_eigenvalue_failure_is_nonconvergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        q = AnnihilatorPolynomial((-6, 5))
        with pytest.raises(NonConvergence):
            find_roots(q)
        # the roots are the paper's form's; the Schur flow needs none
        rep = build_flow(np.diag([2.0, 3.0]))
        with pytest.raises(NonConvergence):
            rep.relation
        assert np.allclose(evaluate_flow(rep, 2.0), np.diag([4.0, 9.0]), rtol=0.0, atol=1e-14)


class TestClusterRoots:
    def test_single(self):
        s = grouped_spectrum([5.0])
        assert s.degree == 1
        assert s.clusters[0].value == pytest.approx(5.0)
        assert s.clusters[0].multiplicity == 1

    def test_near_pair_merges(self):
        s = grouped_spectrum([1 + 1e-9, 1 - 1e-9])
        assert len(s.clusters) == 1
        assert s.clusters[0].multiplicity == 2
        assert s.clusters[0].value == pytest.approx(1.0)

    def test_distinct_stay_separate(self):
        s = grouped_spectrum([2.0, 3.0])
        assert [c.multiplicity for c in s.clusters] == [1, 1]

    def test_ordering_descending_magnitude(self):
        s = grouped_spectrum([1.0, -2.0, 3.0])
        assert [abs(c.value) for c in s.clusters] == pytest.approx([3.0, 2.0, 1.0])

    def test_zero_root_rejected(self):
        with pytest.raises(ZeroEigenvalue):
            grouped_spectrum([1.0, 0.0])

    def test_zero_centroid_is_a_zero_eigenvalue(self):
        # a nilpotent block's Schur diagonal: every value lies above the
        # zero threshold 1e-10, their centroid at 0, so the matrix is singular
        scatter = 6e-6 * np.exp(2j * np.pi * np.arange(3) / 3)
        with pytest.raises(ZeroEigenvalue, match="centred at zero"):
            grouped_spectrum(scatter)
        with pytest.raises(ZeroEigenvalue, match="at or near zero"):
            grouped_spectrum(1e-5 * scatter)  # each value lies below it

    def test_zero_threshold_of_each_rule(self):
        # the relation's roots are zero at _ZERO_ROOT (1e-7), the Schur
        # diagonal's at numeric._RANK_TOL (1e-10), relative to max|B| in [1, 2)
        q = AnnihilatorPolynomial.from_roots([1e-8, 2.0])
        with pytest.raises(ZeroEigenvalue, match="at or near zero"):
            cluster_roots(find_roots(q), polynomial=q)
        assert [g for _, g in group_roots([1e-8, 2.0])] == [[1], [0]]

    def test_adaptive_radius_recovers_scattered_triple(self):
        # roots of (X - 2)^3 (X - 1) scatter far beyond the base merge
        # radius in double precision; the polynomial-rebuild criterion must
        # still find the (3, 1) structure
        q = AnnihilatorPolynomial.from_roots([2.0, 2.0, 2.0, 1.0])
        s = cluster_roots(find_roots(q), polynomial=q)
        assert sorted(c.multiplicity for c in s.clusters) == [1, 3]
        triple = max(s.clusters, key=lambda c: c.multiplicity)
        assert abs(triple.value - 2.0) < 1e-10

    @pytest.mark.parametrize("root, m", [(2.0, 5), (1.0, 8)])
    def test_ladder_merges_high_multiplicity(self, root, m):
        # the roots of (X - root)^m scatter like eps**(1/m); at the base
        # radius alone they stay m simple clusters
        q = AnnihilatorPolynomial.from_roots([root] * m)
        s = cluster_roots(find_roots(q), polynomial=q)
        assert [c.multiplicity for c in s.clusters] == [m]
        assert abs(s.clusters[0].value - root) < 1e-12

    def test_adaptive_radius_keeps_close_simple_roots(self):
        # two genuinely distinct roots 0.4 apart must never be merged
        q = AnnihilatorPolynomial.from_roots([2.0, 2.4])
        s = cluster_roots(find_roots(q), polynomial=q)
        assert [c.multiplicity for c in s.clusters] == [1, 1]

    def test_branch_logs_are_principal(self):
        s = grouped_spectrum([-2.0])
        assert s.clusters[0].log.imag == pytest.approx(np.pi)

    def test_with_branch_offsets(self):
        s = grouped_spectrum([2.0]).with_branch_offsets({0: 1})
        assert s.clusters[0].log.imag == pytest.approx(2 * np.pi)

    def test_winding_number_beyond_double_range(self):
        # 2*pi*i*K raised OverflowError, not an error of cflow's
        with pytest.raises(NonFiniteEntry, match="winding number of cluster 0"):
            grouped_spectrum([2.0]).with_branch_offsets({0: 10**400})


def test_simple_roots_are_polished(suite):
    # every simple eigenvalue sits on a root of the relation's extended
    # coefficients, as computed at 50 digits, to double-precision rounding
    worst = 0.0
    for case in suite:
        q = minimal_polynomial(case.matrix)
        spectrum, _ = spectral_table(q)
        with mp.workdps(50):
            exact = mp.polyroots(
                [mpc_from_extended(c) for c in q.work[::-1]],
                maxsteps=200,
                extraprec=200,
            )
            for c in spectrum.clusters:
                if c.multiplicity == 1:
                    err = min(abs(c.value - r) for r in exact) / abs(c.value)
                    worst = max(worst, float(err))
    assert worst <= 1e-15


def test_ladder_polishes_each_grouping_once(monkeypatch):
    # the scattered triple of (X - 2)^3 (X - 1) keeps its grouping over
    # several rungs of the radius ladder; each grouping is polished once
    groupings, polished = [], []
    cluster_at_radius, polish = annihilator._cluster_at_radius, annihilator._polish

    def recording_cluster(*args):
        groups = cluster_at_radius(*args)
        groupings.append(tuple(sorted(len(g) for g in groups)))
        return groups

    def counting_polish(asc, groups, trust):
        polished.append(tuple(sorted(len(g) for g in groups)))
        return polish(asc, groups, trust)

    monkeypatch.setattr(annihilator, "_cluster_at_radius", recording_cluster)
    monkeypatch.setattr(annihilator, "_polish", counting_polish)
    q = AnnihilatorPolynomial.from_roots([2.0, 2.0, 2.0, 1.0])
    s = cluster_roots(find_roots(q), polynomial=q)
    assert sorted(c.multiplicity for c in s.clusters) == [1, 3]
    assert len(groupings) > len(set(groupings))  # the ladder revisits a grouping
    assert sorted(polished) == sorted(set(groupings))


# (X - 2)^3 (X - 1/3), ascending, as fractions, and its roots scattered
# about as the eigenvalues of a relation's companion matrix are
_TRIPLE_AND_THIRD = ((8, 3), (-12, 1), (14, 1), (-19, 3), (1, 1))
_SCATTERED = [[2 + 3e-6, 2 - 1.5e-6 + 2.6e-6j, 2 - 1.5e-6 - 2.6e-6j], [1 / 3 + 1e-9j]]


def test_polish_in_extended_precision():
    asc = np.array([np.longdouble(a) / b for a, b in _TRIPLE_AND_THIRD], dtype=np.clongdouble)
    centres = annihilator._polish(asc, _SCATTERED, 1e-3)
    assert [m for _, m in centres] == [3, 1]
    for (x, _), root in zip(centres, (2.0, 1 / 3)):
        assert isinstance(x, np.clongdouble)
        assert abs(complex(x) - root) <= 1e-15 * root


def test_polish_at_working_precision():
    with mp.workdps(50):
        asc = np.array([mp.mpc(a) / b for a, b in _TRIPLE_AND_THIRD], dtype=object)
        centres = annihilator._polish(asc, _SCATTERED, math.inf, 1e-45)
        assert [m for _, m in centres] == [3, 1]
        for (x, _), root in zip(centres, (mp.mpf(2), mp.mpf(1) / 3)):
            assert isinstance(x, mp.mpc)
            assert abs(x - root) <= 1e-45 * root


def _former_polish_root(asc: list, x0: complex, multiplicity: int) -> mp.mpc:
    """The tier's root polish before it ran ``_polish``: Newton on the
    (m-1)-th derivative, one root at a time, at the current mpmath precision."""
    d = asc
    for _ in range(multiplicity - 1):
        d = [d[i] * i for i in range(1, len(d))]
    x = mp.mpc(x0)
    for _ in range(100):
        value, slope = annihilator._horner(d, x)
        if abs(slope) == 0:
            break
        step = value / slope
        x -= step
        if abs(step) <= mp.mpf(10) ** (-mp.mp.dps + 5) * (1 + abs(x)):
            break
    return x


def test_tier_polish_is_the_former_root_polish(monkeypatch):
    # the tier's fixture: one triple and nine simple roots, polished at once
    calls = []

    def recording_polish(asc, groups, trust, tiny):
        centres = annihilator._polish(asc, groups, trust, tiny)
        calls.append((asc, groups, centres))
        return centres

    monkeypatch.setattr(highprec, "_polish", recording_polish)
    hp = build_flow(defective_case(np.random.default_rng(0), 12).matrix).high_precision
    assert sorted(c.multiplicity for c in hp.spectrum.clusters) == [1] * 9 + [3]
    [(asc, groups, centres)] = calls
    with mp.workdps(hp.dps):
        for group, (x, m) in zip(groups, centres):
            former = _former_polish_root(list(asc), group[0], len(group))
            assert m == len(group)
            assert abs(x - former) <= mp.mpf(10) ** (5 - hp.dps) * abs(former)


def _former_cluster_at_radius(roots, radius):
    """The grouping loop before the candidate pairs: every pair tested in Python.
    Each group is a list of indices into ``roots``."""
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _former_grouping(roots):
    """``(centroid, multiplicity)`` of the no-polynomial ladder as it was: one
    NumPy test per rung and ``np.mean`` per group, centroids snapped onto the
    real axis and ordered as :func:`cluster_roots` orders its clusters."""
    roots = np.asarray(roots, dtype=np.complex128)
    scale = 1.0 + float(np.max(np.abs(roots)))
    base_radius = annihilator._CLUSTER_FLOOR * scale
    radii = [base_radius]
    while radii[-1] < 0.05 * scale:
        radii.append(4.0 * radii[-1])
    values = roots.tolist()
    groups = [[values[i] for i in g] for g in _former_cluster_at_radius(values, base_radius)]
    distances = np.abs(roots[:, None] - roots[None, :])
    for narrow, radius in zip(radii, radii[1:]):
        if not np.any((distances > narrow) & (distances <= radius)):
            continue
        wider = [[values[i] for i in g] for g in _former_cluster_at_radius(values, radius)]
        spreads = [(np.max(np.abs(np.subtract(g, np.mean(g)))), len(g)) for g in wider]
        if any(r > (1e4 * annihilator._EPS) ** (1 / m) * scale for r, m in spreads):
            break
        groups = wider
    out = []
    for g in groups:
        c = complex(np.mean(g))
        if abs(c.imag) <= annihilator._SNAP * (1.0 + abs(c)):
            c = complex(c.real, 0.0)
        out.append((c, len(g)))
    return sorted(out, key=lambda cm: (-abs(cm[0]), np.angle(cm[0])))


def _root_sets(seed, count):
    """Root lists of scattered 2- to 5-fold roots, near pairs and simple roots,
    at magnitudes within a decade of 1 or, for every third list, spread over
    1e-3 to 1e3; each with the exact roots it scatters from."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        spread = 3.0 if k % 3 == 2 else 1.0
        exact, roots = [], []
        for _ in range(rng.integers(2, 6)):
            c = 10.0 ** rng.uniform(-spread, spread) * np.exp(2j * np.pi * rng.uniform())
            kind = rng.integers(3)
            if kind == 0:  # an m-fold root, scattered like (eps cond)^(1/m)
                m = int(rng.integers(2, 6))
                radius = abs(c) * (10.0 ** rng.uniform(-15, -9)) ** (1 / m)
                phase = 2 * np.pi * (np.arange(m) / m + rng.uniform())
                exact += [c] * m
                roots += list(c + radius * np.exp(1j * phase))
            elif kind == 1:  # a near pair
                other = c * (1 + 10.0 ** rng.uniform(-9, -1.5) * np.exp(2j * np.pi * rng.uniform()))
                exact += [c, other]
                roots += [c, other]
            else:
                exact.append(c)
                roots.append(c)
        yield np.array(exact), np.array(roots)


@pytest.mark.parametrize("seed", range(4))
def test_schur_grouping_matches_the_former_loops(seed):
    # group_roots' groups come from the candidate pairs, the ladder is
    # skipped when no distance lies between its rungs, and the centroids are
    # Python sums: the same groups as the former loops
    for _, roots in _root_sets(seed, 60):
        spectrum = grouped_spectrum(roots)
        former = _former_grouping(roots)
        assert [c.multiplicity for c in spectrum.clusters] == [m for _, m in former]
        for cluster, (centroid, _) in zip(spectrum.clusters, former):
            assert abs(cluster.value - centroid) <= 1e-15 * abs(centroid)


@pytest.mark.parametrize("seed", range(4))
def test_schur_covariants_group_like_the_former_loops(seed):
    # the Schur path end to end, owner and blocks included: a diagonal
    # matrix is its own Schur form, scaled by the power of two s
    for _, roots in _root_sets(seed, 60):
        s = 2.0 ** math.floor(math.log2(np.max(np.abs(roots))))
        spectrum, _ = schur_covariants(np.diag(roots))
        former = _former_grouping(roots / s)
        assert [c.multiplicity for c in spectrum.clusters] == [m for _, m in former]
        for cluster, (centroid, _) in zip(spectrum.clusters, former):
            assert abs(cluster.value - centroid * s) <= 1e-15 * abs(centroid * s)


def _former_pairs(values, limit):
    """``annihilator._pairs`` before its sweep: every pair measured."""
    pairs = itertools.combinations(range(len(values)), 2)
    return [(r, i, j) for i, j in pairs if (r := abs(values[i] - values[j])) <= limit]


def _schur_diagonals(monkeypatch) -> list:
    """The Schur diagonals that ``group_roots`` sees on suite seeds 0-1 and the
    n = 12-24 distinct and defective ladder at seed 0, as lists of complex."""
    seen, group = [], flow.group_roots
    monkeypatch.setattr(flow, "group_roots", lambda d: seen.append(d.tolist()) or group(d))
    matrices = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        matrices += [random_suite_case(rng).matrix for _ in range(50)]
    rng = np.random.default_rng(0)
    for n in (12, 16, 20, 24):
        matrices += [distinct_case(rng, n).matrix, defective_case(rng, n).matrix]
    for a in matrices:
        build_flow(a)
    return seen


def test_pairs_sweep_finds_every_near_pair(monkeypatch):
    # the sweep by real part measures only pairs whose real parts lie within
    # the limit: the same (distance, i, j) as the scan over all pairs
    cases = []
    for values in _schur_diagonals(monkeypatch):
        _, scale, radii = annihilator._ladder(values, 0.0)
        reach = 2.0 * (1e4 * annihilator._EPS) ** (1 / len(values)) * scale
        limits = [min(radii[-1], max(radii[0], 4.0 * reach)), radii[-1], 0.5 * scale, 4.0 * scale]
        distances = sorted(r for r, _, _ in _former_pairs(values, math.inf))
        limits.append(distances[len(distances) // 2] if distances else 0.0)  # a limit on a distance
        cases += [(values, limit) for limit in limits]
    ties = [
        ([2.0 + 0j] * 3, [0.0, 1e-3]),
        ([1.0 + 1.0j, 1.0 - 1.0j], [2.0, 1.9]),  # a conjugate pair, 2 apart
        ([0.25 + 0.0j, 0.0 + 0.0j, 0.25 + 1.0j], [0.25, 1.0]),  # real parts a limit apart
        ([0.5 + 0.0j, 0.5 + 0.1j, 0.5 - 0.3j, 0.7 + 0.0j, 0.5 + 0.1j], [0.0, 0.1, 0.2, 0.4]),
    ]
    cases += [(values, limit) for values, limits in ties for limit in limits]
    assert len(cases) > 500
    for values, limit in cases:
        pairs = annihilator._pairs(values, limit)
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == set(_former_pairs(values, limit)), (values, limit)
    assert annihilator._pairs([1.0 + 1.0j, 1.0 - 1.0j], 2.0) == [(2.0, 0, 1)]


@pytest.mark.parametrize("seed", range(2))
def test_relation_grouping_is_unchanged(seed, monkeypatch):
    # with a polynomial the candidate pairs give the former groupings, so
    # polishing and the rebuild residual see the same input, bit for bit
    spectra = []
    for exact, _ in _root_sets(seed, 30):
        q = AnnihilatorPolynomial.from_roots(exact)
        spectra.append((q, find_roots(q), cluster_roots(find_roots(q), polynomial=q)))
    monkeypatch.setattr(
        annihilator, "_cluster_at_radius", lambda roots, _, radius: _former_cluster_at_radius(roots, radius)
    )
    for q, roots, spectrum in spectra:
        assert cluster_roots(roots, polynomial=q) == spectrum


def _refined_by_loop(a, coef):
    """The extended refinement as ``minimal_polynomial`` ran it before
    ``annihilator._refined``: three rounds of an extended residual and a
    double least-squares correction on the Krylov system of ``I, A, ...,
    A^p``.  Returns the coefficients and ``max |vec(A^p) - K c|``."""
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


def _by_gram_schmidt(a):
    """The degree decision as ``minimal_polynomial`` made it before its QR:
    each power orthogonalized twice against the running span by modified
    Gram-Schmidt.  Returns the residual of every degree looked at, and the
    minimal polynomial or the exception the decision raised."""
    n = a.shape[0]
    basis, residuals = [], []
    powers = [np.eye(n, dtype=np.complex128)]
    v0 = powers[0].reshape(-1)
    basis.append(v0 / np.linalg.norm(v0))
    with np.errstate(all="ignore"):
        for q in range(1, n + 1):
            powers.append(powers[-1] @ a)
            v = powers[-1].reshape(-1)
            scale = np.linalg.norm(v)
            r = v.copy()
            for _ in range(2):
                for u in basis:
                    r = r - (np.conj(u) @ r) * u
            rel = np.linalg.norm(r) / scale
            residuals.append(rel)
            if rel <= numeric._RANK_TOL:
                k = np.column_stack([m.reshape(-1) for m in powers[:q]])
                coef, *_ = np.linalg.lstsq(k, v, rcond=None)
                coef_ext, res = _refined_by_loop(a, coef)
                return residuals, AnnihilatorPolynomial.from_work(
                    np.append(-coef_ext, 1), annihilator._relative_residual(res, a, q)
                )
            if rel <= 10.0 * numeric._RANK_TOL or q == n:
                return residuals, AmbiguousRank(
                    f"dependence residual {rel:.3e} too close to the rank tolerance at degree {q}"
                )
            basis.append(r / np.linalg.norm(r))


def _ladder(seed, sizes=(20, 24)):
    """The matrices of ``bench/inputs.ladder_cases(seed)`` at ``sizes``: the
    ladder draws a distinct, then a defective matrix at n = 12, 16, 20 and
    24, and conjugates the distinct one by ``T`` and ``inv(T)``."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in (12, 16, 20, 24):
        case = distinct_case(rng, n)
        defective = defective_case(rng, n).matrix
        if n in sizes:
            t, lam = case.transform, np.diag([lam for lam, _ in case.blocks])
            out[f"ladder{seed}-n{n}-distinct"] = t @ lam @ np.linalg.inv(t)
            out[f"ladder{seed}-n{n}-defective"] = defective
    return out


def _decision_inputs() -> dict:
    rng = np.random.default_rng(0)
    inputs = {f"suite{i}": random_suite_case(rng).matrix for i in range(50)}
    inputs.update(_ladder(0))
    inputs.update(_ladder(16))
    inputs["eye3"] = np.eye(3, dtype=np.complex128)
    inputs["diag223"] = np.diag([2.0, 2.0, 3.0]).astype(np.complex128)
    inputs["unipotent"] = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    inputs["one"] = np.array([[2.5 - 1.0j]])
    inputs.update(overflowing_builds())
    return inputs


_DECISION_INPUTS = _decision_inputs()


@pytest.mark.parametrize("name", sorted(_DECISION_INPUTS))
def test_qr_decides_like_gram_schmidt(name):
    # the QR residual |R[q, q]| / |vec(A^q)| takes the same decision and the
    # same relation as the Gram-Schmidt loop it replaced
    a = _DECISION_INPUTS[name]
    residuals, expected = _by_gram_schmidt(a)
    try:
        q = minimal_polynomial(a)
    except Exception as exc:
        assert isinstance(expected, Exception)
        assert (type(exc), str(exc)) == (type(expected), str(expected))
    else:
        assert isinstance(expected, AnnihilatorPolynomial)
        assert q.coeffs == expected.coeffs
        assert np.array_equal(q.work, expected.work)
        assert q.residual == expected.residual
    _, qr = annihilator._dependence_residuals(a)
    decided = len(residuals)
    np.testing.assert_allclose(qr[1:decided], residuals[:-1], rtol=1e-6)


def test_overflowed_power_is_no_dependence():
    # |vec(A^8)| overflows here while its distance from the lower powers does
    # not; Gram-Schmidt read finite / inf = 0 as a dependence and returned a
    # relation with residual 10.6, whose roots raised ZeroEigenvalue
    a = first_suite8_case().matrix * 1e20
    with pytest.raises(AmbiguousRank, match="residual nan .* at degree 8"):
        minimal_polynomial(a)


def test_dependence_residuals_form_the_powers_like_the_former_loop(suite):
    # itertools.accumulate multiplies I, A, A^2, ... in the former loop's order
    for case in suite:
        a = np.asarray(case.matrix, dtype=np.complex128)
        n = len(a)
        powers = [np.eye(n, dtype=np.complex128)]
        for _ in range(n):
            powers.append(powers[-1] @ a)
        krylov, _ = annihilator._dependence_residuals(a)
        assert krylov.tobytes() == np.stack(powers).reshape(n + 1, n * n).T.tobytes()


def test_dependence_residuals_at_n1_and_for_a_zero_power():
    # a 1x1 matrix has one row, so its Krylov matrix has no R[1, 1]: a nonzero
    # A is a dependence, a zero one (0 / 0) is not
    _, residuals = annihilator._dependence_residuals(np.array([[2.0 + 0j]]))
    assert residuals.tolist() == [1.0, 0.0]
    _, residuals = annihilator._dependence_residuals(np.zeros((1, 1), dtype=np.complex128))
    assert np.isnan(residuals[1])
