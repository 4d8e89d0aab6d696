"""Unit tests for scalar powers, binomial polynomials and the Vandermonde system."""

import math
import warnings

import numpy as np
import pytest

from cflow import (
    AnnihilatorPolynomial,
    Cluster,
    NonFiniteEntry,
    ConditioningWarning,
    SingularMatrix,
    Spectrum,
    ZeroEigenvalue,
    branch_log,
    basis_values,
    cluster_roots,
    find_roots,
    generalized_binomial,
    invert_vandermonde,
    scalar_flow,
    vandermonde_matrix,
)
from cflow.basis import paper_values

from conftest import grouped_spectrum


class TestGeneralizedBinomial:
    def test_shift_zero_is_one(self):
        assert generalized_binomial(0, 3.7 + 2j) == 1

    def test_integer_grid(self):
        for k in range(0, 8):
            for j in range(0, 8):
                assert generalized_binomial(j, k) == pytest.approx(math.comb(k, j))

    def test_known_values(self):
        assert generalized_binomial(2, 4) == pytest.approx(6)
        assert generalized_binomial(3, 1) == 0
        assert generalized_binomial(1, 0.5) == pytest.approx(0.5)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            generalized_binomial(-1, 0)

    def test_is_the_former_running_product(self):
        # math.prod multiplies in the order of the former loop: the same bits
        for z in (0.5, -1.7 + 0.3j, 3j, 1e10 - 2.5j, 7):
            for j in range(12):
                acc = 1.0 + 0.0j
                for i in range(j):
                    acc *= complex(z) - i
                assert generalized_binomial(j, z) == acc / math.factorial(j)


class TestBranchLog:
    def test_one(self):
        assert branch_log(1.0) == 0

    def test_e(self):
        assert branch_log(math.e) == pytest.approx(1.0)

    def test_negative_real_uses_plus_pi(self):
        assert branch_log(-1.0).imag == pytest.approx(math.pi)

    def test_zero_rejected(self):
        with pytest.raises(ZeroEigenvalue):
            branch_log(0.0)


class TestScalarFlow:
    def test_square_root(self):
        assert scalar_flow(4.0, 0.5) == pytest.approx(2.0)

    def test_principal_sqrt_of_minus_one(self):
        assert scalar_flow(-1.0, 0.5) == pytest.approx(1j)

    def test_integer_power(self):
        assert scalar_flow(1.5 + 0.5j, 3) == pytest.approx((1.5 + 0.5j) ** 3)

    def test_group_law(self):
        lam = 2.0 - 1.0j
        z, w = 0.3 + 0.4j, -1.2 + 0.1j
        assert scalar_flow(lam, z) * scalar_flow(lam, w) == pytest.approx(
            scalar_flow(lam, z + w)
        )


def _spectrum_for(coeffs):
    q = AnnihilatorPolynomial(coeffs)
    return cluster_roots(find_roots(q), polynomial=q)


class TestBasisLayout:
    def test_simple_spectrum(self):
        spectrum = _spectrum_for((-6, 5))  # roots 3, 2 (descending magnitude)
        assert spectrum.terms == ((0, 0), (1, 0))
        assert spectrum.clusters[0].value == pytest.approx(3.0)

    def test_double_root_shifts(self):
        spectrum = _spectrum_for((-25, 10))  # (X - 5)^2
        assert spectrum.terms == ((0, 0), (0, 1))

    def test_eval_at_one_gives_eigenvalues(self):
        spectrum = _spectrum_for((-6, 5))
        assert np.allclose(np.array(basis_values(spectrum, 1.0)), [3.0, 2.0])


def _extended_values_by_loop(spectrum, z):
    """The paper's basis values in extended precision by a per-term loop over
    the formula of ``paper_values``: ``exp(z log)``, times ``ff_j(z)`` on the
    terms of positive shift, times the constant ``exp(-j log) / j!``."""
    z = np.clongdouble(complex(z))
    out = np.empty(spectrum.degree, dtype=np.clongdouble)
    for k, (ci, j) in enumerate(spectrum.terms):
        log = np.clongdouble(spectrum.clusters[ci].log)
        out[k] = np.exp(z * log)
        if j:
            ff = z if j == 1 else ff * (z - (j - 1))
            out[k] *= ff
        out[k] *= np.exp(np.clongdouble(j) * -log) / float(math.factorial(j))
    return out


def _extended_values_by_array(spectrum, zs):
    """The same values, one row per exponent, by array operations: the
    falling factorials of all terms together, one factor per round."""
    zs = np.asarray(zs, dtype=np.complex128).astype(np.clongdouble)[..., None]
    shifts = np.array([j for _, j in spectrum.terms])
    logs = np.array([spectrum.clusters[ci].log for ci, _ in spectrum.terms]).astype(np.clongdouble)
    ff = np.broadcast_to(zs, (len(zs), len(shifts))).copy()
    for i in range(1, int(shifts.max())):
        ff = np.where(i < shifts, ff * (zs - i), ff)
    values = np.exp(zs * logs)
    values[:, shifts > 0] *= ff[:, shifts > 0]
    return values * (np.exp(shifts * -logs) / [float(math.factorial(j)) for j in shifts])


def test_extended_values_over_an_array_of_z(suite_reps):
    # paper_values in clongdouble runs the same arithmetic per value as both
    # loops, so it is equal to the bit
    zs = np.array([0.5 + 0.3j, -1.7, 2.0, -4.0, 3.1 - 2.2j])
    for rep in suite_reps:
        rows = _extended_values_by_array(rep.spectrum, zs)
        for z, row in zip(zs, rows):
            values = paper_values(rep.spectrum, [np.clongdouble(z)])[0]
            assert values.dtype == np.clongdouble
            assert np.array_equal(values, _extended_values_by_loop(rep.spectrum, z))
            assert np.array_equal(values, row)
    with pytest.raises(NonFiniteEntry, match="exponent nan is not finite"):
        suite_reps[0].paper.mu(float("nan"))


class TestVandermonde:
    def test_plus_minus_one(self):
        spectrum = _spectrum_for((1, 0))  # X^2 - 1, roots 1 and -1
        b = vandermonde_matrix(spectrum)
        assert np.allclose(b, [[1, -1], [1, 1]])

    def test_coefficient_table_two_three(self):
        # for X^2 - 5X + 6 the inverse of (f_i(-j)) is [[9, -4], [-18, 12]]
        spectrum = _spectrum_for((-6, 5))
        table = invert_vandermonde(vandermonde_matrix(spectrum).T)
        assert np.allclose(table.e, [[9, -4], [-18, 12]], atol=1e-12)

    def test_inverse_identity_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = int(rng.integers(1, 9))
            roots = rng.uniform(0.5, 4, p) * np.exp(1j * rng.uniform(-np.pi, np.pi, p))
            q = AnnihilatorPolynomial.from_roots(roots)
            b = vandermonde_matrix(cluster_roots(find_roots(q), polynomial=q)).T
            table = invert_vandermonde(b)
            assert np.max(np.abs(b @ table.e - np.eye(p))) < 1e-10

    def test_condition_warning(self):
        # two close simple roots give an estimate above 100; the table does
        # not warn, the paper's form reports it once its tier is decided
        spectrum = grouped_spectrum([2.0, 2.01])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = invert_vandermonde(vandermonde_matrix(spectrum).T)
        assert table.condition_estimate > 100.0

    def test_equal_clusters_are_singular(self):
        # two clusters at one eigenvalue give two equal columns
        cluster = Cluster(2.0 + 0j, 1, math.log(2.0) + 0j)
        with pytest.raises(SingularMatrix, match="numerically singular"):
            invert_vandermonde(vandermonde_matrix(Spectrum((cluster, cluster))).T)
