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
    build_basis,
    basis_values,
    cluster_roots,
    find_roots,
    generalized_binomial,
    invert_vandermonde,
    mu_functions,
    scalar_flow,
    vandermonde_matrix,
)
from cflow.basis import term_values

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


def _basis_for(coeffs):
    q = AnnihilatorPolynomial(coeffs)
    return build_basis(cluster_roots(find_roots(q), polynomial=q))


class TestBasisLayout:
    def test_simple_spectrum(self):
        basis = _basis_for((-6, 5))  # roots 3, 2 (descending magnitude)
        assert basis.terms == ((0, 0), (1, 0))
        assert basis.spectrum.clusters[0].value == pytest.approx(3.0)

    def test_double_root_shifts(self):
        basis = _basis_for((-25, 10))  # (X - 5)^2
        assert basis.terms == ((0, 0), (0, 1))

    def test_eval_at_one_gives_eigenvalues(self):
        basis = _basis_for((-6, 5))
        assert np.allclose(np.array(basis_values(basis, 1.0)), [3.0, 2.0])


def _extended_values_by_loop(basis, z):
    """Extended-precision basis values by a per-term loop."""
    z = np.clongdouble(complex(z))
    out = np.empty(basis.size, dtype=np.clongdouble)
    for k, (ci, j) in enumerate(basis.terms):
        log = np.clongdouble(basis.spectrum.clusters[ci].log)
        acc = np.clongdouble(1.0)
        for i in range(j):
            acc *= z - i
        out[k] = acc / math.factorial(j) * np.exp((z - j) * log)
    return out


def _extended_values_by_array(basis, zs):
    """Extended-precision basis values, one row per exponent, by the array
    loop the paper's form used before it called ``term_values``."""
    zs = np.asarray(zs, dtype=np.complex128).astype(np.clongdouble)[..., None]
    shifts, logs, factorials = (np.array(c) for c in zip(*basis.term_table))
    values = np.exp((zs - shifts) * logs.astype(np.clongdouble))
    binomial = np.ones_like(values)
    for i in range(int(shifts.max())):
        binomial *= np.where(i < shifts, zs - i, 1)
    return values * (binomial / factorials.astype(np.clongdouble))


def test_extended_values_over_an_array_of_z(suite_reps):
    # term_values in clongdouble runs the same arithmetic per value as both
    # loops, so it is equal to the bit
    zs = np.array([0.5 + 0.3j, -1.7, 2.0, -4.0, 3.1 - 2.2j])
    for rep in suite_reps:
        rows = _extended_values_by_array(rep.basis, zs)
        for z, row in zip(zs, rows):
            values = np.array(term_values(rep.basis.term_table, np.clongdouble(z), np.exp))
            assert values.dtype == np.clongdouble
            assert np.array_equal(values, _extended_values_by_loop(rep.basis, z))
            assert np.array_equal(values, row)
    with pytest.raises(NonFiniteEntry, match="exponent nan is not finite"):
        mu_functions(suite_reps[0], float("nan"))


class TestVandermonde:
    def test_plus_minus_one(self):
        basis = _basis_for((1, 0))  # X^2 - 1, roots 1 and -1
        b = vandermonde_matrix(basis)
        assert np.allclose(b, [[1, -1], [1, 1]])

    def test_coefficient_table_two_three(self):
        # for X^2 - 5X + 6 the inverse of (f_i(-j)) is [[9, -4], [-18, 12]]
        basis = _basis_for((-6, 5))
        table = invert_vandermonde(vandermonde_matrix(basis).T)
        assert np.allclose(table.e, [[9, -4], [-18, 12]], atol=1e-12)

    def test_inverse_identity_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = int(rng.integers(1, 9))
            roots = rng.uniform(0.5, 4, p) * np.exp(1j * rng.uniform(-np.pi, np.pi, p))
            q = AnnihilatorPolynomial.from_roots(roots)
            basis = build_basis(cluster_roots(find_roots(q), polynomial=q))
            b = vandermonde_matrix(basis).T
            table = invert_vandermonde(b)
            assert np.max(np.abs(b @ table.e - np.eye(p))) < 1e-10

    def test_condition_warning(self):
        # two close simple roots give an estimate above 100; the table does
        # not warn, the paper's form reports it once its tier is decided
        basis = build_basis(grouped_spectrum([2.0, 2.01]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = invert_vandermonde(vandermonde_matrix(basis).T)
        assert table.condition_estimate > 100.0

    def test_equal_clusters_are_singular(self):
        # two clusters at one eigenvalue give two equal columns
        cluster = Cluster(2.0 + 0j, 1, math.log(2.0) + 0j)
        basis = build_basis(Spectrum((cluster, cluster)))
        with pytest.raises(SingularMatrix, match="numerically singular"):
            invert_vandermonde(vandermonde_matrix(basis).T)
