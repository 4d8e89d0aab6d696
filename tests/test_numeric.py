"""Unit tests for the dense matrix arithmetic layer."""

import numpy as np
import pytest

from cflow import (
    DimensionMismatch,
    NonFiniteEntry,
    SingularMatrix,
    ToleranceConfig,
    as_matrix,
    inverse,
    lu_factor,
    max_norm,
    power_int,
    solve,
)


class TestAsMatrix:
    def test_accepts_square(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)

    def test_scalar_becomes_one_by_one(self):
        assert as_matrix(5).shape == (1, 1)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            as_matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteEntry):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_inf_imag(self):
        with pytest.raises(NonFiniteEntry):
            as_matrix([[complex(0, np.inf)]])


class TestLU:
    def test_identity_all_pivots_one(self):
        f = lu_factor(np.eye(3))
        assert f.smallest_pivot == pytest.approx(1.0)

    def test_diagonal_pivots(self):
        f = lu_factor(np.diag([2.0, 3.0]))
        assert sorted(np.abs(np.diag(f.lu))) == pytest.approx([2.0, 3.0])

    def test_rank_one_is_singular(self):
        with pytest.raises(SingularMatrix):
            lu_factor(np.ones((2, 2)))

    def test_solve_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
        assert np.allclose(solve(lu_factor(np.eye(2)), b), b)

    def test_solve_scalar(self):
        x = solve(lu_factor(np.array([[2.0]])), np.array([[1.0]]))
        assert x[0, 0] == pytest.approx(0.5)

    def test_solve_against_identity_gives_inverse(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(a @ inverse(a), np.eye(4), atol=1e-12)

    def test_solve_rhs_dimension(self):
        with pytest.raises(DimensionMismatch):
            solve(lu_factor(np.eye(2)), np.eye(3))


class TestPowerInt:
    def test_zeroth_power(self):
        a = np.array([[2.0, 1.0], [0.0, 2.0]])
        assert np.array_equal(power_int(a, 0), np.eye(2))

    def test_diagonal_cubes(self):
        assert np.allclose(power_int(np.diag([2.0, 3.0]), 3), np.diag([8.0, 27.0]))

    def test_negative_inverts(self):
        assert np.allclose(power_int(np.array([[2.0]]), -1), [[0.5]])

    def test_negative_power_of_singular_raises(self):
        with pytest.raises(SingularMatrix):
            power_int(np.zeros((2, 2)), -1)

    def test_matches_repeated_multiplication(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expected = np.eye(3, dtype=np.complex128)
        for _ in range(5):
            expected = expected @ a
        assert np.allclose(power_int(a, 5), expected)


class TestMaxNorm:
    def test_zero(self):
        assert max_norm(np.zeros((2, 2))) == 0.0

    def test_identity(self):
        assert max_norm(np.eye(3)) == 1.0

    def test_imaginary_entry(self):
        assert max_norm(np.array([[3.0, -4.0j], [0.0, 0.0]])) == pytest.approx(4.0)


class TestToleranceConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_tol=0.0)

    def test_defaults(self):
        t = ToleranceConfig()
        assert t.rank_tol == 1e-10
        assert t.root_tol == 1e-12
        assert t.cluster_tol == 1e-7
        assert t.residual_tol == 1e-9
        assert t.cond_warn == 1e12
