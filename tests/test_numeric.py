"""Unit tests for the dense matrix arithmetic layer."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from cflow import (
    DimensionMismatch,
    NonFiniteEntry,
    SingularMatrix,
    as_matrix,
    extended_inverse,
    inverse,
    max_norm,
    power_int,
    vandermonde_matrix,
)
from cflow.basis import _VANDERMONDE_PIVOT
from cflow.numeric import _RANK_TOL, _equilibrated
from conftest import rel_err_to_ref


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
    def test_solve_against_identity_gives_inverse(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(a @ inverse(a), np.eye(4), atol=1e-12)


def _lu_cases(suite, suite_reps):
    """``(matrix, pivot tolerance)`` pairs: the suite matrices, the Vandermonde
    tables of their relations with ``invert_vandermonde``'s pivot tolerance,
    and rank-deficient matrices."""
    cases = [(case.matrix, _RANK_TOL) for case in suite]
    for rep in suite_reps:
        cases.append((vandermonde_matrix(rep.spectrum).T, _VANDERMONDE_PIVOT))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    rank_one = np.outer(x[:, 0], x[:, 1].conj())
    zero_col = rng.standard_normal((4, 4)) + 0j
    zero_col[:, 2] = 0.0
    repeated_row = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    repeated_row[3] = repeated_row[1]
    for a in (
        np.ones((3, 3)),
        np.zeros((2, 2)),
        rank_one,
        x @ x.T,
        zero_col,
        repeated_row,
        np.diag([1.0, 1e-12, 2.0]),  # graded, not singular
        np.diag([1.0, 1e-9, 2.0]),
    ):
        cases.append((as_matrix(a), _RANK_TOL))
    return cases


def _getrf_singular(a, pivot_tol):
    """The pivot test on LAPACK's ``getrf`` factors of the power-of-two
    equilibrated copy: a pivot at or below ``pivot_tol`` times its largest
    magnitude."""
    w = _equilibrated(a)[1].astype(np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(w)
    return np.min(np.abs(np.diag(lu))) <= pivot_tol * max_norm(w)


class TestNumpyLU:
    """``extended_inverse``'s pivot test against LAPACK's ``getrf``."""

    def test_extended_inverse_raises_where_lu_factor_does(self, suite, suite_reps):
        singular = 0
        for a, pivot_tol in _lu_cases(suite, suite_reps):
            expected = _getrf_singular(a, pivot_tol)
            try:
                extended_inverse(a, pivot_tol)
                raised = False
            except SingularMatrix:
                raised = True
            assert raised == expected
            singular += raised
        assert singular == 6


def _loop_extended_inverse(a):
    """The row-by-row Gauss-Jordan elimination that ``extended_inverse``
    does with one rank-1 update per column, on the same power-of-two
    equilibrated copy; the reference it must equal."""
    r, w, c = _equilibrated(a)
    n = w.shape[0]
    work = np.hstack([w, np.eye(n, dtype=np.clongdouble)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(work[col:, col])))
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
        work[col] = work[col] / work[col, col]
        for i in range(n):
            if i != col:
                work[i] = work[i] - work[i, col] * work[col]
    return c[:, None] * work[:, n:] * r


def _bitwise_equal(x, y):
    return all(
        np.array_equal(u, v) and np.array_equal(np.signbit(u), np.signbit(v))
        for u, v in ((x.real, y.real), (x.imag, y.imag))
    )


class TestExtendedInverse:
    def test_equals_the_row_loop(self, suite):
        rng = np.random.default_rng(12)
        mats = [case.matrix for case in suite]
        for _ in range(60):
            n = int(rng.integers(2, 25))
            mats.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for a in mats:
            assert _bitwise_equal(extended_inverse(a), _loop_extended_inverse(a))

    def test_singular_raises_with_tolerance(self):
        with pytest.raises(SingularMatrix):
            extended_inverse(np.ones((3, 3)))

    def test_row_scaling_by_powers_of_two_is_exact(self):
        # the rows of D1 a equilibrate to the same copy as those of a
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            d1 = np.ldexp(1.0, rng.integers(-60, 61, n))
            expected = extended_inverse(a) * (1.0 / d1)
            assert _bitwise_equal(extended_inverse(d1[:, None] * a), expected)

    def test_scaling_by_powers_of_two_keeps_the_decision(self):
        # a column scaling D2 can change the row scales of the copy, and so
        # its partial pivots: the inverses then agree to rounding, not bitwise
        rng = np.random.default_rng(32)
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in range(1, 9)]
        x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        zero_row = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        zero_row[2] = 0.0
        mats += [np.ones((3, 3)), x @ x.T, np.outer(x[:, 0], x[:, 1]), zero_row]
        for a in mats * 10:
            n = a.shape[0]
            d1, d2 = (np.ldexp(1.0, rng.integers(-60, 61, n)) for _ in range(2))
            try:
                expected = extended_inverse(a)
            except SingularMatrix:
                with pytest.raises(SingularMatrix):
                    extended_inverse(d1[:, None] * a * d2)
                continue
            got = d2[:, None] * extended_inverse(d1[:, None] * a * d2) * d1
            assert np.abs(got - expected).max() <= 1e-16 * np.abs(expected).max()

    def test_zero_row_raises(self):
        a = np.diag([1e-200, 1.0, 1e200]).astype(np.complex128)
        a[1] = 0.0
        with pytest.raises(SingularMatrix, match="pivot 0.000e"):
            extended_inverse(a)

    def test_inverse_is_the_extended_inverse_rounded(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.array_equal(inverse(a), extended_inverse(a).astype(np.complex128))


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

    def test_returns_a_new_array(self):
        # numpy's matrix_power returns its argument itself at k = 1
        a = np.array([[2.0, 1.0], [0.0, 3.0]], dtype=np.complex128)
        for k in range(-3, 6):
            out = power_int(a, k)
            out[0, 0] = 7.0
            assert a[0, 0] == 2.0, k

    def test_matches_the_former_square_and_multiply(self, suite):
        # bit for bit except at |k| = 3, where matrix_power forms (A A) A and
        # the former loop A (A A)
        for case in suite:
            for k in range(-3, 6):
                got, former = power_int(case.matrix, k), _former_power_int(case.matrix, k)
                assert rel_err_to_ref(got, former) <= 1e-15, k
                assert abs(k) == 3 or np.array_equal(got, former), k


def _former_power_int(a, k):
    """``power_int`` as it was: square and multiply by hand from the identity."""
    a = as_matrix(a)
    if k < 0:
        a, k = inverse(a), -k
    result, base = np.eye(a.shape[0], dtype=np.complex128), a
    while k > 0:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


class TestMaxNorm:
    def test_zero(self):
        assert max_norm(np.zeros((2, 2))) == 0.0

    def test_identity(self):
        assert max_norm(np.eye(3)) == 1.0

    def test_imaginary_entry(self):
        assert max_norm(np.array([[3.0, -4.0j], [0.0, 0.0]])) == pytest.approx(4.0)


def _former_max_norm(a):
    return float(np.max(np.abs(np.asarray(a, dtype=np.complex128))))


def _former_as_matrix(a):
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    m = np.ascontiguousarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise NonFiniteEntry("matrix contains NaN or infinite entries")
    return m


def _reduction_inputs():
    rng = np.random.default_rng(5)
    inputs = [
        [[1, -2], [3, 4]],
        [[0.5]],
        2.5,
        np.asarray(-3.0),
        np.asfortranarray(rng.standard_normal((3, 3))),
        np.array([[-0.0, 0.0], [0.0, -0.0]]),
        np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [complex(0.0, -np.inf), 1.0]]),
        np.array([[np.nan, 1.0], [0.0, 1.0]]),
        np.array([[1.0, complex(np.nan, 0.0)], [0.0, 1.0]]),
        [[1.0, 2.0, 3.0]],
    ]
    for n in (1, 2, 5, 8):
        inputs.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return inputs


@pytest.mark.parametrize("a", _reduction_inputs())
def test_reductions_return_the_former_values(a):
    # max_norm and as_matrix reduce with ndarray methods, not np.max/np.all
    former = _former_max_norm(a)
    assert max_norm(a) == former or (np.isnan(former) and np.isnan(max_norm(a)))
    try:
        expected = _former_as_matrix(a)
    except (DimensionMismatch, NonFiniteEntry) as error:
        with pytest.raises(type(error)):
            as_matrix(a)
    else:
        got = as_matrix(a)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.flags.c_contiguous and got.tobytes() == expected.tobytes()
