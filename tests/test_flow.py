"""Unit tests for the two flow constructions, the Jordan oracle and the
structural checks."""

import cmath
import math
import warnings

import numpy as np
import pytest

from cflow import flow
from cflow import (
    AmbiguousRank,
    AnnihilatorPolynomial,
    ConditioningWarning,
    NonFiniteEntry,
    NotJordanForm,
    RelationInvalid,
    ToleranceConfig,
    ZeroEigenvalue,
    build_flow,
    check_flow_axioms,
    characteristic_polynomial,
    check_relation,
    cluster_roots,
    companion_action_check,
    companion_flow_mu,
    companion_matrix,
    eval_basis,
    evaluate_companion_flow,
    evaluate_flow,
    extend_matrix,
    jordan_block_flow,
    jordan_oracle,
    max_norm,
    mu_functions,
    negative_powers,
    validate_relation,
)

from conftest import (
    LSTSQ_TRUNCATES_SCALES,
    defective_case,
    distinct_case,
    first_suite8_case,
    jordan_block_case,
    overflowing_builds,
    rel_err,
)


class TestNegativePowers:
    def test_diagonal(self):
        negs = negative_powers(np.diag([2.0, 4.0]), 2)
        assert np.allclose(negs[0], np.diag([0.5, 0.25]))
        assert np.allclose(negs[1], np.diag([0.25, 0.0625]))

    def test_singular_rejected(self):
        from cflow import SingularMatrix

        with pytest.raises(SingularMatrix):
            negative_powers(np.zeros((2, 2)), 1)


class TestCompanionMatrix:
    def test_orientation(self):
        q = AnnihilatorPolynomial((-6, 5))  # A^2 = 5A - 6I
        c = companion_matrix(q)
        assert np.allclose(c, [[5, 1], [-6, 0]])

    def test_relation_is_characteristic(self):
        q = AnnihilatorPolynomial((2 - 1j, 0.5, -1.5 + 0.5j))
        c = companion_matrix(q)
        # C satisfies its own relation
        assert np.max(np.abs(q.evaluate_matrix(c))) < 1e-12


class TestBuildFlow:
    def test_diag_two_three(self):
        a = np.diag([2.0, 3.0])
        rep = build_flow(a)
        for z in (0.5, 2.0, -1.0, 0.3 + 0.7j):
            expected = np.diag([2.0 ** complex(z), 3.0 ** complex(z)])
            assert rel_err(evaluate_flow(rep, z), expected) < 1e-13

    def test_unipotent_square_root(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        rep = build_flow(a)
        assert np.allclose(evaluate_flow(rep, 0.5), [[1, 0.5], [0, 1]], atol=1e-12)

    def test_integer_powers_match_direct(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rep = build_flow(a)
        for k in range(-3, 6):
            assert rel_err(evaluate_flow(rep, k), np.linalg.matrix_power(a, k)) < 1e-10

    def test_supplied_relation_validated(self):
        with pytest.raises(RelationInvalid):
            build_flow(np.diag([2.0, 3.0]), AnnihilatorPolynomial((1, 0)))

    def test_check_relation(self):
        a = np.diag([2.0, 3.0])
        assert check_relation(a, AnnihilatorPolynomial((-6, 5))) == 0.0
        with pytest.raises(RelationInvalid, match="relation residual 8.889e-01"):
            check_relation(a, AnnihilatorPolynomial((1, 0)))

    def test_relation_residual_recorded(self):
        a = np.diag([2.0, 3.0])
        supplied = AnnihilatorPolynomial((-6, 5)).times_linear(1.5)
        assert build_flow(a, supplied).relation_residual == validate_relation(a, supplied)
        rep = build_flow(a)
        assert rep.relation_residual == rep.relation.residual < 1e-15

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_wrong_discovered_relation_raises(self):
        # outside the tier, this matrix's double-precision relation has
        # residual 16.9, and its flow was off by a relative 8e3
        case = defective_case(np.random.default_rng(2), 24)
        with pytest.raises(RelationInvalid, match="relation residual 1.694e"):
            build_flow(case.matrix)

    def test_ambiguous_rank_falls_back_to_characteristic_polynomial(self, suite, monkeypatch):
        def ambiguous(a, tol):
            raise AmbiguousRank("forced")

        monkeypatch.setattr(flow, "minimal_polynomial", ambiguous)
        case = next(c for c in suite if c.matrix.shape[0] >= 4)
        rep = build_flow(case.matrix)
        assert rep.relation == characteristic_polynomial(case.matrix)
        assert rep.relation_residual == validate_relation(case.matrix, rep.relation)
        for z in (0.5 + 0.3j, -1.7, 2.0):
            expected = jordan_oracle(case.blocks, case.transform, z)
            assert rel_err(evaluate_flow(rep, z), expected) < 1e-12

    def test_padded_relation_accepted(self):
        a = np.diag([2.0, 3.0])
        q = AnnihilatorPolynomial((-6, 5)).times_linear(1.5)
        rep = build_flow(a, q)
        assert rep.degree == 3
        assert rel_err(evaluate_flow(rep, 0.5), np.diag([2.0**0.5, 3.0**0.5])) < 1e-12

    def test_singular_matrix_rejected(self):
        with pytest.raises(ZeroEigenvalue):
            build_flow(np.diag([1.0, 0.0]))

    def test_branch_offset_changes_flow(self):
        a = np.array([[4.0]])
        plain = evaluate_flow(build_flow(a), 0.5)[0, 0]
        shifted = evaluate_flow(build_flow(a, branch_offsets={0: 1}), 0.5)[0, 0]
        assert plain == pytest.approx(2.0)
        assert shifted == pytest.approx(-2.0)  # exp(i*pi) from the extra winding

    @pytest.mark.parametrize("z", [float("nan"), complex(0.5, float("inf")), 2000.0])
    def test_non_finite_exponent_or_result_raises(self, z):
        # z = 2000 overflows 3^z; a NaN or infinite z has no finite flow
        rep = build_flow(np.diag([2.0, 3.0]))
        with pytest.raises(NonFiniteEntry):
            evaluate_flow(rep, z)
        with pytest.raises(NonFiniteEntry):
            mu_functions(rep, z)

    def test_non_finite_companion_raises(self):
        a = np.diag([2.0, 3.0])
        q = AnnihilatorPolynomial((-6, 5))
        with pytest.raises(NonFiniteEntry):
            companion_flow_mu(q, float("nan"))
        with pytest.raises(NonFiniteEntry):
            evaluate_companion_flow(a, q, 2000.0)

    @pytest.mark.parametrize("name", sorted(overflowing_builds()))
    def test_overflowing_build_raises_non_finite(self, name):
        # finite, invertible inputs whose build overflowed with a bare OverflowError
        with pytest.raises(NonFiniteEntry, match="intermediate of the build overflows"):
            build_flow(overflowing_builds()[name])

    @pytest.mark.xfail(strict=True, raises=ZeroEigenvalue, reason=LSTSQ_TRUNCATES_SCALES)
    def test_large_scale_is_not_a_zero_eigenvalue(self):
        # eigenvalues of magnitude 5e9 to 3e10: the discovered relation has
        # residual 5.6 and roots near 0, and the build raises ZeroEigenvalue
        case, s = first_suite8_case(), 1e10
        rep = build_flow(case.matrix * s)
        for z in (0.5, -1.7 + 0.3j):
            expected = jordan_oracle(case.blocks, case.transform, z) * s**z
            assert rel_err(evaluate_flow(rep, z), expected) < 1e-8

    def test_tier_does_not_warn_about_the_table_it_discards(self):
        # the double-precision table's estimate read 1.2e14 here, for a
        # result within 1e-12 of the oracle
        case = distinct_case(np.random.default_rng(0), 20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = build_flow(case.matrix)
        assert rep.high_precision is not None
        assert rep.coeffs.condition_estimate > 1e12
        assert [w for w in caught if issubclass(w.category, ConditioningWarning)] == []
        z = 0.5 + 0.25j
        assert rel_err(evaluate_flow(rep, z), jordan_oracle(case.blocks, case.transform, z)) < 1e-12

    def test_folded_table_warns_at_the_caller(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.warns(ConditioningWarning, match="generalized Vandermonde") as caught:
            build_flow(a, tol=ToleranceConfig(cond_warn=1.0))
        assert len(caught) == 1
        assert caught[0].filename == __file__

    def test_covariants_fold_the_table(self):
        # M_k = sum_i e_ik A^{-i}, so A^z = sum_k f_k(z) M_k
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rep = build_flow(a)
        folded = np.einsum("ik,inm->knm", rep.coeffs.e, np.array(rep.neg_powers))
        assert rep.covariants.shape == (rep.degree, 4, 4)
        assert rel_err(rep.covariants, folded) < 1e-10

    def test_mu_at_integers(self):
        # contracting mu(z) against the negative powers must reproduce
        # evaluate_flow at every z
        a = np.diag([2.0, 3.0])
        rep = build_flow(a)
        negs = negative_powers(a, rep.degree)
        for z in (0.0, 1.0, 2.0, 0.5):
            mu = mu_functions(rep, z)
            recon = sum(m * p for m, p in zip(mu, negs))
            assert rel_err(recon, evaluate_flow(rep, z)) < 1e-12


@pytest.mark.parametrize("lam, size, seed", [(2.0, 4, 4), (0.8 + 0.6j, 4, 0), (1.0, 5, 0)])
def test_jordan_blocks_of_size_four_and_five(lam, size, seed):
    # the eigenvalue scatters past the base clustering radius; without the
    # radius ladder these raise SingularMatrix, or are off by 9e4 and 2e-4
    case = jordan_block_case(np.random.default_rng(seed), lam, size)
    rep = build_flow(case.matrix)
    assert [c.multiplicity for c in rep.basis.spectrum.clusters] == [size]
    for z in (0.5, 0.5 + 0.3j, -1.7):
        assert rel_err(evaluate_flow(rep, z), jordan_oracle(case.blocks, case.transform, z)) <= 1e-10


class TestCompanionConstruction:
    def test_mu_zero_and_one(self):
        q = AnnihilatorPolynomial((-6, 5))
        c = np.array([-6.0, 5.0])[::-1]  # (c_1, c_0) = (5, -6)
        mu0 = companion_flow_mu(q, 0.0)
        mu1 = companion_flow_mu(q, 1.0)
        # C^0 c = c and C^1 c = C c
        assert np.allclose(mu0, c, atol=1e-12)
        assert np.allclose(mu1, companion_matrix(q) @ c, atol=1e-12)

    def test_known_formula_value(self):
        # for A^2 = 5A - 6I, mu(1) = (19, -30)
        q = AnnihilatorPolynomial((-6, 5))
        assert np.allclose(companion_flow_mu(q, 1.0), [19.0, -30.0], atol=1e-12)

    def test_agrees_with_direct(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rep = build_flow(a)
        for z in (0.5, -1.2 + 0.4j, 2.0):
            direct = evaluate_flow(rep, z)
            comp = evaluate_companion_flow(a, rep.relation, z)
            assert rel_err(comp, direct) < 1e-10

    def test_zero_constant_coefficient_rejected(self):
        with pytest.raises(ZeroEigenvalue):
            companion_flow_mu(AnnihilatorPolynomial((0, 1)), 0.5)

    def test_companion_coefficients_are_the_direct_table(self):
        # C^{-j} c = e_j, so C^z c interpolates the same values mu(-j) = e_j
        # as the direct table: the companion route is the direct one
        q = AnnihilatorPolynomial((2.0 - 1j, 0.5, -3.0 + 0.25j, 1.5))
        c = companion_matrix(q)[:, 0]
        inv = np.linalg.inv(companion_matrix(q))
        for j in range(1, q.degree + 1):
            unit = np.eye(q.degree)[j - 1]
            assert np.allclose(np.linalg.matrix_power(inv, j) @ c, unit, atol=1e-12)
            assert np.allclose(companion_flow_mu(q, -j), unit, atol=1e-12)


class TestJordanOracle:
    def test_block_flow_integer(self):
        out = jordan_block_flow(3.0, 2, 2)
        assert np.allclose(out, [[9, 6], [0, 9]])

    def test_block_flow_half(self):
        out = jordan_block_flow(1.0, 2, 0.5)
        assert np.allclose(out, [[1, 0.5], [0, 1]])

    def test_block_flow_is_group(self):
        z, w = 0.3 - 0.2j, 1.1 + 0.5j
        fz = jordan_block_flow(2.0 + 1.0j, 3, z)
        fw = jordan_block_flow(2.0 + 1.0j, 3, w)
        fzw = jordan_block_flow(2.0 + 1.0j, 3, z + w)
        assert np.max(np.abs(fz @ fw - fzw)) < 1e-12 * np.max(np.abs(fzw))

    def test_oracle_matches_build_flow(self):
        rng = np.random.default_rng(41)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        blocks = [(2.0, 2), (3.0, 1)]
        j = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        a = t @ j @ np.linalg.inv(t)
        rep = build_flow(a)
        for z in (0.5, 1.3 - 0.7j, -2.0):
            assert rel_err(evaluate_flow(rep, z), jordan_oracle(blocks, t, z)) < 1e-9

    def test_invalid_block_sizes(self):
        from cflow import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            jordan_oracle([(2.0, 2)], np.eye(3), 1.0)


class TestExtendMatrix:
    def _spectrum(self, values):
        return cluster_roots(values)

    def test_new_simple_root_appends_diagonal(self):
        a = np.array([[2.0]])
        out = extend_matrix(a, 3.0, self._spectrum([2.0]))
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_repeated_root_grows_block(self):
        b2 = np.array([[5.0, 1.0], [0.0, 5.0]])
        out = extend_matrix(b2, 5.0, self._spectrum([5.0, 5.0]))
        expected = 5.0 * np.eye(3) + np.diag([1.0, 1.0], 1)
        assert np.allclose(out, expected)

    def test_repeated_root_requires_jordan_form(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((2, 2))
        a = t @ np.array([[5.0, 1.0], [0.0, 5.0]]) @ np.linalg.inv(t)
        with pytest.raises(NotJordanForm):
            extend_matrix(a, 5.0, self._spectrum([5.0, 5.0]))

    def test_flow_restriction(self):
        # the flow of the extended matrix restricts to the original flow
        a = np.diag([2.0, 3.0])
        spectrum = self._spectrum([2.0, 3.0])
        big = extend_matrix(a, 1.5, spectrum)
        rep_small = build_flow(a)
        rep_big = build_flow(big)
        for z in (0.5, -1.0, 0.7 + 0.2j):
            f_big = evaluate_flow(rep_big, z)
            assert rel_err(f_big[:2, :2], evaluate_flow(rep_small, z)) < 1e-11


class TestCompanionActionCheck:
    def test_true_relation_small(self):
        a = np.diag([2.0, 3.0])
        q = AnnihilatorPolynomial((-6, 5))
        rng = np.random.default_rng(9)
        for _ in range(10):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert companion_action_check(a, q, v) < 1e-12

    def test_wrong_orientation_large(self):
        # flipping the relation coefficients breaks the intertwining identity
        a = np.diag([2.0, 3.0])
        q = AnnihilatorPolynomial((5, -6))
        assert companion_action_check(a, q, np.array([1.0, 1.0])) > 1e-3


class TestCheckFlowAxioms:
    def test_identity_matrix(self):
        a = np.eye(2)
        rep = build_flow(a)
        report = check_flow_axioms(rep, a, [(0.5, 0.25), (1.0 + 1.0j, -2.0)])
        assert report.max_residual < 1e-13

    def test_report_fields(self):
        a = np.diag([2.0, 3.0])
        rep = build_flow(a)
        report = check_flow_axioms(rep, a, [(0.3, 0.4)])
        assert report.identity_residual < 1e-12
        assert report.generator_residual < 1e-12
        assert report.group_residual < 1e-12


def _evaluated_by_loop(rep, z):
    """``A^z``, the basis values and the evaluation condition by the per-term
    loop, stacked contraction and ``isfinite`` pass that the cached
    contraction replaced."""
    z = complex(z)
    clusters = rep.basis.spectrum.clusters
    f = np.empty(rep.basis.size, dtype=np.complex128)
    for k, (ci, j) in enumerate(rep.basis.terms):
        power = cmath.exp((z - j) * clusters[ci].log)
        acc = 1.0 + 0.0j
        for i in range(j):
            acc *= z - i
        f[k] = power if j == 0 else acc / math.factorial(j) * power
    p, n, _ = rep.covariants.shape
    out = (f @ rep.covariants.reshape(p, n * n)).reshape(n, n)
    assert np.isfinite(out).all()
    scales = np.max(np.abs(rep.covariants), axis=(1, 2))
    value = np.tensordot(f, rep.covariants, axes=1)
    return out, f, float(np.abs(f) @ scales) / max(max_norm(value), 1e-300)


_GRID = [0.0, 1.0, -1.0, 0.5, 2.5, -1.7, 7.0, 0.5 + 0.3j, 3j, -2.0 - 1.5j, 1e-9, -0.0 - 0.0j] + [
    complex(*v) for v in np.random.default_rng(3).uniform(-3.0, 3.0, (12, 2))
]


class TestEvaluateFlow:
    """The cached contraction is the parent's evaluation to the bit."""

    @staticmethod
    def _check(rep, zs=_GRID):
        for z in zs:
            out, f, cond = _evaluated_by_loop(rep, z)
            assert evaluate_flow(rep, z).tobytes() == out.tobytes()
            assert eval_basis(rep.basis, z).tobytes() == f.tobytes()
            assert rep.evaluation_condition(z) == cond

    def test_suite(self, suite_reps):
        for rep in suite_reps:
            self._check(rep)

    def test_tier_fixture(self):
        rep = build_flow(defective_case(np.random.default_rng(0), 12).matrix)
        assert rep.high_precision is not None
        self._check(rep)

    @pytest.mark.parametrize("lam, size", [(2.0, 3), (0.8 + 0.6j, 4), (-1.5, 2), (1.0, 5)])
    def test_conjugated_jordan_blocks(self, lam, size):
        self._check(build_flow(jordan_block_case(np.random.default_rng(5), lam, size).matrix))

    def test_bound_above_threshold_keeps_a_finite_result(self):
        # at z = 620 the finiteness bound is about 6e303, so the entries are
        # checked one by one, and they are finite
        self._check(build_flow(np.array([[2.0, 1e8], [0.0, 3.0]])), [600.0, 620.0])

    def test_nan_basis_value_raises(self):
        # g_2(1e160) overflows and 0.5^1e160 underflows: their product is NaN
        rep = build_flow(np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]))
        assert np.isnan(eval_basis(rep.basis, 1e160)).any()
        with pytest.raises(NonFiniteEntry, match="not finite"):
            evaluate_flow(rep, 1e160)

    def test_overflowing_contraction_raises(self):
        # the basis values are finite at z = 640 (3^640 is about 1e305), and
        # the covariants' 1e8 entries take the sum past double precision
        rep = build_flow(np.array([[2.0, 1e8], [0.0, 3.0]]))
        assert np.isfinite(eval_basis(rep.basis, 640.0)).all()
        with pytest.raises(NonFiniteEntry, match="A\\^z is not finite"):
            evaluate_flow(rep, 640.0)
        with pytest.raises(NonFiniteEntry, match="overflows"):
            evaluate_flow(rep, 650.0)

    def test_nan_exponent_raises(self, suite_reps):
        with pytest.raises(NonFiniteEntry, match="exponent"):
            evaluate_flow(suite_reps[0], complex(float("nan"), 0.0))
