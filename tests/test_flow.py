"""Unit tests for the two flow constructions, the Jordan oracle and the
structural checks."""

import cmath
import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from cflow import basis, flow
from cflow.cli import main
from cflow.matfile import write_matrix
from cflow import (
    AmbiguousRank,
    AnnihilatorPolynomial,
    CompanionFlow,
    ConditioningWarning,
    DimensionMismatch,
    NonConvergence,
    NonFiniteEntry,
    RelationInvalid,
    UnknownCluster,
    ZeroEigenvalue,
    basis_values,
    build_flow,
    check_flow_axioms,
    characteristic_polynomial,
    check_relation,
    companion_matrix,
    evaluate_companion_flow,
    evaluate_flow,
    generalized_binomial,
    jordan_block_flow,
    jordan_oracle,
    max_norm,
    validate_relation,
)

from conftest import (
    CENTRE_AT_ZERO_SCALE,
    defective_case,
    distinct_case,
    eigen_oracle,
    first_suite_case,
    first_suite8_case,
    grouped_spectrum,
    jordan_block_case,
    overflowing_builds,
    overflowing_oracle,
    random_suite_case,
    rel_err,
    rel_err_to_ref,
    several_multiple_case,
    triangular_flow,
)
from lemmas import (
    NotJordanForm,
    companion_action_check,
    extend_matrix,
    negative_powers,
    times_linear,
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

    def test_nan_relation_rejected(self):
        # a NaN residual passed "residual > 1e-9", so the build succeeded and
        # the first read of mu raised NonConvergence from the companion roots
        a = np.diag([2.0, 3.0])
        q = AnnihilatorPolynomial((float("nan"), 5))
        with pytest.raises(RelationInvalid, match="relation residual nan"):
            check_relation(a, q)
        with pytest.raises(RelationInvalid, match="relation residual nan"):
            build_flow(a, q)

    def test_relation_residual_recorded(self):
        a = np.diag([2.0, 3.0])
        supplied = times_linear(AnnihilatorPolynomial((-6, 5)), 1.5)
        assert build_flow(a, supplied).paper.relation_residual == validate_relation(a, supplied)
        rep = build_flow(a)
        assert rep.paper.relation_residual == rep.relation.residual < 1e-15

    def test_wrong_discovered_relation_raises(self, suite, wrong_discovered_relation):
        # outside the tier, a discovered relation is validated like a
        # supplied one: the paper's form raises, and the Schur flow is right
        case = next(c for c in suite if c.matrix.shape[0] >= 4)
        rep = build_flow(case.matrix)
        assert rep.high_precision is None
        with pytest.raises(RelationInvalid, match="relation residual"):
            rep.relation
        for z in (0.5 + 0.25j, -1.7):
            truth = jordan_oracle(case.blocks, case.transform, z)
            assert rel_err(evaluate_flow(rep, z), truth) < 1e-12

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_defective_n24_enters_the_tier(self):
        # the unequilibrated inverse of this matrix underestimated the sum's
        # amplification, which kept it outside the tier, where its
        # double-precision relation (residual 16.9) was rejected
        case = defective_case(np.random.default_rng(2), 24)
        rep = build_flow(case.matrix)
        assert rep.high_precision is not None
        assert 1e11 < rep.paper._form.amplification < 1e12
        assert rep.high_precision.relation_residual < 1e-10
        for z in (0.5 + 0.25j, -1.7):
            truth = jordan_oracle(case.blocks, case.transform, z)
            assert rel_err(rep.paper.power(z), truth) < 1e-7
            assert rel_err(evaluate_flow(rep, z), truth) < 1e-12

    def test_ambiguous_rank_falls_back_to_characteristic_polynomial(self, suite, monkeypatch):
        def ambiguous(a):
            raise AmbiguousRank("forced")

        monkeypatch.setattr(flow, "minimal_polynomial", ambiguous)
        case = next(c for c in suite if c.matrix.shape[0] >= 4)
        rep = build_flow(case.matrix)
        assert rep.relation == characteristic_polynomial(case.matrix)
        assert rep.paper.relation_residual == validate_relation(case.matrix, rep.relation)
        for z in (0.5 + 0.3j, -1.7, 2.0):
            expected = jordan_oracle(case.blocks, case.transform, z)
            assert rel_err(evaluate_flow(rep, z), expected) < 1e-12

    def test_padded_relation_accepted(self):
        a = np.diag([2.0, 3.0])
        q = times_linear(AnnihilatorPolynomial((-6, 5)), 1.5)
        rep = build_flow(a, q)
        assert rep.paper.degree == 3
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

    @pytest.mark.parametrize(
        "offsets",
        [{0: 0.5}, {0: "1"}, {0: float("nan")}, {0: np.float64(1.0)}, {0.5: 1}, {"0": 1}],
        ids=["half", "text", "nan", "float64", "half-index", "text-index"],
    )
    def test_non_integer_winding_rejected(self, offsets):
        # int(k) took the winding 0.5 as 0, the principal branch, and "1" as
        # 1; a NaN raised an untyped ValueError.  The index 0.5 raised an
        # untyped TypeError from the list, "0" one from the comparison
        match = "(winding .* of cluster 0|cluster index .*) is not an integer"
        with pytest.raises(UnknownCluster, match=match):
            build_flow(np.diag([2.0, 3.0]), branch_offsets=offsets)

    def test_numpy_integer_winding_accepted(self):
        rep = build_flow(np.array([[4.0]]), branch_offsets={0: np.int64(1)})
        assert evaluate_flow(rep, 0.5)[0, 0] == pytest.approx(-2.0)

    @pytest.mark.parametrize("z", [float("nan"), complex(0.5, float("inf")), 2000.0])
    def test_non_finite_exponent_or_result_raises(self, z):
        # z = 2000 overflows 3^z; a NaN or infinite z has no finite flow
        rep = build_flow(np.diag([2.0, 3.0]))
        with pytest.raises(NonFiniteEntry):
            evaluate_flow(rep, z)
        with pytest.raises(NonFiniteEntry):
            rep.paper.mu(z)

    def test_non_finite_companion_raises(self):
        a = np.diag([2.0, 3.0])
        q = AnnihilatorPolynomial((-6, 5))
        with pytest.raises(NonFiniteEntry):
            CompanionFlow(q).mu(float("nan"))
        with pytest.raises(NonFiniteEntry):
            evaluate_companion_flow(a, q, 2000.0)

    @pytest.mark.parametrize("name", sorted(overflowing_builds()))
    def test_overflowing_build_raises_non_finite(self, name):
        # finite, invertible inputs whose build overflowed with a bare
        # OverflowError; now only their paper's form does, and the Schur flow
        # is the scaled one
        rep = build_flow(overflowing_builds()[name])
        with pytest.raises(NonFiniteEntry, match="intermediate of the build overflows"):
            rep.paper.coeffs
        for z in (0.5 + 0.25j, -1.7):
            assert rel_err(evaluate_flow(rep, z), overflowing_oracle(name, z)) < 1e-13

    def test_large_scale_is_not_a_zero_eigenvalue(self):
        # eigenvalues of magnitude 5e9 to 3e10: the discovered relation has
        # residual 5.6 and roots near 0, and the build raises ZeroEigenvalue
        case, s = first_suite8_case(), 1e10
        rep = build_flow(case.matrix * s)
        for z in (0.5, -1.7 + 0.3j):
            expected = jordan_oracle(case.blocks, case.transform, z) * s**z
            assert rel_err(evaluate_flow(rep, z), expected) < 1e-8

    def test_centre_at_zero_is_non_convergence(self):
        # a polished cluster centre of the relation landed on 0, and cmath.log
        # raised an untyped ValueError; the matrix is not singular, and its
        # Schur flow is the scaled one
        case, s = first_suite_case(), CENTRE_AT_ZERO_SCALE
        rep = build_flow(case.matrix * s)
        with pytest.raises(NonConvergence, match="centre"):
            rep.relation
        z = 0.5 + 0.25j
        expected = s**z * jordan_oracle(case.blocks, case.transform, z)
        assert rel_err(evaluate_flow(rep, z), expected) < 1e-12

    def test_small_scale_is_the_scaled_flow(self):
        case, s = first_suite_case(), CENTRE_AT_ZERO_SCALE
        rep = build_flow(case.matrix * s)
        for z in (0.5 + 0.25j, -1.7, 3j):
            expected = s**z * jordan_oracle(case.blocks, case.transform, z)
            assert rel_err(evaluate_flow(rep, z), expected) < 1e-10

    def test_overflowing_vandermonde_is_typed(self):
        # a 30-fold root at 1e-6 puts entries of 1e354 in the generalized
        # Vandermonde matrix: its cast to double precision leaked numpy's
        # RuntimeWarning, and the finite input was reported as containing
        # "NaN or infinite entries"
        # (now in the paper's form only: the Schur flow of [[1e-6]] is right)
        q = AnnihilatorPolynomial.from_roots([1e-6] * 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = build_flow(np.array([[1e-6]]), q)
            with pytest.raises(NonFiniteEntry, match="intermediate of the build overflows"):
                rep.paper.coeffs
            with pytest.raises(NonFiniteEntry, match="intermediate of the build overflows"):
                CompanionFlow(q).mu(0.5)
        assert evaluate_flow(rep, 0.5)[0, 0] == pytest.approx(1e-3, rel=1e-15)

    def test_tier_does_not_warn_about_the_table_it_discards(self):
        # the double-precision table's estimate read 1.2e14 here, for a
        # result within 1e-12 of the oracle
        case = distinct_case(np.random.default_rng(0), 20)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = build_flow(case.matrix)
            assert rep.high_precision is not None
        assert rep.paper.coeffs.condition_estimate > 1e12
        assert [w for w in caught if issubclass(w.category, ConditioningWarning)] == []
        z = 0.5 + 0.25j
        assert rel_err(evaluate_flow(rep, z), jordan_oracle(case.blocks, case.transform, z)) < 1e-12

    def test_folded_table_warns_at_the_caller(self, monkeypatch):
        # the paper's table is built, and reported, on first read
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        monkeypatch.setattr(basis, "_COND_WARN", 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            rep = build_flow(a)
            z = 0.5 + 0.25j
            assert rel_err(evaluate_flow(rep, z), eigen_oracle(a, z)) < 1e-13
        with pytest.warns(ConditioningWarning, match="generalized Vandermonde") as caught:
            rep.paper.coeffs
        assert len(caught) == 1
        assert caught[0].filename == __file__

    def test_covariants_fold_the_table(self):
        # M_k = sum_i e_ik A^{-i}, so A^z = sum_k f_k(z) M_k
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rep = build_flow(a)
        negs = np.array(negative_powers(a, rep.paper.degree))
        folded = np.einsum("ik,inm->knm", rep.paper.coeffs.e, negs)
        assert rep.covariants.shape == (rep.paper.degree, 4, 4)
        assert rel_err(rep.covariants, folded) < 1e-10

    def test_mu_at_integers(self):
        # contracting mu(z) against the negative powers must reproduce
        # evaluate_flow at every z
        a = np.diag([2.0, 3.0])
        rep = build_flow(a)
        negs = negative_powers(a, rep.paper.degree)
        for z in (0.0, 1.0, 2.0, 0.5):
            mu = rep.paper.mu(z)
            recon = sum(m * p for m, p in zip(mu, negs))
            assert rel_err(recon, evaluate_flow(rep, z)) < 1e-12


@pytest.mark.parametrize("lam, size, seed", [(2.0, 4, 4), (0.8 + 0.6j, 4, 0), (1.0, 5, 0)])
def test_jordan_blocks_of_size_four_and_five(lam, size, seed):
    # the eigenvalue scatters past the base clustering radius; without the
    # radius ladder these raise SingularMatrix, or are off by 9e4 and 2e-4
    case = jordan_block_case(np.random.default_rng(seed), lam, size)
    rep = build_flow(case.matrix)
    assert [c.multiplicity for c in rep.spectrum.clusters] == [size]
    for z in (0.5, 0.5 + 0.3j, -1.7):
        assert rel_err(evaluate_flow(rep, z), jordan_oracle(case.blocks, case.transform, z)) <= 1e-10


class TestCompanionConstruction:
    def test_mu_zero_and_one(self):
        q = AnnihilatorPolynomial((-6, 5))
        c = np.array([-6.0, 5.0])[::-1]  # (c_1, c_0) = (5, -6)
        mu0 = CompanionFlow(q).mu(0.0)
        mu1 = CompanionFlow(q).mu(1.0)
        # C^0 c = c and C^1 c = C c
        assert np.allclose(mu0, c, atol=1e-12)
        assert np.allclose(mu1, companion_matrix(q) @ c, atol=1e-12)

    def test_known_formula_value(self):
        # for A^2 = 5A - 6I, mu(1) = (19, -30)
        q = AnnihilatorPolynomial((-6, 5))
        assert np.allclose(CompanionFlow(q).mu(1.0), [19.0, -30.0], atol=1e-12)

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
            CompanionFlow(AnnihilatorPolynomial((0, 1))).mu(0.5)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan, complex(1, math.inf)])
    def test_non_finite_coefficient_rejected(self, c):
        # the balancing's round(log2|c_0| / p) raised OverflowError on inf
        # and ValueError on NaN
        for coeffs in ((c, 1), (-6, c)):
            with pytest.raises(NonFiniteEntry, match="not finite"):
                CompanionFlow(AnnihilatorPolynomial(coeffs))

    def test_companion_coefficients_are_the_direct_table(self):
        # C^{-j} c = e_j, so C^z c interpolates the same values mu(-j) = e_j
        # as the direct table: the companion route is the direct one
        q = AnnihilatorPolynomial((2.0 - 1j, 0.5, -3.0 + 0.25j, 1.5))
        c = companion_matrix(q)[:, 0]
        inv = np.linalg.inv(companion_matrix(q))
        for j in range(1, q.degree + 1):
            unit = np.eye(q.degree)[j - 1]
            assert np.allclose(np.linalg.matrix_power(inv, j) @ c, unit, atol=1e-12)
            assert np.allclose(CompanionFlow(q).mu(-j), unit, atol=1e-12)

    @pytest.mark.parametrize(
        "q",
        [
            AnnihilatorPolynomial((2.0 - 1j, 0.5, -3.0 + 0.25j, 1.5)),
            AnnihilatorPolynomial.from_roots([8.0, 8j, -8.0, 3.0]),  # balanced by 2^k, k = 0..3
        ],
        ids=["unbalanced", "balanced"],
    )
    def test_is_the_paper_form_of_the_balanced_companion_matrix(self, q):
        # no second object delegates to a PaperForm: CompanionFlow is one
        cf = CompanionFlow(q)
        assert isinstance(cf, flow.PaperForm)
        p = q.degree
        scale = np.ldexp(1.0, round(math.log2(abs(q.coeffs[0])) / p) * np.arange(p))
        balanced = companion_matrix(q) * np.outer(1.0 / scale, scale)
        form = flow.PaperForm(balanced.astype(np.complex128), q)
        for z in (0.5, -1.2 + 0.4j, 2.0):
            assert np.array_equal(cf.mu(z), form.mu(z))


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
        return grouped_spectrum(values)

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

    @pytest.mark.parametrize("root", [2.0, 3.0])
    def test_flow_restriction_for_any_grown_block(self, root):
        # J2(2) + J2(3): growing the first block put the new row and column
        # inside the top-left block, which was off by 0.354 at z = 0.5
        a = np.array([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 3, 1], [0, 0, 0, 3]], dtype=complex)
        big = extend_matrix(a, root, self._spectrum([2.0, 2.0, 3.0, 3.0]))
        assert np.array_equal(big[:4, :4], a)
        rep = build_flow(big)
        assert rep.paper.degree == 5
        for z in (0.5, -1.0, 0.7 + 0.2j):
            truth = jordan_oracle([(2.0, 2), (3.0, 2)], np.eye(4), z)
            assert rel_err(evaluate_flow(rep, z)[:4, :4], truth) < 1e-11

    def test_superdiagonal_one_between_eigenvalues(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        with pytest.raises(NotJordanForm, match="joins two different eigenvalues"):
            extend_matrix(a, 2.0, self._spectrum([2.0, 3.0]))

    def test_superdiagonal_entry_neither_zero_nor_one(self):
        a = np.array([[2.0, 0.5], [0.0, 2.0]])
        with pytest.raises(NotJordanForm, match="exactly zero or one"):
            extend_matrix(a, 2.0, self._spectrum([2.0, 2.0]))

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

    def test_builds_no_paper_form(self, suite):
        # the endpoint checks were normalized by the paper's negative-power
        # chain, so the Schur flow's own check built the relation, the table,
        # the chain and the probe
        for case in suite:
            rep = build_flow(case.matrix)
            check_flow_axioms(rep, case.matrix, [(0.5, 0.25), (1.0 + 1.0j, -2.0)])
            assert "_form" not in vars(rep.paper)


def _evaluated_by_loop(rep, z):
    """``A^z``, the basis values and the evaluation condition by a per-term
    loop over the formula of ``basis.term_values``, ``ff_j(z) exp(z log)``,
    a stacked contraction and an ``isfinite`` pass.  The condition divides
    every power by ``e^c``, the largest modulus among them, and weighs the
    terms by the scales the build took from the Schur factors.  The exponents
    are one array product: numpy's may round otherwise than Python's."""
    z = complex(z)
    w = z * np.array([rep.spectrum.clusters[ci].log for ci, _ in rep.spectrum.terms])
    c = float(np.max(w.real))
    f = np.empty(rep.spectrum.degree, dtype=np.complex128)
    g = np.empty(rep.spectrum.degree, dtype=np.complex128)
    for k, (_, j) in enumerate(rep.spectrum.terms):
        f[k], g[k] = np.exp(w[k]), np.exp(w[k] - c)
        if j:
            ff = z if j == 1 else ff * (z - (j - 1))
            f[k] *= ff
            g[k] *= ff
    p, n, _ = rep.covariants.shape
    out = (f @ rep.covariants.reshape(p, n * n)).reshape(n, n)
    assert np.isfinite(out).all()
    value = np.tensordot(g, rep.covariants, axes=1)
    return out, f, float(np.abs(g) @ rep.scales) / max(max_norm(value), 1e-300)


def _by_former_loop(rep, z):
    """``A^z`` by the per-term loop that evaluated the flow before its terms
    were scale-free: ``generalized_binomial(j, z) cmath.exp((z - j) log)``
    over the covariants ``M_j = j! lambda^j M'_j`` of the stored ``M'_j``."""
    z = complex(z)
    clusters = rep.spectrum.clusters
    out = np.zeros(rep.covariants.shape[1:], dtype=np.complex128)
    for k, (ci, j) in enumerate(rep.spectrum.terms):
        power = cmath.exp((z - j) * clusters[ci].log)
        value = power if j == 0 else generalized_binomial(j, z) * power
        out += value * (rep.covariants[k] * (math.factorial(j) * clusters[ci].value**j))
    return out


_GRID = [0.0, 1.0, -1.0, 0.5, 2.5, -1.7, 7.0, 0.5 + 0.3j, 3j, -2.0 - 1.5j, 1e-9, -0.0 - 0.0j] + [
    complex(*v) for v in np.random.default_rng(3).uniform(-3.0, 3.0, (12, 2))
]


_JORDAN_BLOCKS = [(2.0, 3), (0.8 + 0.6j, 4), (-1.5, 2), (1.0, 5)]


def _seeded_cases(suite) -> list:
    """Suite seeds 0-1 and the n = 12-24 distinct and defective ladder at seed 0."""
    rng = np.random.default_rng(1)
    cases = [case.matrix for case in suite] + [random_suite_case(rng).matrix for _ in range(50)]
    rng = np.random.default_rng(0)
    for n in (12, 16, 20, 24):
        cases += [distinct_case(rng, n).matrix, defective_case(rng, n).matrix]
    return cases


class TestEvaluateFlow:
    """The cached contraction is the parent's evaluation to the bit."""

    @staticmethod
    def _check(rep, zs=_GRID):
        for z in zs:
            out, f, cond = _evaluated_by_loop(rep, z)
            assert evaluate_flow(rep, z).tobytes() == out.tobytes()
            assert np.array(basis_values(rep.spectrum, z)).tobytes() == f.tobytes()
            assert rep.evaluation_condition(z) == cond

    def test_suite(self, suite_reps):
        for rep in suite_reps:
            self._check(rep)

    def test_tier_fixture(self):
        rep = build_flow(defective_case(np.random.default_rng(0), 12).matrix)
        assert rep.high_precision is not None
        self._check(rep)

    @pytest.mark.parametrize("lam, size", _JORDAN_BLOCKS)
    def test_conjugated_jordan_blocks(self, lam, size):
        self._check(build_flow(jordan_block_case(np.random.default_rng(5), lam, size).matrix))

    def test_scales_are_those_of_the_stack(self, suite):
        # a rank-one term's max|u| max|v| is its max|u_i v_j| before rounding,
        # and a multiple cluster's terms are measured on the stack itself
        cases = _seeded_cases(suite) + [
            jordan_block_case(np.random.default_rng(5), lam, size).matrix for lam, size in _JORDAN_BLOCKS
        ]
        assert any(c.multiplicity > 1 for a in cases for c in build_flow(a).spectrum.clusters)
        for a in cases:
            rep = build_flow(a)
            direct = np.abs(rep.covariants).max(axis=(1, 2))
            assert rep.scales.shape == direct.shape
            assert np.all(np.abs(rep.scales - direct) <= 1e-15 * direct)

    def test_within_rounding_of_the_former_loop(self, suite):
        # the terms ff_j(z) lambda^z M'_j and binom(z, j) lambda^(z - j) M_j
        # are equal; their rounding moves A^z by a few ulps of max|A^z|
        for a in _seeded_cases(suite):
            rep = build_flow(a)
            for z in _GRID:
                assert rel_err_to_ref(evaluate_flow(rep, z), _by_former_loop(rep, z)) <= 1e-14

    def test_bound_above_threshold_keeps_a_finite_result(self):
        # z = 620 lies outside the finiteness radius (about 611), so the
        # entries are checked one by one, and they are finite
        self._check(build_flow(np.array([[2.0, 1e8], [0.0, 3.0]])), [600.0, 620.0])

    def test_nan_basis_value_raises(self):
        # g_2(1e160) overflows and 0.5^1e160 underflows: their product is NaN
        rep = build_flow(np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]))
        assert np.isnan(np.array(basis_values(rep.spectrum, 1e160))).any()
        with pytest.raises(NonFiniteEntry, match="not finite"):
            evaluate_flow(rep, 1e160)

    def test_overflowing_contraction_raises(self):
        # the basis values are finite at z = 640 (3^640 is about 1e305), and
        # the covariants' 1e8 entries take the sum past double precision
        rep = build_flow(np.array([[2.0, 1e8], [0.0, 3.0]]))
        assert np.isfinite(np.array(basis_values(rep.spectrum, 640.0))).all()
        with pytest.raises(NonFiniteEntry, match="A\\^z is not finite"):
            evaluate_flow(rep, 640.0)
        with pytest.raises(NonFiniteEntry, match="overflows"):
            evaluate_flow(rep, 650.0)

    @pytest.mark.parametrize(
        "a",
        [[[-1.0]], [[-1.0, 1.0], [0.0, -1.0]], -np.eye(2)],
        ids=["minus-one", "minus-one-jordan", "minus-identity"],
    )
    @pytest.mark.parametrize(
        "z, offsets",
        [(1e308, None), (-1e308, None), (6e307, None), (1e17, None), (0.5, {0: 2**60})],
        ids=["1e+308", "-1e+308", "6e+307", "1e+17", "0.5-winding-2^60"],
    )
    def test_infinite_phase_raises(self, a, z, offsets):
        # z * log(-1) = z * pi * i has an infinite imaginary part: cmath.exp
        # raised ValueError ("math domain error").  At 1e17, or with the
        # winding number 2^60, the phase is finite but keeps no digit: both
        # methods answered with no correct digit
        rep = build_flow(np.array(a), branch_offsets=offsets)
        with pytest.raises(NonFiniteEntry, match="phase"):
            basis_values(rep.spectrum, z)
        with pytest.raises(NonFiniteEntry, match="phase"):
            evaluate_flow(rep, z)
        with pytest.raises(NonFiniteEntry, match="phase"):
            rep.evaluation_condition(z)
        with pytest.raises(NonFiniteEntry, match="phase"):
            rep.paper.power(z)

    @pytest.mark.parametrize("method", ["schur", "paper"])
    def test_phase_below_the_limit_answers(self, method):
        # pi * 1e13 lies below 2^45, and its rounding error is about 4e-3
        rep = build_flow(np.array([[-1.0]]))
        value = evaluate_flow(rep, 1e13) if method == "schur" else rep.paper.power(1e13)
        assert abs(value[0, 0] - 1.0) < 1e-2

    def test_nan_exponent_raises(self, suite_reps):
        with pytest.raises(NonFiniteEntry, match="exponent"):
            evaluate_flow(suite_reps[0], complex(float("nan"), 0.0))


def _parent_outcome(rep, z):
    """``evaluate_flow`` without the finiteness radius: the values of
    ``basis.term_values`` by a per-term loop, an overflowing power refused,
    and the bound ``sum_k |f_k| max|M| <= 1e300`` checked on every call.
    Returns the result's bytes, or the error's type and message."""
    try:
        z = complex(z)
        if not cmath.isfinite(z):
            raise NonFiniteEntry(f"exponent {z} is not finite")
        w = z * np.array([rep.spectrum.clusters[ci].log for ci, _ in rep.spectrum.terms])
        values = np.empty(rep.spectrum.degree, dtype=np.complex128)
        with np.errstate(all="ignore"):
            for k, (_, j) in enumerate(rep.spectrum.terms):
                try:
                    with np.errstate(over="raise"):
                        values[k] = np.exp(w[k])
                except FloatingPointError as exc:
                    raise NonFiniteEntry(
                        f"A^z overflows: a basis value exceeds double precision at z={z}"
                    ) from exc
                if j:
                    ff = z if j == 1 else ff * (z - (j - 1))
                    values[k] *= ff
            p, n, _ = rep.covariants.shape
            flat = np.ascontiguousarray(rep.covariants.reshape(p, n * n))
            out = values.dot(flat).reshape(n, n)
            bound = np.abs(values).sum() * float(np.max(np.abs(flat)))
        if not bound <= 1e300:
            if not np.isfinite(out).all():
                raise NonFiniteEntry(f"A^z is not finite at z={z}")
        return out.tobytes()
    except NonFiniteEntry as exc:
        return NonFiniteEntry, str(exc)


def _outcome(rep, z):
    try:
        with np.errstate(all="ignore"):
            return evaluate_flow(rep, z).tobytes()
    except NonFiniteEntry as exc:
        return NonFiniteEntry, str(exc)


def _radius(rep) -> float:
    return rep._contraction[-1]


def _steepest(rep) -> complex:
    """The unit direction in which the term with the largest ``|log lam|``
    grows fastest."""
    log = max(rep.spectrum.logs, key=abs)
    return log.conjugate() / abs(log)


def _radius_points(rep) -> list:
    """Just inside and just outside the radius, on the real axis and in the
    steepest direction."""
    r = _radius(rep)
    return [r * (1.0 + d) * u for d in (-1e-12, 1e-12) for u in (1.0, _steepest(rep))]


class TestFiniteRadius:
    """Inside the radius of ``_contraction``, ``evaluate_flow`` computes only
    the basis values and one product; its outcome is the parent's to the bit."""

    ZS = [0.0, 1.0, -1.0, 3.0, 0.5 + 0.25j, -1.7]

    @pytest.fixture(scope="class")
    def tier_rep(self):
        rep = build_flow(defective_case(np.random.default_rng(0), 12).matrix)
        assert rep.high_precision is not None
        return rep

    def _check(self, rep):
        for z in self.ZS + _radius_points(rep):
            assert _outcome(rep, z) == _parent_outcome(rep, z), z

    def test_suite(self, suite_reps):
        assert any(j for rep in suite_reps for _, j in rep.spectrum.terms)  # shifted terms
        for rep in suite_reps:
            self._check(rep)

    def test_tier_fixture(self, tier_rep):
        self._check(tier_rep)

    def test_short_path_is_taken_only_inside(self, suite_reps, tier_rep, monkeypatch):
        calls, term_values = [], flow.term_values

        def spy(spectrum, z):
            calls.append(z)
            return term_values(spectrum, z)

        monkeypatch.setattr(flow, "term_values", spy)
        for rep in [*suite_reps, tier_rep]:
            inner, outer = _radius(rep) * (1.0 - 1e-12), _radius(rep) * (1.0 + 1e-12)
            for u in (1.0, _steepest(rep)):
                calls.clear()
                _outcome(rep, inner * u)
                assert len(calls) == 1
                _outcome(rep, outer * u)
                assert len(calls) == 1

    def test_radius_is_just_below_the_overflow(self, suite_reps, tier_rep):
        # in the steepest direction the results overflow between 1.03 R and
        # 1.06 R, so the short path covers all but a few percent of the
        # finite results
        for rep in [*suite_reps, tier_rep]:
            u = _radius(rep) * _steepest(rep)
            assert isinstance(_parent_outcome(rep, 0.99 * u), bytes)
            assert _parent_outcome(rep, 1.2 * u)[0] is NonFiniteEntry

    def test_non_finite_still_raises(self, suite_reps):
        rep = suite_reps[0]
        for z in (float("nan"), float("inf"), complex(0.5, float("inf")), complex(float("nan"), 1.0)):
            # an overflow first leaves errno set, and abs() of a NaN then
            # raised OverflowError
            with pytest.raises(NonFiniteEntry, match="overflows"):
                evaluate_flow(rep, 2.0 * _radius(rep) * _steepest(rep))
            with pytest.raises(NonFiniteEntry, match="exponent"):
                evaluate_flow(rep, z)
        # the basis values are finite at z = 640 and the sum is not
        large = build_flow(np.array([[2.0, 1e8], [0.0, 3.0]]))
        assert _radius(large) < 640.0
        with np.errstate(all="ignore"), pytest.raises(NonFiniteEntry, match="A\\^z is not finite"):
            evaluate_flow(large, 640.0)

    def test_modulus_beyond_the_largest_double(self):
        # each part of 3^z is about 1.5e308 and finite, its modulus is not a
        # double, and forming the bound raised an untyped OverflowError
        rep = build_flow(np.diag([2.0, 3.0]))
        z = 646.2227 + 0.7149j
        assert abs(z) > _radius(rep)
        out = evaluate_flow(rep, z)
        expected = [cmath.exp(z * cmath.log(2.0)), cmath.exp(z * cmath.log(3.0))]
        assert abs(expected[1].real) > 1e308 and abs(expected[1].imag) > 1e308
        assert out[0, 1] == 0 and out[1, 0] == 0
        for got, want in zip(np.diag(out), expected):
            for g, w in ((got.real, want.real), (got.imag, want.imag)):
                assert abs(g - w) <= 1e-10 * abs(w)

    @pytest.mark.parametrize("z", [-1070.0, -2000.0])
    def test_condition_where_the_values_underflow(self, z):
        # at -1070 the largest part is subnormal and scaling it by a power of
        # two overflowed (OverflowError); at -2000 every value rounds to 0,
        # and the estimate was 0
        rep = build_flow(np.diag([2.0, 3.0]))
        assert rep.evaluation_condition(z) == pytest.approx(1.0)

    def test_condition_where_the_modulus_is_beyond_the_largest_double(self):
        # np.abs of 3^z overflowed, and inf / inf gave NaN
        rep = build_flow(np.diag([2.0, 3.0]))
        assert rep.evaluation_condition(646.2227 + 0.7149j) == pytest.approx(1.0)

    @pytest.mark.parametrize("z", [1e160, -1e160, 1e200])
    def test_condition_where_a_falling_factorial_overflows(self, z):
        # ff_2(z) is infinite and every scaled power at most 1: the ratio was
        # inf / inf, a NaN that pow's test against the warning threshold passed
        rep = build_flow(np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]))
        with pytest.raises(NonFiniteEntry):
            evaluate_flow(rep, z)
        with pytest.raises(NonFiniteEntry, match="condition is not finite"):
            rep.evaluation_condition(z)

    def test_extreme_covariants_keep_their_checks(self, suite_reps, monkeypatch):
        rep = next(rep for rep in suite_reps if any(j for _, j in rep.spectrum.terms))
        held, scales = rep.covariants.copy(), rep.scales.copy()
        held[0, 0, 0] = scales[0] = np.inf
        held = dataclasses.replace(rep, covariants=held, scales=scales)
        assert _radius(held) == -1.0
        monkeypatch.setattr(flow, "term_values", None)  # the short path would fail on None
        for z in (0.0, 1.0, 0.5 + 0.25j):
            with np.errstate(all="ignore"), pytest.raises(NonFiniteEntry, match="A\\^z is not"):
                evaluate_flow(held, z)
        monkeypatch.undo()
        # finite covariants near overflow: the sum overflows where the basis
        # values are still about 1e150, at about three times the radius
        huge = dataclasses.replace(rep, covariants=rep.covariants * 1e250, scales=rep.scales * 1e250)
        log = max(rep.spectrum.logs, key=abs)
        window = math.log(1e150) / abs(log) * _steepest(rep)
        assert 2.0 * _radius(huge) < abs(window)
        for z in [*self.ZS, *_radius_points(huge), window]:
            assert _outcome(huge, z) == _parent_outcome(huge, z), z
        assert _outcome(huge, window)[0] is NonFiniteEntry


_GATE_ZS = (0.5 + 0.25j, -1.7, 3j)


class TestScaleInvariance:
    """The Schur form is built on ``D^{-1} A D / s``, every factor a power of
    two, so no threshold depends on ``A``'s scale."""

    def test_scaled_suite(self, suite):
        # before the balanced Schur form, 1e-5 gave 8 silent wrong answers and
        # 30 raises, and 1e-12 and 1e6 to 1e30 raised on most matrices
        for k in range(-60, 101, 20):
            s = 2.0**k
            for case in suite:
                rep = build_flow(case.matrix * s)
                for z in _GATE_ZS:
                    # |A^z| is about 1e-51 at 2^100 and z = -1.7: relative to |A^z|
                    expected = s**z * jordan_oracle(case.blocks, case.transform, z)
                    assert rel_err_to_ref(evaluate_flow(rep, z), expected) < 1e-10, (k, z)

    @pytest.mark.parametrize("u", [1e8, 1e100, 1e160])
    def test_graded_entry(self, u):
        # with s alone, [[2, 1e8], [0, 3]] scales to eigenvalues of 1.5e-8 and
        # raised ZeroEigenvalue; D balances the entry away
        rep = build_flow(np.array([[2.0, u], [0.0, 3.0]]))
        for z in _GATE_ZS:
            assert rel_err(evaluate_flow(rep, z), triangular_flow(u, z)) < 1e-14

    def test_large_diagonal(self):
        rep = build_flow(np.diag([1e80, 2e80]))
        for z in _GATE_ZS:
            expected = jordan_oracle([(1e80, 1), (2e80, 1)], np.eye(2), z)
            assert rel_err(evaluate_flow(rep, z), expected) < 1e-14

    @pytest.mark.parametrize(
        "lams, conjugated, tol",
        [((1e8, 1.0), False, 1e-14), ((1e3, 1e-5), False, 1e-14), ((1e8, 1.0), True, 1e-7)],
    )
    def test_wide_spectrum_is_not_singular(self, lams, conjugated, tol):
        # the small eigenvalue lies 1e-8 below max|B| and above 1e-10: a
        # zero test at 1e-7 on B raised ZeroEigenvalue.  Under T the
        # eigenvalue 1 is known to about eps*1e8: numpy.linalg.eig's A^z
        # misses by 1.6e-8 too.
        t = np.random.default_rng(0).standard_normal((2, 2)) if conjugated else np.eye(2)
        rep = build_flow(t @ np.diag(lams) @ np.linalg.inv(t))
        blocks = [(lam, 1) for lam in lams]
        for z in _GATE_ZS:
            assert rel_err(evaluate_flow(rep, z), jordan_oracle(blocks, t, z)) < tol

    @pytest.mark.parametrize("name", ["diag10", "rank3", "nilpotent3", "nilpotent3+1"])
    def test_singular_inputs_stay_typed(self, name):
        # relative thresholds on the balanced form still see these as
        # singular, a nilpotent block by its centroid; raw Schur turned
        # typed errors into silent wrong answers
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        j = np.diag([0, 0, 0, 1.0]) + np.diag([1.0, 1.0, 0], 1)  # J3(0) + 1
        a = {
            "diag10": np.diag([1.0, 0.0]),
            "rank3": rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6)),
            "nilpotent3": t[:3, :3] @ j[:3, :3] @ np.linalg.inv(t[:3, :3]),
            "nilpotent3+1": t @ j @ np.linalg.inv(t),
        }[name]
        with pytest.raises(ZeroEigenvalue):
            build_flow(a)

    @pytest.mark.parametrize("n", [32, 40, 48])
    def test_large_matrices(self, n):
        # the relation path raised RelationInvalid on 9 of these 12
        for seed, kind in [(s, k) for s in (0, 1) for k in (distinct_case, defective_case)]:
            case = kind(np.random.default_rng(seed), n)
            rep = build_flow(case.matrix)
            for z in _GATE_ZS:
                truth = jordan_oracle(case.blocks, case.transform, z)
                assert rel_err(evaluate_flow(rep, z), truth) < 1e-12

    @pytest.mark.parametrize("k", [100, 330, 500, 660, -100, -330, -500, -660])
    def test_powers_of_two_over_the_double_range(self, suite, suite_reps, k):
        # pow(2^k A, z) = 2^(kz) pow(A, z) wherever max|A^z| is a normal
        # double; beyond the largest double NonFiniteEntry, and below the
        # smallest normal one a result that small.  At -1.7, 8 of the 50
        # were wrong at 2^330, and 8 raised at 2^-330
        for case, unscaled in zip(suite, suite_reps):
            rep = build_flow(case.matrix * 2.0**k)
            for z in _GATE_ZS:
                base = evaluate_flow(unscaled, z)
                with mp.workdps(30):
                    factor = mp.power(2, k * mp.mpc(z))
                    top = float(mp.log(abs(factor), 2)) + math.log2(np.max(np.abs(base)))
                if top >= 1024.0:
                    with pytest.raises(NonFiniteEntry):
                        evaluate_flow(rep, z)
                elif top < -1022.0:
                    assert np.max(np.abs(evaluate_flow(rep, z))) < 2.0**-1000, (k, z)
                else:
                    expected = complex(factor) * base
                    assert rel_err_to_ref(evaluate_flow(rep, z), expected) <= 1e-12, (k, z)

    @pytest.mark.parametrize(
        "s", [2.0**330, 2.0**-330, 1e100, 1e-100], ids=["2^330", "2^-330", "1e100", "1e-100"]
    )
    @pytest.mark.parametrize("name", ["J3", "suite-7"])
    @pytest.mark.parametrize("z", [-1.7, 0.5 + 0.25j])
    def test_jordan_terms_over_the_double_range(self, suite, name, s, z):
        # at -1.7, J3 times 2^330 was off by 1.0 and suite case 7 (n = 5, a
        # 3-block) by 0.21, with exit 0; times 2^-330 both raised
        # NonFiniteEntry, although |A^z| is about 1.7e169.  Times 1e100 and
        # 1e-100 they failed the same way: lambda^(z - j) under- or
        # overflowed while its product with the covariant lay in range.
        a = {"J3": np.eye(3) + np.eye(3, k=1), "suite-7": suite[7].matrix}[name]
        expected = s**z * evaluate_flow(build_flow(a), z)
        error = np.max(np.abs(evaluate_flow(build_flow(a * s), z) - expected))
        assert error <= 1e-12 * np.max(np.abs(expected))


def test_paper_sum_is_taken_in_extended_precision(suite):
    # suite case 4 cancels by 9.9e7 in the paper's sum: over mu and the
    # chain rounded to double precision it missed the oracle by 1.8e-11
    case = suite[4]
    rep = build_flow(case.matrix)
    for z in _GATE_ZS:
        truth = jordan_oracle(case.blocks, case.transform, z)
        assert rel_err(rep.paper.power(z), truth) < 5e-12


def test_evaluated_form_runs_no_relation(suite, monkeypatch):
    # build_flow, evaluate_flow and evaluation_condition read the Schur form
    # alone; the relation, its table and the negative powers are the paper's
    # form's, built on first read
    calls = []

    def counted(name):
        original = getattr(flow, name)
        return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

    for name in ("minimal_polynomial", "spectral_table", "_negative_powers_extended"):
        monkeypatch.setattr(flow, name, counted(name))
    reps = [build_flow(case.matrix) for case in suite]
    reps.append(build_flow(defective_case(np.random.default_rng(0), 12).matrix))
    for rep in reps:
        evaluate_flow(rep, 0.5 + 0.25j)
        rep.evaluation_condition(-1.7)
    assert calls == []
    assert reps[-1].relation.degree == 12
    assert calls == ["minimal_polynomial", "spectral_table", "_negative_powers_extended"]


def test_build_groups_without_cluster_roots(suite, monkeypatch):
    # schur_covariants groups its diagonal by index (group_roots); the
    # spectrum of cluster_roots serves only the paper's form
    def fail(*args, **kwargs):
        raise AssertionError("a build called cluster_roots")

    monkeypatch.setattr(flow, "cluster_roots", fail)
    z = 0.5 + 0.25j
    for case in suite[:10] + [several_multiple_case()]:
        rep = build_flow(case.matrix)
        assert rel_err(evaluate_flow(rep, z), jordan_oracle(case.blocks, case.transform, z)) < 1e-11


def test_build_checks_its_input_once(suite, monkeypatch):
    # the Schur form and the paper's form read the array of one as_matrix
    calls = []
    original = flow.as_matrix
    monkeypatch.setattr(flow, "as_matrix", lambda a: calls.append(a) or original(a))
    build_flow(suite[0].matrix)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "a, error",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], NonFiniteEntry),
        ([[1.0, 0.0], [complex(0.0, np.inf), 1.0]], NonFiniteEntry),
        ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], DimensionMismatch),
    ],
    ids=["nan", "inf", "non-square"],
)
def test_bad_input_raises_before_lapack(a, error, monkeypatch):
    def fail():
        raise AssertionError("LAPACK was reached")

    monkeypatch.setattr(flow, "_lapack", fail)
    for build in (build_flow, flow.schur_covariants):
        with pytest.raises(error):
            build(a)


def test_schur_form_not_converging_raises(tmp_path, capsys, monkeypatch):
    # LAPACK reports a Schur iteration that did not converge as zgees info > 0
    lapack = flow._lapack()

    class FailingSchur:
        def __getattr__(self, name):
            return getattr(lapack, name)

        def zgees(self, *args, **kwargs):
            return (*lapack.zgees(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(flow, "_lapack", FailingSchur)
    with pytest.raises(NonConvergence, match="zgees info 1"):
        build_flow(np.diag([2.0, 3.0]))
    path = tmp_path / "diag23.json"
    with open(path, "w") as fh:
        write_matrix(np.diag([2.0, 3.0]), fh)
    assert main(["pow", str(path), "--z", "0.5"]) == 4
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert captured.out == "" and len(errors) == 1 and "zgees" in errors[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_paper_form_reads_a_private_copy(dtype):
    # the paper's form is built on first read; a caller scaling its array in
    # place after the build changed the relation of a complex128 input
    a = np.array([[4.0, 1.0, 0.0], [0.5, 3.0, 1.0], [0.0, 0.25, 2.0]], dtype=dtype)
    expected = build_flow(a.copy()).relation.coeffs
    rep = build_flow(a)
    a *= 2
    assert np.array_equal(rep.relation.coeffs, expected)


@pytest.mark.xfail(
    strict=True,
    reason="the Schur grouping merges the pair 2 ± 1e-4 into one double "
    "eigenvalue at its floor radius (ROADMAP item 1)",
)
def test_near_pair_is_two_eigenvalues():
    # [[2, 1], [e, 2]] = 2 I + K with K^2 = e I: eigenvalues 2 ± sqrt(e) and
    # A^z = s I + (d / sqrt(e)) K, s, d = ((2 + sqrt(e))^z ± (2 - sqrt(e))^z) / 2
    e, z = 1e-8, 0.5 + 0.25j
    with mp.workdps(50):
        root = mp.sqrt(mp.mpf(e))
        plus, minus = (2 + root) ** mp.mpc(z), (2 - root) ** mp.mpc(z)
        s, d = (plus + minus) / 2, (plus - minus) / 2
        truth = np.array([[s, d / root], [d * root, s]], dtype=complex)
    assert rel_err(evaluate_flow(build_flow(np.array([[2.0, 1.0], [e, 2.0]])), z), truth) <= 1e-12


def _principal_diagonal(values, z):
    return np.diag([complex(v) ** z for v in values])


# A = -I + 1e-4 J, J = [[0, -1], [1, 0]], has A^(1/2) = p I + q J, p + iq = (-1 + 1e-4 i)^(1/2)
_ROOT = (-1 + 1e-4j) ** 0.5


@pytest.mark.xfail(
    strict=True,
    reason="the Schur grouping measures distances against max|B|, not |lambda|, and a "
    "merged group takes one branch log, even across the cut (ROADMAP item 1)",
)
@pytest.mark.parametrize(
    "a, z, expected",
    [
        (np.diag([1e-6, 2e-6, 1.0]), 3j, _principal_diagonal([1e-6, 2e-6, 1.0], 3j)),
        (np.diag([2.0, 2.0 + 3e-4]), 3j, _principal_diagonal([2.0, 2.0 + 3e-4], 3j)),
        (np.diag([-1 + 1e-9j, -1 - 1e-9j]), 0.5, _principal_diagonal([-1 + 1e-9j, -1 - 1e-9j], 0.5)),
        (
            np.array([[-1.0, -1e-4], [1e-4, -1.0]]),
            0.5,
            np.array([[_ROOT.real, -_ROOT.imag], [_ROOT.imag, _ROOT.real]]),
        ),
    ],
    ids=["small-pair", "near-pair", "cut-pair", "real-cut-pair"],
)
def test_schur_grouping_gives_the_principal_power(a, z, expected):
    # pow's errors when these were added: 0.66 (1e-6 and 2e-6 merged), 2.7e-8
    # (merged at the floor radius), 2.0 and 1.0 (each pair merged across the
    # cut, with one log), each silent
    out = evaluate_flow(build_flow(a), z)
    assert rel_err(out, expected) <= 1e-10
    if not np.iscomplexobj(expected):  # a real matrix's principal power is real
        assert np.max(np.abs(out.imag)) <= 1e-13 * np.max(np.abs(out))


def _exact_power(lam: complex, z: float) -> complex:
    """The principal ``lam^z`` of the double ``lam``, at 40 digits.  (Python's
    ``complex(lam) ** z`` rounds ``|lam|`` first: at ``1 + 2e-9j`` it takes
    ``|lam| = 1`` and is off by 2.0e-9 at ``z = 1e9``.)"""
    with mp.workdps(40):
        return complex(mp.mpc(lam) ** mp.mpf(z))


@pytest.mark.parametrize("lam, z", [(1 + 2e-9j, 1e9), (1 + 5e-10j, 1e6)], ids=["2e-9", "5e-10"])
def test_an_eigenvalue_near_the_positive_axis_keeps_its_imaginary_part(lam, z):
    # the real-axis snap put every centre within 1e-9 (1 + |c|) of the axis
    # on it, and both constructions used the snapped value: pow was off by
    # 1.68 and 5.0e-4, with exit 0, where |z log lam| is about 2 and 5e-4
    rep = build_flow([[lam]])
    assert [c.value for c in rep.spectrum.clusters] == [lam]
    assert [c.value for c in rep.paper.spectrum.clusters] == [lam]
    truth = _exact_power(lam, z)
    for out in (evaluate_flow(rep, z), rep.paper.power(z)):
        assert abs(out[0, 0] - truth) <= 1e-12 * abs(truth)


@pytest.mark.xfail(
    strict=True,
    reason="the real-axis snap puts a centre within 1e-9 (1 + |c|) of the negative "
    "real axis on it, which decides the side of the cut (ROADMAP item 1)",
)
def test_an_eigenvalue_near_the_negative_axis_keeps_its_imaginary_part():
    # snapped to -1, the phase z arg(lambda) is off by 2 rad: an error of
    # 1.68, exit 0.  Rounding lambda moves lambda^z by |z| eps = 1.1e-7
    lam, z = -1 + 2e-9j, 1e9
    rep = build_flow([[lam]])
    truth = _exact_power(lam, z)
    for out in (evaluate_flow(rep, z), rep.paper.power(z)):
        assert abs(out[0, 0] - truth) <= 1e-6 * abs(truth)


class TestLapackLoader:
    """The Schur form's LAPACK, loaded by file path without ``scipy.linalg``."""

    def test_routines_match_scipy_linalg(self):
        from scipy.linalg import lapack

        loaded = flow._lapack()
        assert loaded is not lapack and loaded.__name__ == "scipy.linalg._flapack"
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a[0, 1:] *= 1e6  # something for zgebal to balance
        outputs = []
        for module in (loaded, lapack):
            ba, *_, d, _ = module.zgebal(a, scale=1)
            t, _, w, q, _, _ = module.zgees(lambda _: None, ba)
            select = np.arange(8) < 3
            ts, qs, *_ = module.ztrsen(select, t, q, job="N")
            x, scale, _ = module.ztrsyl(ts[:3, :3], ts[3:, 3:], -ts[:3, 3:], isgn=-1)
            r = np.eye(8, dtype=np.complex128)
            r[:3, 3:] = x / scale
            inverse_r, _ = module.ztrtri(r, unitdiag=1)
            outputs.append([ba, d, t, w, q, ts, qs, x, np.array(scale), inverse_r])
        for mine, theirs in zip(*outputs):
            assert mine.tobytes() == theirs.tobytes()

    def test_falls_back_to_scipy_linalg(self, tmp_path, monkeypatch):
        import scipy
        from scipy.linalg import lapack

        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        assert flow._lapack.__wrapped__() is lapack
