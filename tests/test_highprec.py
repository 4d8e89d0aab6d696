"""The mpmath tier: a defective n=12 matrix whose relation cancels beyond
extended precision, so its paper's form is kept at arbitrary precision; the
tier's set-up run directly; and the Schur covariants themselves."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from cflow import flow, highprec
from cflow import (
    AnnihilatorPolynomial,
    CompanionFlow,
    NonConvergence,
    SingularMatrix,
    basis_values,
    build_flow,
    cluster_roots,
    evaluate_companion_flow,
    evaluate_flow,
    find_roots,
    jordan_oracle,
    power_int,
    schur_covariants,
)

from conftest import (
    defective_case,
    distinct_case,
    jordan_block_case,
    mpc_from_extended,
    random_suite_case,
    rel_err,
    several_multiple_case,
)


@pytest.fixture(scope="module")
def tier_case():
    case = defective_case(np.random.default_rng(0), 12)
    return case, build_flow(case.matrix)


def test_enters_the_tier(tier_case):
    _, rep = tier_case
    assert rep.high_precision is not None
    assert rep.high_precision.dps >= 35
    assert rep.covariants.shape == (rep.paper.degree, 12, 12)


@pytest.mark.parametrize("z", [0.0, 1.0, 0.5 + 0.3j, -1.7])
def test_matches_jordan_oracle(tier_case, z):
    case, rep = tier_case
    assert rel_err(evaluate_flow(rep, z), jordan_oracle(case.blocks, case.transform, z)) < 1e-9


def test_integer_powers(tier_case):
    case, rep = tier_case
    for k in range(-2, 4):
        assert rel_err(evaluate_flow(rep, k), power_int(case.matrix, k)) < 1e-9


def test_mu_is_finite(tier_case):
    _, rep = tier_case
    mu = rep.paper.mu(0.5)
    assert mu.shape == (rep.paper.degree,) and np.all(np.isfinite(mu))


def test_branch_offset_carried_into_the_tier(tier_case):
    case, rep = tier_case
    shifted = build_flow(case.matrix, branch_offsets={0: 1})
    assert shifted.high_precision is not None
    root, plain = evaluate_flow(shifted, 0.5), evaluate_flow(rep, 0.5)
    assert rel_err(root @ root, case.matrix) < 1e-9
    assert rel_err(root, plain) > 1e-3  # a different square root
    assert rel_err(evaluate_flow(shifted, 2), power_int(case.matrix, 2)) < 1e-9


def test_companion_route(tier_case):
    case, rep = tier_case
    z = 0.5 + 0.3j
    comp = evaluate_companion_flow(case.matrix, rep.relation, z)
    assert rel_err(comp, jordan_oracle(case.blocks, case.transform, z)) < 1e-7


def test_companion_route_is_the_tier_flow(tier_case):
    # the companion route evaluates the tier's covariants, not the companion
    # mu against double-precision powers (which loses 1e-8 here)
    case, rep = tier_case
    for z in (0.5 + 0.3j, -2.5):
        truth = jordan_oracle(case.blocks, case.transform, z)
        assert rel_err(evaluate_companion_flow(case.matrix, rep.relation, z), truth) < 1e-12


def test_companion_build_keeps_the_relation(tier_case):
    # balancing by |c_0|^(k/p) rounded the companion's entries, and the tier
    # refined the relation against that rounded matrix: 8 of 12 differed
    _, rep = tier_case
    q = rep.relation
    hp = CompanionFlow(q).high_precision
    assert hp is not None
    assert hp.relation == q


def _paper_sum(hp, a, z):
    """``sum_i mu_i(z) A^{-i}``, summed in mpmath at the tier's precision."""
    with mp.workdps(hp.dps):
        inv = mp.matrix(a.tolist()) ** -1
        power, total = inv, mp.zeros(*a.shape)
        for m in hp.mu_mp(z):
            total += m * power
            power = power * inv
        return np.array(total.tolist(), dtype=complex)


@pytest.mark.parametrize("discovered", [True, False])
@pytest.mark.parametrize(
    "blocks",
    [
        ((2.0, 1), (2.0, 1), (-1.5 + 0.5j, 1), (0.7, 1)),  # minimal degree 3 < n = 4
        ((1.5j, 2), (-0.6, 1), (3.0, 1)),  # minimal degree n = 4
    ],
)
def test_tier_set_up_reproduces_the_flow(blocks, discovered):
    # the set-up run directly on matrices that would not need it, with the
    # discovered relation solved for afresh, or refined once it no longer
    # carries its discovery's residual
    rng = np.random.default_rng(5)
    n = sum(size for _, size in blocks)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    j = np.diag([lam for lam, size in blocks for _ in range(size)]).astype(complex)
    pos = 0
    for _, size in blocks:
        for i in range(size - 1):
            j[pos + i, pos + i + 1] = 1.0
        pos += size
    a = t @ j @ np.linalg.inv(t)
    rep = build_flow(a)
    relation = rep.relation if discovered else dataclasses.replace(rep.relation, residual=None)
    hp = highprec.HighPrecisionFlow(a, relation, rep.spectrum, dps=40)
    assert len(hp.spectrum.terms) == rep.paper.degree
    for z in (0.5 + 0.3j, -1.7):
        assert rel_err(_paper_sum(hp, a, z), jordan_oracle(blocks, t, z)) < 1e-10


def test_relation_above_minimal_degree_is_refined():
    # (X - 2)^2 (X - 3) annihilates diag(2, 2, 3) and diag(2, 2, 2, 3) but is
    # not minimal, so the Krylov vectors up to degree 3 are dependent: a
    # given relation is refined, and one marked as discovered is refined once
    # mpmath reports the system singular (ZeroDivisionError from the square
    # solve, ValueError from the tall one)
    q = AnnihilatorPolynomial.from_roots([2.0, 2.0, 3.0])
    spectrum = cluster_roots(find_roots(q), polynomial=q)
    for diagonal in ([2.0, 2.0, 3.0], [2.0, 2.0, 2.0, 3.0]):
        a = np.diag(diagonal).astype(complex)
        for relation in (q, dataclasses.replace(q, residual=0.0)):
            hp = highprec.HighPrecisionFlow(a, relation, spectrum, dps=40)
            assert rel_err(_paper_sum(hp, a, 0.5), np.diag(np.sqrt(diagonal))) < 1e-12
            assert hp.relation == q


def test_paper_form_is_set_up_on_first_use(monkeypatch):
    # building and evaluating never run mpmath; the first read of mu does,
    # once
    calls = []
    original = highprec._krylov_relation

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(highprec, "_krylov_relation", counted)
    case = defective_case(np.random.default_rng(0), 12)
    rep = build_flow(case.matrix)
    assert rep.high_precision is not None
    evaluate_flow(rep, 0.5 + 0.3j)
    assert len(calls) == 0
    rep.paper.mu(0.5)
    rep.paper.mu(-1.5)
    assert len(calls) == 1


def test_paper_sum_matches_the_schur_flow(tier_case):
    # in the tier A^z comes from the Schur covariants; the paper's sum at
    # working precision still gives the same flow
    case, rep = tier_case
    for z in (0.5 + 0.3j, -1.7, 2.5):
        paper = _paper_sum(rep.high_precision, case.matrix, z)
        assert rel_err(paper, evaluate_flow(rep, z)) < 1e-10


def _ladder_defective_24(seed):
    # the draws of bench/inputs.ladder_cases(seed): distinct, then defective,
    # at n = 12, 16, 20 and 24
    rng = np.random.default_rng(seed)
    for n in (12, 16, 20, 24):
        distinct_case(rng, n)
        case = defective_case(rng, n)
    return case


@pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
@pytest.mark.parametrize("seed", [4, 6, 8, 13, 14])
def test_n24_defective_ladder_matrix(seed):
    # the tier's negative-power chain missed these by 2.6e-7 to 3.4e-3
    case = _ladder_defective_24(seed)
    rep = build_flow(case.matrix)
    assert rep.high_precision is not None
    for z in (0.5 + 0.3j, -1.7, 2.5):
        assert rel_err(evaluate_flow(rep, z), jordan_oracle(case.blocks, case.transform, z)) < 1e-12


def test_singular_table_at_working_precision_is_typed():
    # mpmath's ZeroDivisionError escaped the inverse of the tier's table
    q = AnnihilatorPolynomial.from_roots([1e-6] * 18)
    with pytest.raises(SingularMatrix, match="at working precision"):
        CompanionFlow(q).mu(0.5)


def test_singular_extended_table_is_typed():
    # at multiplicity 20 the extended-precision table's pivot test raises
    # before the tier is decided
    q = AnnihilatorPolynomial.from_roots([1e-6] * 20)
    with pytest.raises(SingularMatrix, match="numerically singular;"):
        CompanionFlow(q).mu(0.5)


def test_tier_matrix_with_wide_transform():
    # singular values of T from 1 to 1e3: the negative-power chain missed
    # this one by 1.6e-6
    case = defective_case(np.random.default_rng(3), 12, singular_values=np.geomspace(1, 1e3, 12))
    rep = build_flow(case.matrix)
    assert rep.high_precision is not None
    for z in (0.5 + 0.3j, -1.7, 2.0):
        assert rel_err(evaluate_flow(rep, z), jordan_oracle(case.blocks, case.transform, z)) < 1e-10


def test_schur_covariants_on_non_normal_suite_matrices(suite):
    # the ladder's distinct matrices are normal (T12 = 0) and cannot catch
    # a sign error in the projector; the suite's matrices are not normal
    for case in suite[:20]:
        spectrum, covariants = schur_covariants(case.matrix)
        assert covariants.shape == (len(spectrum.terms),) + case.matrix.shape
        for z in (0.5 + 0.3j, -1.7):
            value = np.tensordot(np.array(basis_values(spectrum, z)), covariants, axes=1)
            assert rel_err(value, jordan_oracle(case.blocks, case.transform, z)) < 1e-11


def test_schur_keeps_the_principal_branch_of_a_real_negative_eigenvalue():
    # the Schur diagonal puts a real eigenvalue off the axis by rounding, on
    # either side of the branch cut
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    blocks = ((-2.0, 1), (3.0, 1), (-0.5, 1))
    a = t @ np.diag([-2.0, 3.0, -0.5]) @ np.linalg.inv(t)
    spectrum, covariants = schur_covariants(a)
    value = np.tensordot(np.array(basis_values(spectrum, 0.5)), covariants, axes=1)
    assert rel_err(value, jordan_oracle(blocks, t, 0.5)) < 1e-12


@pytest.mark.parametrize("routine", ["ztrsen", "zgeev", "ztrsyl", "ztrtri"])
def test_schur_failure_raises_non_convergence(tier_case, monkeypatch, routine):
    lapack = flow._lapack()
    original = getattr(lapack, routine)

    def failing(*args, **kwargs):
        return (*original(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(lapack, routine, failing)
    case, rep = tier_case
    with pytest.raises(NonConvergence):
        schur_covariants(case.matrix)
    with pytest.raises(NonConvergence):
        build_flow(case.matrix)


def _counting_lapack(monkeypatch):
    """The number of calls of each reordering and solve routine made through
    ``flow._lapack()`` from now on."""
    lapack, calls = flow._lapack(), {"ztrsen": 0, "zgeev": 0, "ztrsyl": 0, "ztrtri": 0}
    for name in calls:
        original = getattr(lapack, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lapack, name, counted)
    return calls


def test_reordering_runs_only_for_multiple_eigenvalues(tier_case, monkeypatch):
    # a simple eigenvalue is a block of its own wherever it lies: no
    # reordering, and every simple row of R from one zgeev call
    case = distinct_case(np.random.default_rng(0), 8)
    calls = _counting_lapack(monkeypatch)
    spectrum, _ = schur_covariants(case.matrix)
    assert len(spectrum.clusters) == 8
    assert calls == {"ztrsen": 0, "zgeev": 1, "ztrsyl": 0, "ztrtri": 1}
    # the defective n=12 matrix has one multiple eigenvalue, reordered to the
    # top: one Sylvester solve gives its block's rows
    calls.update(ztrsen=0, zgeev=0, ztrsyl=0, ztrtri=0)
    spectrum, _ = schur_covariants(tier_case[0].matrix)
    assert sum(c.multiplicity > 1 for c in spectrum.clusters) == 1
    assert calls == {"ztrsen": 1, "zgeev": 1, "ztrsyl": 1, "ztrtri": 1}
    # one cluster is one block, with nothing to its right
    calls.update(ztrsen=0, zgeev=0, ztrsyl=0, ztrtri=0)
    spectrum, _ = schur_covariants(jordan_block_case(np.random.default_rng(0), 2.0, 4).matrix)
    assert len(spectrum.clusters) == 1
    assert calls == {"ztrsen": 1, "zgeev": 0, "ztrsyl": 0, "ztrtri": 1}


def test_several_multiple_eigenvalues(monkeypatch):
    # each multiple cluster is reordered to the top in turn, and the others
    # keep their order, so every cluster stays contiguous
    case = several_multiple_case()
    calls = _counting_lapack(monkeypatch)
    rep = build_flow(case.matrix)
    assert calls["ztrsen"] == 3
    assert sorted(c.multiplicity for c in rep.spectrum.clusters) == [1, 2, 2, 4]
    for z in (0.5 + 0.3j, -1.7, 2.5j):
        value = evaluate_flow(rep, z)
        assert rel_err(value, jordan_oracle(case.blocks, case.transform, z)) < 1e-12


def _kahan(n: int, theta: float = 1.2) -> np.ndarray:
    s, c = math.sin(theta), math.cos(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def _grcar(n: int, k: int = 3) -> np.ndarray:
    return -np.eye(n, k=-1) + sum(np.eye(n, k=j) for j in range(k + 1))


def _row_inputs() -> dict:
    """Suite seeds 0-3; ``bench/inputs.ladder_cases(0)``, whose distinct
    matrices are conjugated by ``T`` and ``inv(T)``; several multiple
    clusters; Jordan blocks; a near pair; Kahan and Grcar."""
    inputs = {}
    for seed in range(4):
        rng = np.random.default_rng(seed)
        inputs[f"suite{seed}"] = [random_suite_case(rng).matrix for _ in range(50)]
    rng, inputs["ladder0"] = np.random.default_rng(0), []
    for n in (12, 16, 20, 24):
        case = distinct_case(rng, n)
        lam = np.diag([lam for lam, _ in case.blocks])
        inputs["ladder0"] += [case.transform @ lam @ np.linalg.inv(case.transform)]
        inputs["ladder0"] += [defective_case(rng, n).matrix]
    inputs["several_multiple"] = [several_multiple_case().matrix]
    rng = np.random.default_rng(0)
    inputs["jordan45"] = [jordan_block_case(rng, 2.0, size).matrix for size in (4, 5)]
    inputs["near_pair"] = [np.array([[2.0, 1.0], [1e-6, 2.0]])]
    inputs["kahan8"], inputs["grcar8"] = [_kahan(8)], [_grcar(8)]
    return inputs


_ROW_INPUTS = _row_inputs()


def _former_zgeev(t, compute_vl=1, compute_vr=0):
    """zgeev's outputs with R as the former build formed it: one ztrsyl per
    diagonal position left of the last, a row ``[0 1 x]`` (at a multiple
    position the build overwrites it with its block's rows)."""
    lapack, n = flow._lapack(), t.shape[0]
    r = np.eye(n, dtype=np.complex128)
    for lo, hi in zip(range(n - 1), range(1, n)):
        x, scale, _ = lapack.ztrsyl(t[lo:hi, lo:hi], t[hi:, hi:], t[lo:hi, hi:], isgn=-1)
        r[lo:hi, hi:] = x if scale == 1.0 else x / scale
    return t.diagonal().copy(), r.conj().T, None, 0


@pytest.mark.parametrize("name", sorted(_ROW_INPUTS))
def test_simple_rows_agree_with_the_former_sylvester_loop(name, monkeypatch):
    lapack, seen = flow._lapack(), []
    zgeev = lapack.zgeev

    def watched(t, **kwargs):
        w, vl, vr, info = zgeev(t, **kwargs)
        seen.append((t.diagonal().copy(), w, vl))
        return w, vl, vr, info

    for a in _ROW_INPUTS[name]:
        monkeypatch.setattr(lapack, "zgeev", watched)
        _, covariants = schur_covariants(a)
        monkeypatch.setattr(lapack, "zgeev", _former_zgeev)
        _, former = schur_covariants(a)
        scale = np.abs(former).max()
        assert np.abs(covariants - former).max() <= 1e-14 * scale
    # what the build relies on: zgeev keeps the order of diag(T), and vl is
    # lower triangular, so its conjugate transpose R is upper triangular
    assert seen or name == "jordan45"  # one cluster: no zgeev
    for diagonal, w, vl in seen:
        assert np.array_equal(w, diagonal)
        assert not np.triu(vl, 1).any()


def _refined_by_matrix_loop(k, v, c):
    """The tier's refinement as ``_krylov_relation`` ran it before
    ``annihilator._refined``: six rounds of an ``mp.matrix`` residual, rounded
    to double, and a double least-squares correction; none once the residual
    rounds to zero."""
    k_dbl = np.array(k.tolist(), dtype=np.complex128)
    for _ in range(6):
        r_dbl = np.array((v - k * c).tolist(), dtype=np.complex128)[:, 0]
        if np.max(np.abs(r_dbl)) == 0.0:
            break
        delta, *_ = np.linalg.lstsq(k_dbl, r_dbl, rcond=None)
        c += mp.matrix(delta.tolist())
    return c


def test_split_carries_extended_values_both_ways():
    # hi + lo holds every bit of a clongdouble: into mpc, as the former
    # scalar converter did, and back to the same clongdouble
    x = np.array([1, 2j, -3 + 1j], dtype=np.clongdouble) / 7
    with mp.workdps(40):
        hi, lo = highprec._split(x)
        m = np.array([mp.mpc(h) + l for h, l in zip(hi.tolist(), lo.tolist())], dtype=object)
        assert all(y == mpc_from_extended(v) for y, v in zip(m, x))
        back = np.sum(highprec._split(m), axis=0, dtype=np.clongdouble)
    assert np.array_equal(back, x)


def _extended_from_mpc(m: np.ndarray) -> np.ndarray:
    """An object array of ``mpc`` rounded to ``clongdouble``: the sum of its
    double rounding and the double rounding of the rest."""
    hi = m.astype(np.complex128)
    return hi.astype(np.clongdouble) + (m - hi).astype(np.complex128)


def test_tier_refinement_is_the_former_loop():
    # the n = 12 defective matrix of bench/inputs.ladder_cases(0), its Krylov
    # system as _krylov_relation forms it, refined from its relation's work:
    # mpmath's matrix product rounds each entry once and the object arrays'
    # each step, so the two differ at working precision only, and round alike
    rng = np.random.default_rng(0)
    distinct_case(rng, 12)
    a = defective_case(rng, 12).matrix
    rep = build_flow(a)
    dps, p = rep.high_precision.dps, rep.relation.degree
    start = AnnihilatorPolynomial.from_work(rep.relation.work)  # no residual: refined
    with mp.workdps(dps):
        r = np.random.default_rng(0)
        v = mp.matrix((r.standard_normal(12) + 1j * r.standard_normal(12)).tolist())
        am, krylov = mp.matrix(a.tolist()), [v]
        for _ in range(p):
            krylov.append(am * krylov[-1])
        k = mp.matrix([[krylov[j][i] for j in range(p)] for i in range(12)])
        c = mp.matrix([-mpc_from_extended(x) for x in start.work[:-1]])
        former = [-x for x in _refined_by_matrix_loop(k, krylov[p], c)] + [mp.mpc(1)]
        refined = highprec._krylov_relation(a, start)
        spread = max(abs(x - y) / abs(y) for x, y in zip(refined, former))
    assert spread <= 10.0 ** (5 - dps)
    rounded = [_extended_from_mpc(np.array(x, dtype=object)) for x in (refined, former)]
    assert np.array_equal(*rounded)


def _conjugated(blocks, seed):
    """``T J T^{-1}`` of diagonal Jordan data, with the random ``T``."""
    rng = np.random.default_rng(seed)
    n = len(blocks)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return t @ np.diag([lam for lam, _ in blocks]) @ np.linalg.inv(t), t


@pytest.mark.parametrize(
    "blocks, roots",
    [
        # minimal degree 3 < p = 4 < n = 5, eigenvalues split by rounding: the
        # tall system is not reported singular, and solving it replaced the
        # given relation by a least-squares fit with another root
        (((2.0, 1), (2.0, 1), (3.0, 1), (0.7j, 1), (0.7j, 1)), [2.0, 2.0, 3.0, 0.7j]),
        # p = n + 1: the Krylov system is wide
        (((2.0, 1), (3.0, 1)), [2.0, 3.0, 5.0]),
    ],
)
def test_given_relation_is_kept(blocks, roots):
    a, t = _conjugated(blocks, 1)
    q = AnnihilatorPolynomial.from_roots(roots)
    hp = highprec.HighPrecisionFlow(a, q, cluster_roots(find_roots(q), polynomial=q), dps=40)
    assert np.allclose(hp.relation.coeffs, q.coeffs, rtol=0.0, atol=1e-12)
    for z in (0.5 + 0.3j, -1.7):
        assert rel_err(_paper_sum(hp, a, z), jordan_oracle(blocks, t, z)) < 1e-12
