"""The mpmath tier: a defective n=12 matrix whose relation cancels beyond
extended precision, so its covariants are built at arbitrary precision; the
tier's set-up run directly; and its fixed-point kernel."""

import mpmath as mp
import numpy as np
import pytest

from cflow import highprec
from cflow import (
    AnnihilatorPolynomial,
    build_basis,
    build_flow,
    cluster_roots,
    eval_basis,
    evaluate_companion_flow,
    evaluate_flow,
    extended_inverse,
    find_roots,
    jordan_oracle,
    mu_functions,
    power_int,
)

from conftest import defective_case, rel_err


@pytest.fixture(scope="module")
def tier_case():
    case = defective_case(np.random.default_rng(0), 12)
    return case, build_flow(case.matrix)


def test_enters_the_tier(tier_case):
    _, rep = tier_case
    assert rep.high_precision is not None
    assert rep.high_precision.dps >= 35
    assert rep.covariants.shape == (rep.degree, 12, 12)


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
    mu = mu_functions(rep, 0.5)
    assert mu.shape == (rep.degree,) and np.all(np.isfinite(mu))


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


class TestFixedPointKernel:
    """The block fixed-point helpers against mpmath at the same precision."""

    BITS = 200

    def _random_mp(self, rng, n, scale=1.0):
        values = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return np.array([[mp.mpc(complex(v)) for v in row] for row in values], dtype=object)

    def test_product_matches_mpmath(self):
        rng = np.random.default_rng(3)
        with mp.workdps(60):
            x, y = self._random_mp(rng, 5), self._random_mp(rng, 5, 1e6)
            got = highprec._to_mp(
                highprec._mul(
                    highprec._from_mp(x.flat, x.shape, self.BITS),
                    highprec._from_mp(y.flat, y.shape, self.BITS),
                    self.BITS,
                )
            )
            err = max(abs(v) for v in (got - x @ y).flat)
            assert err <= mp.mpf(2) ** (-self.BITS + 8) * max(abs(v) for v in (x @ y).flat)

    def test_inverse_by_newton_and_by_fallback(self):
        rng = np.random.default_rng(4)
        n = 6
        with mp.workdps(60):
            # well conditioned: Newton-Schulz from the extended inverse
            x = self._random_mp(rng, n)
            # a Hilbert matrix of order 14 (condition ~1e19) has no usable
            # extended-precision start, so mpmath's LU takes over
            h = np.array([[mp.mpc(1) / (i + j + 1) for j in range(14)] for i in range(14)], dtype=object)
            for m, newton in ((x, True), (h, False)):
                start = extended_inverse(highprec.extended_matrix(m))
                block = highprec._from_mp(m.flat, m.shape, self.BITS)
                assert (highprec._newton_inverse(block, start, self.BITS) is not None) == newton
                inv = highprec._to_mp(highprec._inverse(m, self.BITS))
                residual = max(abs(v) for v in (m @ inv - np.eye(len(m))).flat)
                assert residual < mp.mpf(10) ** -30


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
    # relation solved for afresh or refined from the given one
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
    hp = highprec.HighPrecisionFlow(a, rep.relation, rep.basis, dps=40, discovered=discovered)
    assert len(hp.basis.terms) == rep.degree
    for z in (0.5 + 0.3j, -1.7):
        value = eval_basis(hp.basis, z) @ hp.covariants.reshape(rep.degree, -1)
        assert rel_err(value.reshape(n, n), jordan_oracle(blocks, t, z)) < 1e-10


def test_relation_above_minimal_degree_is_refined():
    # (X - 2)^2 (X - 3) annihilates diag(2, 2, 3) but is not minimal, so the
    # Krylov vectors up to degree 3 are dependent and the given relation is
    # refined instead of solved for
    a = np.diag([2.0, 2.0, 3.0]).astype(complex)
    q = AnnihilatorPolynomial.from_roots([2.0, 2.0, 3.0])
    basis = build_basis(cluster_roots(find_roots(q), polynomial=q))
    hp = highprec.HighPrecisionFlow(a, q, basis, dps=40, discovered=True)
    value = (eval_basis(hp.basis, 0.5) @ hp.covariants.reshape(3, -1)).reshape(3, 3)
    assert rel_err(value, np.diag([2.0**0.5, 2.0**0.5, 3.0**0.5])) < 1e-12
