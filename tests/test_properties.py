"""Property tests on matrices drawn by the suite generator of ``conftest.py``:
the group law, integer powers, and the paper's form ``sum_i mu_i A^{-i}``
against the covariant sum that ``evaluate_flow`` computes; and random branch
offsets, on suite matrices and on a matrix in the mpmath tier."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cflow import build_flow, evaluate_flow, max_norm, mu_functions, negative_powers, power_int

from conftest import defective_case, random_suite_case, rel_err

# Derandomized so that the examples, like the suite, are the same on every run.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
exponents = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


def _flow(seed):
    case = random_suite_case(np.random.default_rng(seed))
    return case.matrix, build_flow(case.matrix)


@PROPERTY
@given(seed=seeds, z=exponents, w=exponents)
def test_group_law(seed, z, w):
    _, rep = _flow(seed)
    fz, fw = evaluate_flow(rep, z), evaluate_flow(rep, w)
    denom = max(1.0, max_norm(fz) * max_norm(fw))
    assert max_norm(fz @ fw - evaluate_flow(rep, z + w)) / denom <= 1e-8


@PROPERTY
@given(seed=seeds, k=st.integers(min_value=-3, max_value=5))
def test_integer_powers(seed, k):
    a, rep = _flow(seed)
    assert rel_err(evaluate_flow(rep, k), power_int(a, k)) <= 1e-8


@PROPERTY
@given(seed=seeds, z=exponents)
def test_mu_form_matches_covariant_sum(seed, z):
    # The double-precision sum over the negative powers rounds at the scale
    # of its terms, sum |mu_i| |A^{-i}|, so that is the yardstick.
    a, rep = _flow(seed)
    mu = mu_functions(rep, z)
    negs = negative_powers(a, rep.degree)
    terms = sum(abs(m) * max_norm(p) for m, p in zip(mu, negs))
    paper = sum(m * p for m, p in zip(mu, negs))
    assert max_norm(paper - evaluate_flow(rep, z)) <= 1e-12 * max(1.0, terms)


# A winding number per cluster, in cluster order; a suite matrix has at most
# 8 clusters and the tier matrix 10, and the rest of the list is unused.
windings = st.lists(st.integers(min_value=-2, max_value=2), min_size=10, max_size=10)
TIER_MATRIX = defective_case(np.random.default_rng(0), 12).matrix


def _check_branch(a, offsets, z, w):
    count = len(build_flow(a).basis.spectrum.clusters)
    rep = build_flow(a, branch_offsets={i: k for i, k in enumerate(offsets[:count]) if k})
    for k in range(-2, 4):  # every branch has the same integer powers
        assert rel_err(evaluate_flow(rep, k), power_int(a, k)) <= 1e-8
    fz, fw = evaluate_flow(rep, z), evaluate_flow(rep, w)
    denom = max(1.0, max_norm(fz) * max_norm(fw))
    assert max_norm(fz @ fw - evaluate_flow(rep, z + w)) / denom <= 1e-8


@PROPERTY
@given(seed=seeds, offsets=windings, z=exponents, w=exponents)
def test_branch_offsets(seed, offsets, z, w):
    _check_branch(random_suite_case(np.random.default_rng(seed)).matrix, offsets, z, w)


@settings(PROPERTY, max_examples=10)
@given(offsets=windings, z=exponents, w=exponents)
def test_branch_offsets_in_the_tier(offsets, z, w):
    _check_branch(TIER_MATRIX, offsets, z, w)
