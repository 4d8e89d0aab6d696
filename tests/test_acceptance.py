"""Acceptance suite: eight end-to-end criteria, each printing one pass/fail
line with its measured worst-case residual.

The shared 50-matrix suite comes from ``conftest.py`` (seeded, built from
known Jordan structures so an independent ground truth exists).
"""

import json
import math
import time

import numpy as np
import pytest

from cflow import (
    AnnihilatorPolynomial,
    CompanionFlow,
    build_flow,
    check_flow_axioms,
    cluster_roots,
    evaluate_flow,
    find_roots,
    generalized_binomial,
    invert_vandermonde,
    jordan_oracle,
    power_int,
    vandermonde_matrix,
)
from cflow.cli import main
from cflow.matfile import write_matrix

from conftest import rel_err
from lemmas import companion_action_check, negative_powers, times_linear


def _report(name: str, worst: float, limit: float) -> None:
    status = "PASS" if worst <= limit else "FAIL"
    print(f"{name}: {status} (worst residual {worst:.3e}, limit {limit:.1e})")
    assert worst <= limit


def _pad_root(rng, spectrum):
    """A padding root with magnitude in [0.5, 4], at least 0.3 away from the
    existing eigenvalues."""
    values = [c.value for c in spectrum.clusters]
    for _ in range(500):
        a = rng.uniform(0.8, 2.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        if all(abs(a - v) >= 0.3 for v in values):
            return complex(a)
    raise AssertionError("could not place a padding root")


def _companion_evaluator(a, q):
    """Evaluate the flow of ``a`` through the companion construction, with the
    companion flow built once per matrix."""
    cf = CompanionFlow(q)
    negs = negative_powers(a, q.degree)

    def evaluate(z):
        return sum(m * p for m, p in zip(cf.mu(z), negs))

    return evaluate


def test_criterion_1_flow_axioms(suite, suite_reps):
    """50 seeded random matrices satisfy the three flow axioms to 1e-8 over
    20 complex (z, w) pairs with |z|, |w| <= 3, in under 10 seconds."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for case, rep in zip(suite, suite_reps):
        pairs = [
            (
                complex(*(rng.uniform(-1, 1, 2) * 3 / math.sqrt(2))),
                complex(*(rng.uniform(-1, 1, 2) * 3 / math.sqrt(2))),
            )
            for _ in range(20)
        ]
        report = check_flow_axioms(rep, case.matrix, pairs)
        worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 1 (flow axioms, 50 matrices, 20 pairs)", worst, 1e-8)


def test_criterion_2_integer_powers(suite, suite_reps):
    """evaluate_flow at integer k in {-3,...,5} matches power_int to 1e-8."""
    worst = 0.0
    for case, rep in zip(suite, suite_reps):
        for k in range(-3, 6):
            worst = max(
                worst, rel_err(evaluate_flow(rep, k), power_int(case.matrix, k))
            )
    _report("criterion 2 (integer-power oracle, k in -3..5)", worst, 1e-8)


def test_criterion_3_jordan_oracle(suite, suite_reps):
    """Both constructions match the Jordan ground truth to 1e-7 at 10 z
    samples including 0.5, i and 1.3 - 0.7i."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for case, rep in zip(suite, suite_reps):
        companion = _companion_evaluator(case.matrix, rep.relation)
        zs = [0.5, 1j, 1.3 - 0.7j] + [
            complex(*(rng.uniform(-1, 1, 2) * 2)) for _ in range(7)
        ]
        for z in zs:
            truth = jordan_oracle(case.blocks, case.transform, z)
            worst = max(worst, rel_err(evaluate_flow(rep, z), truth))
            worst = max(worst, rel_err(companion(z), truth))
    _report("criterion 3 (Jordan oracle, both methods, 10 z)", worst, 1e-7)


def test_criterion_4_cross_agreement(suite, suite_reps):
    """Direct and companion evaluations agree to 1e-8, for the minimal
    relation and for a padded relation with one extra root."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for case, rep in zip(suite, suite_reps):
        q = rep.relation
        padded = times_linear(q, _pad_root(rng, rep.spectrum))
        zs = [complex(*(rng.uniform(-1, 1, 2) * 2)) for _ in range(5)]
        for relation in (q, padded):
            companion = _companion_evaluator(case.matrix, relation)
            direct_rep = rep if relation is q else build_flow(case.matrix, relation)
            for z in zs:
                worst = max(
                    worst, rel_err(companion(z), evaluate_flow(direct_rep, z))
                )
    _report("criterion 4 (cross-agreement, minimal and padded)", worst, 1e-8)


def test_criterion_5_companion_orientation(suite, suite_reps):
    """The companion intertwining identity holds to 1e-9 for 50 random
    coefficient vectors on each of 10 suite matrices."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for case, rep in zip(suite[:10], suite_reps[:10]):
        p = rep.paper.degree
        for _ in range(50):
            v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            worst = max(worst, companion_action_check(case.matrix, rep.relation, v))
    _report("criterion 5 (companion orientation, 50 x 10)", worst, 1e-9)


def test_criterion_6_binomial_identities():
    """The generalized binomials satisfy the Vandermonde convolution to 1e-10
    and reproduce the integer binomial table to 1e-12."""
    rng = np.random.default_rng(106)
    worst_conv = 0.0
    for _ in range(100):
        z = complex(*(rng.uniform(-3, 3, 2)))
        w = complex(*(rng.uniform(-3, 3, 2)))
        for k in range(0, 11):
            total = sum(
                generalized_binomial(l, z) * generalized_binomial(k - l, w)
                for l in range(k + 1)
            )
            target = generalized_binomial(k, z + w)
            worst_conv = max(worst_conv, abs(total - target) / max(1.0, abs(target)))
    worst_grid = 0.0
    for k in range(0, 11):
        for j in range(0, 11):
            worst_grid = max(
                worst_grid, abs(generalized_binomial(j, k) - math.comb(k, j))
            )
    assert worst_grid <= 1e-12
    _report("criterion 6 (binomial convolution, k <= 10, 100 pairs)", worst_conv, 1e-10)


def test_criterion_7_vandermonde_invertibility():
    """100 random admissible spectra give an invertible generalized
    Vandermonde system with inverse residual at most 1e-9."""
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        values = []
        mults = []
        p = int(rng.integers(1, 9))
        while sum(mults) < p:
            for _ in range(500):
                lam = rng.uniform(0.5, 4.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
                if all(abs(lam - v) >= 0.3 for v in values):
                    break
            values.append(complex(lam))
            mults.append(int(rng.integers(1, min(3, p - sum(mults)) + 1)))
        roots = [v for v, m in zip(values, mults) for _ in range(m)]
        q = AnnihilatorPolynomial.from_roots(roots)
        b = vandermonde_matrix(cluster_roots(roots, polynomial=q)).T
        table = invert_vandermonde(b)
        worst = max(worst, float(np.max(np.abs(b @ table.e - np.eye(p)))))
    _report("criterion 7 (Vandermonde invertibility, 100 spectra)", worst, 1e-9)


def test_criterion_8_cli_end_to_end(tmp_path, capsys):
    """pow reproduces the unipotent square root to 1e-12, verify exits 0 on
    every fixture, and formula evaluates mu(1) = (19, -30) for X^2 - 5X + 6."""
    fixtures = {
        "identity": np.eye(2),
        "unipotent": np.array([[1.0, 1.0], [0.0, 1.0]]),
        "diag23": np.diag([2.0, 3.0]),
        "jordan2": np.array([[5.0, 1.0], [0.0, 5.0]]),
    }
    rng = np.random.default_rng(108)
    fixtures["random4"] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    paths = {}
    for name, a in fixtures.items():
        p = tmp_path / f"{name}.json"
        with open(p, "w") as fh:
            write_matrix(np.asarray(a, dtype=np.complex128), fh)
        paths[name] = str(p)

    worst = 0.0

    assert main(["pow", paths["unipotent"], "--z", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = np.array([[complex(*e) for e in row] for row in doc["entries"]])
    worst = max(worst, float(np.max(np.abs(got - [[1, 0.5], [0, 1]]))))
    assert worst <= 1e-12

    for name in fixtures:
        assert main(["verify", paths[name]]) == 0
        capsys.readouterr()

    assert main(["formula", "--relation", "5,-6", "--at", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    mu = [complex(*v) for v in report["mu_at"]["values"]]
    worst = max(worst, abs(mu[0] - 19.0), abs(mu[1] + 30.0))
    assert mu == pytest.approx([19.0, -30.0])
    _report("criterion 8 (CLI end-to-end: pow, verify, formula)", worst, 1e-8)
