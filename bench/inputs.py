"""Seeded inputs for the benchmark workloads.

Every matrix is built as ``T J T^{-1}`` from a known Jordan structure, so the
Jordan oracle gives an independent reference for each result.  The suite
generator draws from the random stream in the same order as the
``random_suite_case`` fixture of the test suite, so the first 50 matrices
of seed 0 are the acceptance population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUITE_SIZE = 50  # one acceptance suite
# Consecutive suites per suite-workload run: the median build of a single
# 50-matrix suite moves by about a fifth between seeds with the sizes drawn.
SUITE_BATCHES = 4
SUITE_ZS = 10
# 32 matrices rather than five: the build time of an n=8 matrix depends on
# its spectrum, and a median over a few would follow the seed.
MANY_Z_MATRICES = 32
MANY_Z_COUNT = 1000
CLI_MATRICES = 4  # n=8 suite matrices written to files for the command line
CLI_IN_PROCESS = 32  # n=8 suite matrices the cli workload times in process
LADDER_SIZES = (12, 16, 20, 24)
LADDER_Z_COUNT = 3  # exponents per ladder matrix


@dataclass(frozen=True)
class Case:
    """One matrix with the Jordan data that generated it."""

    matrix: np.ndarray
    blocks: tuple  # ((eigenvalue, size), ...)
    transform: np.ndarray
    label: str


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _separated_eigenvalue(rng: np.random.Generator, taken) -> complex:
    for _ in range(200):
        lam = rng.uniform(0.5, 4.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        if all(abs(lam - mu) >= 0.3 for mu in taken):
            break
    return complex(lam)


def _jordan_matrix(blocks, n: int) -> np.ndarray:
    j = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for lam, size in blocks:
        for i in range(size):
            j[pos + i, pos + i] = lam
            if i + 1 < size:
                j[pos + i, pos + i + 1] = 1.0
        pos += size
    return j


def _conditioned_transform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random ``T`` with singular values in ``[1, 5]``."""
    return (
        _random_unitary(rng, n)
        @ np.diag(rng.uniform(1.0, 5.0, n))
        @ _random_unitary(rng, n)
    )


def suite_case(rng: np.random.Generator, max_dim: int = 8, label: str = "suite") -> Case:
    """One acceptance-suite matrix: ``n <= max_dim``, eigenvalues with
    ``|lambda|`` in ``[0.5, 4]`` at least 0.3 apart, and at most one Jordan
    block of size 2 or 3."""
    n = int(rng.integers(1, max_dim + 1))
    blocks = []
    allow_multiple = bool(rng.integers(0, 2)) and n >= 2
    while sum(m for _, m in blocks) < n:
        remaining = n - sum(m for _, m in blocks)
        lam = _separated_eigenvalue(rng, [mu for mu, _ in blocks])
        if allow_multiple and remaining >= 2:
            size = int(rng.integers(2, min(3, remaining) + 1))
            allow_multiple = False
        else:
            size = 1
        blocks.append((lam, size))
    t = _conditioned_transform(rng, n)
    a = t @ _jordan_matrix(blocks, n) @ np.linalg.inv(t)
    return Case(matrix=a, blocks=tuple(blocks), transform=t, label=f"{label} n={n}")


def suite_cases(seed: int, count: int = SUITE_SIZE) -> list:
    rng = np.random.default_rng(seed)
    return [suite_case(rng) for _ in range(count)]


def suite_zs(rng: np.random.Generator, count: int = SUITE_ZS) -> list:
    """``count`` exponents with ``|z| <= 3``."""
    radius = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, count))
    angle = rng.uniform(-np.pi, np.pi, count)
    return [complex(r * np.cos(t), r * np.sin(t)) for r, t in zip(radius, angle)]


def many_z_cases(seed: int, count: int = MANY_Z_MATRICES) -> list:
    """``count`` suite matrices of dimension exactly 8."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        case = suite_case(rng)
        if case.matrix.shape[0] == 8:
            out.append(case)
    return out


def z_grid(rng: np.random.Generator, count: int = MANY_Z_COUNT) -> list:
    """``count`` exponents with real and imaginary parts in ``[-3, 3]``."""
    parts = rng.uniform(-3.0, 3.0, (count, 2))
    return [complex(re, im) for re, im in parts]


def ladder_case(rng: np.random.Generator, n: int, defective: bool) -> Case:
    """A size-``n`` matrix of the ladder.

    Distinct: ``n`` separated eigenvalues conjugated by a random unitary.
    Defective: one Jordan block of size 3 plus separated simple eigenvalues,
    conjugated by a ``T`` with singular values in ``[1, 5]``.
    """
    sizes = [3] + [1] * (n - 3) if defective else [1] * n
    blocks = []
    for size in sizes:
        blocks.append((_separated_eigenvalue(rng, [mu for mu, _ in blocks]), size))
    t = _conditioned_transform(rng, n) if defective else _random_unitary(rng, n)
    a = t @ _jordan_matrix(blocks, n) @ np.linalg.inv(t)
    kind = "defective" if defective else "distinct"
    return Case(matrix=a, blocks=tuple(blocks), transform=t, label=f"ladder n={n} {kind}")


def ladder_cases(seed: int, sizes=LADDER_SIZES) -> list:
    rng = np.random.default_rng(seed)
    return [ladder_case(rng, n, defective) for n in sizes for defective in (False, True)]
