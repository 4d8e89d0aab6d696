"""Shared fixtures: the seeded random matrix suite used across the tests.

Suite matrices are built as ``T J T^{-1}`` from a known Jordan structure so
an independent ground-truth flow is always available.  Eigenvalue magnitudes
stay in ``[0.5, 4]`` with pairwise separation at least ``0.3``; Jordan blocks
have size at most 3, with at most one multiple eigenvalue per matrix (a
nearly defective double-precision matrix carries an intrinsic representation
error per multiple cluster, so stacking several multiplies it).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest

from cflow import (
    AnnihilatorPolynomial,
    Cluster,
    Spectrum,
    build_flow,
    flow,
    group_roots,
    jordan_oracle,
    validate_relation,
)


@dataclass(frozen=True)
class SuiteCase:
    """One suite matrix with its generating Jordan data."""

    matrix: np.ndarray
    blocks: tuple  # ((eigenvalue, size), ...)
    transform: np.ndarray


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def random_suite_case(rng: np.random.Generator, max_dim: int = 8) -> SuiteCase:
    """Draw one matrix: random Jordan structure conjugated by a matrix with
    modest condition number (singular values in ``[1, 5]``)."""
    n = int(rng.integers(1, max_dim + 1))
    blocks = []
    allow_multiple = bool(rng.integers(0, 2)) and n >= 2
    while sum(m for _, m in blocks) < n:
        remaining = n - sum(m for _, m in blocks)
        for _ in range(200):
            lam = rng.uniform(0.5, 4.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            if all(abs(lam - mu) >= 0.3 for mu, _ in blocks):
                break
        if allow_multiple and remaining >= 2:
            size = int(rng.integers(2, min(3, remaining) + 1))
            allow_multiple = False
        else:
            size = 1
        blocks.append((complex(lam), size))
    j = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for lam, size in blocks:
        for i in range(size):
            j[pos + i, pos + i] = lam
            if i + 1 < size:
                j[pos + i, pos + i + 1] = 1.0
        pos += size
    t = (
        _random_unitary(rng, n)
        @ np.diag(rng.uniform(1.0, 5.0, n))
        @ _random_unitary(rng, n)
    )
    a = t @ j @ np.linalg.inv(t)
    return SuiteCase(matrix=a, blocks=tuple(blocks), transform=t)


def first_suite8_case() -> SuiteCase:
    """The first n=8 suite matrix of seed 0, also the first of
    ``bench/inputs.many_z_cases(0)``."""
    rng = np.random.default_rng(0)
    while (case := random_suite_case(rng)).matrix.shape[0] != 8:
        pass
    return case


# Suite case 0 of seed 0 times this scale has eigenvalues of magnitude 1.4e-5
# to 3.5e-5, and a polished cluster centre of its relation lands on 0.
CENTRE_AT_ZERO_SCALE = 1e-5


def first_suite_case() -> SuiteCase:
    """Suite case 0 of seed 0, a 7x7 with one 2-block."""
    return random_suite_case(np.random.default_rng(0))


def overflowing_builds() -> dict:
    """Finite, invertible matrices whose builds overflow double precision:
    :func:`first_suite8_case` scaled by 1e30, where the amplification
    estimate is infinite, and by 1e40, where ``|A|^p`` of the relation
    residual overflows like it does for ``[[2, 1e160], [0, 3]]``."""
    case = first_suite8_case()
    return {
        "suite8x1e30": case.matrix * 1e30,
        "suite8x1e40": case.matrix * 1e40,
        "entry1e160": np.array([[2.0, 1e160], [0.0, 3.0]], dtype=np.complex128),
    }


def overflowing_oracle(name: str, z: complex) -> np.ndarray:
    """``A^z`` of :func:`overflowing_builds` ``[name]``: ``s^z`` times the Jordan
    oracle of the scaled suite matrix, or :func:`triangular_flow`."""
    if name == "entry1e160":
        return triangular_flow(1e160, z)
    case, s = first_suite8_case(), float(name.split("x")[1])
    return s**z * jordan_oracle(case.blocks, case.transform, z)


def triangular_flow(u: float, z: complex) -> np.ndarray:
    """``A^z`` of ``[[2, u], [0, 3]] = T diag(2, 3) T^{-1}``, ``T = [[1, u], [0,
    1]]``, in closed form."""
    r2, r3 = 2.0 ** complex(z), 3.0 ** complex(z)
    return np.array([[r2, u * (r3 - r2)], [0.0, r3]])


def eigen_oracle(a: np.ndarray, z: complex) -> np.ndarray:
    """``A^z`` of a diagonalizable matrix from numpy's eigendecomposition, by
    the Jordan oracle with the eigenvectors as ``T``."""
    w, v = np.linalg.eig(a)
    return jordan_oracle([(lam, 1) for lam in w], v, z)


def defective_case(
    rng: np.random.Generator, n: int, singular_values: np.ndarray | None = None
) -> SuiteCase:
    """A Jordan block of size 3 plus ``n - 3`` simple eigenvalues (magnitudes
    in ``[0.5, 4]``, at least 0.3 apart), conjugated by a matrix with singular
    values in ``[1, 5]`` (or ``singular_values``, which draws none).  From
    ``n = 12`` on, the relation of such a matrix usually cancels beyond
    extended precision (the mpmath tier)."""
    blocks = []
    for size in [3] + [1] * (n - 3):
        for _ in range(200):
            lam = rng.uniform(0.5, 4.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            if all(abs(lam - mu) >= 0.3 for mu, _ in blocks):
                break
        blocks.append((complex(lam), size))
    j = np.diag([lam for lam, size in blocks for _ in range(size)]) + np.diag(
        [1.0, 1.0] + [0.0] * (n - 3), 1
    )
    t = (
        _random_unitary(rng, n)
        @ np.diag(rng.uniform(1.0, 5.0, n) if singular_values is None else singular_values)
        @ _random_unitary(rng, n)
    )
    return SuiteCase(matrix=t @ j @ np.linalg.inv(t), blocks=tuple(blocks), transform=t)


def jordan_block_case(rng: np.random.Generator, lam: complex, size: int) -> SuiteCase:
    """One Jordan block conjugated by a matrix with singular values in
    ``[1, 5]``."""
    t = (
        _random_unitary(rng, size)
        @ np.diag(rng.uniform(1.0, 5.0, size))
        @ _random_unitary(rng, size)
    )
    j = lam * np.eye(size) + np.diag(np.ones(size - 1), 1)
    return SuiteCase(matrix=t @ j @ np.linalg.inv(t), blocks=((complex(lam), size),), transform=t)


def several_multiple_case() -> SuiteCase:
    """``T (J_2(2) + J_3(-1+0.5i) + J_1(3) + 0.5 I_2 + J_1(-1+0.5i)) T^{-1}`` with
    a random complex ``T`` (seed 3): n = 9, with clusters of multiplicity 2,
    4, 1 and 2 (the 0.5 one derogatory)."""
    blocks = ((2.0, 2), (-1 + 0.5j, 3), (3.0, 1), (0.5, 1), (0.5, 1), (-1 + 0.5j, 1))
    j = np.zeros((9, 9), dtype=np.complex128)
    pos = 0
    for lam, size in blocks:
        j[pos : pos + size, pos : pos + size] = lam * np.eye(size) + np.eye(size, k=1)
        pos += size
    rng = np.random.default_rng(3)
    t = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    return SuiteCase(matrix=t @ j @ np.linalg.inv(t), blocks=blocks, transform=t)


def distinct_case(rng: np.random.Generator, n: int) -> SuiteCase:
    """``n`` simple eigenvalues (magnitudes in ``[0.5, 4]``, at least 0.3
    apart) conjugated by a random unitary matrix."""
    blocks = []
    for _ in range(n):
        for _ in range(200):
            lam = rng.uniform(0.5, 4.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            if all(abs(lam - mu) >= 0.3 for mu, _ in blocks):
                break
        blocks.append((complex(lam), 1))
    t = _random_unitary(rng, n)
    a = t @ np.diag([lam for lam, _ in blocks]) @ t.conj().T
    return SuiteCase(matrix=a, blocks=tuple(blocks), transform=t)


@pytest.fixture(scope="session")
def suite():
    """50 seeded random matrices; the acceptance suite."""
    rng = np.random.default_rng(0)
    return [random_suite_case(rng) for _ in range(50)]


@pytest.fixture(scope="session")
def suite_reps(suite):
    """Flow representations for the suite, built once and shared."""
    return [build_flow(case.matrix) for case in suite]


@pytest.fixture()
def wrong_discovered_relation(monkeypatch):
    """``minimal_polynomial`` returns its relation with ``c_0`` moved by a
    relative 1e-6, carrying that relation's own residual: a wrong discovered
    relation, outside the mpmath tier on small matrices."""
    found = flow.minimal_polynomial

    def perturbed(a):
        coeffs = found(a).coeffs
        q = AnnihilatorPolynomial((coeffs[0] * (1 + 1e-6),) + coeffs[1:])
        return AnnihilatorPolynomial(q.coeffs, residual=validate_relation(a, q))

    monkeypatch.setattr(flow, "minimal_polynomial", perturbed)


def grouped_spectrum(values) -> Spectrum:
    """The :class:`Spectrum` of :func:`cflow.group_roots` on a value list: each
    group's mean and size, with the mean's principal logarithm as its branch."""
    return Spectrum(tuple(Cluster(c, len(g), cmath.log(c)) for c, g in group_roots(values)))


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm error relative to ``max(1, |ref|)``."""
    return float(np.max(np.abs(x - ref))) / max(1.0, float(np.max(np.abs(ref))))


def rel_err_to_ref(x: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm error relative to ``|ref|`` itself: unlike :func:`rel_err`, it
    reads relative error where ``|ref| << 1`` too."""
    return float(np.max(np.abs(x - ref))) / float(np.max(np.abs(ref)))


def mpc_from_extended(x) -> mp.mpc:
    """A ``clongdouble`` scalar as ``mpc`` at the current precision, its bits
    beyond double precision kept: the sum of its double rounding and the
    double rounding of the rest, converted one by one."""
    hi = complex(np.complex128(x))
    lo = complex(np.complex128(x - np.clongdouble(hi)))
    return mp.mpc(hi) + mp.mpc(lo)
