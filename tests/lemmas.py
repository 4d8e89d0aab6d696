"""Constructions that the tests use to check the paper's lemmas, and that the
package itself never calls: the negative-power chain rounded to double
precision, a relation times a linear factor, a matrix grown so that its
relation gains a root, and the companion intertwining identity.
"""

import numpy as np

from cflow import AnnihilatorPolynomial, DimensionMismatch, Spectrum, companion_matrix
from cflow.flow import _negative_powers_extended
from cflow.numeric import _RANK_TOL, as_matrix, max_norm

_SAME_EIGENVALUE = 1e-7  # Jordan-form eigenvalues this close are one eigenvalue


class NotJordanForm(ValueError):
    """A block-diagonal Jordan-form input was required but not supplied."""


def negative_powers(a, p: int) -> list:
    """``[A^{-1}, ..., A^{-p}]``: the paper's form's extended-precision chain
    of the checked matrix, rounded to double precision."""
    return [m.astype(np.complex128) for m in _negative_powers_extended(as_matrix(a), p)]


def times_linear(q: AnnihilatorPolynomial, root: complex) -> AnnihilatorPolynomial:
    """``q`` multiplied by ``(X - root)`` in extended precision, on its ``work``."""
    factor = np.array([-np.clongdouble(complex(root)), np.clongdouble(1.0)])
    return AnnihilatorPolynomial.from_work(np.convolve(q.work, factor))


def _parse_jordan_blocks(a):
    """Split a Jordan-form matrix into (eigenvalue, size) blocks, or raise.

    An entry is zero, or a superdiagonal entry one, within ``1e-10``
    (``numeric._RANK_TOL``) times ``max(1, |A|)``; diagonal entries joined by
    a one must agree within ``_SAME_EIGENVALUE`` times that.
    """
    a = as_matrix(a)
    n = a.shape[0]
    off = np.abs(a - np.diag(np.diag(a)) - np.diag(np.diag(a, 1), 1))
    scale = max(1.0, max_norm(a))
    if np.max(off, initial=0.0) > _RANK_TOL * scale:
        raise NotJordanForm("matrix has entries outside the diagonal and superdiagonal")
    blocks = []
    start = 0
    for i in range(n - 1):
        s = a[i, i + 1]
        if abs(s - 1.0) <= _RANK_TOL * scale:
            if abs(a[i, i] - a[i + 1, i + 1]) > _SAME_EIGENVALUE * scale:
                raise NotJordanForm("superdiagonal one joins two different eigenvalues")
            continue
        if abs(s) <= _RANK_TOL * scale:
            blocks.append((complex(a[start, start]), i + 1 - start))
            start = i + 1
        else:
            raise NotJordanForm("superdiagonal entries must be exactly zero or one")
    blocks.append((complex(a[start, start]), n - start))
    return blocks


def extend_matrix(a, new_root: complex, spectrum_of_a: Spectrum) -> np.ndarray:
    """Enlarge ``a`` by a last row and column so that its minimal polynomial
    gains the factor ``(X - new_root)``, while the top-left ``n x n`` block of
    any flow of the result is the flow of ``a``.

    ``a`` is the result's top-left block.  A root farther than
    ``_SAME_EIGENVALUE`` from every cluster of ``spectrum_of_a`` is the new
    diagonal entry, alone.  A repeated root requires ``a`` in Jordan
    (block-diagonal) form: the largest block with that eigenvalue grows by
    one, its eigenvalue on the new diagonal entry and a one in the new
    column on that block's last row.  The result is that Jordan matrix
    with the grown block's new row and column moved last, a permutation
    similarity that keeps the flow of ``a`` on the other rows and columns.
    """
    a = as_matrix(a)
    n = a.shape[0]
    out = np.zeros((n + 1, n + 1), dtype=np.complex128)
    out[:n, :n] = a
    out[n, n] = new_root
    if any(abs(out[n, n] - c.value) <= _SAME_EIGENVALUE for c in spectrum_of_a.clusters):
        blocks = _parse_jordan_blocks(a)
        last_rows = np.cumsum([size for _, size in blocks]) - 1
        candidates = [
            k for k, (lam, _) in enumerate(blocks) if abs(lam - out[n, n]) <= _SAME_EIGENVALUE
        ]
        target = max(candidates, key=lambda k: blocks[k][1])
        out[last_rows[target], n] = 1.0
        out[n, n] = blocks[target][0]
    return out


def companion_action_check(a, q: AnnihilatorPolynomial, coeff_vec) -> float:
    """Residual of the identity ``A * <v, powers> = <C v, powers>`` over the
    negative-power basis, normalized by the magnitude of the two sides.

    This pins down the companion-matrix orientation: it vanishes exactly
    when the relation coefficients run down the first column with ones on
    the superdiagonal.
    """
    a = as_matrix(a)
    v = np.asarray(coeff_vec, dtype=np.complex128)
    p = q.degree
    if v.shape != (p,):
        raise DimensionMismatch(f"coefficient vector must have length {p}")
    negs = negative_powers(a, p)
    lhs = a @ sum(vi * m for vi, m in zip(v, negs))
    w = companion_matrix(q) @ v
    rhs = sum(wi * m for wi, m in zip(w, negs))
    scale = max(1.0, max_norm(lhs), max_norm(rhs))
    return max_norm(lhs - rhs) / scale
