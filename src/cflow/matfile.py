"""Matrix file format and complex/relation literals used by the CLI.

A matrix document is JSON of the form::

    {"n": 2, "entries": [[[re, im], [re, im]], [[re, im], [re, im]]]}

row-major, one ``[re, im]`` pair per entry.  Complex literals on the command
line are ``a+bi``, ``a-bi``, ``a``, ``bi`` or ``i`` (``j`` is accepted too).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .annihilator import AnnihilatorPolynomial
from .errors import MatrixParseError

__all__ = [
    "parse_complex",
    "format_complex",
    "parse_relation",
    "read_matrix",
    "matrix_document",
    "write_matrix",
]

def parse_complex(text: str) -> complex:
    """Parse a complex literal such as ``1.5-2i``, ``3``, ``2i`` or ``-i``.

    Delegates to the built-in ``complex()`` parser after mapping a trailing
    ``i`` to ``j``, rejecting parenthesized forms and non-finite values.
    """
    s = text.strip()
    s = s[:-1] + "j" if s[-1:] in ("i", "I") else s
    if not s or "(" in s or ")" in s:
        raise MatrixParseError(f"cannot parse complex literal {text!r}")
    try:
        value = complex(s)
    except ValueError as exc:
        raise MatrixParseError(f"cannot parse complex literal {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise MatrixParseError(f"complex literal {text!r} is not finite")
    return value


def format_complex(x: complex) -> str:
    """Round-trip-exact textual form of a complex number."""
    x = complex(x)
    if x.imag == 0.0:
        return repr(x.real)
    sign = "+" if x.imag >= 0 else "-"
    return f"{x.real!r}{sign}{abs(x.imag)!r}i"


def parse_relation(text: str) -> AnnihilatorPolynomial:
    """Parse comma-separated coefficients ``c_{p-1}, ..., c_0`` of the monic
    relation ``X^p - c_{p-1} X^{p-1} - ... - c_0``."""
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise MatrixParseError(f"relation {text!r} has an empty field")
    values = [parse_complex(p) for p in parts]
    return AnnihilatorPolynomial(tuple(values[::-1]))


def read_matrix(path) -> np.ndarray:
    """Load a matrix document, validating shape and finiteness."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatrixParseError(f"cannot read matrix file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise MatrixParseError(f"{path}: expected an object with 'n' and 'entries'")
    n = doc["n"]
    rows = doc["entries"]
    if type(n) is not int or n < 1:  # JSON true is a Python int too
        raise MatrixParseError(f"{path}: 'n' must be a positive integer")
    if not isinstance(rows, list) or len(rows) != n:
        raise MatrixParseError(f"{path}: expected {n} rows")
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixParseError(f"{path}: row {i} does not have {n} entries")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(type(v) in (int, float) for v in pair)  # not bool
            ):
                raise MatrixParseError(f"{path}: entry ({i},{j}) is not a [re, im] pair")
            try:
                out[i, j] = complex(pair[0], pair[1])
            except OverflowError as exc:  # an integer beyond double range
                raise MatrixParseError(f"{path}: entry ({i},{j}) exceeds double range") from exc
    if not np.all(np.isfinite(out.view(np.float64))):
        raise MatrixParseError(f"{path}: non-finite entry")
    return out


def matrix_document(a) -> dict:
    """Matrix as a JSON-ready document (floats keep full double precision)."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    return {
        "n": n,
        "entries": [[[float(a[i, j].real), float(a[i, j].imag)] for j in range(n)] for i in range(n)],
    }


def write_matrix(a, fh) -> None:
    print(json.dumps(matrix_document(a)), file=fh)
