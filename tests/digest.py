"""Print a library digest, a refined digest, a CLI digest and a near-axis
digest of the cflow tree this file sits in.

Run ``python tests/digest.py [--verbose]`` in two trees and compare the four
lines: equal digests mean the same outputs, value for value.  The library
digest covers the builds of suite seeds 0-1 and ladder seed 0 at n <= 16:
spectra, ``evaluate_flow``, ``evaluation_condition`` (which reads the term
scales), the paper's form (relation, table, ``mu``, sum), ``CompanionFlow``,
and the mpmath tier's form for the discovered relation, for it supplied with
and without its residual, and for the companion matrix with both; every
error and warning.  The tier solves for a relation that carries
its residual afresh, and refines one without it from its start; the
working-precision values (``mpc`` logs and ``mu``) of the refined relations
form the refined digest, as iterative refinement ends on residuals at the
level of working-precision rounding.  The CLI digest covers the stdout,
stderr and exit code of ``python -m cflow`` runs on the fixtures of
``test_cli.py`` and the two n = 12 tier matrices of ladder seed 0.  The
near-axis digest covers eigenvalues within ``1e-9`` of the real axis, which
the real-axis snap of ``annihilator._ordered`` decides: the library records
of ``[[1+2e-9j]]``, ``[[-1+2e-9j]]`` and ``diag(2+1e-12j, 3)``.

Values are hashed by value: ``repr`` of the real and imaginary parts of a
double or ``clongdouble``, the exact mantissa and exponent of an ``mpc``.
(``tobytes()`` of a ``clongdouble`` array includes uninitialised padding.)
``--verbose`` prints one hash per record, so two trees can be diffed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cflow import AnnihilatorPolynomial, build_flow, evaluate_flow  # noqa: E402
from cflow.annihilator import Spectrum, characteristic_polynomial, validate_relation  # noqa: E402
from cflow.flow import CompanionFlow  # noqa: E402
from cflow.matfile import format_complex, write_matrix  # noqa: E402
from conftest import defective_case, distinct_case, random_suite_case  # noqa: E402

ZS = (0.5 + 0.25j, -1.7, 3j, 2.0)


def value(x) -> str:
    """A text that determines ``x`` exactly."""
    if isinstance(x, (mp.mpc, mp.mpf)):
        return repr(getattr(x, "_mpc_", None) or x._mpf_)
    if isinstance(x, Spectrum):
        return value([(c.value, c.multiplicity, c.log) for c in x.clusters])
    if isinstance(x, np.ndarray):
        items = list(x.ravel()) if x.dtype == np.clongdouble else x.ravel().tolist()
        return f"{x.shape}{x.dtype}" + value(items)
    if isinstance(x, (np.clongdouble, np.longdouble)):
        return f"{np.real(x)!r},{np.imag(x)!r}"
    if isinstance(x, (list, tuple)):
        return "[" + ";".join(map(value, x)) + "]"
    return repr(x)


def outcome(f) -> str:
    """The value of ``f()`` and the warnings it raised, or its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = value(f())
        except Exception as exc:  # the error is part of the digest
            out = f"{type(exc).__name__}: {exc}"
    return out + "".join(f" !{w.category.__name__}: {w.message}" for w in caught)


def tier(paper, working: bool) -> list:
    """The tier's form rounded to extended and double precision, or (``working``)
    its values at working precision: the spectrum's ``mpc`` logs and ``mu``."""
    hp = paper.high_precision
    if hp is None:
        return [None]
    if working:
        return [hp.spectrum, [hp.mu_mp(z) for z in ZS]]
    return [hp.dps, hp.relation.work, hp.relation_residual, hp.coeffs.e, [hp.mu(z) for z in ZS]]


def library_records(a) -> dict:
    """What is hashed of one matrix, each record a thunk that may raise.  The
    records of a relation supplied without its residual, which the tier
    refines, at working precision are ``refined``; all others ``library``."""
    rep = functools.cache(lambda: build_flow(a))
    paper = functools.cache(lambda: rep().paper)
    bare = functools.cache(lambda: AnnihilatorPolynomial(paper().relation.coeffs))  # no residual
    forms = {
        "discovered": paper,
        "supplied": lambda: build_flow(a, paper().relation).paper,
        "bare": lambda: build_flow(a, bare()).paper,
        "companion": lambda: CompanionFlow(paper().relation),
        "companion-bare": lambda: CompanionFlow(bare()),
    }
    records = {
        "spectrum": lambda: rep().spectrum,
        "evaluate": lambda: [evaluate_flow(rep(), z) for z in ZS],
        "condition": lambda: [rep().evaluation_condition(z) for z in ZS],
        "relation": lambda: [paper().relation.coeffs, paper().relation.work, paper().relation_residual],
        "paper": lambda: [paper().coeffs.e, [paper().mu(z) for z in ZS], [paper().power(z) for z in ZS]],
        "companion-mu": lambda: [CompanionFlow(paper().relation).mu(z) for z in ZS],
        "evaluate-matrix": lambda: [paper().relation.evaluate_matrix(a), validate_relation(a, paper().relation)],
        "characteristic": lambda: characteristic_polynomial(a).work,
    }
    for name, form in forms.items():
        records[f"tier-{name}"] = lambda form=form: tier(form(), False)
        records[f"tier-{name}-working"] = lambda form=form: tier(form(), True)
    return records


def ladder16() -> list:
    """The n = 12 and 16 distinct and defective matrices of the benchmark's ladder at seed 0."""
    rng = np.random.default_rng(0)
    out = []
    for n in (12, 16):
        case = distinct_case(rng, n)
        t, lam = case.transform, np.diag([lam for lam, _ in case.blocks])
        out += [t @ lam @ np.linalg.inv(t), defective_case(rng, n).matrix]
    return out


def library_inputs() -> dict:
    inputs = {}
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        inputs.update({f"suite{seed}-{i}": random_suite_case(rng).matrix for i in range(50)})
    inputs.update({f"ladder0-{i}": a for i, a in enumerate(ladder16())})
    return inputs


def cli_runs(folder: Path) -> dict:
    rng = np.random.default_rng(19)
    matrices = {
        "identity": np.eye(2),
        "unipotent": [[1.0, 1.0], [0.0, 1.0]],
        "diag23": np.diag([2.0, 3.0]),
        "jordan2": [[5.0, 1.0], [0.0, 5.0]],
        "singular": np.diag([1.0, 0.0]),
        "random4": rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
        "ladder0-n12-distinct": ladder16()[0],
        "ladder0-n12-defective": ladder16()[1],
    }
    runs = {"formula-relation": ["formula", "--relation", "5,-6", "--at", "0.5"]}
    for name, a in matrices.items():
        path = str(folder / f"{name}.json")
        with open(path, "w") as fh:
            write_matrix(np.asarray(a, dtype=np.complex128), fh)
        try:
            q = build_flow(a).relation
            rel = ",".join(format_complex(c) for c in q.coeffs[::-1])
        except Exception:
            rel = "5,-6"
        commands = {
            "analyze": ["analyze", path],
            "analyze-json": ["analyze", path, "--json"],
            "formula": ["formula", path, "--at", "0.5+0.25i"],
            "formula-json": ["formula", path, "--json", "--at", "-1.7"],
            "formula-relation": ["formula", "--relation", rel, "--at", "0.5+0.25i"],
            "pow": ["pow", path, "--z", "0.5+0.25i"],
            "pow-companion": ["pow", path, "--z", "-1.7", "--method", "companion"],
            "pow-relation": ["pow", path, "--z", "0.5", "--relation", rel, "--method", "companion"],
            "analyze-relation": ["analyze", path, "--relation", rel, "--json"],
            "verify": ["verify", path, "--json", "--samples", "4"],
            "verify-vandermonde": ["verify", path, "--method", "vandermonde", "--samples", "4"],
        }
        runs.update({f"{name}/{k}": v for k, v in commands.items()})
    return runs


def cli_outcome(argv: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "cflow", *argv], capture_output=True, text=True, env=env
    )
    return json.dumps([done.returncode, done.stdout, done.stderr])


def digest(records, verbose: bool, label: str) -> str:
    total = hashlib.sha256()
    for key, text in records:
        line = hashlib.sha256(text.encode()).hexdigest()
        total.update(f"{key}={line}\n".encode())
        if verbose:
            print(f"{label} {key} {line[:16]}")
    return total.hexdigest()


def main() -> None:
    verbose = "--verbose" in sys.argv[1:]
    records = {
        f"{name}/{key}": f
        for name, a in library_inputs().items()
        for key, f in library_records(a).items()
    }
    refined = [k for k in records if k.endswith("bare-working")]
    for label, keys in (("library", [k for k in records if k not in refined]), ("refined", refined)):
        print(label, digest(((k, outcome(records[k])) for k in keys), verbose, label))
    with tempfile.TemporaryDirectory() as folder:
        runs = cli_runs(Path(folder))
        text = ((k, cli_outcome(argv).replace(folder, "<dir>")) for k, argv in runs.items())
        print("cli", digest(text, verbose, "cli"))
    near = {"plus": [[1 + 2e-9j]], "minus": [[-1 + 2e-9j]], "rounding": np.diag([2 + 1e-12j, 3])}
    records = {f"{name}/{key}": f for name, a in near.items() for key, f in library_records(a).items()}
    print("near-axis", digest(((k, outcome(f)) for k, f in records.items()), verbose, "near-axis"))


if __name__ == "__main__":
    main()
