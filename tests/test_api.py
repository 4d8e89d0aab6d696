"""The package namespace re-exports the public names of its modules, the
names the benchmark reads exist, and nothing it runs loads ``scipy.linalg``;
outside the mpmath tier, no command loads ``numpy.ma`` or ``numpy.random``."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cflow
from cflow import annihilator, basis, flow, highprec, numeric
from cflow.matfile import write_matrix

from conftest import defective_case, distinct_case


@pytest.mark.parametrize("module", [annihilator, basis, flow, numeric], ids=lambda m: m.__name__)
def test_package_reexports_module_api(module):
    missing = [name for name in module.__all__ if not hasattr(cflow, name)]
    assert missing == []


def test_no_tolerance_object():
    # every threshold is a module constant where its decision is made
    assert not hasattr(cflow, "ToleranceConfig") and not hasattr(cflow, "DEFAULT_TOL")


def test_removed_names_stay_removed():
    # one name per computation: the paper's form is read through rep.paper,
    # the companion coefficients through CompanionFlow(q).mu, and the lemma
    # checks are the tests' own (tests/lemmas.py)
    removed = (
        "mu_functions",
        "companion_flow_mu",
        "negative_powers",
        "extend_matrix",
        "companion_action_check",
        "NotJordanForm",
    )
    assert [name for name in removed if hasattr(cflow, name) or hasattr(flow, name)] == []
    proxies = ("coeffs", "degree", "relation_residual")
    assert [name for name in proxies if hasattr(cflow.FlowRepresentation, name)] == []
    assert highprec.__all__ == ["HighPrecisionFlow"]
    # CompanionFlow is the PaperForm of its balanced companion matrix
    assert not hasattr(cflow.CompanionFlow(cflow.AnnihilatorPolynomial((-6, 5))), "representation")
    # the spectrum carries the ordered basis, and a table keeps one inverse
    assert [name for name in ("BasisDescriptor", "build_basis") if hasattr(cflow, name)] == []
    assert [name for name in ("BasisDescriptor", "build_basis") if hasattr(basis, name)] == []
    rep = cflow.build_flow(np.diag([2.0, 3.0]))
    holders = (rep, rep.paper, highprec.HighPrecisionFlow)
    assert [obj for obj in holders if hasattr(obj, "basis")] == []
    assert not hasattr(rep.paper.coeffs, "e_extended")
    # one basis kernel reads the spectrum's log array; the term table is gone
    assert not hasattr(cflow.Spectrum, "term_table")
    # a relation keeps one coefficient array, work, with coeffs its rounding
    relation = (
        "coeffs_extended",
        "monic_coefficients_extended",
        "from_monic_coefficients",
        "__call__",
        "derivative_value",
    )
    assert [name for name in relation if hasattr(rep.relation, name)] == []


def test_relation_keeps_one_coefficient_array():
    # coeffs is the rounding of work, which no one writes, and equality and
    # hashing read coeffs alone
    q = cflow.minimal_polynomial(defective_case(np.random.default_rng(0), 12).matrix)
    assert q.work.dtype == np.clongdouble
    assert np.array_equal(np.asarray(q.coeffs), (-q.work[:-1]).astype(np.complex128))
    assert not np.array_equal(q.work[:-1], np.asarray(q.coeffs, dtype=np.clongdouble))
    with pytest.raises(ValueError, match="read-only"):
        q.work[0] = 0
    with pytest.raises(AttributeError):
        q.work = q.work.copy()
    with pytest.raises(TypeError):
        cflow.AnnihilatorPolynomial(q.coeffs, work=q.work)
    supplied = cflow.AnnihilatorPolynomial(q.coeffs)
    assert not np.array_equal(supplied.work, q.work)
    assert supplied == q and hash(supplied) == hash(q)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _dotted(node) -> list:
    """``["cflow", "cli", "main"]`` for the expression ``cflow.cli.main``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def _resolves(parts: list, obj) -> bool:
    for part in parts[1:]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_benchmark_reads_exist():
    # the benchmark runs against this package, and only its separate CI job
    # saw a name that a change to the package removed
    tree = ast.parse((BENCH / "worker.py").read_text())
    for node in [n for n in ast.walk(tree) if isinstance(n, ast.Import)]:
        for alias in [a for a in node.names if a.name.startswith("cflow")]:
            importlib.import_module(alias.name)  # such as cflow.cli
    chains = {tuple(_dotted(n)) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    reads = {c for c in chains if c and c[0] in ("cflow", "rep")}
    assert {c[1] for c in reads if c[0] == "rep"} == {"high_precision", "relation"}
    tier = cflow.build_flow(defective_case(np.random.default_rng(0), 12).matrix)
    assert tier.high_precision is not None
    roots = {"cflow": cflow, "rep": tier}
    assert [".".join(c) for c in reads if not _resolves(list(c), roots[c[0]])] == []
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    for node in [n for n in imports if n.module.startswith("cflow")]:
        module = importlib.import_module(node.module)
        assert [a.name for a in node.names if not hasattr(module, a.name)] == []
    spans = ast.parse((BENCH / "spans.py").read_text())
    constants = {
        t.id: ast.literal_eval(n.value)
        for n in spans.body if isinstance(n, ast.Assign)
        for t in n.targets if isinstance(t, ast.Name) and t.id in ("LAYERS", "TRACED_CLASSES")
    }
    layers = {name: importlib.import_module(f"cflow.{name}") for name in constants["LAYERS"]}
    for layer, classes in constants["TRACED_CLASSES"].items():
        assert all(inspect.isclass(getattr(layers[layer], c, None)) for c in classes)


@pytest.mark.parametrize("module", [annihilator, basis, flow, numeric], ids=lambda m: m.__name__)
def test_no_tol_parameter(module):
    found = []
    for name in module.__all__:
        obj = getattr(module, name)
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [
                (f"{name}.{attr}", f) for attr, f in vars(obj).items()
                if inspect.isfunction(f) and not attr.startswith("_")
            ]
        for label, f in members:
            if callable(f) and "tol" in inspect.signature(f).parameters:
                found.append(label)
    assert found == []


# Run in a fresh interpreter: prints whether scipy.linalg is loaded after each
# stage, and the tier build's error against the Jordan oracle.
_LOADS = """
import contextlib, io, json, sys
import numpy as np
import cflow
from cflow.cli import main
from cflow.matfile import write_matrix
from conftest import defective_case, random_suite_case, rel_err

def loaded():
    return "scipy.linalg" in sys.modules

seen = {"import": loaded()}
case = random_suite_case(np.random.default_rng(0))
cflow.evaluate_flow(cflow.build_flow(case.matrix), 0.5 + 0.25j)
seen["build"] = loaded()
path = sys.argv[1]
with open(path, "w") as fh:
    write_matrix(case.matrix, fh)
commands = (
    ["pow", path, "--z", "0.5"],
    ["verify", path, "--json"],
    ["analyze", path, "--json"],
    ["formula", path, "--json"],
)
with contextlib.redirect_stdout(io.StringIO()):
    seen["codes"] = [main(argv) for argv in commands]
seen["cli"] = loaded()
import cflow.highprec
seen["tier_module"] = loaded()
tier = defective_case(np.random.default_rng(0), 12)
rep = cflow.build_flow(tier.matrix)
z = 0.5 + 0.25j
truth = cflow.jordan_oracle(tier.blocks, tier.transform, z)
seen["tier_error"] = rel_err(cflow.evaluate_flow(rep, z), truth)
seen["tier_dps"] = rep.high_precision.dps
rep.paper.mu(z)
seen["tier"] = loaded()
print(json.dumps(seen))
"""


def test_scipy_linalg_loads_only_in_the_tier(tmp_path):
    # (it no longer loads in the tier either: the Schur form's LAPACK comes
    # from the loader of cflow.flow)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS, str(tmp_path / "a.json")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["codes"] == [0, 0, 0, 0]
    assert not seen["import"] and not seen["build"] and not seen["cli"]
    assert not seen["tier_module"] and not seen["tier"]
    assert seen["tier_dps"] >= 35
    assert seen["tier_error"] < 1e-9


# Run in a fresh interpreter: the commands on a matrix file (a double
# eigenvalue and a simple one, outside the mpmath tier), then which of the
# two numpy submodules are loaded.
_COLD = """
import contextlib, io, json, sys
from cflow.cli import main

path = sys.argv[1]
commands = (
    ["pow", path, "--z", "0.5"],
    ["pow", path, "--z", "0.5", "--method", "companion"],
    ["verify", path, "--json"],
    ["analyze", path, "--json"],
    ["formula", path, "--json"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
print(json.dumps([codes, [m for m in ("numpy.ma", "numpy.random") if m in sys.modules]]))
"""


def test_commands_load_neither_numpy_ma_nor_numpy_random(tmp_path):
    # np.unique imports numpy.ma on first call, and numpy.random is only
    # needed for verify's exponents, which stdlib random draws
    path = tmp_path / "a.json"
    with open(path, "w") as fh:
        write_matrix(np.array([[2, 1, 0], [0, 2, 0.5], [0, 0, -3 + 1j]], dtype=complex), fh)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD, str(path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0]
    assert loaded == []


# Run in a fresh interpreter: verify --method vandermonde, then whether mpmath
# is loaded.
_VERIFY_SCHUR = """
import contextlib, io, json, sys
from cflow.cli import main

with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["verify", sys.argv[1], "--method", "vandermonde", "--json"])
print(json.dumps([code, json.loads(out.getvalue())["pass"], "mpmath" in sys.modules]))
"""


@pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
@pytest.mark.parametrize("kind", ["distinct", "defective"])
def test_verify_vandermonde_loads_no_mpmath_in_the_tier(tmp_path, kind):
    # flow_axioms was normalized by the paper's negative-power chain, so it
    # set up the paper's form, at working precision on these matrices
    rng = np.random.default_rng(0)  # the n = 12 draws of bench/inputs.ladder_cases(0)
    case = distinct_case(rng, 12)
    t, lam = case.transform, np.diag([lam for lam, _ in case.blocks])
    a = t @ lam @ np.linalg.inv(t) if kind == "distinct" else defective_case(rng, 12).matrix
    assert cflow.build_flow(a).high_precision is not None
    path = tmp_path / "a.json"
    with open(path, "w") as fh:
        write_matrix(a, fh)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_SCHUR, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, True, False]
