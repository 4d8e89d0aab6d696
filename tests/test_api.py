"""The package namespace re-exports the public names of its modules, and
nothing it runs loads ``scipy.linalg``; outside the mpmath tier, no command
loads ``numpy.ma`` or ``numpy.random``."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cflow
from cflow import annihilator, basis, flow, numeric
from cflow.matfile import write_matrix


@pytest.mark.parametrize("module", [annihilator, basis, flow, numeric], ids=lambda m: m.__name__)
def test_package_reexports_module_api(module):
    missing = [name for name in module.__all__ if not hasattr(cflow, name)]
    assert missing == []


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
cflow.mu_functions(rep, z)
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
