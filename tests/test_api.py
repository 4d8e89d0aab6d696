"""The package namespace re-exports the public names of its modules."""

import pytest

import cflow
from cflow import annihilator, basis, flow, numeric


@pytest.mark.parametrize("module", [annihilator, basis, flow, numeric], ids=lambda m: m.__name__)
def test_package_reexports_module_api(module):
    missing = [name for name in module.__all__ if not hasattr(cflow, name)]
    assert missing == []
