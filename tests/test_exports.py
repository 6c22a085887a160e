"""Every exported name resolves, so `from tvwalk.<module> import *` works."""

import importlib

import pytest

MODULES = [
    "tvwalk",
    "tvwalk.chain",
    "tvwalk.cli",
    "tvwalk.diagnostics",
    "tvwalk.exactgroup",
    "tvwalk.funineq",
    "tvwalk.gf2core",
    "tvwalk.protocol",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
