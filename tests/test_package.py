"""Public names: each library module exports exactly what the package imports from it."""

import ast
import importlib
import inspect

import pytest

import phasechain

LIBRARY_MODULES = ("fields", "oscillator", "wigner", "moyal", "vlasov", "vonneumann", "fieldfile")


def package_imports() -> dict:
    tree = ast.parse(inspect.getsource(phasechain))
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_all_matches_the_package_imports(name):
    module = importlib.import_module(f"phasechain.{name}")
    assert sorted(module.__all__) == sorted(package_imports()[name])
    assert set(module.__all__) <= set(phasechain.__all__)
