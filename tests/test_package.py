"""Public names: each library module exports exactly what the package imports from it."""

import ast
import importlib
import inspect
from pathlib import Path

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


@pytest.mark.parametrize("path", sorted(set(Path(phasechain.__file__).parent.glob("*.py"))
                                         - {Path(phasechain.__file__)}), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    # ast only, so no linter is needed: a name counts as used when the module reads it or lists it in __all__
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    assert {name: line for name, line in imported.items() if name not in used} == {}
