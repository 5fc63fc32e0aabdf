"""Public names: each library module exports exactly what the package's export table takes from it."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasechain
from conftest import child_env

LIBRARY_MODULES = ("fields", "oscillator", "wigner", "moyal", "vlasov", "vonneumann", "fieldfile")


def test_the_export_table_lists_every_library_module():
    assert sorted(phasechain._EXPORTS) == sorted(LIBRARY_MODULES)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_all_matches_the_package_imports(name):
    module = importlib.import_module(f"phasechain.{name}")
    assert sorted(module.__all__) == sorted(phasechain._EXPORTS[name])
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


def test_every_module_level_function_and_class_is_exported_or_used():
    # a helper that no module lists in __all__ or reads (as a name or an attribute) is dead code
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(phasechain.__file__).parent.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            used.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
    dead = {}
    for stem, tree in trees.items():
        module = phasechain if stem == "__init__" else importlib.import_module(f"phasechain.{stem}")
        exported = set(getattr(module, "__all__", ()))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
                    and node.name not in exported | used):
                dead[f"{stem}.{node.name}"] = node.lineno
    assert dead == {}


# ---------------------------------------------------------------------------
# lazy loading: a library module runs on the first access to one of its attributes

LAZY_MODULES = (*LIBRARY_MODULES, "checks")

# prints the library modules that have run; type() reads a lazy module's class without loading it
LOADED = ("import sys, types; print(sorted(n for n in %r if type(sys.modules['phasechain.' + n]) is types.ModuleType))"
          % (LAZY_MODULES,))


def loaded_after(code: str) -> list:
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{LOADED}"], capture_output=True, text=True,
                          timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_import_runs_no_library_module():
    assert loaded_after("import phasechain, phasechain.cli") == []


@pytest.fixture(scope="module")
def small_w4(tmp_path_factory):
    """An 8^4 W (wide enough for a residual's valid region at order 4) and a potential file beside it."""
    path = tmp_path_factory.mktemp("lazy") / "w4.fld"
    axes = tuple(phasechain.make_axis(n, -1.0, 1.0, 8) for n in ("x", "v", "vdot", "vddot"))
    phasechain.write_field(phasechain.RealField(axes, np.ones((8, 8, 8, 8))), path)
    path.with_name("u.txt").write_text("0 2 1.5\n2 0 -0.5\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("argv, loaded", [
    (["gen-ho", "--nx", "8", "--nv", "8", "--out", "{out}"], ["fieldfile", "fields", "moyal", "oscillator"]),
    (["marginal", "--in", "{w4}", "--axis", "vddot", "--out", "{out}"], ["fieldfile", "fields"]),
    (["export-csv", "--in", "{w4}", "--slice", "vdot=0,vddot=0", "--out", "{out}"], ["fieldfile", "fields"]),
    (["residual", "--in", "{w4}", "--potential", "{u}", "--mode", "vlasov124"],
     ["fieldfile", "fields", "moyal", "oscillator", "vlasov"]),
], ids=["gen-ho", "marginal", "export-csv", "residual-vlasov124"])
def test_a_command_runs_only_the_modules_it_calls(small_w4, tmp_path, argv, loaded):
    argv = [a.format(w4=small_w4, u=small_w4.with_name("u.txt"), out=tmp_path / "out") for a in argv]
    code = f"from phasechain.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code) == loaded


def test_every_export_resolves_to_its_module_attribute():
    for name, module in phasechain._ORIGIN.items():
        assert getattr(phasechain, name) is getattr(importlib.import_module(f"phasechain.{module}"), name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        phasechain.no_such_name  # noqa: B018


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from phasechain import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(phasechain.__all__)
    assert set(phasechain.__all__) <= set(dir(phasechain))
    assert len(phasechain.__all__) == len(set(phasechain.__all__))
