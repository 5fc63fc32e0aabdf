"""Public names: each library module exports exactly what the package's export table takes from it."""

import ast
import importlib
import re
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


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_all_is_read_from_the_export_table(name):
    # the table is the one list of public names: no library module writes its own
    module = importlib.import_module(f"phasechain.{name}")
    assert module.__all__ == list(phasechain._EXPORTS[name])
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    bindings = [ast.unparse(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                or isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == "__all__"]
    assert bindings == [f"list(_EXPORTS[{name!r}])"]


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
    used |= set(importlib.import_module(f"phasechain.{path.stem}").__all__)
    assert {name: line for name, line in imported.items() if name not in used} == {}


@pytest.mark.parametrize("stem", ["cli", "checks"])
def test_the_cli_and_the_checks_read_only_public_names_of_other_modules(stem):
    # the paths they run are reachable from the public API: no `from .m import _x` and no `m._x` on a package module
    package = Path(phasechain.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    tree = ast.parse((package / f"{stem}.py").read_text(encoding="utf-8"))
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "phasechain"):
            for alias in node.names:
                if alias.name in modules:
                    bound.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
        elif isinstance(node, ast.Import):
            bound.update(alias.asname for alias in node.names
                         if alias.asname and alias.name.removeprefix("phasechain.") in modules)
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
                and node.attr.startswith("_") and not node.attr.endswith("__")]
    assert private == []


@pytest.mark.parametrize("name", sorted(phasechain._ORIGIN))
def test_every_export_has_a_docstring(name):
    assert (getattr(phasechain, name).__doc__ or "").strip()


def test_every_module_level_function_and_class_is_exported_or_used():
    # a helper, constant or table that no module lists in __all__ or reads (as a name or an attribute) is dead code
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(phasechain.__file__).parent.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = {}
    for stem, tree in trees.items():
        module = phasechain if stem == "__init__" else importlib.import_module(f"phasechain.{stem}")
        exported = set(getattr(module, "__all__", ()))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__") and name not in exported | used:
                    dead[f"{stem}.{name}"] = node.lineno
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


def test_the_check_suite_loads_no_random_module_of_numpy():
    # the suite draws its seeded points from the stdlib's generator: NumPy's took 6.1 MiB of RSS to load
    code = ("import sys\nfrom phasechain.checks import run_ho_suite\nassert run_ho_suite().ok\n"
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=child_env())
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("path", sorted(Path(phasechain.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_names_the_random_module_of_numpy(path):
    text = path.read_text(encoding="utf-8")
    assert not re.findall(r"numpy\.random|np\.random|default_rng|from numpy import[^\n]*\brandom\b", text)


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


@pytest.mark.parametrize("mode", ["vlasov123", "vlasov124", "vlasov12"])
def test_a_chain_residual_makes_one_pass_over_w(small_w4, monkeypatch, mode):
    # vlasov124's two fluxes share their denominator, so one pass sums it and both numerators
    fields, cli = importlib.import_module("phasechain.fields"), importlib.import_module("phasechain.cli")
    ranks, loops = [], {name: getattr(fields, name) for name in ("_grid_slabs", "_axis_sums")}

    def counted(name):
        def pass_over(source, *args):
            ranks.append(len(fields._axes_of(source)))
            return loops[name](source, *args)
        return pass_over

    for module in ("fields", "moyal", "vlasov"):  # every module that runs a grid loop or a moment pass
        module = importlib.import_module(f"phasechain.{module}")
        for name in loops:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name))
    assert cli.main(["residual", "--in", str(small_w4), "--potential", str(small_w4.with_name("u.txt")),
                     "--mode", mode]) == 0
    assert ranks.count(4) == 1


def test_every_export_resolves_to_its_module_attribute():
    for name, module in phasechain._ORIGIN.items():
        assert getattr(phasechain, name) is getattr(importlib.import_module(f"phasechain.{module}"), name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        phasechain.no_such_name  # noqa: B018


def traced_targets() -> list:
    """(module, function) of each row of TARGETS in benchmarks/tracer.py, read from its source, not imported."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    return [tuple(ast.literal_eval(cell) for cell in row.elts[:2]) for row in table.elts]


def test_every_name_the_benchmark_traces_resolves():
    # the traced benchmark pass wraps these by name, and a renamed one would fail only there
    targets = traced_targets()
    assert ("wigner", "wigner4") in targets
    missing = []
    for module, name in targets:
        function = getattr(importlib.import_module(f"phasechain.{module}"), name, None)
        library = module in phasechain._EXPORTS
        if not callable(function) or library and getattr(phasechain, name, None) is not function:
            missing.append(f"{module}.{name}")
    assert missing == []
    assert callable(phasechain.PointwiseField.derivative)


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from phasechain import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(phasechain.__all__)
    assert set(phasechain.__all__) <= set(dir(phasechain))
    assert len(phasechain.__all__) == len(set(phasechain.__all__))


BLAS_CALLS = {"matmul", "dot", "vdot", "inner", "tensordot"}


def matrix_products(path: Path) -> list:
    """(module, top-level function or class) of each `@`, `@=` and call of a BLAS product like np.matmul in a module."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            called = getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None
            matmult = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            if called in BLAS_CALLS or matmult:
                found.append((path.stem, getattr(top, "name", None)))
    return found


def test_matrix_products_stay_in_the_stencil_and_vonneumann():
    # the CLI caps OpenBLAS at one thread because _stencil sizes each BLAS call for its calling thread and
    # vonneumann's 8 x 8 matrices lie on no CLI path; a product anywhere else would quietly run on one thread
    found = [site for path in Path(phasechain.__file__).parent.glob("*.py") for site in matrix_products(path)]
    assert ("fields", "_stencil") in found
    assert [(module, name) for module, name in found if module != "vonneumann" and name != "_stencil"] == []


def call_sites(name: str) -> list:
    """(module, top-level function or class) of each call of the function `name` in the package's modules."""
    found = []
    for path in sorted(Path(phasechain.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == name:
                    found.append((path.stem, getattr(top, "name", None)))
    return found


def test_every_grid_pass_runs_on_the_one_tiler():
    # grid loops, reductions, the finiteness scan and the transform alike take their tiles from _grid_tiles; only
    # the stencil loops and the transform run them on the pool, and the scan (in the constructor, the one scan a
    # field gets) and the moment sums read a field's tiles on the calling thread
    assert sorted(set(call_sites("_map_slabs"))) == [("fields", "_grid_slabs"), ("wigner", "transform_rows")]
    assert sorted(set(call_sites("_grid_tiles"))) == [
        ("fields", "_field_tiles"), ("fields", "_grid_slabs"), ("wigner", "transform_rows")]
    assert set(call_sites("_field_tiles")) == {("fields", "_BaseField"), ("fields", "_axis_sums")}
    # the worker count sizes only the pool, never a tile or a buffer list
    assert set(call_sites("_workers")) == {("fields", "_map_slabs")}
    # _axis_sums is the one moment loop, and the one reader of a stream's blocks
    assert set(call_sites("_axis_sums")) == {("fields", "integrate_axis"), ("vlasov", "_moment_ratio")}
    assert set(call_sites("_stream_views")) == {("fields", "_axis_sums")}


def test_a_streams_blocks_never_reach_the_slab_pool(monkeypatch):
    # a block is valid only until the next is asked for, so the calling thread sums each as it arrives, as it sums
    # a field's tiles: the pool runs only the residuals' stencil loops over the members' densities
    fields = importlib.import_module("phasechain.fields")
    monkeypatch.setattr(fields, "_workers", lambda: 2)
    monkeypatch.setattr(fields, "_TILE_BYTES", 1)  # one v-row a tile
    ranks, pool_loops, grid_slabs, map_slabs = [], [], fields._grid_slabs, fields._map_slabs

    def grid_loop(field, *args):
        ranks.append(field.rank)
        return grid_slabs(field, *args)

    def pool_loop(task, ranges):
        pool_loops.append(len(ranges))
        return map_slabs(task, ranges)

    for module in ("fields", "moyal", "vlasov"):  # every module that runs a grid loop
        monkeypatch.setattr(importlib.import_module(f"phasechain.{module}"), "_grid_slabs", grid_loop)
    monkeypatch.setattr(fields, "_map_slabs", pool_loop)
    axes = tuple(phasechain.make_axis(n, -1.0, 1.0, 8) for n in ("x", "v", "vdot", "vddot"))
    w4 = phasechain.RealField(axes, np.exp(-sum(c * c for c in np.meshgrid(*[a.points() for a in axes],
                                                                           indexing="ij", sparse=True))))

    def stream():
        return axes, (((slice(lo, hi), slice(v0, v1)), w4.data[lo:hi, v0:v1])
                      for lo, hi, v0, v1 in fields._grid_tiles(w4.data.shape))

    p, u = phasechain.PhysParams(), phasechain.PolynomialPotential(((2, 0, 0.5),))
    phasechain.integrate_axis(stream(), "vdot")
    phasechain.accel_flux_124_from_w4(stream(), u, p)
    assert ranks == pool_loops == []
    phasechain.mean_flux_from_w4(stream(), "12-vel", p)  # its moments run over the rank-3 vddot marginal
    for member in ("w123", "w124", "w12"):  # each residual runs over its density
        phasechain.chain_residual(member, stream(), u, p, phasechain.StencilScheme(), 0.1)
    assert ranks == [3, 3, 2] and len(pool_loops) == len(ranks)
