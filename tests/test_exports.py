"""Every name a module exports exists and is defined in that module.

A name left in ``__all__`` after its definition is deleted, or a
re-export of another module's name, would otherwise go unseen: tools that
walk ``__all__`` with ``getattr(module, name, None)`` skip it silently.
The same source scan checks that no module but ``cli`` opens a file,
that no module imports scipy, that
``verify`` checks only solvers the CLI calls, that no module but
``paramflow`` names a route's solver, and that the presets import
none of the checks, that only ``paramflow`` reads a trajectory's
solutions, that no module imports another's private name, and the
benchmark's span recorder still finds every name it wraps.
"""

import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import liegate
import liegate.cli
import liegate.verify

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

MODULES = sorted(info.name for info in pkgutil.iter_modules(liegate.__path__))


def top_level_definitions(path: str) -> set[str]:
    """Names bound at module level by def, class or assignment (not import)."""
    names = set()
    for node in ast.parse(pathlib.Path(path).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_its_own(name):
    module = importlib.import_module(f"liegate.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    defined = top_level_definitions(module.__file__)
    assert [n for n in exported if n not in defined] == []


def test_package_exports_exist():
    assert [n for n in liegate.__all__ if not hasattr(liegate, n)] == []


def opens_files(path: str) -> bool:
    """Whether the module's source calls ``open`` (a name or an attribute)."""
    for node in ast.walk(ast.parse(pathlib.Path(path).read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                return True
    return False


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_library_leaves_files_to_the_cli(name):
    # the library returns data; cli owns every file format and writes every file
    assert not opens_files(importlib.import_module(f"liegate.{name}").__file__)


def imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy")


def scipy_imports(path: str) -> list[int]:
    """The line of each scipy import in the module's source, at any depth."""
    tree = ast.parse(pathlib.Path(path).read_text())
    return [node.lineno for node in ast.walk(tree) if imports_scipy(node)]


@pytest.mark.parametrize("name", MODULES)
def test_scipy_is_imported_only_where_it_runs(name):
    # scipy costs a process most of its start-up and runs nowhere in the
    # package: the parameter solves and the oracle run on its own DOP853
    # and RK45, tabulated profiles on its own natural spline, and greens
    # applies kernels with numpy.fft.  scipy is a test dependency only.
    assert scipy_imports(importlib.import_module(f"liegate.{name}").__file__) == []


def test_the_scipy_scan_sees_nested_imports(tmp_path):
    source = tmp_path / "nested.py"
    source.write_text("import math\n\ndef f():\n    from scipy.interpolate import CubicSpline\n"
                      "    import scipy.linalg as la\n")
    assert scipy_imports(str(source)) == [4, 5]


def paramflow_names(path: str) -> set[str]:
    """Every ``paramflow.<name>`` the module's source reads."""
    return {node.attr for node in ast.walk(ast.parse(pathlib.Path(path).read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "paramflow"}


SOLVERS = {"solve_path1", "solve_path2", "solve_2d"}


def solver_names(path: str) -> list[int]:
    """The line of each name, attribute or import in the module's source that
    is one of SOLVERS."""
    lines = []
    for node in ast.walk(ast.parse(pathlib.Path(path).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
        lines += [node.lineno for name in names if name in SOLVERS]
    return sorted(lines)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "paramflow"])
def test_only_paramflow_chooses_a_solver(name):
    # the CLI and verify solve through paramflow.solve, so verify checks the
    # solvers the CLI ships by construction
    assert solver_names(importlib.import_module(f"liegate.{name}").__file__) == []


def test_the_solver_scan_sees_every_kind_of_reference(tmp_path):
    source = tmp_path / "chooser.py"
    source.write_text("from .paramflow import solve_2d\nfrom . import paramflow\n\n"
                      "def f(cs):\n    return paramflow.solve_path1(cs, 1.0)\n\n"
                      "g = solve_path2\n")
    assert solver_names(str(source)) == [1, 5, 7]


def test_verify_checks_the_solvers_the_cli_ships():
    # a solver only verify calls would be checked while no output comes from it
    checked = paramflow_names(liegate.verify.__file__)
    assert checked and checked - paramflow_names(liegate.cli.__file__) == set()


# a trajectory's dense solutions and compiled coefficients
SOLUTIONS = {"_base", "_riccati", "_dense", "_a", "_c"}


def solution_reads(path: str, own: bool = False) -> list[int]:
    """The line of each read of a SOLUTIONS attribute of an object other
    than ``self`` (an object's own private fields are its own business),
    and, if ``own``, of ``self``'s too."""
    return [node.lineno for node in ast.walk(ast.parse(pathlib.Path(path).read_text()))
            if isinstance(node, ast.Attribute) and node.attr in SOLUTIONS
            and (own or not (isinstance(node.value, ast.Name) and node.value.id == "self"))]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "paramflow"])
def test_only_paramflow_and_maps_read_trajectory_solutions(name):
    # paramflow solves, samples and reads the Heisenberg map's parts; maps,
    # the kernels and everything else take what it returns
    assert solution_reads(importlib.import_module(f"liegate.{name}").__file__) == []


def test_the_solution_scan_sees_the_map_reads(tmp_path):
    # the trajectories read their own solves; another object's read counts
    # without ``own``
    paramflow = importlib.import_module("liegate.paramflow").__file__
    assert solution_reads(paramflow, own=True) != []
    source = tmp_path / "reader.py"
    source.write_text("def f(tr, t):\n    return tr._riccati(t), tr._a\n")
    assert solution_reads(str(source)) == [2, 2]


def package_imports(path: str) -> set[str]:
    """The package modules a module's source imports relatively."""
    names = set()
    for node in ast.walk(ast.parse(pathlib.Path(path).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


def private_imports(path: str) -> list[str]:
    """``line name`` of each ``_``-prefixed name the module's source imports
    from another package module."""
    return [f"{node.lineno} {alias.name}"
            for node in ast.walk(ast.parse(pathlib.Path(path).read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_another_modules_private_name(name):
    # a private name is its module's own business: what a module needs of
    # another is public, or a method of the object it was handed
    assert private_imports(importlib.import_module(f"liegate.{name}").__file__) == []


def test_the_private_import_scan_sees_nested_imports(tmp_path):
    source = tmp_path / "private.py"
    source.write_text("from .maps import _parts, assemble_2d\nfrom . import ode\n\n"
                      "def f():\n    from .paramflow import ParamSample, _check_solved\n")
    assert private_imports(str(source)) == ["1 _parts", "5 _check_solved"]


def test_presets_do_not_depend_on_the_checks():
    # a preset accepts every system the solvers take; the closed forms and the
    # oracle only check solves, and verify builds on the presets
    presets = importlib.import_module("liegate.presets").__file__
    assert package_imports(presets) & {"closedforms", "oracle", "verify"} == set()


def test_benchmark_spans_find_every_wrapped_name():
    # perfbench/spans.py wraps methods and verify checks by name; a renamed
    # or deleted one fails the traced benchmark run, so catch it here.  The
    # source is executed, not imported, so nothing is written beside it.
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    recorder = spans.Recorder()
    try:
        recorder.instrument(liegate)
    finally:
        recorder.close()
    assert [n for n in spans.VERIFY_CHECKS if not hasattr(liegate.verify, n)] == []
