"""Every name a module exports exists and is defined in that module.

A name left in ``__all__`` after its definition is deleted, or a
re-export of another module's name, would otherwise go unseen: tools that
walk ``__all__`` with ``getattr(module, name, None)`` skip it silently.
The same source scan checks that no module but ``cli`` opens a file.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import liegate

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
