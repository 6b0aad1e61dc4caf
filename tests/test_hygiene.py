"""Source hygiene checks that need no linter: every name a package
module imports is used in that module (``__init__.py`` imports to
re-export, so it is exempt), and every error class is exported and
named by some module other than ``errors.py``."""

import ast
from pathlib import Path

import pytest

import q1dscatter

MODULES = sorted(p for p in Path(q1dscatter.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name loaded, including those inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            note = getattr(node, "annotation", None) or \
                getattr(node, "returns", None)
            if isinstance(note, ast.Constant) and isinstance(note.value,
                                                              str):
                used |= _used_names(ast.parse(note.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_every_error_class_is_exported_and_raised_somewhere():
    errors = next(p for p in MODULES if p.name == "errors.py")
    classes = [node.name for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)]
    assert set(classes) <= set(q1dscatter.__all__)
    used = set().union(*(_used_names(ast.parse(p.read_text()))
                         for p in MODULES if p != errors))
    assert not set(classes) - used, \
        f"error classes no other module names: {set(classes) - used}"
