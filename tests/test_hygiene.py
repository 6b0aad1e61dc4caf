"""Source hygiene checks that need no linter: every name a package
module imports is used in that module (``__init__.py`` imports to
re-export, so it is exempt), every error class is exported and named by
some module other than ``errors.py``, every name the README's library
tour lists is exported, and no function result is memoized across
calls but the CLI's parser."""

import ast
import re
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


def test_library_tour_names_are_exported():
    """Every backticked identifier in the README's "Library tour" table
    and in the typed-exception sentence below it is in ``__all__``
    (dotted names such as ``.from_mapping`` are not identifiers)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in tour.splitlines() if line.startswith("| ")]
    sentence = tour[tour.index("All solvers raise typed exceptions"):]
    sentence = sentence.split("\n\n", 1)[0]
    names = {name for name in re.findall(r"`([^`]+)`",
                                         "\n".join(rows) + sentence)
             if name.isidentifier()}
    assert {"build_kernel", "StripProblem", "OpenChannel"} <= names
    assert not names - set(q1dscatter.__all__), \
        f"README lists names the package does not export: " \
        f"{sorted(names - set(q1dscatter.__all__))}"


_MEMOS = {"cache", "lru_cache"}


def _memo_uses(tree: ast.Module) -> list[str]:
    """Where a module uses ``functools.cache``/``lru_cache``, by any
    import name: the decorated function's name, or ``"<call>"`` for a
    use that decorates nothing."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name in _MEMOS}

    def is_memo(node):
        return ((isinstance(node, ast.Name) and node.id in names
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr in _MEMOS
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules))

    decorators = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                decorators[id(target)] = node.name
    return sorted(decorators.get(id(node), "<call>")
                  for node in ast.walk(tree) if is_memo(node))


def test_only_the_parser_is_memoized():
    """A memo that outlived one call would let a later in-process call
    (the benchmark drives ``cli.main`` repeatedly) reuse an earlier
    call's work; the CLI's argument parser holds no results."""
    uses = {path.name: _memo_uses(ast.parse(path.read_text()))
            for path in Path(q1dscatter.__file__).parent.glob("*.py")}
    uses = {name: found for name, found in uses.items() if found}
    assert uses == {"cli.py": ["build_parser"]}
    probe = ast.parse("import functools as ft\nfrom functools import "
                      "lru_cache as memo\n@ft.cache\ndef a(): pass\n"
                      "@memo(maxsize=4)\ndef b(): pass\nc = ft.lru_cache(f)")
    assert _memo_uses(probe) == ["<call>", "a", "b"]
