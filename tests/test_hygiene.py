"""Source hygiene checks that need no linter: every name a package
module imports is used in that module (``__init__.py`` imports to
re-export, so it is exempt), every error class is exported and named by
some module other than ``errors.py``, every name the README's library
tour lists is exported, no function result is memoized across calls but
the CLI's parser, every name the benchmark's tracer wraps exists, the
two-body pair rows are formed in one place, only ``traps.py`` reads the
auto-grid caps, no module imports ``scipy.optimize`` or
``scipy.integrate``, and every public name is read from the module that
defines it, which loads only when asked for."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    """``perfbench/tracing.py`` wraps each (module, name) of its
    ``SPANNED``, ``COUNTED`` and ``SOLVERS`` tables by ``getattr`` when
    it installs; a name a refactor renamed or removed would crash every
    traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    named = ([(module, name) for module, name, _ in tracing.SPANNED]
             + list(tracing.COUNTED) + list(tracing.SOLVERS))
    assert ("two_body", "build_kernel") in named
    missing = [f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"q1dscatter.{module}"),
                              name)]
    assert not missing, f"traced names q1dscatter lacks: {missing}"


def _functions_using(tree: ast.Module, uses) -> set[str]:
    """Names (``Class.method`` for methods) of the module-level functions
    and methods of `tree` with a node for which `uses` is true."""
    defs = [(node.name, node) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef)]
    return {name for name, node in defs
            if any(uses(sub) for sub in ast.walk(node))}


def _calls(name):
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def _reads(attr):
    return lambda node: isinstance(node, ast.Attribute) and node.attr == attr


def test_pair_rows_are_formed_only_in_the_block_helper():
    """The pair rows S (n_channels x n_y) are products of the transverse
    wavefunctions on the collision sector.  Only
    ``two_body._pair_row_blocks`` takes that sector, and it forms S a
    block of channels at a time; in ``two_body.py`` the wavefunctions
    are read only to cut that sector.  So no other code can hold S
    whole."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    takers = {f"{name}:{func}" for name, tree in trees.items()
              for func in _functions_using(tree, _calls("_collision_sector"))}
    assert takers == {"two_body.py:_pair_row_blocks"}
    assert _functions_using(trees["two_body.py"], _reads("wavefunctions")) \
        == {"_collision_sector"}
    probe = ast.parse("def f(s): return g(s.wavefunctions)\n"
                      "class K:\n"
                      "    def m(self): return h(_collision_sector(1))")
    assert _functions_using(probe, _calls("_collision_sector")) == {"K.m"}
    assert _functions_using(probe, _reads("wavefunctions")) == {"f"}


def _names(tree: ast.AST) -> set[str]:
    """Every name a module loads, binds or imports."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}


def test_only_traps_names_the_grid_caps():
    """Which grids a trap is solved on is decided in ``traps.py`` alone
    (``traps._grids``); no other module reads the auto-grid caps."""
    owners = {path.name for path in MODULES
              if {"_MAX_AUTO_Y", "_MAX_BOX_Y"} & _names(ast.parse(
                  path.read_text()))}
    assert owners == {"traps.py"}


_DEFERRED = ("scipy.optimize", "scipy.integrate")


def _scipy_imports(tree: ast.AST) -> set[str]:
    """The ``scipy.optimize``/``scipy.integrate`` modules `tree` imports,
    at module level or inside a function, in any import form."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{alias.name}"
                                       for alias in node.names]
        else:
            continue
        found |= {m for m in _DEFERRED for module in modules
                  if module == m or module.startswith(m + ".")}
    return found


def test_no_module_imports_optimize_or_integrate():
    """The lane root finder ``ring.brentq`` and the batched quadrature
    ``continuum.quad`` are numpy code: no module imports
    ``scipy.optimize`` or ``scipy.integrate``, which cost about 0.6 s
    of a fresh start between them."""
    found = {path.name: _scipy_imports(ast.parse(path.read_text()))
             for path in Path(q1dscatter.__file__).parent.glob("*.py")}
    assert not {name: mods for name, mods in found.items() if mods}
    probe = ast.parse("def f():\n    from scipy.optimize import brentq\n"
                      "import scipy.integrate as si\nfrom scipy import "
                      "optimize\nfrom scipy.linalg import eigh")
    assert _scipy_imports(probe) == set(_DEFERRED)


def _defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by ``def``, ``class`` or
    assignment (not by import)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target)
                          if isinstance(n, ast.Name)}
    return names


def test_package_exports_resolve_from_their_defining_module(monkeypatch):
    """Every ``__all__`` name resolves, ``from q1dscatter import *``
    binds each, ``dir`` lists them, and each is read from the one module
    whose source defines it, on every access: a name patched there (as
    tests and the benchmark's tracer patch them) is what the package
    returns.  An unknown name is an ``AttributeError``."""
    definers = {path.stem: _defined_names(ast.parse(path.read_text()))
                for path in MODULES}
    star: dict[str, object] = {}
    exec("from q1dscatter import *", star)
    assert set(star) - {"__builtins__"} == set(q1dscatter.__all__)
    assert set(q1dscatter.__all__) <= set(dir(q1dscatter))
    for name in q1dscatter.__all__:
        if name == "__version__":
            continue
        owner, = [module for module, names in definers.items()
                  if name in names]
        module = importlib.import_module(f"q1dscatter.{owner}")
        assert star[name] is getattr(module, name), name
        sentinel = object()
        monkeypatch.setattr(module, name, sentinel)
        assert getattr(q1dscatter, name) is sentinel, (name, owner)
        monkeypatch.undo()
        assert getattr(q1dscatter, name) is star[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        q1dscatter.no_such_name  # noqa: B018


def test_package_import_loads_no_submodule():
    """A fresh ``import q1dscatter`` loads none of its modules; a
    submodule attribute such as ``q1dscatter.two_body`` and a public
    name each load theirs on first access."""
    script = """
import json, sys
import q1dscatter as q
loaded = lambda: sorted(m for m in sys.modules if m.startswith("q1dscatter"))
steps = [loaded()]
names = [q.two_body.__name__, q.single_particle.__name__]
steps.append(loaded())
steps.append(q.StripProblem.__module__)
print(json.dumps([steps, names]))
"""
    root = str(Path(q1dscatter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    steps, names = json.loads(proc.stdout.splitlines()[-1])
    assert steps == [["q1dscatter"],
                     ["q1dscatter", "q1dscatter.errors",
                      "q1dscatter.single_particle", "q1dscatter.traps",
                      "q1dscatter.two_body"],
                     "q1dscatter.oracle"]
    assert names == ["q1dscatter.two_body", "q1dscatter.single_particle"]
