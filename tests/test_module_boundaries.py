"""Module boundaries inside the package, read from its source with ``ast``.

An underscore name is private to the module that defines it: a module
that reads another's depends on a detail its owner may change.  A name
in ``__all__`` is a promise that ``from module import *`` must keep.
"""

import ast
import importlib
from pathlib import Path

import pytest

import vdicke

SOURCES = sorted(Path(vdicke.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(filename: str, text: str) -> list[str]:
    """``file:line name`` for each underscore name the source reads from another vdicke module."""
    tree = ast.parse(text)
    modules, found = set(), []  # local names bound to vdicke modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "vdicke"):
            for alias in node.names:
                if node.module in (None, "vdicke"):  # from . import exactdiag
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{filename}:{node.lineno} {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "vdicke":
                    modules.add(alias.asname or "vdicke")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{filename}:{node.lineno} {node.attr}")
    return found


def test_the_guard_finds_every_kind_of_private_read():
    probe = ("from . import exactdiag\n"
             "from .meanfield import _branch_table, classify\n"
             "import vdicke.scan\n"
             "import vdicke.model as model\n"
             "exactdiag._hold_tail, exactdiag.solve_point, exactdiag.__name__\n"
             "vdicke.scan._classified, model._quadratic_roots, self._own\n")
    assert sorted(_foreign_private_reads("probe.py", probe)) == [
        "probe.py:2 _branch_table", "probe.py:5 _hold_tail", "probe.py:6 _classified",
        "probe.py:6 _quadratic_roots"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_reads_another_modules_private_names(path):
    assert _foreign_private_reads(path.name, path.read_text(encoding="utf-8")) == []


def _declared_all(text: str) -> list[str] | None:
    """The names a module's source assigns to ``__all__``, or None when it assigns none."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


DECLARED = {path.name: names for path in SOURCES
            if (names := _declared_all(path.read_text(encoding="utf-8"))) is not None}


@pytest.mark.parametrize("filename", sorted(DECLARED))
def test_every_name_in_all_resolves(filename):
    stem, names = filename.removesuffix(".py"), DECLARED[filename]
    module = importlib.import_module("vdicke" if stem == "__init__" else f"vdicke.{stem}")
    assert names and len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def _unused_imports(filename: str, text: str) -> list[str]:
    """``file:line name`` for each name the source imports, anywhere, but never
    reads and does not export in ``__all__``."""
    tree = ast.parse(text)
    kept = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    kept |= set(_declared_all(text) or ())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import a.b binds a
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        found += [f"{filename}:{node.lineno} {name}" for name in bound if name not in kept]
    return found


def test_the_guard_finds_every_kind_of_unused_import():
    probe = ("from __future__ import annotations\n"
             "import os, numpy as np\n"
             "import vdicke.scan\n"
             "from . import exactdiag, meanfield as mf\n"
             "from .model import ModelParams, critical_g1 as gc1, critical_g2, mu_left\n"
             "__all__ = ['mu_left']\n"
             "def f(p: ModelParams):\n"
             "    import math\n"
             "    return os.sep, exactdiag.solve_point, critical_g2(p)\n")
    assert _unused_imports("probe.py", probe) == [
        "probe.py:2 np", "probe.py:3 vdicke", "probe.py:4 mf", "probe.py:5 gc1",
        "probe.py:8 math"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.name, path.read_text(encoding="utf-8")) == []


def _scipy_imports(filename: str, text: str) -> list[str]:
    """``file:line module`` for each import of scipy anywhere in the source, functions included."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{filename}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


def test_the_guard_finds_every_kind_of_scipy_import():
    probe = ("import numpy, scipy\n"
             "from scipy import sparse\n"
             "def solve():\n"
             "    import scipy.sparse.linalg as sla\n"
             "    from scipy.sparse.linalg import eigsh\n"
             "from .scipy_free import x\n")
    assert _scipy_imports("probe.py", probe) == [
        "probe.py:1 scipy", "probe.py:2 scipy", "probe.py:4 scipy.sparse.linalg",
        "probe.py:5 scipy.sparse.linalg"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_imports_scipy(path):
    # numpy is the package's one runtime dependency; scipy serves the tests as an oracle
    assert _scipy_imports(path.name, path.read_text(encoding="utf-8")) == []


_CACHES = ("lru_cache", "cache")  # functools' memos: one per decorated function, process-wide


def _module_level_caches(filename: str, text: str) -> list[str]:
    """``file:line name`` for each functools cache the source applies at module level:
    in a module or class body, or as a decorator there, where it outlives every call."""
    tree = ast.parse(text)
    names, modules = set(), set()  # local names of the caches, and of functools
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name in _CACHES}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "functools"}
    found, pending = [], list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ClassDef):
            pending += node.body
            parts = node.decorator_list + node.bases
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts = node.decorator_list  # the body runs per call
        else:
            parts = [node]
        for part in parts:
            for child in ast.walk(part):
                if isinstance(child, ast.Name) and child.id in names or (
                        isinstance(child, ast.Attribute) and child.attr in _CACHES
                        and isinstance(child.value, ast.Name) and child.value.id in modules):
                    found.append(f"{filename}:{child.lineno} {ast.unparse(child)}")
    return sorted(found)


def test_the_guard_finds_every_kind_of_module_level_cache():
    probe = ("import functools, functools as ft\n"
             "from functools import cache as memo, cached_property, lru_cache\n"
             "@lru_cache(maxsize=4)\n"
             "def solve(x):\n"
             "    local = lru_cache(None)(abs)\n"
             "    return local(x)\n"
             "class Space:\n"
             "    @ft.cache\n"
             "    def index(self): ...\n"
             "    @cached_property\n"
             "    def occupations(self): ...\n"
             "square = memo(lambda x: x * x)\n"
             "cube = functools.lru_cache(lambda x: x ** 3)\n")
    assert _module_level_caches("probe.py", probe) == [
        "probe.py:12 memo", "probe.py:13 functools.lru_cache", "probe.py:3 lru_cache",
        "probe.py:8 ft.cache"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_holds_a_module_level_cache(path):
    # a memo shared by the whole process makes a call's work depend on what ran
    # before it; solves are handed on explicitly instead
    assert _module_level_caches(path.name, path.read_text(encoding="utf-8")) == []
