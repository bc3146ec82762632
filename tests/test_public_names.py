"""Every public name has a caller: each name in a module's __all__ is read
by package code outside its own definition, or by the benchmark harness
(benchmarks/*.py), or it stands in USER_API with the reason it stays
public.  A name that only the tests read is a test oracle and belongs in
tests/helpers.py, as the bound lemma and the Theta_nu draw do.

References come from the syntax tree: a name read as a variable or as an
attribute counts; a docstring, a comment or an __all__ entry does not.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ggelab"
SOURCES = (sorted(PACKAGE.glob("*.py"))
           + sorted((ROOT / "benchmarks").glob("*.py")))
MODULES = [path.stem for path in sorted(PACKAGE.glob("*.py"))
           if path.stem != "__init__"]

# public names that no package or benchmark code reads, and why each stays
USER_API = {
    "ldp_lab.rate_function_value": "the paper's rate function; ROADMAP "
                                   "item 5 makes it a checked quantity",
    "dynamics.al_rhs": "the normative Ablowitz-Ladik vector field",
    "dynamics.schur_rhs": "the normative Schur vector field",
}


def _reads(node):
    """Identifiers that node reads, as a name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _defines(stmt, name):
    """Whether a module-level statement defines name."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name == name
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in stmt.targets)


def _is_read(name, home, trees):
    """Whether any source reads name outside the statement of `home` (the
    path of its module) that defines it."""
    return any(name in _reads(stmt) for path, tree in trees.items()
               for stmt in tree.body
               if not (path == home and _defines(stmt, name)))


TREES = {path: ast.parse(path.read_text(), filename=str(path))
         for path in SOURCES}
PUBLIC = [(module, name) for module in MODULES
          for name in importlib.import_module(f"ggelab.{module}").__all__]


@pytest.mark.parametrize("module, name", PUBLIC,
                         ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_caller(module, name):
    key = f"{module}.{name}"
    read = _is_read(name, PACKAGE / f"{module}.py", TREES)
    if key in USER_API:
        assert not read, f"{key} has a caller now; drop it from USER_API"
    else:
        assert read, (f"only the tests read {key}: make it a test helper, "
                      "or give the reason it stays public in USER_API")


def test_user_api_names_are_public():
    assert set(USER_API) <= {f"{m}.{n}" for m, n in PUBLIC}


def test_the_check_sees_a_read():
    src = ('"""f g h"""\n__all__ = ["f", "g", "h"]\n\n'
           "def f():\n    return f()\n\n"
           "def g():\n    return m.h\n\n"
           "X = g\n")
    path = Path("m.py")
    trees = {path: ast.parse(src)}
    assert not _is_read("f", path, trees)  # only itself, a docstring, __all__
    assert _is_read("g", path, trees)
    assert _is_read("h", path, trees)
    assert not _is_read("X", path, trees)
