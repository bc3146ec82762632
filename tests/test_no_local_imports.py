"""Package modules import only at module level, so the import graph is
visible at the top of each file and stays acyclic."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggelab"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted({node.lineno
                    for scope in ast.walk(tree) if isinstance(scope, SCOPES)
                    for node in ast.walk(scope)
                    if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert not lines, f"{path.name} imports inside a function or class at lines {lines}"
