"""Only the command line encodes or writes data files: every other package
module returns plain values, and cli._write_csv and cli._write_json add the
seed and config-hash lines to each file they write."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggelab"
ENCODERS = {"json", "csv"}
LIBRARY = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")


def _writer_lines(tree):
    """Lines that import an encoder module or call the builtin open."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] in ENCODERS for a in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in ENCODERS:
                lines.add(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "open"):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_module_writes_no_file(path):
    lines = _writer_lines(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, (f"{path.name} imports json/csv or calls open at lines "
                       f"{lines}; only cli.py writes files")


def test_the_check_sees_a_writer():
    src = "import json\nfrom csv import writer\n\ndef f(p):\n    open(p)\n"
    assert _writer_lines(ast.parse(src)) == [1, 2, 5]
    assert _writer_lines(ast.parse("import jsonschema\nx.open(p)\n")) == []
