"""Only the command line encodes or writes data files: every other package
module returns plain values, cli._write_csv and cli._write_json add the
seed and config-hash lines to each file they write, and cli._emit alone
reads the --format choice."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggelab"
ENCODERS = {"json", "csv"}
LIBRARY = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")
CLI = PACKAGE / "cli.py"


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


def _format_readers(tree):
    """The innermost function around each read of an attribute named fmt,
    or of the string "fmt" as in getattr(cfg, "fmt"), in source order;
    "<module>" outside any function."""
    readers = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "fmt"
                and isinstance(node.ctx, ast.Load)) or (
                isinstance(node, ast.Constant) and node.value == "fmt"):
            readers.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return readers


def test_only_emit_reads_the_format():
    readers = _format_readers(ast.parse(CLI.read_text(), filename=str(CLI)))
    assert set(readers) == {"_emit"}, (
        f"cli reads the format in {sorted(set(readers))}; the subcommands "
        "hand their files to _emit, which picks csv or json")


def test_the_check_sees_a_format_read():
    src = ("def f(cfg):\n    return cfg.fmt\n\n"
           "def g(c):\n    def h():\n        return getattr(c, 'fmt')\n\n"
           "x = y.fmt\nc.fmt = 1\nz = RunConfig(fmt='csv')\n")
    assert _format_readers(ast.parse(src)) == ["f", "h", "<module>"]
