"""The code-line counter that sizes src/ggelab (helpers.code_lines) and
its per-module table (helpers.code_line_table)."""

from helpers import code_line_table, code_lines

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a whole-line comment
TEXT = """a string that is
not a docstring"""


class Box:
    """Class docstring."""

    def size(self, y):
        """Function
        docstring."""
        return (y +
                1)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, TEXT (two lines), class, def, return (two lines)
    assert code_lines(SOURCE) == 7


def test_only_a_leading_string_is_a_docstring():
    assert code_lines('def f():\n    "a docstring"\n    return 1\n') == 2
    assert code_lines('x = 1\n"not the first statement"\n') == 2


def test_table_lists_each_module_then_the_total(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(SOURCE)
    second.write_text("x = 1\n")
    assert code_line_table([str(first), str(second)]).splitlines() == [
        f"     7 {first}", f"     1 {second}", "     8 total"]
