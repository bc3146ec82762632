"""The code-line counter that sizes src/ggelab (helpers.code_lines)."""

from helpers import code_lines

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
