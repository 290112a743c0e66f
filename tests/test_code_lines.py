"""The code-line counter in tools/code_lines.py."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment

import math  # code with a trailing comment


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring."""
        return math.pi * (
            2.0)
'''


def test_counts_code_lines_only():
    # import, class, def, and the two lines of the return statement
    assert code_lines.code_lines(SOURCE) == 5
