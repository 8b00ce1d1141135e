import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Function docstring,

        over three lines."""
        text = """a string that
        is not a docstring"""
        return (self.size
                * math.pi), text


async def run():
    "single-quoted docstring"
    "a second string is code"
'''


def test_counts_code_lines_only():
    # import, class, size, def, text (2 lines), return (2 lines),
    # async def, the second string
    assert code_lines.code_lines(MODULE) == 10


def test_docstring_lines_found_by_ast():
    assert sorted(code_lines.docstring_lines(ast.parse(MODULE))) == [1, 2, 9, 14, 15, 16, 24]


def test_prints_each_module_and_the_total():
    out = subprocess.run(
        [sys.executable, str(_PATH)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    modules = sorted(p.name for p in code_lines.PACKAGE.glob("*.py"))
    assert [line.split()[1] for line in out] == modules + ["total"]
    counts = [int(line.split()[0]) for line in out]
    assert sum(counts[:-1]) == counts[-1] > 0
