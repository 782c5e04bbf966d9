"""``tools/code_lines.py``, the code-line count of ``src/``, on a small module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
of two lines."""

import os   # a comment on a code line

# a comment line


class Box:
    """A class docstring."""

    size = 1

    def area(self):
        """A method docstring,

        of three lines."""
        def inner():
            "A docstring in single quotes."
            return 2
        text = """a string that is
        not a docstring"""
        return (self.size
                * inner())


async def fetch():
    """Only a docstring."""


def later():
    x = 1
    """A string after the first statement is code."""
    return x
'''
# Code lines: import; class Box; size; def area; def inner; return 2;
# text (2 lines); return (2 lines); async def; def later; x; the late
# string; return x.
CODE_LINES = 15


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blank_comment_and_docstring_lines():
    assert _tool().code_lines(MODULE) == CODE_LINES


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text('"""Docstring only."""\n\nX = 1\n')
    assert _tool().main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    15  {tmp_path / 'pkg' / 'a.py'}",
        f"     1  {tmp_path / 'pkg' / 'b.py'}",
        "    16  total",
    ]
