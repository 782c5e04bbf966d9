"""``tools/code_lines.py``, the code-line count of ``src/``, on a small
module and its command line, and the ceiling on the count of ``src/``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_code_lines_prints_its_usage_on_help(flag):
    done = subprocess.run([sys.executable, str(TOOL), flag], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: code_lines.py [-h] [PATH ...]\n")


def test_code_lines_refuses_a_path_that_does_not_exist(tmp_path):
    missing = tmp_path / "missing"
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path), str(missing)],
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith(f"code_lines.py: error: no such file or directory: {missing}\n")
    assert "Traceback" not in done.stderr


# The code lines of src/ as of the last change to them.  A change that
# lowers the count lowers this ceiling with it; one that raises it says
# why in CHANGES.md.
SRC_CODE_LINES = 1494


def test_src_code_lines_stay_under_their_ceiling(capsys):
    assert _tool().main([str(TOOL.parents[1] / "src")]) == 0
    total = int(capsys.readouterr().out.splitlines()[-1].split()[0])
    assert total <= SRC_CODE_LINES, f"src/ has {total} code lines, over its ceiling"
