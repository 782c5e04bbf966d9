"""The test suite's own configuration, run on a file of its own."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_property_test_is_reported_under_the_warning_filters(tmp_path):
    # Hypothesis reports a failure with modules that warn on import; the
    # filters that turn warnings into errors must let the report through.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTEST")}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    output = child.stdout + child.stderr
    assert child.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
