"""The demos and the README's library example import only names the
package still exports, the step-by-step demo and the example run end
to end, and the README's configuration example parses."""

import re
import runpy
from dataclasses import replace
from pathlib import Path

import pytest

from mmcsim.config import parse_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "name", ["hvdc_link.py", "policy_comparison.py", "single_phase_stepping.py"]
)
def test_demo_loads(name):
    namespace = runpy.run_path(str(DEMOS / name), run_name="demo")
    assert callable(namespace["main"])


def test_single_phase_stepping_runs(capsys):
    runpy.run_path(str(DEMOS / "single_phase_stepping.py"), run_name="demo")["main"]()
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "stepping phase a for 33.3 ms (1333 periods of 25 us) under V1F2"
    assert out[1].split() == [
        "t", "[ms]", "v_up", "[kV]", "v_low", "[kV]", "n_up", "n_low",
        "i", "[A]", "i_ref", "[A]", "spread", "[V]",
    ]
    # One snapshot every 2 ms of the 1333 steps, then the frequency block.
    table = out[2:out.index("")]
    assert len(table) == 17
    for row in table:
        n_up, n_low = int(row.split()[3]), int(row.split()[4])
        assert 0 <= n_up <= 6 and 0 <= n_low <= 6
    assert out[-4] == "per-SM effective switching frequency over 33.3 ms:"
    assert len(out[-3].split()) == 2 + 6 + 1 and out[-3].endswith("Hz")
    assert out[-1].startswith("  arm average: ")


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(example, "README.md", "exec"), {})
    fs_mean = float(capsys.readouterr().out)
    assert fs_mean > 0.0


def test_readme_config_example_parses():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    assert parse_config(block) == replace(parse_config(""), window=(0.1, 0.5))
