"""Self-tests of the benchmark.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mmcsim import testbench  # noqa: E402
from mmcsim.controller import SortPolicy  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_deterministic():
    for name in workloads.WORKLOAD_NAMES:
        for kind in workloads.KINDS:
            first = workloads.build(name, 7, kind)
            assert workloads.build(name, 7, kind) == first
            assert workloads.build(name, 7 + workloads.VARIANTS, kind) == first
    b2b = {
        workloads.build("b2b_run", seed, "measured").configs["b2b.ini"]
        for seed in range(workloads.VARIANTS)
    }
    assert len(b2b) > 1


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOAD_NAMES)
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert METRIC_NAME.fullmatch(name), name


def test_digests_cover_every_variant_and_output():
    table = json.loads(run.DIGESTS.read_text())
    assert table["variants"] == workloads.VARIANTS
    for name in workloads.WORKLOAD_NAMES:
        for v in range(workloads.VARIANTS):
            for kind in workloads.KINDS:
                recorded = table["workloads"][name][str(v)][kind]
                assert set(recorded) == set(workloads.build(name, v, kind).outputs)


def _record_bytes(record):
    return {
        key: value.tobytes() if isinstance(value, np.ndarray) else value
        for key, value in vars(record).items()
    }


def test_wrappers_leave_run_record_unchanged():
    params, grid, link, _ = testbench.build_stock_system()
    scenario = testbench.Scenario(
        duration=0.002,
        events=[(0.001, SortPolicy.F1V2)],
        mode="back_to_back",
        p_set=(13.18e6, -13.18e6),
    )
    original = testbench.simulate

    def simulate():
        record = testbench.simulate(scenario, params=params, grid=grid, dc_link=link)
        return _record_bytes(record)

    plain = simulate()
    tracer = spans.Tracer().install()
    try:
        traced = simulate()
    finally:
        tracer.uninstall()

    assert traced == plain
    assert testbench.simulate is original
    phase_steps = 80 * 6
    assert tracer.spans["testbench.simulate"][0] == 1
    assert tracer.spans["controller.control_step"][0] == phase_steps
    assert tracer.spans["controller.sort_arm"][0] == 2 * phase_steps
    assert tracer.spans["model.advance_phase"][0] == phase_steps
    assert tracer.switch_transitions > 0


def test_uncalled_layers_report_zero():
    tracer = spans.Tracer().install()
    tracer.uninstall()
    rep = run.Rep(wall_s=1.0, traces=[tracer.summary()])
    values = run.layer_values(rep)
    assert values["controller.phase_steps"] == 0
    assert values["controller.rank_us"] == 0.0
    assert values["csvio.load_mb_per_s"] == 0.0
    assert values["cli.self_s"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "b2b_run",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
