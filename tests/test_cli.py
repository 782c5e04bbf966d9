"""End-to-end tests of the run / compare / metrics commands."""

import json
import warnings

import pytest

from mmcsim import testbench
from mmcsim.cli import OUTPUT_DIR_ENV, main
from mmcsim.config import parse_config
from mmcsim.csvio import TimeSeriesSink, load_record_csv, write_metrics_report
from mmcsim.errors import SimulationDiverged
from mmcsim.metrics import SummaryMetrics, summarize
from mmcsim.testbench import _SCAN_STEPS, run_scenario, simulate

SMALL_CONFIG = """
[scenario]
mode = ideal_dc
duration = 0.01
p_set = 13.18e6
policy_schedule = []

[output]
directory = out
decimation = 1
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    return tmp_path


def _write(workdir, name, text):
    path = workdir / name
    path.write_text(text)
    return str(path)


def _parse_report(text):
    values = {}
    for line in text.splitlines():
        if " = " in line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            values[key] = float(value)
    return values


def test_run_writes_artifacts(workdir, capsys):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    for name in ("run.csv", "metrics.txt", "metrics.json"):
        assert (workdir / "out" / name).exists()
    report = _parse_report(capsys.readouterr().out)
    assert report["fs_mean_hz"] > 0.0
    assert report["window_end_s"] == 0.01
    on_disk = json.loads((workdir / "out" / "metrics.json").read_text())
    assert on_disk == pytest.approx(report)


def test_run_respects_output_dir_env(workdir, monkeypatch):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(workdir / "elsewhere"))
    assert main(["run", cfg]) == 0
    assert (workdir / "elsewhere" / "run.csv").exists()
    assert not (workdir / "out").exists()


def test_run_twice_is_byte_identical(workdir, capsys):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    first_csv = (workdir / "out" / "run.csv").read_bytes()
    first_json = (workdir / "out" / "metrics.json").read_bytes()
    capsys.readouterr()
    assert main(["run", cfg]) == 0
    assert (workdir / "out" / "run.csv").read_bytes() == first_csv
    assert (workdir / "out" / "metrics.json").read_bytes() == first_json


def test_metrics_reproduces_run_report(workdir, capsys):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    run_report = _parse_report(capsys.readouterr().out)
    csv_path = str(workdir / "out" / "run.csv")
    assert main(["metrics", csv_path, "--window", "0.0", "0.01"]) == 0
    recomputed = _parse_report(capsys.readouterr().out)
    assert recomputed == run_report
    assert (workdir / "out" / "run.metrics.txt").exists()
    assert (workdir / "out" / "run.metrics.json").exists()


def test_metrics_default_window_is_the_run_window(workdir, capsys):
    # Back-to-back, no [output] window: run evaluates (0, duration).
    cfg = _write(workdir, "run.ini", "[scenario]\nduration = 0.04\n")
    assert main(["run", cfg]) == 0
    out = workdir / "out"
    assert main(["metrics", str(out / "run.csv")]) == 0
    assert (out / "run.metrics.json").read_bytes() == (out / "metrics.json").read_bytes()
    assert (out / "run.metrics.txt").read_bytes() == (out / "metrics.txt").read_bytes()


def test_metrics_default_window_includes_the_last_sample(workdir, capsys):
    # 0.06 s at t_s = 25e-6 ends at 0.060000000000000005, past the duration.
    cfg = _write(workdir, "run.ini", "[scenario]\nduration = 0.06\n")
    assert main(["run", cfg]) == 0
    out = workdir / "out"
    assert json.loads((out / "metrics.json").read_text())["window_end_s"] > 0.06
    assert main(["metrics", str(out / "run.csv")]) == 0
    assert (out / "run.metrics.json").read_bytes() == (out / "metrics.json").read_bytes()


def test_metrics_refuses_an_infinite_window(workdir, capsys):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    assert main(["metrics", str(workdir / "out" / "run.csv"), "--window", "0", "inf"]) == 2
    assert "window must be finite" in capsys.readouterr().err
    assert not (workdir / "out" / "run.metrics.json").exists()


def test_compare_identical_configs_gives_unit_ratio(workdir, capsys):
    cfg_a = _write(workdir, "a.ini", SMALL_CONFIG)
    cfg_b = _write(workdir, "b.ini", SMALL_CONFIG)
    assert main(["compare", cfg_a, cfg_b]) == 0
    out = capsys.readouterr().out
    assert "fs_ratio_b_over_a = 1\n" in out
    on_disk = json.loads((workdir / "out" / "compare.json").read_text())
    assert on_disk["fs_ratio_b_over_a"] == 1.0
    assert on_disk["a"] == on_disk["b"]
    assert (workdir / "out" / "compare.txt").exists()


def test_compare_accepts_policy_schedule_change(workdir, capsys):
    cfg_a = _write(workdir, "a.ini", SMALL_CONFIG)
    cfg_b = _write(
        workdir, "b.ini",
        SMALL_CONFIG.replace(
            "policy_schedule = []", "policy_schedule = [(0.0, F1V2)]"
        ),
    )
    assert main(["compare", cfg_a, cfg_b]) == 0
    on_disk = json.loads((workdir / "out" / "compare.json").read_text())
    ratio = on_disk["fs_ratio_b_over_a"]
    assert 0.0 < ratio < 1.0


@pytest.mark.parametrize(
    "scenario",
    [
        "mode = ideal_dc\nduration = 0.01\np_set = 12.5e6\n",
        "mode = back_to_back\nduration = 0.01\np_set = 12.5e6, -12.5e6\n",
    ],
)
def test_compare_reports_each_config_as_run_alone(workdir, capsys, scenario):
    texts = [
        f"[scenario]\n{scenario}policy_schedule = {schedule}\n\n"
        "[output]\nwindow_start = 0.002\nwindow_end = 0.01\n"
        for schedule in ("[(0.004, F1V2)]", "[(0.0, F1V2), (0.006, V1F2)]")
    ]
    paths = [_write(workdir, name, text) for name, text in zip(("a.ini", "b.ini"), texts)]
    assert main(["compare", *paths]) == 0
    on_disk = json.loads((workdir / "out" / "compare.json").read_text())
    for key, text in zip(("a", "b"), texts):
        config = parse_config(text)
        record = simulate(
            config.scenario, params=config.params, grid=config.grid, dc_link=config.dc_link
        )
        alone = summarize(record, config.window, config.params.v_sm_nominal)
        assert on_disk[key] == alone.to_flat()
    assert on_disk["a"] != on_disk["b"]


COLLAPSE_CONFIG = (
    "[converter]\nc_sm = 2e-5\n\n"
    "[scenario]\nmode = ideal_dc\nduration = {duration}\ni_amp = 5000\n"
    "policy_schedule = {schedule}\n"
)


def _first_error_running_in_turn(texts):
    """The error of running the configs one after the other, or None."""
    for text in texts:
        config = parse_config(text)
        try:
            simulate(config.scenario, params=config.params, grid=config.grid)
        except SimulationDiverged as exc:
            return exc
    return None


@pytest.mark.parametrize(
    "duration, schedules, step",
    [
        # Alone, V1F2 collapses at step 274 and F1V2 at step 176: a's
        # error wins even when b fails first.
        (0.05, ("[]", "[(0.0, F1V2)]"), 274),
        (0.05, ("[(0.0, F1V2)]", "[]"), 176),
        # 200 steps: F1V2 collapses against a healthy V1F2 twin.
        (0.005, ("[]", "[(0.0, F1V2)]"), 176),
        (0.005, ("[(0.0, F1V2)]", "[]"), 176),
    ],
)
def test_compare_diverges_as_running_a_then_b_does(workdir, capsys, duration, schedules, step):
    texts = [COLLAPSE_CONFIG.format(duration=duration, schedule=s) for s in schedules]
    paths = [_write(workdir, name, text) for name, text in zip(("a.ini", "b.ini"), texts)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", *paths]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {_first_error_running_in_turn(texts)}\n"
    assert f"diverged at step {step}: phase b capacitor voltage" in err
    assert not (workdir / "out").exists()


# Modulation index 0.97 on microhenry chokes: the DC link's v_mmc1
# overflows at step 206, after the numpy sums that feed the link have.
LINK_BLOWUP_CONFIG = (
    "[converter]\nl = 7e-6\nl_arm = 4e-6\nc_sm = 1.27e-3\nw = 5.0\nw_z = 5.0\n\n"
    "[grid]\namplitude = 29000.0\n\n"
    "[dc_link]\nlength_km = 1.0\n\n"
    "[scenario]\nmode = back_to_back\nduration = 0.01\n"
    "policy_schedule = [(0.0, F1V2)]\ni_amp = 5000.0, -5000.0\n"
)


def test_run_reports_a_link_divergence_without_a_warning(workdir, capsys):
    cfg = _write(workdir, "link.ini", LINK_BLOWUP_CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err == "error: simulation diverged at step 206: DC link v_mmc1 non-finite\n"


def test_compare_of_zero_duration_runs_reports_zero_metrics(workdir, capsys):
    text_a = SMALL_CONFIG.replace("duration = 0.01", "duration = 0.0")
    text_b = text_a.replace("policy_schedule = []", "policy_schedule = [(0.0, F1V2)]")
    paths = [_write(workdir, "a.ini", text_a), _write(workdir, "b.ini", text_b)]
    assert main(["compare", *paths]) == 0
    on_disk = json.loads((workdir / "out" / "compare.json").read_text())
    config = parse_config(text_a)
    alone = run_scenario(config.scenario, params=config.params, grid=config.grid)
    assert alone == SummaryMetrics(window=(0.0, 0.0))
    assert on_disk["a"] == on_disk["b"] == alone.to_flat()
    assert on_disk["fs_ratio_b_over_a"] == 1.0


def test_compare_refuses_other_differences(workdir, capsys):
    cfg_a = _write(workdir, "a.ini", SMALL_CONFIG)
    cfg_b = _write(
        workdir, "b.ini", SMALL_CONFIG.replace("duration = 0.01", "duration = 0.02")
    )
    assert main(["compare", cfg_a, cfg_b]) == 2
    err = capsys.readouterr().err
    assert "policy_schedule" in err
    assert "duration = 0.01" in err and "duration = 0.02" in err


def test_missing_config_fails_cleanly(workdir, capsys):
    assert main(["run", str(workdir / "absent.ini")]) == 2
    assert "absent.ini" in capsys.readouterr().err


def test_invalid_config_fails_cleanly(workdir, capsys):
    cfg = _write(workdir, "bad.ini", "[converter]\nn_sm = 0\n")
    assert main(["run", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_metrics_missing_csv_fails_cleanly(workdir, capsys):
    assert main(["metrics", str(workdir / "absent.csv")]) == 2
    assert "absent.csv" in capsys.readouterr().err


def test_run_stops_when_a_capacitor_collapses(workdir, capsys):
    cfg = _write(
        workdir, "collapse.ini",
        "[converter]\nc_sm = 2e-5\n\n"
        "[scenario]\nmode = ideal_dc\nduration = 0.05\ni_amp = 5000\n",
    )
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "diverged at step 274:" in err
    assert "capacitor voltage" in err
    # The blocks before the failing one reached the CSV: the header and
    # steps [0, 256), as a run of 256 steps writes them.
    assert _SCAN_STEPS == 128
    left = (workdir / "out" / "run.csv").read_bytes()
    record = load_record_csv(str(workdir / "out" / "run.csv"))
    assert record.steps == 256 and record.labels == ["a", "b", "c"]
    cfg = _write(
        workdir, "collapse_256.ini",
        "[converter]\nc_sm = 2e-5\n\n"
        "[scenario]\nmode = ideal_dc\nduration = 0.0064\ni_amp = 5000\n",
    )
    assert main(["run", cfg]) == 0
    assert left == (workdir / "out" / "run.csv").read_bytes()


BLOCK_CONFIG = """
[scenario]
mode = {mode}
duration = 0.0101
policy_schedule = [(0.004, F1V2)]

[output]
directory = out
decimation = {decimation}
"""
BLOCK_STEPS = 404   # 0.0101 s: no multiple of 3, 7, 50 or 128


@pytest.mark.parametrize("mode", ["ideal_dc", "back_to_back"])
@pytest.mark.parametrize("scan_steps, decimation", [
    *((scan, dec) for scan in (1, 7, 128, BLOCK_STEPS) for dec in (1, 3)),
    (7, 50),
])
def test_run_writes_the_bytes_of_a_whole_record_write(
    workdir, monkeypatch, mode, scan_steps, decimation
):
    text = BLOCK_CONFIG.format(mode=mode, decimation=decimation)
    config = parse_config(text)
    record = simulate(
        config.scenario, params=config.params, grid=config.grid, dc_link=config.dc_link
    )
    assert record.steps == BLOCK_STEPS
    whole = workdir / "whole"
    whole.mkdir()
    with TimeSeriesSink(str(whole / "run.csv"), config.params.n) as sink:
        sink.write_record(record, decimation)
    metrics = summarize(record, None, config.params.v_sm_nominal)
    write_metrics_report(metrics, str(whole / "metrics.txt"), str(whole / "metrics.json"))

    monkeypatch.setattr(testbench, "_SCAN_STEPS", scan_steps)
    assert main(["run", _write(workdir, "run.ini", text)]) == 0
    for name in ("run.csv", "metrics.json"):
        assert (workdir / "out" / name).read_bytes() == (whole / name).read_bytes(), name


def test_metrics_on_a_mangled_csv_fails_cleanly(workdir, capsys):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    csv_path = workdir / "out" / "run.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].split(",")[0] + "\n"
    csv_path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["metrics", str(csv_path)]) == 2
    assert "line 4 has 1 fields" in capsys.readouterr().err


def test_metrics_names_a_line_that_is_not_utf8(workdir, capsys):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    csv_path = workdir / "out" / "run.csv"
    lines = csv_path.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5][:4] + b"\xff" + lines[5][4:]
    csv_path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["metrics", str(csv_path)]) == 2
    assert "line 6 is not UTF-8 text" in capsys.readouterr().err


def test_run_rejects_an_unstable_dc_link(workdir, capsys):
    cfg = _write(
        workdir, "short.ini",
        "[dc_link]\nlength_km = 0.5\n\n[scenario]\nduration = 0.01\n",
    )
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "[dc_link]" in err and "t_s" in err and "omega*t_s < 2" in err
    assert not (workdir / "out").exists()


def test_run_accepts_a_1_km_dc_link(workdir):
    cfg = _write(
        workdir, "one_km.ini",
        "[dc_link]\nlength_km = 1.0\n\n[scenario]\nduration = 0.005\n",
    )
    assert main(["run", cfg]) == 0
