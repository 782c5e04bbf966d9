"""End-to-end tests of the run / compare / metrics commands."""

import json
import logging
import os
import re
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import mmcsim
from mmcsim import testbench
from mmcsim.cli import OUTPUT_DIR_ENV, main
from mmcsim.config import parse_config
from mmcsim.csvio import (
    _MAGIC,
    _META,
    TimeSeriesSink,
    _sidecar,
    format_metrics_text,
    write_report,
)
from mmcsim.errors import SimulationDiverged
from mmcsim.metrics import SummaryMetrics, _step_dtype, summarize
from mmcsim.testbench import _SCAN_STEPS, run_scenario, simulate
from per_phase_reference import (
    oracle_load,
    read_csv_blocks,
    reference_summarize,
    whole_file_load_record_csv,
)

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


def _decimated(csv_path, decimation):
    """The WARNING ``metrics`` logs when the sidecar of ``csv_path`` names a
    run that kept one step in ``decimation``."""
    return (f"metrics: {csv_path} holds one step in {decimation} of its run (decimation"
            f" {decimation}): fs_* and the other window metrics come from the kept samples only")


def _metrics(capsys, caplog, csv_path, *options, decimation=1):
    """Run ``mmcsim metrics`` on a CSV that ``run`` wrote, which it reads
    from the sidecar beside it.  It logs nothing but, for a run at
    ``decimation`` > 1, one WARNING of it.  Returns the exit code and the
    captured output."""
    caplog.set_level(logging.INFO, logger="mmcsim.cli")
    capsys.readouterr()
    caplog.clear()
    code = main(["metrics", str(csv_path), *options])
    assert caplog.messages == [_decimated(str(csv_path), decimation)] * (decimation > 1)
    return code, capsys.readouterr()


def _refused(capsys, csv_path, reason):
    """``mmcsim metrics`` refuses the CSV at ``csv_path`` for ``reason``
    (``{rec}`` the sidecar's path): exit 2, an error that names the CSV
    and the reason, nothing printed and no report written."""
    csv_path = str(csv_path)
    out = os.environ.get(OUTPUT_DIR_ENV) or os.path.dirname(csv_path)
    stem = os.path.splitext(os.path.basename(csv_path))[0]
    capsys.readouterr()
    assert main(["metrics", csv_path]) == 2
    reason = reason.format(rec=repr(csv_path + ".rec"))
    assert capsys.readouterr() == ("", f"error: {csv_path!r}: {reason}\n")
    assert not list(Path(out).glob(f"{stem}.metrics.*"))


# Why ``metrics`` refuses a CSV (see ``_refused``).
NO_CSV = "cannot read the CSV (No such file or directory)"
NO_SIDECAR = "cannot read its sidecar {rec} (No such file or directory)"
CUT_SHORT = "its sidecar is cut short or of another layout than mmcsim-rec-4"
CORRUPT = "its sidecar is corrupt: it does not match its CRC-32"
STALE = ("its sidecar is stale: it names another CSV's byte size and CRC-32"
         " (an edited CSV, or another run's sidecar)")
NO_STEP = "the run kept no step: the CSV contains no data rows"


def _write_metrics_report(metrics, text_path, json_path):
    """Write the report files that ``run`` and ``metrics`` write for ``metrics``."""
    write_report(format_metrics_text(metrics), metrics.to_flat(), text_path, json_path)


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
    for name in ("run.csv", "run.csv.rec", "metrics.txt", "metrics.json"):
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


def _report_numbers(text):
    """The numbers of a printed report by key: one, or ``compare``'s a and b."""
    return {
        key: [float(v) for v in values.split(" | ")]
        for key, _, values in (line.partition(" = ") for line in text.splitlines())
        if not key.startswith("#")
    }


@pytest.mark.parametrize("env", [False, True], ids=["config_dir", "env_dir"])
@pytest.mark.parametrize("command", ["run", "compare", "metrics_sidecar"])
def test_each_report_file_holds_what_its_command_prints(workdir, monkeypatch, capsys, command, env):
    cfg = _write(workdir, "a.ini", SMALL_CONFIG)
    out = workdir / "out"
    csv_path = str(out / "run.csv")
    if command == "metrics_sidecar":
        assert main(["run", cfg]) == 0
    if env:
        out = workdir / "elsewhere"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(out))
    if command == "run":
        args, stem = ["run", cfg], "metrics"
    elif command == "compare":
        b = SMALL_CONFIG.replace("policy_schedule = []", "policy_schedule = [(0.005, F1V2)]")
        args, stem = ["compare", cfg, _write(workdir, "b.ini", b)], "compare"
    else:
        args, stem = ["metrics", csv_path], "run.metrics"
    capsys.readouterr()
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert (out / f"{stem}.txt").read_bytes() == printed.encode()
    payload = json.loads((out / f"{stem}.json").read_text())
    if command == "compare":
        assert printed.startswith(f"# a = {args[1]}\n# b = {args[2]}\n")
        expected = {key: [value, payload["b"][key]] for key, value in payload["a"].items()}
        expected["fs_ratio_b_over_a"] = [payload["fs_ratio_b_over_a"]]
    else:
        expected = {key: [value] for key, value in payload.items()}
    assert _report_numbers(printed) == expected


def test_run_twice_is_byte_identical(workdir, capsys):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    first_csv = (workdir / "out" / "run.csv").read_bytes()
    first_rec = (workdir / "out" / "run.csv.rec").read_bytes()
    first_json = (workdir / "out" / "metrics.json").read_bytes()
    capsys.readouterr()
    assert main(["run", cfg]) == 0
    assert (workdir / "out" / "run.csv").read_bytes() == first_csv
    assert (workdir / "out" / "run.csv.rec").read_bytes() == first_rec
    assert (workdir / "out" / "metrics.json").read_bytes() == first_json


def test_metrics_reproduces_run_report(workdir, capsys, caplog):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    run_report = _parse_report(capsys.readouterr().out)
    csv_path = str(workdir / "out" / "run.csv")
    code, captured = _metrics(capsys, caplog, csv_path, "--window", "0.0", "0.01")
    assert code == 0
    recomputed = _parse_report(captured.out)
    assert recomputed == run_report
    assert (workdir / "out" / "run.metrics.txt").exists()
    assert (workdir / "out" / "run.metrics.json").exists()


def test_metrics_takes_the_sm_nominal_voltage_it_is_given(workdir, capsys, caplog):
    # By the sidecar, which names it: here not the run's 60 kV bus over
    # n = 6 SMs but 9 kV.
    csv_path = _run_small(workdir)
    out = workdir / "out"
    _relayout(csv_path, lambda meta: meta.update(v_sm_nominal=9000.0))
    assert _metrics(capsys, caplog, csv_path)[0] == 0
    expected = (str(workdir / "expected.txt"), str(workdir / "expected.json"))
    _write_metrics_report(summarize(whole_file_load_record_csv(csv_path), None, 9000.0), *expected)
    for ext in ("txt", "json"):
        report = (out / f"run.metrics.{ext}").read_bytes()
        assert report == (workdir / f"expected.{ext}").read_bytes()
        assert report != (out / f"metrics.{ext}").read_bytes()


def test_metrics_has_no_sm_nominal_option(workdir, capsys):
    # The nominal voltage comes from the sidecar alone.
    csv_path = _run_small(workdir)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        main(["metrics", csv_path, "--sm-nominal", "9000"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --sm-nominal 9000" in captured.err
    assert not (workdir / "out" / "run.metrics.json").exists()


@pytest.mark.parametrize("nominal", ["nan", "inf", "-inf", "0.0", "-1e-300"])
def test_metrics_refuses_a_sm_nominal_voltage_that_is_not_finite(workdir, capsys, nominal):
    # Nor > 0: a sidecar, whole by its CRC-32, that names such a nominal
    # voltage is of another layout than the sink writes.
    csv_path = _run_small(workdir)
    _relayout(csv_path, lambda meta: meta.update(v_sm_nominal=float(nominal)))
    _refused(capsys, csv_path, CUT_SHORT)


def test_metrics_of_a_csv_whose_first_link_voltage_is_nan_takes_the_sidecar_nominal(
    workdir, capsys, caplog
):
    # The first link voltage no longer names the nominal voltage: a record
    # whose first one is NaN is summarized against the run's 10 kV.
    assert main(["run", _write(workdir, "run.ini", SMALL_CONFIG)]) == 0
    csv_path = workdir / "out" / "run.csv"
    config = parse_config(SMALL_CONFIG)
    record = whole_file_load_record_csv(str(csv_path))
    record.v_dc_link[0, 0] = float("nan")
    with TimeSeriesSink(str(csv_path), config.params) as sink:
        sink.write_record(record)
    code, captured = _metrics(capsys, caplog, csv_path)
    assert (code, captured.err) == (0, "")
    expected = summarize(record, None, config.params.v_sm_nominal)
    assert captured.out == format_metrics_text(expected)
    run = json.loads((workdir / "out" / "metrics.json").read_text())
    assert _parse_report(captured.out)["ripple_mean_pct"] == run["ripple_mean_pct"]


# 0.05 s back to back at decimation 50: the first kept row's bus is
# 59,995.86 V, not the run's 60 kV.
DECIMATED_B2B = "[scenario]\nduration = 0.05\npolicy_schedule = [(0.02, F1V2)]\n\n" \
                "[output]\ndecimation = 50\n"


def test_metrics_of_a_decimated_back_to_back_run_takes_the_run_s_nominal_voltage(
    workdir, capsys, caplog
):
    csv_path = _run_small(workdir, DECIMATED_B2B)
    kept = whole_file_load_record_csv(csv_path)
    nominal = parse_config(DECIMATED_B2B).params.v_sm_nominal
    assert nominal == 10000.0 and float(kept.v_dc_link[0, 0]) / kept.n != nominal
    code, captured = _metrics(capsys, caplog, csv_path, decimation=50)
    assert code == 0
    expected = summarize(kept, None, nominal)
    assert captured.out == format_metrics_text(expected)
    assert "ripple_mean_pct = 1.5482329710838458\n" in captured.out
    _write_metrics_report(expected, str(workdir / "expected.txt"), str(workdir / "expected.json"))
    for ext in ("txt", "json"):
        report = (workdir / "out" / f"run.metrics.{ext}").read_bytes()
        assert report == (workdir / f"expected.{ext}").read_bytes()


def test_metrics_default_window_is_the_run_window(workdir, capsys, caplog):
    # Back-to-back, no [output] window: run evaluates (0, duration).
    cfg = _write(workdir, "run.ini", "[scenario]\nduration = 0.04\n")
    assert main(["run", cfg]) == 0
    out = workdir / "out"
    assert _metrics(capsys, caplog, out / "run.csv")[0] == 0
    assert (out / "run.metrics.json").read_bytes() == (out / "metrics.json").read_bytes()
    assert (out / "run.metrics.txt").read_bytes() == (out / "metrics.txt").read_bytes()


def test_metrics_default_window_includes_the_last_sample(workdir, capsys, caplog):
    # 0.06 s at t_s = 25e-6 ends at 0.060000000000000005, past the duration.
    cfg = _write(workdir, "run.ini", "[scenario]\nduration = 0.06\n")
    assert main(["run", cfg]) == 0
    out = workdir / "out"
    assert json.loads((out / "metrics.json").read_text())["window_end_s"] > 0.06
    assert _metrics(capsys, caplog, out / "run.csv")[0] == 0
    assert (out / "run.metrics.json").read_bytes() == (out / "metrics.json").read_bytes()


def test_metrics_refuses_an_infinite_window(workdir, capsys, caplog):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    code, captured = _metrics(capsys, caplog, workdir / "out" / "run.csv", "--window", "0", "inf")
    assert code == 2
    assert "window must be finite" in captured.err
    assert not (workdir / "out" / "run.metrics.json").exists()


def test_metrics_refuses_a_window_that_starts_before_zero(workdir, capsys, caplog):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    code, captured = _metrics(capsys, caplog, workdir / "out" / "run.csv", "--window", "-5", "0.01")
    assert code == 2
    assert "error: window must be finite with t1 > t0 >= 0, got (-5.0, 0.01)" in captured.err
    assert not (workdir / "out" / "run.metrics.json").exists()


def test_metrics_warns_of_a_window_that_ends_after_the_last_sample(workdir, capsys, caplog):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    csv_path = str(workdir / "out" / "run.csv")
    last = json.loads((workdir / "out" / "metrics.json").read_text())["window_end_s"]
    caplog.set_level(logging.INFO, logger="mmcsim.cli")
    # A window that ends on the last sample is no warning.
    for t1, warned in ((repr(last), []), ("2", [(
        "WARNING", f"metrics: the window ends at 2.0 s, after the last sample of {csv_path}"
        f" at {last!r} s: fs_* divide its transitions by the whole window",
    )])):
        caplog.clear()
        assert main(["metrics", csv_path, "--window", "0", t1]) == 0
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == warned


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


@pytest.mark.parametrize(
    "old, new, listed",
    [
        ("duration = 0.01", "duration = 0.02", ["duration = 0.01", "duration = 0.02"]),
        # Keys that one config sets and the other leaves out.
        ("decimation = 1\n", "decimation = 1\nwindow_start = 0.002\nwindow_end = 0.008\n",
         ["window_start = 0.002", "window_end = 0.008"]),
    ],
    ids=["duration", "window"],
)
def test_compare_refuses_other_differences(workdir, capsys, old, new, listed):
    cfg_a = _write(workdir, "a.ini", SMALL_CONFIG)
    cfg_b = _write(workdir, "b.ini", SMALL_CONFIG.replace(old, new))
    assert main(["compare", cfg_a, cfg_b]) == 2
    err = capsys.readouterr().err
    assert "policy_schedule" in err
    for line in listed:
        assert line in err


def test_missing_config_fails_cleanly(workdir, capsys):
    assert main(["run", str(workdir / "absent.ini")]) == 2
    assert "absent.ini" in capsys.readouterr().err


def test_invalid_config_fails_cleanly(workdir, capsys):
    cfg = _write(workdir, "bad.ini", "[converter]\nn_sm = 0\n")
    assert main(["run", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_refuses_a_zero_amplitude_grid_before_writing(workdir, capsys):
    text = "[grid]\namplitude = 0\n\n[scenario]\nmode = ideal_dc\np_set = 1e6\n"
    assert main(["run", _write(workdir, "zero.ini", text)]) == 2
    assert ("error: [scenario] p_set needs a non-zero [grid] amplitude to derive current"
            " references\n" in capsys.readouterr().err)
    assert not (workdir / "out" / "run.csv").exists()


def test_run_refuses_a_csv_path_that_is_a_directory(workdir, capsys):
    (workdir / "out" / "run.csv").mkdir(parents=True)
    assert main(["run", _write(workdir, "run.ini", SMALL_CONFIG)]) == 2
    assert re.search(r"error: cannot open '.*run\.csv' for writing", capsys.readouterr().err)


def test_metrics_missing_csv_fails_cleanly(workdir, capsys):
    _refused(capsys, workdir / "absent.csv", NO_CSV)
    # Beside the sidecar of its run, which needs the CSV it names.
    csv_path = _run_small(workdir)
    os.remove(csv_path)
    _refused(capsys, csv_path, NO_CSV)


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
    record = whole_file_load_record_csv(str(workdir / "out" / "run.csv"))
    assert record.steps == 256 and record.labels == ["a", "b", "c"]
    cfg = _write(
        workdir, "collapse_256.ini",
        "[converter]\nc_sm = 2e-5\n\n"
        "[scenario]\nmode = ideal_dc\nduration = 0.0064\ni_amp = 5000\n",
    )
    assert main(["run", cfg]) == 0
    assert left == (workdir / "out" / "run.csv").read_bytes()


@pytest.mark.parametrize("decimation", [3, 300])
def test_a_diverging_decimated_run_stops_in_the_chunk_it_fails_in(
    workdir, monkeypatch, capsys, decimation
):
    scanned = []

    def scan(failed, k0, labels, rec_i, *args):
        scanned.append(k0 + len(rec_i))
        scan_failures(failed, k0, labels, rec_i, *args)

    scan_failures = testbench._scan_failures
    monkeypatch.setattr(testbench, "_scan_failures", scan)
    text = (
        "[converter]\nc_sm = 2e-5\n\n"
        "[scenario]\nmode = ideal_dc\nduration = {duration}\ni_amp = 5000\n\n"
        f"[output]\ndirectory = out\ndecimation = {decimation}\n"
    )
    assert main(["run", _write(workdir, "collapse.ini", text.format(duration=0.05))]) == 3
    assert "diverged at step 274:" in capsys.readouterr().err
    # Step 274 is in the chunk [256, 384), the last one stepped, whatever
    # the decimation; the CSV holds the rows a run of 256 steps keeps.
    assert _SCAN_STEPS == 128 and scanned == [128, 256, 384]
    left = (workdir / "out" / "run.csv").read_bytes()
    assert main(["run", _write(workdir, "collapse_256.ini", text.format(duration=0.0064))]) == 0
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
    # A decimation above the chunk: kept rows 129, 259 and 389, or 299.
    (128, 130), (128, 300), (7, 300),
])
def test_run_writes_the_bytes_of_a_whole_record_write(
    workdir, monkeypatch, capsys, caplog, mode, scan_steps, decimation
):
    text = BLOCK_CONFIG.format(mode=mode, decimation=decimation)
    config = parse_config(text)
    record = simulate(
        config.scenario, params=config.params, grid=config.grid, dc_link=config.dc_link
    )
    assert record.steps == BLOCK_STEPS
    whole = workdir / "whole"
    whole.mkdir()
    with TimeSeriesSink(str(whole / "run.csv"), config.params, decimation) as sink:
        sink.write_record(record)
    metrics = summarize(record, None, config.params.v_sm_nominal)
    _write_metrics_report(metrics, str(whole / "metrics.txt"), str(whole / "metrics.json"))

    monkeypatch.setattr(testbench, "_SCAN_STEPS", scan_steps)
    assert main(["run", _write(workdir, "run.ini", text)]) == 0
    for name in ("run.csv", "metrics.json"):
        assert (workdir / "out" / name).read_bytes() == (whole / name).read_bytes(), name

    # ``metrics`` reads the sidecar block by block; its report is that of
    # the scalar oracle on the per-field load of the whole CSV, against
    # the run's nominal SM voltage.
    csv_path = str(workdir / "out" / "run.csv")
    assert _metrics(capsys, caplog, csv_path, decimation=decimation)[0] == 0
    loaded = oracle_load(csv_path)
    expected = reference_summarize(
        loaded, (0.0, float(loaded.times[-1])), config.params.v_sm_nominal
    )
    _write_metrics_report(expected, str(whole / "run.metrics.txt"), str(whole / "run.metrics.json"))
    for name in ("run.metrics.txt", "run.metrics.json"):
        assert (workdir / "out" / name).read_bytes() == (whole / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["ideal_dc", "back_to_back"])
@pytest.mark.parametrize("decimation", [1, 7, 50])
def test_metrics_warns_once_that_a_decimated_sidecar_holds_kept_samples(
    workdir, capsys, caplog, mode, decimation
):
    csv_path = _run_small(workdir, BLOCK_CONFIG.format(mode=mode, decimation=decimation))
    data = Path(csv_path + ".rec").read_bytes()
    length = int.from_bytes(data[-24:-16], "little")
    assert data[-12:] == b"mmcsim-rec-4"
    assert json.loads(data[-24 - length : -24])["decimation"] == decimation
    assert _metrics(capsys, caplog, csv_path, decimation=decimation)[0] == 0
    assert [r.levelname for r in caplog.records] == ["WARNING"] * (decimation > 1)


@pytest.mark.parametrize("mode", ["ideal_dc", "back_to_back"])
def test_metrics_refuses_a_decimated_run_whose_sidecar_is_deleted(workdir, capsys, mode):
    # Its CSV cannot tell the decimation, and fs_* from its rows read up to 7 times low.
    csv_path = _run_small(workdir, BLOCK_CONFIG.format(mode=mode, decimation=7))
    os.remove(csv_path + ".rec")
    _refused(capsys, csv_path, NO_SIDECAR)


def _relayout(csv_path, edit, magic=_MAGIC, steps=lambda data: data, length=len):
    """Give the sidecar of ``csv_path`` the metadata ``edit`` makes of its
    own (in place, or the text it returns), the steps ``steps`` makes of
    the bytes of its own, the metadata length ``length`` makes of the
    text and the footer ``magic``, whole: its CRC-32 recomputed."""
    data = Path(csv_path + ".rec").read_bytes()
    body = len(data) - 24 - int.from_bytes(data[-24:-16], "little")
    meta = json.loads(data[body:-24])
    text = edit(meta)
    text = text if isinstance(text, bytes) else json.dumps(meta, sort_keys=True).encode()
    head = steps(data[:body]) + text + length(text).to_bytes(8, "little")
    Path(csv_path + ".rec").write_bytes(head + zlib.crc32(head).to_bytes(4, "little") + magic)


def test_metrics_refuses_beside_a_sidecar_of_the_first_layout(workdir, capsys):
    # The first layout's metadata had no decimation and its footer ended
    # "mmcsim-rec-1"; such a sidecar, whole and of this CSV, is not read.
    csv_path = _run_small(workdir, BLOCK_CONFIG.format(mode="ideal_dc", decimation=7))
    _relayout(csv_path, lambda meta: meta.pop("decimation"), b"mmcsim-rec-1")
    _refused(capsys, csv_path, CUT_SHORT)


def test_metrics_refuses_beside_a_sidecar_of_the_second_layout(workdir, capsys):
    # The second layout's metadata named the policies its indices point
    # at, and its footer ended "mmcsim-rec-2"; such a sidecar is not read.
    csv_path = _run_small(workdir, BLOCK_CONFIG.format(mode="back_to_back", decimation=7))
    _relayout(csv_path, lambda meta: meta.update(policies=["V1F2", "F1V2"]), b"mmcsim-rec-2")
    _refused(capsys, csv_path, CUT_SHORT)


def test_metrics_refuses_beside_a_sidecar_of_the_third_layout(workdir, capsys):
    # The third layout's metadata had no nominal SM voltage, and its footer
    # ended "mmcsim-rec-3"; such a sidecar is not read.
    csv_path = _run_small(workdir, BLOCK_CONFIG.format(mode="back_to_back", decimation=7))
    _relayout(csv_path, lambda meta: meta.pop("v_sm_nominal"), b"mmcsim-rec-3")
    _refused(capsys, csv_path, CUT_SHORT)


@pytest.mark.parametrize("step", [0, -1], ids=["first_block", "last_block"])
def test_metrics_refuses_a_sidecar_whose_step_names_a_policy_outside_sort_policy(
        workdir, capsys, step):
    # Whole by its CRC-32 and of this CSV, but one step's policy is index
    # 7 of SortPolicy, which has two: a layout the sink does not write.
    csv_path = _run_small(workdir)   # 400 steps of n = 6 on an ideal bus: two blocks

    def policy_7(data):
        table = np.frombuffer(data, _step_dtype(6, 3)).copy()
        table["policy"][step] = 7
        return table.tobytes()

    _relayout(csv_path, lambda meta: None, steps=policy_7)
    _refused(capsys, csv_path, CUT_SHORT)


def _set(key, value):
    return lambda meta: meta.update({key: value})


def _layout_case(name, edit=lambda meta: None, steps=lambda data: data, length=len):
    return pytest.param(edit, steps, length, id=name)


# Sidecars whole by their CRC-32 whose metadata the sink does not write,
# or whose steps are not whole ones of the layout their metadata name.
OTHER_LAYOUTS = [
    # The keys are not exactly csv, decimation, labels, n and v_sm_nominal.
    *(_layout_case(f"no_{key}", lambda meta, key=key: meta.pop(key))
      for key in ("csv", "decimation", "labels", "n", "v_sm_nominal")),
    _layout_case("extra_key", _set("t_s", 2.5e-5)),
    # The metadata are not a JSON object.
    _layout_case("list", lambda meta: b"[]"),
    _layout_case("not_json", lambda meta: b"{not json"),
    _layout_case("not_utf8", lambda meta: b"\xff\xfe"),
    # n and decimation are not ints > 0.
    *(_layout_case(f"{key}_{value!r}", _set(key, value)) for key in ("n", "decimation")
      for value in (0, -6, 6.0, "6", True, None)),
    # n too large for the steps' dtype.
    _layout_case("n_10**8", _set("n", 10**8)),
    # The labels are not those of a run's phases.
    *(_layout_case(f"labels_{value!r}", _set("labels", value))
      for value in (["a", "b"], ["x", "y", "z"], ["1a", "1b", "1c"], "abc", 3)),
    # v_sm_nominal is not a float (the values a float may not take: see
    # test_metrics_refuses_a_sm_nominal_voltage_that_is_not_finite).
    *(_layout_case(f"v_sm_nominal_{value!r}", _set("v_sm_nominal", value))
      for value in (10000, "10000.0", None, [10000.0])),
    # The steps are not whole ones of the layout the metadata name.
    _layout_case("steps_a_byte_short", steps=lambda data: data[:-1]),
    _layout_case("steps_a_byte_long", steps=lambda data: data + b"\0"),
    _layout_case("n_7_over_steps_of_6", _set("n", 7)),
    # The metadata's length reaches before the sidecar's start.
    _layout_case("length_past_the_start", length=lambda text: len(text) + 10**6),
]


@pytest.mark.parametrize("edit, steps, length", OTHER_LAYOUTS)
def test_metrics_refuses_a_whole_sidecar_of_another_layout(workdir, capsys, edit, steps, length):
    csv_path = _run_small(workdir)
    _relayout(csv_path, edit, steps=steps, length=length)
    _refused(capsys, csv_path, CUT_SHORT)


def test_the_sidecar_layout_is_the_one_its_magic_names(workdir):
    # A change to the steps' layout or to the metadata keys must bump _MAGIC.
    assert _MAGIC == b"mmcsim-rec-4"
    assert _META == ("csv", "decimation", "labels", "n", "v_sm_nominal")
    assert _step_dtype(1, 3).descr == [
        ("times", "<f8"), *((name, "<f8", (3,)) for name in ("i", "i_ref", "i_z", "v_up", "v_low")),
        ("v_c", "<f8", (3, 2)), ("u", "|i1", (3, 2)), ("v_dc_link", "<f8", (3,)),
        ("i_dc_link", "<f8", (3,)), ("policy", "<u4"),
    ]
    assert _step_dtype(6, 6).descr == [
        ("times", "<f8"), *((name, "<f8", (6,)) for name in ("i", "i_ref", "i_z", "v_up", "v_low")),
        ("v_c", "<f8", (6, 12)), ("u", "|i1", (6, 12)), ("v_dc_link", "<f8", (6,)),
        ("i_dc_link", "<f8", (6,)), ("policy", "<u4"),
    ]
    # ... and the sink writes those keys.
    data = Path(_run_small(workdir) + ".rec").read_bytes()
    length = int.from_bytes(data[-24:-16], "little")
    assert data[-12:] == _MAGIC
    assert tuple(json.loads(data[-24 - length : -24])) == _META


def test_metrics_on_a_mangled_csv_fails_cleanly(workdir, capsys):
    cfg = _write(workdir, "run.ini", SMALL_CONFIG)
    assert main(["run", cfg]) == 0
    csv_path = workdir / "out" / "run.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].split(",")[0] + "\n"
    csv_path.write_text("".join(lines))
    _refused(capsys, csv_path, STALE)


# ---------------------------------------------------------------- sidecar


def _run_small(workdir, text=SMALL_CONFIG, code=0):
    assert main(["run", _write(workdir, "run.ini", text)]) == code
    return str(workdir / "out" / "run.csv")


def test_metrics_refuses_a_csv_edited_to_the_same_size(workdir, capsys):
    csv_path = _run_small(workdir)
    lines = Path(csv_path).read_text().splitlines(keepends=True)
    fields = lines[10].split(",")
    digit = next(c for c in fields[2] if c.isdigit())
    fields[2] = fields[2].replace(digit, "5" if digit != "5" else "6", 1)
    lines[10] = ",".join(fields)
    Path(csv_path).write_text("".join(lines))
    assert os.path.getsize(csv_path) == sum(map(len, lines))
    _refused(capsys, csv_path, STALE)


def _cut(data, at):
    return data[:at]


def _flip(data, at):
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]


@pytest.mark.parametrize("spoil, reason", [
    (None, NO_SIDECAR),   # deleted
    (lambda data: b"", CUT_SHORT),
    (lambda data: _cut(data, len(data) - 1), CUT_SHORT),
    (lambda data: _cut(data, len(data) // 2), CUT_SHORT),
    (lambda data: _flip(data, len(data) - 1), CUT_SHORT),   # the magic
    (lambda data: _flip(data, len(data) - 14), CORRUPT),    # the CRC-32
    (lambda data: _flip(data, len(data) - 24), CORRUPT),    # the metadata's length
    (lambda data: _flip(data, len(data) - 40), CORRUPT),    # the metadata
    (lambda data: _flip(data, 100), CORRUPT),               # a record
], ids=["deleted", "empty", "cut_by_a_byte", "cut_in_half", "magic", "crc", "length",
        "metadata", "record"])
def test_metrics_refuses_a_csv_whose_sidecar_is_spoilt(workdir, capsys, spoil, reason):
    csv_path = _run_small(workdir)
    sidecar = Path(csv_path + ".rec")
    if spoil is None:
        sidecar.unlink()
    else:
        sidecar.write_bytes(spoil(sidecar.read_bytes()))
    _refused(capsys, csv_path, reason)


def test_metrics_refuses_a_csv_beside_the_sidecar_of_another_run(workdir, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(workdir / "other"))
    _run_small(workdir, SMALL_CONFIG.replace("p_set = 13.18e6", "p_set = 12e6"))
    monkeypatch.delenv(OUTPUT_DIR_ENV)
    csv_path = _run_small(workdir)
    Path(csv_path + ".rec").write_bytes((workdir / "other" / "run.csv.rec").read_bytes())
    _refused(capsys, csv_path, STALE)


def test_metrics_of_a_csv_without_data_rows_exits_2_as_the_parser(workdir, capsys):
    # 4 steps at decimation 50 keep none: a header, and a sidecar without steps.
    text = SMALL_CONFIG.replace("duration = 0.01", "duration = 0.0001")
    csv_path = _run_small(workdir, text.replace("decimation = 1", "decimation = 50"))
    assert os.path.exists(csv_path + ".rec")
    _refused(capsys, csv_path, NO_STEP)


RECORD_ARRAYS = ("times", "i", "i_ref", "i_z", "v_up", "v_low", "v_c", "u", "v_dc_link",
                 "i_dc_link", "policy")
SIDECAR_CONFIG = """
[converter]
n_sm = {n}

[scenario]
mode = {mode}
duration = 0.01
policy_schedule = [(0.004, F1V2)]

[output]
decimation = {decimation}
"""


@pytest.mark.parametrize("text, code", [
    # Diverges at step 274 and leaves steps 0-255.
    pytest.param("[converter]\nc_sm = 2e-5\n\n[scenario]\nmode = ideal_dc\nduration = 0.05\n"
                 "i_amp = 5000\n", 3, id="diverged"),
    pytest.param("[scenario]\nduration = 0.05\npolicy_schedule = [(0.02, F1V2)]\n\n"
                 "[output]\ndecimation = 50\n", 0, id="back_to_back_decimation_50"),
    pytest.param("[converter]\nn_sm = 48\n\n[scenario]\nmode = ideal_dc\nduration = 0.01\n"
                 "policy_schedule = [(0.0, F1V2)]\n", 0, id="n_48"),
    *(pytest.param(SIDECAR_CONFIG.format(n=n, mode=mode, decimation=decimation), 0,
                   id=f"n_{n}_{mode}_decimation_{decimation}")
      for n in (1, 6, 48) for mode in ("ideal_dc", "back_to_back") for decimation in (1, 7)),
])
def test_the_sidecar_holds_the_blocks_the_csv_parses_to(workdir, capsys, caplog, text, code):
    csv_path = _run_small(workdir, text, code)
    config = parse_config(text)
    blocks = _sidecar(csv_path)
    meta = next(blocks)
    decimation = meta["decimation"]
    assert (decimation, meta["v_sm_nominal"]) == (config.decimation, config.params.v_sm_nominal)
    sidecar, parsed = list(blocks), list(read_csv_blocks(csv_path))
    assert len(sidecar) == len(parsed) > 0
    for a, b in zip(sidecar, parsed):
        assert a.labels == b.labels
        for name in RECORD_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    # The blocks join to the whole file's load, and `metrics` reports what
    # the scalar oracle does on it.
    loaded = whole_file_load_record_csv(csv_path)
    for name in RECORD_ARRAYS:
        joined = np.concatenate([getattr(block, name) for block in sidecar])
        assert joined.tobytes() == getattr(loaded, name).tobytes(), name
    assert _metrics(capsys, caplog, csv_path, decimation=decimation)[0] == 0
    expected = reference_summarize(
        loaded, (0.0, float(loaded.times[-1])), config.params.v_sm_nominal
    )
    assert (workdir / "out" / "run.metrics.txt").read_text() == format_metrics_text(expected)


def test_run_and_metrics_load_no_openssl(tmp_path):
    # hashlib loads OpenSSL, about 3.6 MiB of resident memory; zlib does not.
    (tmp_path / "run.ini").write_text(SMALL_CONFIG)
    script = (
        "import sys\n"
        "from mmcsim.cli import main\n"
        "assert main(['run', 'run.ini']) == 0\n"
        "assert main(['metrics', 'out/run.csv']) == 0\n"
        "print('_hashlib' in sys.modules)\n"
    )
    env = {key: value for key, value in os.environ.items() if key != OUTPUT_DIR_ENV}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mmcsim.__file__))
    child = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "False"


def test_run_and_metrics_under_the_c_profiler_write_the_unprofiled_bytes(tmp_path):
    # 800 steps: the chunks after the first go to a forked CSV writer.
    # ``cProfile`` swallows SystemExit, so its exit status says nothing;
    # the files and stderr are the check.
    text = SMALL_CONFIG.replace("ideal_dc", "back_to_back").replace("0.01", "0.02")
    text = text.replace("13.18e6", "13.18e6, -13.18e6").replace("[]", "[(0.01, F1V2)]")
    env = {key: value for key, value in os.environ.items() if key != OUTPUT_DIR_ENV}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mmcsim.__file__))
    written = []
    for name, profiler in (("plain", []), ("profiled", ["-m", "cProfile", "-o", "run.prof"])):
        (tmp_path / name).mkdir()
        (tmp_path / name / "run.ini").write_text(text)
        # The window ends after the last sample, at 0.02 s, which `metrics` warns of.
        for command in (["run", "run.ini"], ["metrics", "out/run.csv", "--window", "0", "1"]):
            child = subprocess.run([sys.executable, *profiler, "-m", "mmcsim.cli", *command],
                                   cwd=tmp_path / name, env=env, capture_output=True, text=True,
                                   timeout=300)
            assert child.returncode == 0 and "error:" not in child.stderr, child.stderr
            if command[0] == "metrics":   # one logger name, however the CLI is started
                assert "mmcsim.cli: metrics: the window ends at 1.0 s" in child.stderr
        out = tmp_path / name / "out"
        written.append([(out / f).read_bytes() for f in ("run.csv", "metrics.json", "run.metrics.json")])
    assert (tmp_path / "profiled" / "run.prof").stat().st_size > 0
    assert written[0] == written[1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_run_refuses_a_sidecar_path_that_is_a_directory(workdir, capsys):
    (workdir / "out" / "run.csv.rec").mkdir(parents=True)
    fds = len(os.listdir("/proc/self/fd"))
    assert main(["run", _write(workdir, "run.ini", SMALL_CONFIG)]) == 2
    assert re.search(r"error: cannot open '.*run\.csv' for writing: .*run\.csv\.rec",
                     capsys.readouterr().err)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert not (workdir / "out" / "run.csv").exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_run_and_metrics_leave_no_file_descriptor_open(workdir, capsys):
    fds = len(os.listdir("/proc/self/fd"))
    csv_path = _run_small(workdir)
    assert main(["metrics", csv_path]) == 0
    # Stopped after the sidecar's first block.
    assert main(["metrics", csv_path, "--window", "0", "inf"]) == 2
    rec = Path(csv_path + ".rec")
    rec.write_bytes(_flip(rec.read_bytes(), 100))
    assert main(["metrics", csv_path]) == 2
    _run_small(workdir, "[scenario]\nduration = 0.01\n\n[output]\ndirectory = out\n")
    assert len(os.listdir("/proc/self/fd")) == fds


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
