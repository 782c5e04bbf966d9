"""End-to-end tests of the run / compare / metrics commands."""

import json

import pytest

from mmcsim.cli import OUTPUT_DIR_ENV, main

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
