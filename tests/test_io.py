"""Unit tests for configuration parsing and the CSV/report persistence.

The CSV writer formats whole tables in numpy; ``OracleSink`` below is
the per-field writer it replaced, and the two must write the same
bytes.  The package reads a run back from its sidecar alone; the CSV's
text is checked against the record by the loaders of
``per_phase_reference``: ``oracle_load``, field by field,
``whole_file_load_record_csv``, the whole file at once, and
``read_csv_blocks``, in blocks of whole steps, which the sidecar's
blocks must equal one for one.
"""

import contextlib
import dataclasses
import errno
import json
import math
import os
import pickle
import re
import runpy
import signal
import time
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmcsim import _float_text, cli, csvio
from mmcsim.cli import main
from mmcsim.config import _FIELDS, _SCHEMA, RunConfig, parse_config, serialize_config
from mmcsim.controller import SortPolicy
from mmcsim.csvio import (
    TimeSeriesSink,
    _sidecar,
    csv_columns,
    format_metrics_text,
    write_report,
)
from mmcsim.errors import ConfigError, ContractError, SimulationDiverged
from mmcsim.metrics import RunRecord, summarize
from mmcsim.model import ConverterParams
from mmcsim.testbench import (
    _KERNEL_BUDGET,
    DcLink,
    GridSource,
    Scenario,
    _kernel_bytes,
    build_stock_system,
    run_scenario,
    simulate,
)
from per_phase_reference import (
    blockwise_load_record_csv,
    oracle_load,
    parse_block_rows,
    policy_indices,
    read_csv_blocks,
    whole_file_load_record_csv,
)
import per_phase_reference

RECORD_ARRAYS = ("times", "i", "i_ref", "i_z", "v_up", "v_low", "v_c", "u",
                 "v_dc_link", "i_dc_link", "policy")


def _stock(n):
    """The stock converter's parameters at ``n`` SMs per arm: what a sink
    of a record with ``n`` SMs per arm is given."""
    return replace(build_stock_system()[0], n=n)


# ---------------------------------------------------------------- config


def test_empty_config_gives_stock_system():
    cfg = parse_config("")
    params, grid, link, scenario = build_stock_system()
    assert cfg.params == params
    assert cfg.grid == grid
    assert cfg.dc_link == link
    assert cfg.scenario == scenario
    assert cfg.output_dir == "out"
    assert cfg.decimation == 1
    assert cfg.window is None


def test_config_round_trip_is_exact():
    text = """
[converter]
n_sm = 4
v_dc = 48e3
w_z = 0.25

[scenario]
mode = ideal_dc
duration = 0.30000000000000004
policy_schedule = [(0.1, F1V2)]
p_set = 9.9e6

[output]
directory = results
decimation = 8
window_start = 0.1
window_end = 0.3
"""
    first = parse_config(text)
    second = parse_config(serialize_config(first))
    assert first == second
    assert second.scenario.duration == 0.30000000000000004
    assert second.window == (0.1, 0.3)


def test_config_round_trip_keeps_current_references():
    first = parse_config("[scenario]\nduration = 0.1\ni_amp = 359.25, -359.25\n")
    text = serialize_config(first)
    assert "i_amp = 359.25, -359.25\n" in text and "p_set" not in text
    assert parse_config(text) == first


STOCK_CONFIG_TEXT = """\
[converter]
n_sm = 6
r = 0.03
l = 0.005
l_arm = 0.003
c_sm = 0.0025
v_dc = 60000.0
t_s = 2.5e-05
w = 1.0
w_z = 1.0

[grid]
amplitude = 24500.0
frequency = 60.0

[dc_link]
length_km = 5.0
c_per_km = 1.6e-05
l_per_km = 5e-05

[scenario]
mode = back_to_back
duration = 3.0
policy_schedule = [(1.2, F1V2), (1.4, V1F2)]
p_set = 13180000.0, -13180000.0

[output]
directory = out
decimation = 1
"""


def test_stock_config_serializes_to_frozen_text():
    assert serialize_config(parse_config("")) == STOCK_CONFIG_TEXT


def test_config_keys_cover_every_dataclass_field():
    for section, cls in (("converter", ConverterParams), ("grid", GridSource),
                         ("dc_link", DcLink)):
        assert list(_FIELDS[section].values()) == [f.name for f in dataclasses.fields(cls)]


def test_readme_config_block_names_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    keys: dict[str, list[str]] = {}
    for line in block.splitlines():
        if line.startswith("["):
            names = keys.setdefault(line.strip("[]"), [])
        elif "=" in line:
            names.append(line.lstrip("# ").split("=")[0].strip())
    assert keys == {section: list(names) for section, names in _SCHEMA.items()}


def test_unknown_keys_and_sections_rejected_together():
    text = """
[converter]
n_sm = 6
dead_time = 2e-6

[thermal]
limit = 400
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    message = str(err.value)
    assert "dead_time" in message
    assert "thermal" in message
    # configparser's [DEFAULT] is an unknown section too: its keys must
    # neither change the run nor leak into the other sections.
    for text in ("[DEFAULT]\nfoo = 1\nn_sm = 4\n",
                 "[DEFAULT]\nn_sm = 4\n\n[converter]\n\n[grid]\n"):
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            parse_config(text)


def test_invalid_converter_values_name_the_field():
    with pytest.raises(ConfigError) as err:
        parse_config("[converter]\nn_sm = 0\n")
    assert "[converter]" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("[converter]\nr = resistive\n")
    assert "r" in str(err.value)
    assert str(err.value).startswith("[converter] r: cannot parse")
    for weight in ("w = nan", "w_z = inf"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[converter]\n{weight}\n")
        assert str(err.value).startswith("[converter] weights")


def test_config_syntax_error_is_wrapped():
    with pytest.raises(ConfigError) as err:
        parse_config("[converter\nn_sm = 5\n")
    assert "syntax" in str(err.value)


def test_policy_schedule_parsing():
    cfg = parse_config(
        "[scenario]\nduration = 1.0\npolicy_schedule = [(0.2, F1V2), (0.5, V1F2)]\n"
        "p_set = 1e6\nmode = ideal_dc\n"
    )
    assert cfg.scenario.events == [
        (0.2, SortPolicy.F1V2), (0.5, SortPolicy.V1F2)
    ]
    cfg = parse_config("[scenario]\npolicy_schedule = []\n")
    assert cfg.scenario.events == []


@pytest.mark.parametrize(
    "schedule",
    [
        "[(0.2, F2V1)]",
        "[(0.2 F1V2)]",
        "[(abc, F1V2)]",
        "[(0.2, F1V2) junk]",
    ],
)
def test_bad_policy_schedule_rejected(schedule):
    with pytest.raises(ConfigError):
        parse_config(f"[scenario]\npolicy_schedule = {schedule}\n")


@pytest.mark.parametrize("make, key", [
    pytest.param(partial(parse_config, f"[scenario]\n{line}\n"), key, id=line)
    for line, key in [
        ("policy_schedule = (0.1, F1V2)", "policy_schedule"),
        ("p_set = 1e6,", r"\[scenario\] p_set"),
        ("i_amp = , 120", r"\[scenario\] i_amp"),
        ("p_set = 1e6 W", r"\[scenario\] p_set"),
        ("i_amp = 1x20", r"\[scenario\] i_amp"),
    ]
] + [
    pytest.param(partial(Scenario, 1.0, [(0.5, "F1V2")], p_set=(1e6,)), "event policy",
                 id="event policy F1V2 as text"),
])
def test_config_errors_exit_2_naming_their_key(monkeypatch, capsys, make, key):
    with pytest.raises(ConfigError, match=key):
        make()
    monkeypatch.setattr(cli, "_load_config", lambda path: make())
    assert main(["run", "any.ini"]) == 2
    assert re.search(f"error: .*{key}", capsys.readouterr().err)


def test_default_schedule_trims_to_duration():
    cfg = parse_config("[scenario]\nduration = 1.3\n")
    assert cfg.scenario.events == [(1.2, SortPolicy.F1V2)]
    cfg = parse_config("[scenario]\nduration = 1.0\n")
    assert cfg.scenario.events == []


def test_reference_keys_are_mutually_exclusive():
    with pytest.raises(ConfigError):
        parse_config("[scenario]\np_set = 1e6\ni_amp = 100\nmode = ideal_dc\n")
    cfg = parse_config("[scenario]\nmode = ideal_dc\ni_amp = 120\n")
    assert cfg.scenario.i_amp == (120.0,)
    assert cfg.scenario.p_set is None


def test_default_reference_follows_mode():
    assert parse_config("[scenario]\nmode = ideal_dc\n").scenario.p_set == (13.18e6,)
    assert parse_config("").scenario.p_set == (13.18e6, -13.18e6)


def test_unknown_scenario_mode_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[scenario]\nmode = bogus\n")
    assert str(info.value) == (
        "[scenario] mode must be one of ('ideal_dc', 'back_to_back'), got 'bogus'"
    )


def test_window_keys_must_pair_and_order():
    with pytest.raises(ConfigError):
        parse_config("[output]\nwindow_start = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config("[output]\nwindow_start = 0.5\nwindow_end = 0.2\n")
    cfg = parse_config("[output]\nwindow_start = 0.1\nwindow_end = 0.4\n")
    assert cfg.window == (0.1, 0.4)


@pytest.mark.parametrize(
    "window, match",
    [
        ("window_start = -0.02\nwindow_end = 0.02",
         r"^\[output\] window must be finite with t1 > t0 >= 0, got \(-0.02, 0.02\)$"),
        ("window_start = 0.0\nwindow_end = 0.2",
         r"^\[output\] window_end = 0.2 is after \[scenario\] duration = 0.02$"),
    ],
    ids=["starts-before-zero", "ends-after-the-run"],
)
def test_a_window_outside_the_run_is_refused(window, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(f"[scenario]\nduration = 0.02\n[output]\n{window}\n")
    # The whole run is a window.
    cfg = parse_config("[scenario]\nduration = 0.02\n[output]\nwindow_start = 0\nwindow_end = 0.02\n")
    assert cfg.window == (0.0, 0.02)


WINDOW_CONFIG = ("[scenario]\nmode = ideal_dc\nduration = 0.01\n\n"
                 "[output]\nwindow_start = {!r}\nwindow_end = {!r}\n")
# Sample times of that run, as the kernel records them: k * t_s, float64.
T_S = 25e-6
SAMPLE_4, SAMPLE_5 = 4 * T_S, 5 * T_S


def _up(t):
    return math.nextafter(t, 1.0)


def _down(t):
    return math.nextafter(t, 0.0)


@pytest.mark.parametrize("window", [
    (SAMPLE_4, _down(SAMPLE_5)),      # sample 4 alone, at the start
    (_up(SAMPLE_4), SAMPLE_5),        # sample 5 alone, at the end
    (0.0, T_S),                       # sample 1 alone: the run records no sample at 0
    (SAMPLE_4, SAMPLE_5),             # two samples
], ids=["first_edge", "last_edge", "first_sample", "two"])
def test_a_window_that_holds_a_sample_time_parses(window):
    assert parse_config(WINDOW_CONFIG.format(*window)).window == window


@pytest.mark.parametrize("window", [
    (_up(SAMPLE_4), _down(SAMPLE_5)),   # between two samples, by one ulp each side
    (0.00011, 0.00012),                 # between samples 4 and 5
    (0.0, _down(T_S)),                  # before the first sample
], ids=["one_ulp_inside", "between", "before_the_first"])
def test_a_window_that_holds_no_sample_time_is_refused(window):
    match = (rf"^\[output\] window_start = {window[0]!r} and window_end = {window[1]!r} hold no"
             rf" sample time k \* \[converter\] t_s = 2\.5e-05, for k = 1 to 400$")
    with pytest.raises(ConfigError, match=match):
        parse_config(WINDOW_CONFIG.format(*window))


@pytest.mark.parametrize("mode, key, zero, other", [
    ("ideal_dc", "p_set", "0.0", "1.0"),
    ("ideal_dc", "p_set", "-0.0", "-1.0"),
    ("ideal_dc", "p_set", "5e-324", "1e-300"),   # a power whose amplitude underflows to 0
    ("ideal_dc", "i_amp", "0", "1e-300"),
    ("back_to_back", "p_set", "13.18e6, 0.0", "13.18e6, -1.0"),   # either converter's
    ("back_to_back", "i_amp", "0, 300", "1, 300"),
])
def test_a_zero_reference_is_refused(mode, key, zero, other):
    text = f"[scenario]\nmode = {mode}\n{key} = {{}}\n"
    match = rf"^\[scenario\] {key} = {zero}: a converter's current reference amplitude is 0,"
    with pytest.raises(ConfigError, match=match):
        parse_config(text.format(zero))
    assert parse_config(text.format(other)).scenario.mode == mode


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("text, key", [
    (WINDOW_CONFIG.format(0.00011, 0.00012), "[output] window_start = 0.00011 and window_end"),
    ("[scenario]\nmode = ideal_dc\nduration = 0.01\np_set = 0.0\n", "[scenario] p_set = 0.0"),
], ids=["window_between_samples", "zero_reference"])
def test_a_config_whose_summary_would_fail_is_refused_before_the_run(
        tmp_path, monkeypatch, capsys, command, text, key):
    # Each used to step the whole run and write run.csv, then fail its summary.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
    (tmp_path / "a.ini").write_text(text)
    configs = ["a.ini"] if command == "run" else ["a.ini", "a.ini"]
    assert main([command, *configs]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {key}") and "Traceback" not in err
    assert [path.name for path in tmp_path.rglob("*")] == ["a.ini"]


@pytest.mark.parametrize("seed", [0, 11])
def test_every_benchmark_config_parses(seed):
    # A config refusal fails here before it fails a benchmark run.
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    for name in workloads["WORKLOAD_NAMES"]:
        for kind in workloads["KINDS"]:
            configs = workloads["build"](name, seed, kind).configs
            assert configs, (name, kind)
            for file, text in configs.items():
                assert isinstance(parse_config(text), RunConfig), (name, kind, file)


@pytest.mark.parametrize("mode, converters", [("ideal_dc", 1), ("back_to_back", 2)])
def test_an_arm_whose_kernel_tables_exceed_the_budget_is_refused(monkeypatch, capsys,
                                                                 mode, converters):
    # The largest n_sm whose tables fit a 1,000-step run, by their byte
    # count alone; parse_config allocates none of them.
    fits, over = 1, 10**6
    while over - fits > 1:
        mid = (fits + over) // 2
        if _kernel_bytes(mid, 1, converters, 1000) <= _KERNEL_BUDGET:
            fits = mid
        else:
            over = mid
    text = "[converter]\nn_sm = {}\n[scenario]\nmode = %s\nduration = 0.025\n" % mode
    assert parse_config(text.format(fits)).params.n == fits
    with pytest.raises(ConfigError, match=rf"^\[converter\] n_sm = {over}: .* over its budget of 256 MiB"):
        parse_config(text.format(over))
    monkeypatch.setattr(cli, "_load_config", lambda path: parse_config(text.format(over)))
    assert main(["run", "any.ini"]) == 2
    assert "[converter] n_sm" in capsys.readouterr().err


def test_decimation_must_be_positive():
    with pytest.raises(ConfigError):
        parse_config("[output]\ndecimation = 0\n")


def test_unstable_dc_link_rejected_in_back_to_back_mode():
    with pytest.raises(ConfigError, match=r"\[dc_link\].*t_s.*omega\*t_s < 2"):
        parse_config("[dc_link]\nlength_km = 0.5\n")
    assert parse_config("[dc_link]\nlength_km = 1.0\n").dc_link.length_km == 1.0
    # An ideal-bus run does not use the link.
    cfg = parse_config("[dc_link]\nlength_km = 0.5\n[scenario]\nmode = ideal_dc\n")
    assert cfg.dc_link.length_km == 0.5


def test_schedule_beyond_duration_rejected():
    with pytest.raises(ConfigError):
        parse_config(
            "[scenario]\nduration = 0.5\npolicy_schedule = [(0.9, F1V2)]\n"
        )
    with pytest.raises(ConfigError):
        parse_config("[scenario]\npolicy_schedule = [(nan, F1V2)]\n")


# ------------------------------------------------------------------- CSV


def test_csv_columns_for_stock_converter():
    cols = csv_columns(6)
    assert cols[:7] == ["t", "phase", "i", "i_ref", "i_z", "v_up", "v_low"]
    assert cols[7:19] == [f"v_c_{j}" for j in range(1, 13)]
    assert cols[19:31] == [f"u_{j}" for j in range(1, 13)]
    assert cols[31:] == ["v_dc_link", "i_dc_link", "policy"]
    with pytest.raises(ContractError):
        csv_columns(0)


def _small_run():
    params, grid, _, _ = build_stock_system()
    scenario = Scenario(duration=0.002, mode="ideal_dc", p_set=(13.18e6,))
    return params, simulate(scenario, params=params, grid=grid)


def test_csv_round_trip_bit_exact(tmp_path):
    params, record = _small_run()
    path = tmp_path / "run.csv"
    with TimeSeriesSink(str(path), params) as sink:
        sink.write_record(record)
    loaded = whole_file_load_record_csv(str(path))
    assert loaded.labels == record.labels
    for field in RECORD_ARRAYS:
        assert np.array_equal(getattr(loaded, field), getattr(record, field)), field


def test_csv_round_trip_awkward_floats(tmp_path):
    times = np.array([0.1 + 0.2, 1.0 / 3.0 + 0.3])
    shape = (2, 3)
    record = RunRecord(
        times=times,
        labels=["a", "b", "c"],
        i=np.repeat([[1.0 / 3.0], [-1e-17]], 3, axis=1),
        i_ref=np.repeat([[2.0 / 3.0], [1e300]], 3, axis=1),
        i_z=np.zeros(shape),
        v_up=np.full(shape, 0.1),
        v_low=np.full(shape, 59999.999999999993),
        v_c=np.full((2, 3, 2), 1e4 + 1e-9),
        u=np.zeros((2, 3, 2), dtype=np.int8),
        v_dc_link=np.full(shape, 6e4),
        i_dc_link=np.full(shape, 7.000000000000001),
        policy=policy_indices(["V1F2", "F1V2"]),
    )
    path = tmp_path / "awkward.csv"
    with TimeSeriesSink(str(path), _stock(1)) as sink:
        sink.write_record(record)
    loaded = whole_file_load_record_csv(str(path))
    for field in ("times", "i", "i_ref", "v_up", "v_low", "v_c", "i_dc_link"):
        assert np.array_equal(getattr(loaded, field), getattr(record, field)), field
    assert np.array_equal(loaded.policy, policy_indices(["V1F2", "F1V2"]))


def test_csv_decimation_keeps_every_nth_step(tmp_path):
    params, record = _small_run()
    path = tmp_path / "thin.csv"
    with TimeSeriesSink(str(path), params, decimation=40) as sink:
        sink.write_record(record)
    loaded = whole_file_load_record_csv(str(path))
    assert loaded.steps == 2
    assert np.array_equal(loaded.times, record.times[[39, 79]])


def test_sink_rejects_schema_mismatch(tmp_path):
    _, record = _small_run()
    with TimeSeriesSink(str(tmp_path / "bad.csv"), _stock(2)) as sink:
        with pytest.raises(ContractError):
            sink.write_record(record)


def test_sink_rejects_backwards_time(tmp_path):
    params, record = _small_run()
    with TimeSeriesSink(str(tmp_path / "twice.csv"), params) as sink:
        sink.write_record(record)
        with pytest.raises(ContractError):
            sink.write_record(record)


def test_load_rejects_foreign_csv(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ContractError):
        blockwise_load_record_csv(str(path))


def test_load_rejects_headers_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(csv_columns(6)) + "\n")
    with pytest.raises(ContractError):
        blockwise_load_record_csv(str(path))
    # Empty lines after the header are no data either, and numpy's
    # "input contained no data" warning must not reach the caller.
    path.write_text(",".join(csv_columns(6)) + "\n\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="contains no data rows"):
            blockwise_load_record_csv(str(path))


def test_sink_rejects_time_going_backwards_within_a_record(tmp_path):
    _, record = _small_run()
    times = record.times.copy()
    times[5] = times[3]
    path = tmp_path / "back.csv"
    with TimeSeriesSink(str(path), _stock(record.n)) as sink:
        with pytest.raises(ContractError):
            sink.write_record(replace(record, times=times))
    assert path.read_text() == ",".join(csv_columns(record.n)) + "\n"


@pytest.mark.parametrize("k", [0, 5, -1])
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_sink_refuses_a_time_that_is_not_finite(tmp_path, t, k):
    _, record = _small_run()
    times = record.times.copy()
    times[k] = t
    path = tmp_path / "time.csv"
    with TimeSeriesSink(str(path), _stock(record.n)) as sink:
        with pytest.raises(ContractError, match="a time that is not finite"):
            sink.write_record(replace(record, times=times))
    assert path.read_text() == ",".join(csv_columns(record.n)) + "\n"
    _assert_sidecar_refuses(str(path), NO_STEP)


# ------------------------------------------------------ writer process


def _fork_recording(monkeypatch):
    """Record the pid of each writer process the sinks fork."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _fail_formatting(monkeypatch):
    def no_space(values):
        raise NO_SPACE

    monkeypatch.setattr(_float_text, "float_text", no_space)


def test_sink_writes_in_one_writer_process(tmp_path, monkeypatch):
    params, record = _small_run()
    pids = _fork_recording(monkeypatch)
    with TimeSeriesSink(str(tmp_path / "run.csv"), params) as sink:
        sink.write_record(_steps(record, slice(None, 30)))
        sink.write_record(_steps(record, slice(30, None)))
    assert len(pids) == 1
    _assert_reaped(pids)
    _assert_same_record(whole_file_load_record_csv(str(tmp_path / "run.csv")), record)


def test_a_run_of_one_formatting_block_forks_no_writer(tmp_path, monkeypatch, capsys):
    # One step fits one formatting block: it is formatted in the caller
    # at once, with the writer's bytes; so is a one-step stock `run`.
    params, record = _small_run()
    pids = _fork_recording(monkeypatch)
    one_step = _steps(record, slice(None, 1))
    with TimeSeriesSink(str(tmp_path / "held.csv"), params) as sink:
        sink.write_record(one_step)
    assert pids == []
    with OracleSink(str(tmp_path / "oracle.csv"), params.n) as sink:
        sink.write_record(one_step)
    assert (tmp_path / "held.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MMCSIM_OUTPUT_DIR", raising=False)
    (tmp_path / "one.ini").write_text("[scenario]\nduration = 2.5e-5\n\n[output]\ndirectory = out\n")
    assert main(["run", "one.ini"]) == 0
    capsys.readouterr()
    assert pids == []
    assert whole_file_load_record_csv(str(tmp_path / "out" / "run.csv")).steps == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_fork_raises_and_closes_its_pipes(tmp_path, monkeypatch):
    params, record = _small_run()
    no_process = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def failing_fork():
        raise no_process

    monkeypatch.setattr(os, "fork", failing_fork)
    path = str(tmp_path / "run.csv")
    before = len(os.listdir("/proc/self/fd"))
    with TimeSeriesSink(path, params) as sink:
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as info:
            sink.write_record(record)
        assert info.value is no_process
        assert len(os.listdir("/proc/self/fd")) == open_fds
    # The CSV and its sidecar are closed too, and the sidecar holds no
    # step the CSV lacks.
    assert len(os.listdir("/proc/self/fd")) == before
    _assert_sidecar_refuses(path, CUT_SHORT)
    with pytest.raises(ContractError, match="contains no data rows"):
        whole_file_load_record_csv(path)


@pytest.mark.parametrize("raised", [NO_SPACE, KeyboardInterrupt()])
def test_a_write_failed_in_the_caller_leaves_no_sidecar_metadata(tmp_path, monkeypatch, raised):
    params, record = _small_run()
    monkeypatch.delattr(os, "fork")   # every call is written in the caller

    def failing(n, n_phases):
        raise raised

    path = str(tmp_path / "run.csv")
    with pytest.raises(type(raised)):
        with TimeSeriesSink(path, params) as sink:
            sink.write_record(_steps(record, slice(None, 5)))
            monkeypatch.setattr(csvio, "_step_dtype", failing)
            sink.write_record(_steps(record, slice(5, None)))
    monkeypatch.undo()
    # The second call's steps reached neither file: the CSV is formatted
    # from the sidecar's tables.
    _assert_same_record(whole_file_load_record_csv(path), _steps(record, slice(None, 5)))
    _assert_sidecar_refuses(path, CUT_SHORT)


def test_sink_without_fork_writes_the_same_bytes(tmp_path, monkeypatch):
    params, record = _small_run()
    with TimeSeriesSink(str(tmp_path / "forked.csv"), params, decimation=3) as sink:
        sink.write_record(record)
    monkeypatch.delattr(os, "fork")
    with TimeSeriesSink(str(tmp_path / "inline.csv"), params, decimation=3) as sink:
        sink.write_record(record)
    assert (tmp_path / "inline.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()


def test_close_raises_the_writer_failure(tmp_path, monkeypatch):
    params, record = _small_run()
    _fail_formatting(monkeypatch)
    pids = _fork_recording(monkeypatch)
    sink = TimeSeriesSink(str(tmp_path / "run.csv"), params)
    sink.write_record(record)
    with pytest.raises(OSError) as info:
        sink.close()
    assert type(info.value) is OSError
    assert (info.value.errno, str(info.value)) == (errno.ENOSPC, str(NO_SPACE))
    assert len(pids) == 1
    _assert_reaped(pids)


def test_a_with_body_that_returns_raises_the_writer_failure(tmp_path, monkeypatch):
    params, record = _small_run()
    _fail_formatting(monkeypatch)
    pids = _fork_recording(monkeypatch)
    path = str(tmp_path / "run.csv")
    with pytest.raises(OSError) as info:
        with TimeSeriesSink(path, params) as sink:
            sink.write_record(record)
    assert type(info.value) is OSError
    assert (info.value.errno, str(info.value)) == (errno.ENOSPC, str(NO_SPACE))
    assert len(pids) == 1
    _assert_reaped(pids)
    _assert_sidecar_refuses(path, CUT_SHORT)


def test_rows_that_end_before_the_sink_closes_end_no_sidecar(tmp_path, monkeypatch):
    params, record = _small_run()
    pids = _fork_recording(monkeypatch)
    path = str(tmp_path / "run.csv")
    sink = TimeSeriesSink(path, params)
    sink.write_record(record)
    # As when the caller dies: the writer sees the pipe end without the sink closing.
    monkeypatch.setattr(csvio.pickle, "dump", lambda *args: None)
    with pytest.raises(EOFError):
        sink.close()
    _assert_reaped(pids)
    monkeypatch.undo()
    _assert_same_record(whole_file_load_record_csv(path), record)
    _assert_sidecar_refuses(path, CUT_SHORT)


def test_run_exits_2_when_the_csv_writer_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MMCSIM_OUTPUT_DIR", raising=False)
    (tmp_path / "run.ini").write_text(
        "[scenario]\nmode = ideal_dc\nduration = 0.01\n\n[output]\ndirectory = out\n"
    )
    _fail_formatting(monkeypatch)
    pids = _fork_recording(monkeypatch)
    assert main(["run", "run.ini"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {NO_SPACE}\n")
    assert len(pids) == 1
    _assert_reaped(pids)


def test_close_names_a_writer_that_was_killed(tmp_path, monkeypatch):
    params, record = _small_run()

    def killed(values):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(_float_text, "float_text", killed)
    pids = _fork_recording(monkeypatch)
    sink = TimeSeriesSink(str(tmp_path / "run.csv"), params)
    sink.write_record(record)
    with pytest.raises(OSError, match=r"CSV writer of .*run\.csv' exited with code -9$"):
        sink.close()
    _assert_reaped(pids)


def test_a_diverging_run_reaps_its_writer(tmp_path, monkeypatch):
    params, grid, _, _ = build_stock_system()
    params = dataclasses.replace(params, C=2.0e-5)
    scenario = Scenario(duration=0.05, mode="ideal_dc", i_amp=(5000.0,))
    path = str(tmp_path / "run.csv")
    pids = _fork_recording(monkeypatch)
    with pytest.raises(SimulationDiverged, match="step 274"):
        with TimeSeriesSink(path, params) as sink:
            run_scenario(scenario, sink, params=params, grid=grid)
    assert len(pids) == 1
    _assert_reaped(pids)
    assert whole_file_load_record_csv(path).steps == 256


class _CallerError(Exception):
    pass


@pytest.mark.parametrize("writer_fails", [False, True])
@pytest.mark.parametrize("raised", [_CallerError("stepping failed"), KeyboardInterrupt()])
def test_a_caller_exception_leaves_the_sink_unchanged(tmp_path, monkeypatch, raised, writer_fails):
    params, record = _small_run()
    if writer_fails:
        _fail_formatting(monkeypatch)
    pids = _fork_recording(monkeypatch)
    with pytest.raises(type(raised)) as info:
        with TimeSeriesSink(str(tmp_path / "run.csv"), params) as sink:
            sink.write_record(record)
            raise raised
    assert info.value is raised
    assert len(pids) == 1
    _assert_reaped(pids)
    path = str(tmp_path / "run.csv")
    if not writer_fails:
        _assert_sidecar_holds(path, record)
    else:
        # The writer failed: the sidecar has no metadata.
        _assert_sidecar_refuses(path, CUT_SHORT)


@contextlib.contextmanager
def _writers_end_within(seconds):
    """Raise TimeoutError in the body after ``seconds``: a writer process
    that does not see the end of its rows hangs its sink's close()."""
    def hung(signum, frame):
        raise TimeoutError("a writer process did not see the end of its rows")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_sink_closes_while_a_later_one_is_open(tmp_path):
    params, record = _small_run()
    with _writers_end_within(30):
        first = TimeSeriesSink(str(tmp_path / "first.csv"), params)
        first.write_record(record)
        second = TimeSeriesSink(str(tmp_path / "second.csv"), params)
        second.write_record(record)
        first.close()
        second.close()
    for name in ("first.csv", "second.csv"):
        _assert_same_record(whole_file_load_record_csv(str(tmp_path / name)), record)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)], ids=["in-creation-order", "in-reverse"])
def test_three_open_sinks_close_in_either_order(tmp_path, monkeypatch, order):
    # Each writer forked later holds copies of the earlier writers' pipe
    # ends; each still ends at its own sink's close().
    params, record = _small_run()
    pids = _fork_recording(monkeypatch)
    paths = [str(tmp_path / f"{k}.csv") for k in range(3)]
    with _writers_end_within(30):
        sinks = [TimeSeriesSink(path, params) for path in paths]
        for sink in sinks:
            sink.write_record(record)
        for k in order:
            sinks[k].close()
    assert len(pids) == 3
    _assert_reaped(pids)
    for path in paths:
        _assert_sidecar_holds(path, record)


@pytest.mark.parametrize("raised", [NO_SPACE, KeyboardInterrupt()])
def test_a_sidecar_write_failed_after_the_fork_leaves_no_metadata(tmp_path, monkeypatch, raised):
    params, record = _small_run()
    pids = _fork_recording(monkeypatch)

    def failing(n, n_phases):
        raise raised

    path = str(tmp_path / "run.csv")
    with pytest.raises(type(raised)):
        with TimeSeriesSink(path, params) as sink:
            sink.write_record(_steps(record, slice(None, 75)))   # more than a block: forks
            assert len(pids) == 1
            monkeypatch.setattr(csvio, "_step_dtype", failing)
            sink.write_record(_steps(record, slice(75, None)))
    monkeypatch.undo()
    _assert_reaped(pids)
    # The second call's steps reached neither the sidecar nor, since the
    # writer reads them from it, the CSV.
    _assert_same_record(whole_file_load_record_csv(path), _steps(record, slice(None, 75)))
    _assert_sidecar_refuses(path, CUT_SHORT)


def test_the_writer_pipe_carries_step_ranges_not_steps(tmp_path, monkeypatch):
    # The writer reads the steps from the sidecar: the caller sends only
    # (first step, end step), whatever n is and whatever the policies.
    record = _run(48, "ideal_dc")
    pids = _fork_recording(monkeypatch)
    sent = []
    dump = csvio.pickle.dump

    def recording_dump(obj, file, *args, **kwargs):
        sent.append(obj)
        return dump(obj, file, *args, **kwargs)

    monkeypatch.setattr(csvio.pickle, "dump", recording_dump)
    path = str(tmp_path / "run.csv")
    with TimeSeriesSink(path, _stock(record.n)) as sink:
        # The first call fits a block and is formatted in the caller; the
        # last one is the first with F1V2 steps.
        for part in (slice(None, 10), slice(10, 60), slice(60, None)):
            sink.write_record(_steps(record, part))
    monkeypatch.undo()
    assert len(pids) == 1
    assert sent[-1] is None and len(sent) == 3
    for message in sent[:-1]:
        first, end = message
        assert (type(first), type(end)) == (int, int) and first < end
        assert len(pickle.dumps(message)) < 1024
    assert np.array_equal(record.policy,
                          policy_indices(["V1F2"] * 60 + ["F1V2"] * (record.steps - 60)))
    _assert_sidecar_holds(path, record)


def test_a_sink_writes_both_files_after_the_working_directory_changes(tmp_path, monkeypatch):
    # The writer reads the sidecar through a file the sink opened, not by
    # its path, which may name another file by the time the writer forks.
    params, record = _small_run()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    pids = _fork_recording(monkeypatch)
    with TimeSeriesSink("run.csv", params) as sink:
        sink.write_record(_steps(record, slice(None, 1)))
        monkeypatch.chdir(tmp_path / "elsewhere")
        sink.write_record(_steps(record, slice(1, None)))   # forks the writer
    assert len(pids) == 1
    path = str(tmp_path / "run.csv")
    _assert_sidecar_holds(path, record)
    assert os.listdir(tmp_path / "elsewhere") == []


def _gone(pid):
    """Has process ``pid`` exited?  A zombie that its parent has not reaped has."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_writer_whose_caller_dies_exits_without_returning(tmp_path):
    params, record = _small_run()
    path, after = str(tmp_path / "run.csv"), tmp_path / "after"
    caller = os.fork()
    if caller == 0:
        sink = None
        try:
            sink = TimeSeriesSink(path, params)
            sink.write_record(record)   # forks the writer
        finally:
            # Runs in every process that leaves write_record, by return or raise.
            with contextlib.suppress(BaseException), after.open("a") as f:
                f.write(f"{os.getpid()} {sink and sink._pid}\n")
            os._exit(0)   # dies without closing the sink
    assert os.waitpid(caller, 0)[1] == 0
    writer = int(after.read_text().split()[1])
    # The writer reads the rows left in the pipe, then finds its result
    # pipe broken: it must exit rather than return into the caller's stack.
    deadline = time.monotonic() + 30
    while not _gone(writer):
        assert time.monotonic() < deadline, "the writer outlived its caller"
        time.sleep(0.01)
    assert after.read_text() == f"{caller} {writer}\n"
    _assert_same_record(whole_file_load_record_csv(path), record)
    _assert_sidecar_refuses(path, CUT_SHORT)


def test_sink_rejects_a_record_with_other_phases(tmp_path):
    _, record = _small_run()
    path = tmp_path / "phases.csv"
    with TimeSeriesSink(str(path), _stock(record.n)) as sink:
        sink.write_record(_steps(record, slice(None, 5)))
        with pytest.raises(ContractError, match="record has phases"):
            sink.write_record(replace(_steps(record, slice(5, None)),
                                      labels=["1a", "1b", "1c", "2a", "2b", "2c"]))
    _assert_sidecar_holds(str(path), _steps(record, slice(None, 5)))


@pytest.mark.parametrize("field", ["labels", "policy"])
def test_sink_rejects_a_nul_character_in_a_label_or_policy_name(tmp_path, field):
    # The writer pads the rows' text with NUL bytes, which it then drops:
    # a name with a NUL is not a run's phase, and policy names are not
    # the indices a record holds.
    _, record = _small_run()
    names = (record.labels if field == "labels"
             else [list(SortPolicy)[j].value for j in record.policy])
    names = [*names[:-1], names[-1][:1] + "\0" + names[-1][1:]]
    path = tmp_path / "nul.csv"
    with TimeSeriesSink(str(path), _stock(record.n)) as sink:
        with pytest.raises(ContractError, match="not those of a run|not an index in SortPolicy"):
            sink.write_record(replace(record, **{field: names}))
    assert path.read_bytes() == (",".join(csv_columns(record.n)) + "\n").encode()


@pytest.mark.parametrize("status", [2, -1, 0.5, np.nan])
def test_sink_rejects_statuses_other_than_0_or_1(tmp_path, status):
    _, record = _small_run()
    u = record.u.astype(np.asarray(status).dtype)
    u[7, 1, 3] = status
    path = tmp_path / "status.csv"
    with TimeSeriesSink(str(path), _stock(record.n)) as sink:
        with pytest.raises(ContractError):
            sink.write_record(replace(record, u=u))
    assert path.read_text() == ",".join(csv_columns(record.n)) + "\n"


# ------------------------------------------------- writer/loader oracles


class OracleSink:
    """The per-field CSV writer: every field formatted on its own."""

    def __init__(self, path, n):
        self._file = open(path, "w", newline="")
        self._file.write(",".join(csv_columns(n)) + "\n")
        self._last_t = -np.inf

    def write_record(self, record, decimation=1):
        fmt = "%.17g"
        out = self._file
        for k in range(decimation - 1, record.steps, decimation):
            t = record.times[k]
            if t < self._last_t:
                raise ContractError("record rows would go backwards in time")
            self._last_t = t
            t_text = fmt % t
            policy = list(SortPolicy)[record.policy[k]].value
            for p, label in enumerate(record.labels):
                fields = [t_text, label]
                fields += [
                    fmt % record.i[k, p],
                    fmt % record.i_ref[k, p],
                    fmt % record.i_z[k, p],
                    fmt % record.v_up[k, p],
                    fmt % record.v_low[k, p],
                ]
                fields += [fmt % x for x in record.v_c[k, p]]
                fields += [str(int(x)) for x in record.u[k, p]]
                fields += [
                    fmt % record.v_dc_link[k, p],
                    fmt % record.i_dc_link[k, p],
                    policy,
                ]
                out.write(",".join(fields) + "\n")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()


def _run(n, mode, duration=0.003):
    params, grid, link, _ = build_stock_system()
    params = replace(params, n=n)
    p_set = (13.18e6, -13.18e6) if mode == "back_to_back" else (13.18e6,)
    scenario = Scenario(duration=duration, mode=mode, p_set=p_set,
                        events=[(duration / 2, SortPolicy.F1V2)])
    return simulate(scenario, params=params, grid=grid, dc_link=link)


def _steps(record, sl):
    """The rows of ``record`` selected by the step slice ``sl``."""
    return replace(record, **{name: getattr(record, name)[sl] for name in RECORD_ARRAYS})


def _assert_same_record(loaded, expected):
    assert loaded.labels == expected.labels
    for name in RECORD_ARRAYS:
        a, b = getattr(loaded, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _check_against_oracles(tmp_path, record, decimation=1, split=None):
    """Write with the sink (in two calls when ``split`` is a step index)
    and with the oracle (in one call with the whole record), and load
    with both loaders; everything must agree."""
    parts = [record] if split is None else [
        _steps(record, slice(None, split)), _steps(record, slice(split, None))
    ]
    new_path, oracle_path = tmp_path / "new.csv", tmp_path / "oracle.csv"
    with TimeSeriesSink(str(new_path), _stock(record.n), decimation) as sink:
        for part in parts:
            sink.write_record(part)
    with OracleSink(str(oracle_path), record.n) as sink:
        sink.write_record(record, decimation=decimation)
    assert new_path.read_bytes() == oracle_path.read_bytes()
    _assert_sidecar_holds(str(new_path), oracle_load(str(oracle_path)))


def _assert_sidecar_holds(path, record):
    """The CSV at ``path`` loads to ``record``, and its sidecar holds, block
    for block and array by array, the blocks the CSV parses to."""
    _assert_same_record(whole_file_load_record_csv(path), record)
    blocks = _sidecar(path)
    next(blocks)   # the metadata
    sidecar, parsed = list(blocks), list(read_csv_blocks(path))
    assert len(sidecar) == len(parsed) > 0
    for a, b in zip(sidecar, parsed):
        _assert_same_record(a, b)


# Why the sidecar of a sink that failed part-way, which ends without
# metadata, or of a sink that kept no step is refused.
CUT_SHORT = "its sidecar is cut short or of another layout than mmcsim-rec-4"
NO_STEP = "the run kept no step: the CSV contains no data rows"


def _assert_sidecar_refuses(path, reason):
    """The sidecar of the CSV at ``path`` is refused for ``reason``."""
    with pytest.raises(ContractError) as refused:
        next(_sidecar(path))
    assert reason in str(refused.value) and str(refused.value).startswith(f"{path!r}")


@pytest.mark.parametrize("decimation", [1, 3])
@pytest.mark.parametrize("mode", ["ideal_dc", "back_to_back"])
@pytest.mark.parametrize("n", [1, 6, 48, 400])
def test_writer_and_loader_match_oracles(tmp_path, n, mode, decimation):
    # 40 steps at n = 400, whose tables hold one step each.
    duration = 0.001 if n == 400 else 0.003
    _check_against_oracles(tmp_path, _run(n, mode, duration), decimation=decimation)


@pytest.mark.parametrize("decimation", [1, 3])
def test_writer_matches_oracle_across_two_calls(tmp_path, decimation):
    _check_against_oracles(tmp_path, _run(6, "back_to_back"), decimation, split=59)


@pytest.fixture(scope="module")
def split_record():
    """A 200-step run with a policy change: longer than a kernel chunk."""
    params, grid, _, _ = build_stock_system()
    scenario = Scenario(duration=0.005, mode="ideal_dc", p_set=(13.18e6,),
                        events=[(0.0025, SortPolicy.F1V2)])
    record = simulate(scenario, params=params, grid=grid)
    assert record.steps == 200
    return record


@pytest.mark.parametrize("decimation", [1, 3, 50])
@pytest.mark.parametrize("split", [1, 59, 60, 128])
def test_split_writes_equal_one_whole_write(tmp_path, split_record, split, decimation):
    # The sink counts steps across calls, so a split inside a decimation
    # period (or one whose first part keeps no step) changes no byte.
    _check_against_oracles(tmp_path, split_record, decimation, split=split)


def test_writer_keeps_exact_text_of_signed_zeros_and_nan(tmp_path):
    values = [1e4, -0.0, 0.0, -0.0, np.nan, np.nan, 1e300, 1e300, 0.0, 1e4]
    steps = len(values)
    shape = (steps, 3)
    v_c = np.full((steps, 3, 2), 5e3)
    v_c[:, :, 1] = np.array(values)[:, None]
    record = RunRecord(
        times=np.arange(steps) * 1e-3,
        labels=["a", "b", "c"],
        i=np.zeros(shape),
        i_ref=np.full(shape, -0.0),
        i_z=np.zeros(shape),
        v_up=np.full(shape, np.nan),
        v_low=np.zeros(shape),
        v_c=v_c,
        u=np.zeros((steps, 3, 2), dtype=np.int8),
        v_dc_link=np.full(shape, 6e4),
        i_dc_link=np.zeros(shape),
        policy=np.zeros(steps, "<u4"),   # V1F2
    )
    for decimation in (3, 2, 1):
        _check_against_oracles(tmp_path, record, decimation=decimation)
    text = (tmp_path / "new.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in text[1:]] == ["a", "b", "c"] * steps
    column = [line.split(",")[8] for line in text[1::3]]   # phase a's rows
    assert column == ["%.17g" % v for v in values]
    assert column[1:4] == ["-0", "0", "-0"]


# ------------------------------------------------------- mangled CSVs


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    """Lines of a valid 4-step, 3-phase, n = 1 run CSV, header first."""
    params, grid, _, _ = build_stock_system()
    record = simulate(
        Scenario(duration=1e-4, mode="ideal_dc", p_set=(13.18e6,)),
        params=replace(params, n=1), grid=grid,
    )
    path = tmp_path_factory.mktemp("tiny") / "tiny.csv"
    with OracleSink(str(path), 1) as sink:
        sink.write_record(record)
    return path.read_text().splitlines()


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def _set_field(row, j, text):
    fields = row.split(",")
    fields[j] = text
    return ",".join(fields)


def test_tiny_csv_is_valid(tmp_path, tiny_csv):
    record = blockwise_load_record_csv(_write_lines(tmp_path / "tiny.csv", tiny_csv))
    assert record.steps == 4 and record.labels == ["a", "b", "c"]


# Columns of the n = 1 CSV: 0 t, 1 phase, 2-6 phase series, 7-8 v_c,
# 9-10 u, 11-12 link, 13 policy.
MANGLED_ROWS = [
    (3, lambda row: row.split(",")[0], "line 3 has 1 fields"),
    (4, lambda row: row + ",0", "line 4 has 15 fields, expected 14"),
    (5, lambda row: _set_field(row, 2, "x"), "line 5 has a field that does not parse"),
    (2, lambda row: _set_field(row, 9, "0.5"), "line 2 has a field that does not parse"),
    (6, lambda row: _set_field(row, 10, "2"),
     "line 6 has a switch status other than 0 or 1"),
    (5, lambda row: _set_field(row, 1, "b"), "line 5 breaks the phase ordering"),
    (3, lambda row: _set_field(row, 0, "1"),
     "line 3 has a time other than its step's first row"),
]


@pytest.mark.parametrize("line, mangle, message", MANGLED_ROWS)
def test_load_names_the_line_of_a_mangled_row(tmp_path, tiny_csv, line, mangle, message):
    lines = list(tiny_csv)
    lines[line - 1] = mangle(lines[line - 1])
    with pytest.raises(ContractError, match=message):
        blockwise_load_record_csv(_write_lines(tmp_path / "bad.csv", lines))


SWAPPED_ROWS = [
    # Phase a of steps 1 and 2, then phase c of steps 1 and 4.
    (((2, 5),), "line 3 has a time other than its step's first row"),
    (((4, 13),), "line 4 has a time other than its step's first row"),
    # Steps 1 and 2 whole: every row agrees with its step.
    (((2, 5), (3, 6), (4, 7)), "line 5 goes back in time"),
]


@pytest.mark.parametrize("swap, message", SWAPPED_ROWS)
def test_load_names_the_line_of_swapped_rows(tmp_path, tiny_csv, swap, message):
    lines = list(tiny_csv)
    for a, b in swap:
        lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
    with pytest.raises(ContractError, match=message):
        blockwise_load_record_csv(_write_lines(tmp_path / "swapped.csv", lines))


def test_load_names_a_row_whose_policy_differs_from_its_step(tmp_path, tiny_csv):
    lines = list(tiny_csv)
    lines[5] = _set_field(lines[5], 13, "F1V2")
    with pytest.raises(ContractError, match="line 6 has a policy other than its step's first row"):
        blockwise_load_record_csv(_write_lines(tmp_path / "policy.csv", lines))


def test_load_rejects_a_file_ending_inside_a_step(tmp_path, tiny_csv):
    with pytest.raises(ContractError, match="inside a step"):
        blockwise_load_record_csv(_write_lines(tmp_path / "cut.csv", tiny_csv[:-1]))


def _mangle_row(lines, line, mangle):
    lines[line - 1] = mangle(lines[line - 1])


def _swap_rows(lines, swap):
    for a, b in swap:
        lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]


@pytest.mark.parametrize(
    "defect, message, opens",
    [
        *((partial(_mangle_row, line=line, mangle=mangle), message, 1)
          for line, mangle, message in MANGLED_ROWS),
        *((partial(_swap_rows, swap=swap), message, 1) for swap, message in SWAPPED_ROWS),
        (list.pop, "inside a step", 1),
        # Written as the byte 0xff, which is read as a lone surrogate.
        (partial(_mangle_row, line=4, mangle=lambda row: "\udcff" + row),
         "line 4 is not UTF-8 text", 1),
    ],
)
def test_a_refused_csv_is_read_once(tmp_path, monkeypatch, tiny_csv, defect, message, opens):
    lines = list(tiny_csv)
    defect(lines)
    path = tmp_path / "bad.csv"
    path.write_bytes("".join(line + "\n" for line in lines).encode(errors="surrogateescape"))
    opened = []

    def counted_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(per_phase_reference, "open", counted_open, raising=False)
    with pytest.raises(ContractError, match=message):
        blockwise_load_record_csv(str(path))
    assert opened == [str(path)] * opens


def test_load_skips_empty_lines_and_counts_them_in_line_numbers(tmp_path, tiny_csv):
    expected = blockwise_load_record_csv(_write_lines(tmp_path / "plain.csv", tiny_csv))
    gapped = tiny_csv[:4] + [""] + tiny_csv[4:] + [""]
    _assert_same_record(blockwise_load_record_csv(_write_lines(tmp_path / "gap.csv", gapped)), expected)
    # File line 5 is empty; lines 6 and 7 are phases a and b of step 2.
    for line, mangle, message in [
        (6, lambda row: row.split(",")[0], "line 6 has 1 fields, expected 14"),
        (6, lambda row: _set_field(row, 10, "0.5"), "line 6 has a field that does not parse"),
        (6, lambda row: _set_field(row, 10, "2"), "line 6 has a switch status other than 0 or 1"),
        (6, lambda row: _set_field(row, 1, "b"), "line 6 breaks the phase ordering"),
        (7, lambda row: _set_field(row, 0, "1"),
         "line 7 has a time other than its step's first row"),
        (7, lambda row: _set_field(row, 13, "F1V2"),
         "line 7 has a policy other than its step's first row"),
    ]:
        lines = list(gapped)
        lines[line - 1] = mangle(lines[line - 1])
        with pytest.raises(ContractError, match=message):
            blockwise_load_record_csv(_write_lines(tmp_path / "gap_bad.csv", lines))


@pytest.mark.parametrize("blank", [" ", "\t", "  \t "])
def test_load_refuses_a_whitespace_only_line(tmp_path, tiny_csv, blank):
    lines = tiny_csv[:3] + [blank] + tiny_csv[3:]
    with pytest.raises(ContractError, match="line 4 has 1 fields, expected 14"):
        blockwise_load_record_csv(_write_lines(tmp_path / "blank.csv", lines))


@pytest.mark.parametrize(
    "line, field",
    # The header; a time in the first text chunk; a label, a number and
    # a policy past it, where the header read has decoded nothing bad.
    [(1, 0), (6, 0), (200, 1), (200, 4), (201, -1)],
)
def test_load_names_a_line_that_is_not_utf8(tmp_path, line, field):
    params, record = _small_run()
    path = tmp_path / "run.csv"
    with TimeSeriesSink(str(path), params) as sink:
        sink.write_record(record)
    lines = path.read_bytes().splitlines(keepends=True)
    assert sum(map(len, lines[: line - 1])) > 8192 or line < 10
    fields = lines[line - 1].split(b",")
    fields[field] = b"\xff" + fields[field]
    lines[line - 1] = b",".join(fields)
    path.write_bytes(b"".join(lines))
    with pytest.raises(ContractError, match=rf"line {line} is not UTF-8 text"):
        blockwise_load_record_csv(str(path))


def test_a_row_read_before_text_that_does_not_decode_names_its_defect(tmp_path):
    params, record = _small_run()
    path = tmp_path / "run.csv"
    with TimeSeriesSink(str(path), params) as sink:
        sink.write_record(record)
    lines = path.read_bytes().splitlines(keepends=True)
    # Line 200 is in a later 8 KiB text chunk than line 3, in the same block.
    assert sum(map(len, lines[:199])) > 8192
    lines[2] = _with_field(lines[2], 2, b"x")
    lines[199] = b"\xff" + lines[199]
    path.write_bytes(b"".join(lines))
    with pytest.raises(ContractError) as whole:
        whole_file_load_record_csv(str(path))
    assert "line 3 has a field that does not parse" in str(whole.value)
    with pytest.raises(ContractError) as blocks:
        blockwise_load_record_csv(str(path))
    assert str(blocks.value) == str(whole.value)


def test_sink_refuses_long_labels_and_policies(tmp_path):
    # A run's phases are a, b, c or 1a to 2c, its policies indices in
    # SortPolicy: a list of policy names is refused, long or not.
    labels = ["a", "b", "c"]
    policy = ["V1F2", "a_policy_name_longer_than_any_the_simulator_writes"]
    steps = len(policy)
    shape = (steps, len(labels))
    record = RunRecord(
        times=np.array([0.0, 25e-6]),
        labels=labels,
        i=np.full(shape, 1.5),
        i_ref=np.full(shape, 2.5),
        i_z=np.full(shape, -0.5),
        v_up=np.full(shape, 3e4),
        v_low=np.full(shape, 2e4),
        v_c=np.full((*shape, 2), 1e4),
        u=np.ones((*shape, 2), dtype=np.int8),
        v_dc_link=np.full(shape, 6e4),
        i_dc_link=np.full(shape, 7.0),
        policy=policy,
    )
    path = tmp_path / "long.csv"
    long_label = replace(record, labels=["a_phase_label_longer_than_any_the_simulator_writes",
                                         "b", "c"], policy=np.zeros(steps, "<u4"))
    with TimeSeriesSink(str(path), _stock(1)) as sink:
        with pytest.raises(ContractError, match="not those of a run"):
            sink.write_record(long_label)
        with pytest.raises(ContractError, match="a policy that is not an index in SortPolicy"):
            sink.write_record(record)
    assert path.read_text() == ",".join(csv_columns(1)) + "\n"
    _assert_sidecar_refuses(str(path), NO_STEP)


@pytest.mark.parametrize("field, name", [
    ("labels", ["a", "a", "b"]),     # the parse finds a break in the phase order
    ("labels", ["a", "b\nx", "c"]),  # or a row of 15 fields
    ("policy", "V1F2"),              # a list of the run's policy names, not indices
    ("policy", "F1,V2"),             # ... with one that would make a row of 15 fields
    ("policy", "V1F2\r"),            # ... or that the parse would read as "V1F2"
    ("policy", 2),                   # an index past SortPolicy's last
    ("policy", -1),                  # a negative index of a signed array
])
def test_sink_refuses_what_its_loader_would_refuse_or_read_otherwise(tmp_path, field, name):
    _, record = _small_run()
    if field == "policy":   # step 3's policy is ``name``, the others the run's
        policy = ([list(SortPolicy)[j].value for j in record.policy] if isinstance(name, str)
                  else record.policy.astype(np.int64))
        policy[3] = name
        name = policy
    path = tmp_path / "odd.csv"
    with TimeSeriesSink(str(path), _stock(record.n)) as sink:
        with pytest.raises(ContractError, match="not those of a run|not an index in SortPolicy"):
            sink.write_record(replace(record, **{field: name}))
    assert path.read_text() == ",".join(csv_columns(record.n)) + "\n"
    _assert_sidecar_refuses(str(path), NO_STEP)


_NOT_NUMBERS = st.one_of(
    st.sampled_from(["", " ", "1.2.3", "0x10", "--1", "1e", "e5", "nan1"]),
    st.text(alphabet="gjkqwz#;:'\"", min_size=1, max_size=4),
)


@st.composite
def _mangled(draw, lines):
    """``lines`` with one mangling that leaves the CSV invalid."""
    lines = list(lines)
    n_rows = len(lines) - 1
    r = draw(st.integers(1, n_rows))
    fields = lines[r].split(",")
    kind = draw(st.sampled_from(["truncate", "drop", "add", "swap", "token"]))
    if kind == "truncate":
        lines[r] = lines[r][: draw(st.integers(0, lines[r].rindex(",")))]
    elif kind == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
        lines[r] = ",".join(fields)
    elif kind == "add":
        fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(["0", "", "x"])))
        lines[r] = ",".join(fields)
    elif kind == "swap":
        other = draw(st.integers(1, n_rows).filter(lambda o: o != r))
        lines[r], lines[other] = lines[other], lines[r]
    else:
        j = draw(st.sampled_from([0, *range(2, len(fields) - 1)]))
        statuses = st.sampled_from(["0.5", "2", "-1", "1.0", "x"])
        lines[r] = _set_field(lines[r], j, draw(statuses if j in (9, 10) else _NOT_NUMBERS))
    return lines


@pytest.fixture(scope="module")
def tiny_sidecar(tmp_path_factory, tiny_csv):
    """The bytes of the sidecar that the sink writes beside ``tiny_csv``."""
    path = tmp_path_factory.mktemp("tiny_run") / "tiny.csv"
    record = oracle_load(_write_lines(path, tiny_csv))
    with TimeSeriesSink(str(path), _stock(1)) as sink:
        sink.write_record(record)
    assert path.read_text().splitlines() == tiny_csv
    return Path(f"{path}.rec").read_bytes()


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mangled_csv_raises_contract_error_only(tmp_path, capsys, tiny_csv, tiny_sidecar, data):
    # Beside the run's own sidecar, which `metrics` refuses as stale.
    path = _write_lines(tmp_path / "mangled.csv", data.draw(_mangled(tiny_csv)))
    Path(f"{path}.rec").write_bytes(tiny_sidecar)
    with pytest.raises(ContractError):
        blockwise_load_record_csv(path)
    capsys.readouterr()
    assert main(["metrics", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path!r}: its sidecar is stale: it names another CSV's byte size and CRC-32"
        " (an edited CSV, or another run's sidecar)\n"
    )
    assert not list(tmp_path.glob("mangled.metrics.*"))

# ------------------------------------------------- block-wise loading


@pytest.fixture(scope="module")
def twelve_steps(tmp_path_factory):
    """Byte lines of a valid 12-step, 3-phase, n = 1 run CSV, header first."""
    params, grid, _, _ = build_stock_system()
    record = simulate(
        Scenario(duration=3e-4, mode="ideal_dc", p_set=(13.18e6,)),
        params=replace(params, n=1), grid=grid,
    )
    path = tmp_path_factory.mktemp("twelve") / "twelve.csv"
    with TimeSeriesSink(str(path), _stock(1)) as sink:
        sink.write_record(record)
    return path.read_bytes().splitlines()


def _write_byte_lines(path, lines):
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return str(path)


def _with_field(line, j, text):
    fields = line.split(b",")
    fields[j] = text
    return b",".join(fields)


# Defects of the data row r, which starts a step; line 1 is the header.
def _drop_a_field(lines, r):
    lines[1 + r] = lines[1 + r].rsplit(b",", 1)[0]


def _bad_status(lines, r):
    lines[1 + r] = _with_field(lines[1 + r], 9, b"2")


def _swapped_phases(lines, r):
    lines[1 + r], lines[2 + r] = lines[2 + r], lines[1 + r]


def _step_back_in_time(lines, r):
    for q in range(r, r + 3):
        lines[1 + q] = _with_field(lines[1 + q], 0, b"0")


def _not_utf8(lines, r):
    lines[1 + r] = b"\xff" + lines[1 + r]


def _bad_field(lines, r):
    lines[1 + r] = _with_field(lines[1 + r], 2, b"x")


@pytest.mark.parametrize(
    "defect", [_drop_a_field, _bad_status, _swapped_phases, _step_back_in_time, _not_utf8]
)
@pytest.mark.parametrize("block", ["second", "last"])
@pytest.mark.parametrize("block_steps", [3, 4, 8])
def test_a_defect_in_a_later_block_names_the_line_the_whole_file_load_names(
    tmp_path, twelve_steps, block_steps, block, defect
):
    block_rows = 3 * block_steps   # a parse block is whole steps
    lines = list(twelve_steps)
    n_rows = len(lines) - 1
    start = block_rows if block == "second" else (n_rows - 1) // block_rows * block_rows
    r = start + (-start) % 3   # the first step to start in the block
    defect(lines, r)
    lines[1 + r : 1 + r] = [b"", b""]
    path = _write_byte_lines(tmp_path / "bad.csv", lines)
    with pytest.raises(ContractError) as whole:
        whole_file_load_record_csv(path)
    # The header and two empty lines come before data row r.
    assert f": line {r + 4} " in str(whole.value)

    with pytest.raises(ContractError) as blocks:
        blockwise_load_record_csv(path, block_rows)
    assert str(blocks.value) == str(whole.value)


@pytest.mark.parametrize("text", [b"nan", b"inf", b"-inf"])
@pytest.mark.parametrize("step", [0, 5, 11])
@pytest.mark.parametrize("block_rows", [3, None])
def test_a_time_that_is_not_finite_is_named_by_its_line(tmp_path, twelve_steps, block_rows, step, text):
    lines = list(twelve_steps)
    for q in range(3 * step, 3 * step + 3):
        lines[1 + q] = _with_field(lines[1 + q], 0, text)
    path = _write_byte_lines(tmp_path / "time.csv", lines)
    message = f"{path!r}: line {3 * step + 2} has a time that is not finite"
    with pytest.raises(ContractError) as whole:
        whole_file_load_record_csv(path)
    assert str(whole.value) == message
    with pytest.raises(ContractError) as blocks:
        blockwise_load_record_csv(path, block_rows)
    assert str(blocks.value) == message


def test_a_csv_whose_lines_end_in_crlf_loads_as_with_lf(tmp_path, monkeypatch):
    # A 0.02 s stock back-to-back run.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    (tmp_path / "run.ini").write_text("[scenario]\nduration = 0.02\n")
    assert main(["run", "run.ini"]) == 0
    lf = tmp_path / "out" / "run.csv"
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    expected = blockwise_load_record_csv(str(lf))
    _assert_sidecar_holds(str(lf), expected)
    _assert_same_record(blockwise_load_record_csv(str(crlf)), expected)
    _assert_same_record(whole_file_load_record_csv(str(crlf)), expected)
    _assert_same_record(oracle_load(str(crlf)), expected)


@st.composite
def _line_ending_defect(draw, lines):
    """Byte lines ``lines`` with one line-ending defect, which numpy.loadtxt
    may read as a valid CSV, and maybe a line that is not UTF-8, before or
    after it."""
    lines = list(lines)
    r = draw(st.integers(1, len(lines) - 1))
    kind = draw(st.sampled_from(["cr line", "cr in row", "joined", "crlf", "space cr"]))
    if draw(st.booleans()):
        q = draw(st.integers(0, len(lines) - 1))
        lines[q] = b"\xff" + lines[q]
    if kind == "cr line":
        lines.insert(r, draw(st.sampled_from([b"\r", b"\r\r"])))
    elif kind == "cr in row":
        # Up to the last comma: a \r after it makes two defects, which
        # test_a_cr_in_the_policy_field_is_named_in_block_order covers.
        k = draw(st.integers(0, lines[r].rindex(b",")))
        lines[r] = lines[r][:k] + b"\r" + lines[r][k:]
    elif kind == "joined":   # with the header, when r is 1
        lines[r - 1 : r + 1] = [lines[r - 1] + b"\r" + lines[r]]
    elif kind == "crlf":
        lines[r] += b"\r"
    else:
        lines.insert(r, b" \r")
    return lines


@pytest.mark.parametrize("block_steps", [3, 4, 8, None])
@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_line_ending_defect_loads_as_the_whole_file_load_does(
    tmp_path, twelve_steps, block_steps, data
):
    path = _write_byte_lines(tmp_path / "ends.csv", data.draw(_line_ending_defect(twelve_steps)))
    try:
        expected = whole_file_load_record_csv(path)
    except ContractError as exc:
        expected = exc
    rows = block_steps and 3 * block_steps
    if isinstance(expected, ContractError):
        with pytest.raises(ContractError) as blocks:
            blockwise_load_record_csv(path, rows)
        assert str(blocks.value) == str(expected)
    else:
        _assert_same_record(blockwise_load_record_csv(path, rows), expected)


@pytest.mark.parametrize("defect", [_not_utf8, _bad_field])
def test_a_row_after_a_bare_cr_has_one_line_number_whatever_its_defect(
    tmp_path, twelve_steps, defect
):
    # "\r\r" before data row 2, with no "\n", ends two more text lines,
    # as numpy.loadtxt counts rows: data row 4 is line 7.
    lines = list(twelve_steps)
    lines[2] = b"\r\r" + lines[2]
    defect(lines, 3)
    path = _write_byte_lines(tmp_path / "cr.csv", lines)
    with pytest.raises(ContractError) as whole:
        whole_file_load_record_csv(path)
    with pytest.raises(ContractError) as blocks:
        blockwise_load_record_csv(path)
    assert str(blocks.value) == str(whole.value)
    assert f"{path!r}: line 7 " in str(blocks.value)


@pytest.mark.parametrize("block_rows", [3, None])
def test_a_cr_in_the_policy_field_is_named_in_block_order(tmp_path, twelve_steps, block_rows):
    # At 3 rows a block is a step, and data row 8 ends the third.  A \r
    # after its last comma splits it into a whole row whose policy is cut
    # (line 10) and a line of one field (line 11): two defects.
    lines = list(twelve_steps)
    cut = lines[9].rindex(b",") + 2
    lines[9] = lines[9][:cut] + b"\r" + lines[9][cut:]
    path = _write_byte_lines(tmp_path / "policy.csv", lines)
    with pytest.raises(ContractError) as whole:
        whole_file_load_record_csv(path)
    assert ": line 11 has 1 fields, expected 14" in str(whole.value)
    with pytest.raises(ContractError) as blocks:
        blockwise_load_record_csv(path, block_rows)
    if block_rows:
        # The block that holds line 10 is checked before line 11 is parsed.
        assert str(blocks.value) == (
            f"{path!r}: line 10 has a policy other than its step's first row"
        )
    else:
        assert str(blocks.value) == str(whole.value)


@pytest.mark.parametrize("block_steps", [3, 4, 6, 8, 36])
def test_block_wise_load_matches_the_per_field_load_without_a_warning(
    tmp_path, twelve_steps, block_steps
):
    # 12 steps: the last block of most sizes ends on the last line, so
    # the next read finds no rows, where numpy.loadtxt warns.
    lines = list(twelve_steps)
    gapped = lines[:5] + [b""] + lines[5:] + [b"", b""]
    path = _write_byte_lines(tmp_path / "gapped.csv", gapped)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = list(read_csv_blocks(path, 3 * block_steps))
        loaded = blockwise_load_record_csv(path, 3 * block_steps)
    _assert_same_record(loaded, oracle_load(path))
    assert sum(block.steps for block in blocks) == 12
    assert all(block.labels == ["a", "b", "c"] for block in blocks)


@pytest.mark.parametrize("n", [1, 6, 48, 400])
def test_a_parse_block_holds_whole_steps_of_three_or_six_phases(n):
    assert len(csv_columns(n)) == 4 * n + 10
    rows = parse_block_rows(4 * n + 10)
    assert rows % 6 == 0
    # The sidecar is read in blocks of the same steps.
    assert csvio._read_steps(n, 3) * 3 == csvio._read_steps(n, 6) * 6 == rows


def _assert_refused_alike(path, message):
    """The whole-file load and the block-wise load of ``path`` both refuse it with ``message``."""
    for load in (whole_file_load_record_csv, blockwise_load_record_csv):
        with pytest.raises(ContractError) as refused:
            load(path)
        assert str(refused.value) == message


def test_the_parser_refuses_data_that_start_with_another_phase(tmp_path, twelve_steps):
    lines = list(twelve_steps)
    del lines[1]   # the data start with phase b
    path = _write_byte_lines(tmp_path / "b_first.csv", lines)
    _assert_refused_alike(path, f"{path!r}: line 2 starts with a phase other than a or 1a")


@pytest.mark.parametrize("step", [0, 5, 11])
def test_the_parser_refuses_a_policy_other_than_v1f2_or_f1v2(tmp_path, twelve_steps, step):
    lines = list(twelve_steps)
    for q in range(3 * step, 3 * step + 3):
        lines[1 + q] = _with_field(lines[1 + q], -1, b"X")
    path = _write_byte_lines(tmp_path / "x.csv", lines)
    _assert_refused_alike(path, f"{path!r}: line {3 * step + 2} has a policy other than V1F2 or F1V2")


# --------------------------------------------------------------- reports


def test_metrics_report_round_trip(tmp_path):
    params, record = _small_run()
    metrics = summarize(record, (0.0, 0.002), params.v_sm_nominal)
    text_path = tmp_path / "metrics.txt"
    json_path = tmp_path / "metrics.json"
    write_report(format_metrics_text(metrics), metrics.to_flat(), str(text_path), str(json_path))

    text = text_path.read_text()
    lines = [line for line in text.splitlines() if line]
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == sorted(keys)
    assert any(line.startswith("fs_mean_hz = ") for line in lines)

    flat = metrics.to_flat()
    loaded = json.loads(json_path.read_text())
    assert set(loaded) == set(flat)
    for key, value in flat.items():
        assert loaded[key] == value, key
    assert format_metrics_text(metrics) == text
