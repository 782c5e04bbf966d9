"""Unit tests for the grid/DC-link surroundings and the run engine."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcsim import testbench
from mmcsim.config import parse_config
from mmcsim.controller import SortPolicy
from mmcsim.csvio import TimeSeriesSink
from mmcsim.errors import ConfigError, SimulationDiverged
from mmcsim.metrics import SummaryMetrics
from mmcsim.testbench import (
    _SCAN_STEPS,
    DcLink,
    GridSource,
    Scenario,
    _scan_failures,
    build_stock_system,
    run_scenario,
    simulate,
)
from per_phase_reference import grid_voltage, policy_at, reference_current


# ------------------------------------------------------------ stock system


def test_stock_system_constants():
    params, grid, link, scenario = build_stock_system()
    assert params.n == 6
    assert params.R == 0.03
    assert params.L == 5e-3
    assert params.l_arm == 3e-3
    assert params.C == 2.5e-3
    assert params.V_dc == 60e3
    assert params.T_s == 25e-6
    assert params.w == 1.0 and params.w_z == 1.0
    assert grid.amplitude == 24.5e3
    assert grid.frequency == 60.0
    assert link.length_km == 5.0
    assert link.c_total == pytest.approx(80e-6, rel=1e-12)
    assert link.l_total == pytest.approx(250e-6, rel=1e-12)
    # A run starts both buses at V_dc = 60 kV and the line at 0 A.
    record, i_conv = _one_back_to_back_step(params, grid, link)
    c_end = 0.5 * link.c_total
    assert np.all(record.i_dc_link[0] == 0.0)   # (T_s / L) * (60 kV - 60 kV)
    assert np.all(record.v_dc_link[0, :3] == 60e3 + (params.T_s / c_end) * (0.0 - i_conv[0]))
    assert np.all(record.v_dc_link[0, 3:] == 60e3 + (params.T_s / c_end) * (-0.0 - i_conv[1]))
    assert scenario.mode == "back_to_back"
    assert scenario.duration == 3.0
    assert scenario.events == [(1.2, SortPolicy.F1V2), (1.4, SortPolicy.V1F2)]
    assert scenario.p_set == (13.18e6, -13.18e6)


def _one_back_to_back_step(params, grid, link):
    """A one-step back-to-back run and each converter's summed i_z."""
    scenario = Scenario(
        duration=params.T_s, mode="back_to_back", p_set=(13.18e6, -13.18e6)
    )
    record = simulate(scenario, params=params, grid=grid, dc_link=link)
    i_z = record.i_z[0]
    return record, [0.0 + i_z[3 * m] + i_z[3 * m + 1] + i_z[3 * m + 2] for m in (0, 1)]


# --------------------------------------------------------------- sources


def test_grid_voltage_at_zero():
    grid = GridSource(amplitude=24.5e3, frequency=60.0)
    v = grid_voltage(grid, 0.0)
    assert v[0] == 24.5e3
    assert v[1] == pytest.approx(-12.25e3, rel=1e-12)
    assert v[2] == pytest.approx(-12.25e3, rel=1e-12)
    assert grid.omega == pytest.approx(2.0 * math.pi * 60.0, rel=1e-15)


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSource(amplitude=-1.0, frequency=60.0)
    with pytest.raises(ConfigError):
        GridSource(amplitude=1.0, frequency=0.0)
    # The phases are always the balanced set; offsets are not a parameter.
    with pytest.raises(TypeError, match="offsets"):
        GridSource(amplitude=1.0, frequency=60.0, offsets=(0.0, 1.0, 2.0))
    assert [f.name for f in dataclasses.fields(GridSource)] == ["amplitude", "frequency"]


def test_reference_current_amplitude():
    grid = GridSource(amplitude=24.5e3, frequency=60.0)
    ref = reference_current(13.18e6, grid, 0.0)
    assert ref[0] == pytest.approx(358.63945578231295, rel=1e-12)
    assert reference_current(0.0, grid, 0.0).tolist() == [0.0, 0.0, 0.0]


def test_reference_current_linearity_and_sign():
    grid = GridSource(amplitude=24.5e3, frequency=60.0)
    t = 3.7e-3
    one = reference_current(5e6, grid, t)
    two = reference_current(10e6, grid, t)
    neg = reference_current(-5e6, grid, t)
    assert np.allclose(two, 2.0 * one, rtol=1e-12, atol=0.0)
    assert np.array_equal(neg, -one)


def test_reference_current_is_balanced():
    grid = GridSource(amplitude=24.5e3, frequency=60.0)
    for t in (0.0, 1.1e-3, 7.9e-3):
        assert reference_current(8e6, grid, t).sum() == pytest.approx(
            0.0, abs=1e-9
        )


def test_reference_current_zero_amplitude_grid():
    grid = GridSource(amplitude=0.0, frequency=60.0)
    with pytest.raises(ConfigError):
        reference_current(1e6, grid, 0.0)


def test_dc_link_totals_and_validation():
    link = DcLink(length_km=5.0, c_per_km=16e-6, l_per_km=50e-6)
    assert link.c_total == pytest.approx(80e-6, rel=1e-12)
    assert link.l_total == pytest.approx(250e-6, rel=1e-12)
    # The link holds its parameters only and cannot be changed.
    assert [f.name for f in dataclasses.fields(DcLink)] == ["length_km", "c_per_km", "l_per_km"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        link.length_km = 1.0
    # The link voltage a run reports for converter 1's phases is bus 1.
    params, grid, _, _ = build_stock_system()
    record, i_conv = _one_back_to_back_step(params, grid, link)
    bus_1 = 60e3 + (params.T_s / (0.5 * link.c_total)) * (0.0 - i_conv[0])
    assert record.v_dc_link[0, :3].tolist() == [bus_1] * 3
    with pytest.raises(ConfigError):
        DcLink(length_km=0.0, c_per_km=16e-6, l_per_km=50e-6)
    with pytest.raises(ConfigError):
        DcLink(length_km=5.0, c_per_km=-1e-6, l_per_km=50e-6)


# -------------------------------------------------------------- scenarios


def test_scenario_requires_exactly_one_reference():
    with pytest.raises(ConfigError):
        Scenario(duration=1.0)
    with pytest.raises(ConfigError):
        Scenario(duration=1.0, p_set=(1e6,), i_amp=(100.0,))


def test_scenario_reference_arity_matches_mode():
    Scenario(duration=1.0, mode="ideal_dc", p_set=(1e6,))
    Scenario(duration=1.0, mode="back_to_back", p_set=(1e6, -1e6))
    with pytest.raises(ConfigError):
        Scenario(duration=1.0, mode="back_to_back", p_set=(1e6,))
    with pytest.raises(ConfigError):
        Scenario(duration=1.0, mode="ideal_dc", i_amp=(100.0, 100.0))
    for refs in ({"p_set": (math.nan,)}, {"i_amp": (math.inf,)}, {"p_set": (-math.inf,)}):
        with pytest.raises(ConfigError, match="finite"):
            Scenario(duration=1.0, mode="ideal_dc", **refs)


def test_scenario_event_validation():
    with pytest.raises(ConfigError):
        Scenario(
            duration=1.0,
            events=[(0.5, SortPolicy.F1V2), (0.2, SortPolicy.V1F2)],
            p_set=(1e6,),
        )
    for t in (1.5, math.nan, math.inf):
        with pytest.raises(ConfigError):
            Scenario(duration=1.0, events=[(t, SortPolicy.F1V2)], p_set=(1e6,))
    with pytest.raises(ConfigError):
        Scenario(duration=-1.0, p_set=(1e6,))
    with pytest.raises(ConfigError):
        Scenario(duration=1.0, mode="islanded", p_set=(1e6,))


def test_policy_schedule_lookup():
    scenario = Scenario(
        duration=3.0,
        events=[(1.2, SortPolicy.F1V2), (1.4, SortPolicy.V1F2)],
        mode="back_to_back",
        p_set=(1e6, -1e6),
    )
    assert policy_at(scenario, 0.0) is SortPolicy.V1F2
    assert policy_at(scenario, 1.1999) is SortPolicy.V1F2
    assert policy_at(scenario, 1.2) is SortPolicy.F1V2
    assert policy_at(scenario, 1.3) is SortPolicy.F1V2
    assert policy_at(scenario, 1.4) is SortPolicy.V1F2
    assert policy_at(scenario, 2.9) is SortPolicy.V1F2


# ------------------------------------------------------------- run engine


def _short_scenario(duration, events=(), mode="ideal_dc"):
    p_set = (13.18e6,) if mode == "ideal_dc" else (13.18e6, -13.18e6)
    return Scenario(
        duration=duration, events=list(events), mode=mode, p_set=p_set
    )


def test_policy_events_on_and_one_ulp_off_a_sample():
    params, grid, _, _ = build_stock_system()
    t_s = params.T_s
    events = [
        (3 * t_s, SortPolicy.F1V2),                          # on sample 3
        (math.nextafter(7 * t_s, 0.0), SortPolicy.V1F2),     # just before sample 7
        (math.nextafter(11 * t_s, 1.0), SortPolicy.F1V2),    # just after sample 11
    ]
    scenario = _short_scenario(16 * t_s, events)
    record = simulate(scenario, params=params, grid=grid)
    assert record.policy == ["V1F2"] * 3 + ["F1V2"] * 4 + ["V1F2"] * 5 + ["F1V2"] * 4
    assert record.policy == [policy_at(scenario, k * t_s).value for k in range(16)]


def test_policy_switch_lands_on_exact_step():
    params, grid, _, _ = build_stock_system()
    event_t = 5 * params.T_s
    scenario = _short_scenario(10 * params.T_s, [(event_t, SortPolicy.F1V2)])
    record = simulate(scenario, params=params, grid=grid)
    assert record.policy == ["V1F2"] * 5 + ["F1V2"] * 5


def test_zero_duration_run():
    params, grid, _, _ = build_stock_system()
    record = simulate(_short_scenario(0.0), params=params, grid=grid)
    assert record.steps == 0
    metrics = run_scenario(_short_scenario(0.0), params=params, grid=grid)
    assert isinstance(metrics, SummaryMetrics)
    assert metrics.window == (0.0, 0.0)
    assert metrics.fs_mean == 0.0


def test_ideal_dc_run_shape_and_bus():
    params, grid, _, _ = build_stock_system()
    record = simulate(_short_scenario(0.01), params=params, grid=grid)
    assert record.labels == ["a", "b", "c"]
    assert record.steps == 400
    assert record.n == 6
    assert np.all(record.v_dc_link == 60e3)
    # Rows are stamped at the end of each period.
    assert record.times[0] == params.T_s
    assert record.times[-1] == pytest.approx(0.01, rel=1e-12)
    # The recorded DC-side current is the summed circulating current.
    assert np.array_equal(record.i_dc_link[:, 0], record.i_z.sum(axis=1))


def test_back_to_back_requires_link():
    params, grid, _, _ = build_stock_system()
    with pytest.raises(ConfigError):
        simulate(_short_scenario(0.01, mode="back_to_back"), params=params, grid=grid)


def test_back_to_back_run_shape():
    params, grid, link, _ = build_stock_system()
    record = simulate(
        _short_scenario(0.01, mode="back_to_back"),
        params=params, grid=grid, dc_link=link,
    )
    assert record.labels == ["1a", "1b", "1c", "2a", "2b", "2c"]
    # Phases of one converter share a bus; the link current is global.
    for col in (1, 2):
        assert np.array_equal(record.v_dc_link[:, col], record.v_dc_link[:, 0])
        assert np.array_equal(record.v_dc_link[:, 3 + col], record.v_dc_link[:, 3])
    for col in range(1, 6):
        assert np.array_equal(record.i_dc_link[:, col], record.i_dc_link[:, 0])
    assert np.all(np.isfinite(record.v_dc_link))
    # The caller's link object is left untouched and carries no state
    # from one run into the next.
    assert link == DcLink(length_km=5.0, c_per_km=16e-6, l_per_km=50e-6)
    again = simulate(
        _short_scenario(0.01, mode="back_to_back"),
        params=params, grid=grid, dc_link=link,
    )
    assert again.v_dc_link.tobytes() == record.v_dc_link.tobytes()
    assert again.i_dc_link.tobytes() == record.i_dc_link.tobytes()


@pytest.mark.parametrize("length_km, stable", [(5.0, True), (1.0, True), (0.5, False)])
def test_link_stability_bound(length_km, stable):
    params, grid, _, _ = build_stock_system()
    link = DcLink(length_km=length_km, c_per_km=16e-6, l_per_km=50e-6)
    # omega = sqrt(2 / (L_total * C_total / 2)) scales as 1 / length:
    # omega * T_s is 0.35 for the stock 5 km line, 1.77 at 1 km, 3.54 at 0.5 km.
    assert link.omega * params.T_s == pytest.approx(0.35355339 * 5.0 / length_km)
    scenario = _short_scenario(0.001, mode="back_to_back")
    if stable:
        link.check_step(params.T_s)
        simulate(scenario, params=params, grid=grid, dc_link=link)
    else:
        with pytest.raises(ConfigError, match=r"\[dc_link\].*t_s.*omega\*t_s < 2"):
            simulate(scenario, params=params, grid=grid, dc_link=link)


# ------------------------------------------------------------ failure scan

B2B_LABELS = ["1a", "1b", "1c", "2a", "2b", "2c"]


def _healthy_record(steps, rows, labels):
    """Hand-made batch record in the kernel's layout, every state sound:
    legs (rows * converters, 3), one SM per arm, link rows from step -1."""
    legs = (rows * len(labels) // 3, 3)
    rec_i = np.zeros((steps, *legs))
    rec_i_z = np.zeros((steps, *legs))
    rec_v_c = np.ones((steps, *legs, 2, 1))
    rec_link = np.ones((steps + 1, rows, 3)) if len(labels) == 6 else None
    return rec_i, rec_i_z, rec_v_c, rec_link


def _scan(record, labels, k0, k1, failed=None):
    """Scan steps [k0, k1) of a record that starts at step 0, with the
    link state before step k0."""
    failed = {} if failed is None else failed
    rec_i, rec_i_z, rec_v_c, rec_link = record
    link = None if rec_link is None else rec_link[k0 : k1 + 1]
    _scan_failures(failed, k0, labels, rec_i[k0:k1], rec_i_z[k0:k1], rec_v_c[k0:k1], link)
    return {row: (error.step, error.detail) for row, error in failed.items()}


def test_scan_names_currents_before_the_capacitor_of_the_same_leg():
    record = _healthy_record(8, 1, ["a", "b", "c"])
    rec_i, rec_i_z, rec_v_c, _ = record
    rec_v_c[5, 0, 2, 1, 0] = np.nan      # phase c, a later leg
    rec_v_c[5, 0, 1, 0, 0] = 0.0          # phase b's capacitor and currents
    rec_i_z[5, 0, 1] = np.inf
    assert _scan(record, ["a", "b", "c"], 0, 8) == {0: (5, "phase b currents non-finite")}
    rec_i_z[5, 0, 1] = 0.0
    assert _scan(record, ["a", "b", "c"], 0, 8) == {
        0: (5, "phase b capacitor voltage non-finite or <= 0")
    }
    rec_v_c[5, 0, 1, 0, 0] = 1.0
    rec_v_c[5, 0, 2, 1, 0] = np.inf
    rec_i[5, 0, 0] = np.nan
    assert _scan(record, ["a", "b", "c"], 0, 8) == {0: (5, "phase a currents non-finite")}


def test_scan_names_a_leg_before_the_link_at_the_same_step():
    record = _healthy_record(8, 1, B2B_LABELS)
    _, _, rec_v_c, rec_link = record
    rec_link[4, 0, 2] = np.nan            # step 3's i_link
    rec_v_c[3, 1, 1, 1, 0] = -1.0         # step 3, phase 2b
    assert _scan(record, B2B_LABELS, 0, 8) == {
        0: (3, "phase 2b capacitor voltage non-finite or <= 0")
    }
    rec_v_c[3, 1, 1, 1, 0] = 1.0
    assert _scan(record, B2B_LABELS, 0, 8) == {0: (3, "DC link i_link non-finite")}


@pytest.mark.parametrize(
    "bad, name",
    [
        ((0, 1, 2), "i_link"),
        ((0, 1), "v_mmc1"),
        ((1, 2), "i_link"),
        ((1,), "v_mmc2"),
    ],
)
def test_scan_names_link_states_in_order(bad, name):
    # Stored as (v_mmc1, v_mmc2, i_link); named i_link, v_mmc1, v_mmc2.
    record = _healthy_record(8, 1, B2B_LABELS)
    rec_link = record[3]
    rec_link[7, 0, list(bad)] = np.inf    # step 6
    rec_link[8, 0, :] = np.nan
    assert _scan(record, B2B_LABELS, 0, 8) == {0: (6, f"DC link {name} non-finite")}


def test_scan_offsets_each_block_by_its_first_step():
    steps = 2 * _SCAN_STEPS
    record = _healthy_record(steps, 2, ["a", "b", "c"])
    rec_i = record[0]
    rec_i[_SCAN_STEPS - 1 :, 0, 0] = np.nan   # row 0 from the last step of block 1
    rec_i[_SCAN_STEPS:, 1, 2] = np.nan        # row 1 from the first of block 2
    failed = {}
    first = _scan(record, ["a", "b", "c"], 0, _SCAN_STEPS, failed)
    assert first == {0: (_SCAN_STEPS - 1, "phase a currents non-finite")}
    reported = failed[0]
    second = _scan(record, ["a", "b", "c"], _SCAN_STEPS, steps, failed)
    assert second == {
        0: (_SCAN_STEPS - 1, "phase a currents non-finite"),
        1: (_SCAN_STEPS, "phase c currents non-finite"),
    }
    # A row already failed is not reported again by a later block.
    assert failed[0] is reported


def test_scan_gives_each_row_its_own_first_step():
    record = _healthy_record(16, 3, B2B_LABELS)
    rec_i, _, rec_v_c, rec_link = record
    rec_link[8:, 0, 0] = np.inf           # row 0: v_mmc1 from step 7
    rec_v_c[2:, 3, 0, 0, 0] = 0.0         # row 1: phase 2a from step 2
    rec_i[11:, 2, 1] = np.nan             # row 1: phase 1b from step 11
    assert _scan(record, B2B_LABELS, 0, 16) == {
        0: (7, "DC link v_mmc1 non-finite"),
        1: (2, "phase 2a capacitor voltage non-finite or <= 0"),
    }


def test_a_failed_run_stops_at_the_first_scan_after_its_failure(monkeypatch):
    params, grid, _, _ = build_stock_system()
    params = dataclasses.replace(params, C=2.0e-5)
    scenario = Scenario(duration=3.0, mode="ideal_dc", i_amp=(5000.0,))
    scans = []

    def scan(failed, k0, labels, rec_i, *record):
        scans.append((k0, k0 + len(rec_i)))
        _scan_failures(failed, k0, labels, rec_i, *record)

    monkeypatch.setattr(testbench, "_scan_failures", scan)
    with pytest.raises(SimulationDiverged) as info:
        simulate(scenario, params=params, grid=grid)
    assert info.value.step == 274
    assert scans == [(k, k + _SCAN_STEPS) for k in range(0, 275, _SCAN_STEPS)]


def test_simulate_is_deterministic():
    params, grid, _, _ = build_stock_system()
    a = simulate(_short_scenario(0.005), params=params, grid=grid)
    b = simulate(_short_scenario(0.005), params=params, grid=grid)
    assert np.array_equal(a.i, b.i)
    assert np.array_equal(a.v_c, b.v_c)
    assert np.array_equal(a.u, b.u)
    assert a.policy == b.policy


def test_run_scenario_defaults_window_to_whole_run():
    params, grid, _, _ = build_stock_system()
    metrics = run_scenario(_short_scenario(0.01), params=params, grid=grid)
    assert metrics.window == (0.0, 0.01)
    assert metrics.fs_mean > 0.0


class _CountingSink:
    def __init__(self):
        self.calls = []

    def write_record(self, record):
        self.calls.append(record.steps)


def test_run_scenario_streams_to_sink():
    params, grid, _, _ = build_stock_system()
    sink = _CountingSink()
    run_scenario(_short_scenario(0.002), sink, params=params, grid=grid)
    assert sink.calls == [80]


def test_run_scenario_rejects_bad_decimation(tmp_path):
    # The decimation belongs to the CSV sink, which refuses it unopened.
    params, _, _, _ = build_stock_system()
    path = tmp_path / "run.csv"
    with pytest.raises(ConfigError):
        TimeSeriesSink(str(path), params.n, decimation=0)
    assert not path.exists()


# ------------------------------------------------------------ envelope


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _envelope_config(draw):
    """Config text with every drawn value inside the README's envelope."""
    mode = draw(st.sampled_from(["ideal_dc", "back_to_back"]))
    p = draw(st.floats(-20e6, 20e6))
    weights = st.sampled_from([0.0, 1.0, 5.0])
    return (
        f"[converter]\nn_sm = {draw(st.sampled_from([1, 2, 6, 12]))}\n"
        f"r = {draw(_log_uniform(3e-3, 0.3))!r}\n"
        f"l = {draw(_log_uniform(1e-6, 5e-2))!r}\n"
        f"l_arm = {draw(_log_uniform(1e-6, 3e-2))!r}\n"
        f"c_sm = {draw(_log_uniform(2e-5, 2.5e-2))!r}\n"
        f"t_s = {draw(_log_uniform(2.5e-6, 2.5e-4))!r}\n"
        f"w = {draw(weights)!r}\nw_z = {draw(weights)!r}\n\n"
        f"[grid]\namplitude = {draw(st.floats(5e3, 40e3))!r}\n\n"
        f"[dc_link]\nlength_km = {draw(_log_uniform(0.5, 50.0))!r}\n\n"
        f"[scenario]\nmode = {mode}\nduration = 0.01\n"
        f"policy_schedule = {draw(st.sampled_from(['[]', '[(0.0, F1V2)]', '[(0.005, F1V2)]']))}\n"
        f"p_set = {p!r}" + (f", {-p!r}\n" if mode == "back_to_back" else "\n")
    )


@given(text=_envelope_config())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_envelope_configs_are_refused_diverge_or_run_finite(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = parse_config(text)
            record = simulate(
                config.scenario, params=config.params, grid=config.grid, dc_link=config.dc_link
            )
        except (ConfigError, SimulationDiverged):
            return
    for name in ("i", "i_ref", "i_z", "v_up", "v_low", "v_c", "v_dc_link", "i_dc_link"):
        assert np.isfinite(getattr(record, name)).all(), name
