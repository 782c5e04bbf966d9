"""Golden equivalence of the array kernel against the per-phase loop.

``simulate`` advances every phase leg of every converter in one
vectorized pass per sample.  The oracle below is the per-phase loop
built from ``control_step`` and ``advance_phase`` of the scalar
reference (``per_phase_reference``): one phase leg at a time, fresh
state objects every step, every ranking and decision checked by its
constructor.  Power setpoints become current references through the
reference's ``reference_current``.  Every recorded array must match
the kernel byte for byte, together with the labels and the policy
series.

``simulate`` is the batch kernel ``_simulate_batch`` with one row; each
row of a larger batch must equal its scenario run alone, down to where
and how it diverges.
"""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mmcsim.controller import SortPolicy
from mmcsim.errors import ConfigError, SimulationDiverged
from mmcsim.metrics import RunRecord
from mmcsim.testbench import (
    _ENERGY_TRIM_TAU,
    _LINK_DROOP_ZETA,
    _PHASE_OFFSETS,
    Scenario,
    _power_feedforward,
    _simulate_batch,
    build_stock_system,
    simulate,
)
from per_phase_reference import (
    advance_phase,
    control_step,
    grid_voltage,
    initial_phase_state,
    policy_at,
    reference_current,
)


def reference_simulate(scenario, *, params, grid, dc_link=None):
    """The per-phase run loop: control_step then advance_phase, leg by leg."""
    if scenario.mode == "back_to_back":
        if dc_link is None:
            raise ConfigError("back_to_back mode requires a DcLink")
        link = dc_link
        # Both buses start at V_dc, the line at 0 A.
        v_bus = [params.V_dc, params.V_dc]
        i_link = 0.0
        labels = ["1a", "1b", "1c", "2a", "2b", "2c"]
    else:
        link = None
        labels = ["a", "b", "c"]

    n_mmc = scenario.n_converters
    if scenario.p_set is not None:
        # Peak of each converter's reference: phase a at t = 0.
        amps = [float(reference_current(p, grid, 0.0)[0]) for p in scenario.p_set]
    else:
        amps = list(scenario.i_amp)
    feedforward = [_power_feedforward(a, params, grid) for a in amps]
    trim_gain = 2.0 * params.C / _ENERGY_TRIM_TAU
    droop_gain = 0.0
    if link is not None:
        c_end = 0.5 * link.c_total
        omega_link = math.sqrt(2.0 / (link.l_total * c_end))
        droop_gain = 2.0 * _LINK_DROOP_ZETA * omega_link * c_end / 3.0

    steps = int(round(scenario.duration / params.T_s))
    n = params.n
    n_cols = len(labels)
    times = np.empty(steps)
    rec = {
        name: np.empty((steps, n_cols))
        for name in ("i", "i_ref", "i_z", "v_up", "v_low", "v_dc_link", "i_dc_link")
    }
    rec_v_c = np.empty((steps, n_cols, 2 * n))
    rec_u = np.empty((steps, n_cols, 2 * n), dtype=np.int8)
    rec_policy = []

    v_s0 = grid_voltage(grid, 0.0)
    phases = [
        [initial_phase_state(params, float(v_s0[p])) for p in range(3)]
        for _ in range(n_mmc)
    ]
    t_s = params.T_s
    for k in range(steps):
        t = k * t_s
        t_next = (k + 1) * t_s
        policy = policy_at(scenario, t)
        wt_next = grid.omega * t_next

        i_conv = [0.0] * n_mmc
        for m in range(n_mmc):
            bus = params.V_dc if link is None else v_bus[m]
            if scenario.p_set is not None:
                i_ref = reference_current(scenario.p_set[m], grid, t_next)
            else:
                i_ref = [amps[m] * math.cos(wt_next + off) for off in _PHASE_OFFSETS]
            for p in range(3):
                phase = phases[m][p]
                i_ref_next = float(i_ref[p])
                i_z_ref = feedforward[m] + droop_gain * (bus - params.V_dc)
                v_mean = 0.5 * (phase.upper.v_c.mean() + phase.lower.v_c.mean())
                i_z_ref += trim_gain * (params.v_sm_nominal - v_mean)
                decision = control_step(phase, i_ref_next, policy, params, i_z_ref)
                v_s_next = grid.amplitude * math.cos(wt_next + _PHASE_OFFSETS[p])
                phase = advance_phase(phase, decision, v_s_next, params, v_dc=bus)
                phases[m][p] = phase
                i_conv[m] += phase.i_z

                col = 3 * m + p
                rec["i"][k, col] = phase.i
                rec["i_ref"][k, col] = i_ref_next
                rec["i_z"][k, col] = phase.i_z
                rec["v_up"][k, col] = float(np.dot(phase.upper.v_c, phase.upper.u))
                rec["v_low"][k, col] = float(np.dot(phase.lower.v_c, phase.lower.u))
                rec_v_c[k, col, :n] = phase.upper.v_c
                rec_v_c[k, col, n:] = phase.lower.v_c
                rec_u[k, col, :n] = phase.upper.u
                rec_u[k, col, n:] = phase.lower.u

        times[k] = t_next
        if link is None:
            rec["v_dc_link"][k, :] = params.V_dc
            rec["i_dc_link"][k, :] = i_conv[0]
        else:
            c_end = 0.5 * link.c_total
            i_link += (t_s / link.l_total) * (v_bus[1] - v_bus[0])
            v_bus[0] += (t_s / c_end) * (i_link - i_conv[0])
            v_bus[1] += (t_s / c_end) * (-i_link - i_conv[1])
            rec["v_dc_link"][k, :3] = v_bus[0]
            rec["v_dc_link"][k, 3:] = v_bus[1]
            rec["i_dc_link"][k, :] = i_link
        rec_policy.append(policy.value)

    return RunRecord(
        times=times, labels=labels, v_c=rec_v_c, u=rec_u, policy=rec_policy, **rec
    )


def _as_bytes(record):
    return {
        key: (value.shape, value.dtype.str, value.tobytes())
        if isinstance(value, np.ndarray) else value
        for key, value in vars(record).items()
    }


def _schedule(shape, duration):
    if shape == "V1F2":
        return []
    if shape == "F1V2":
        return [(0.0, SortPolicy.F1V2)]
    return [(0.4 * duration, SortPolicy.F1V2), (0.7 * duration, SortPolicy.V1F2)]


N_SM = (1, 2, 6, 12, 48)
SCHEDULES = ("V1F2", "F1V2", "switch")
MODES = ("ideal_dc", "back_to_back")

# Every (n, schedule) pair once, with mode and reference source
# (power setpoints, or current amplitudes when False) alternating so
# that every pair of levels of any two of the four factors occurs in
# at least one case.
CASES = [
    (n, shape, MODES[idx % 2], (idx // 2) % 2 == 0)
    for idx, (n, shape) in enumerate(itertools.product(N_SM, SCHEDULES))
]


@pytest.mark.parametrize("n, shape, mode, from_power", CASES)
def test_kernel_matches_per_phase_loop(n, shape, mode, from_power):
    params, grid, link, _ = build_stock_system()
    params = replace(params, n=n)
    duration = 0.05 if n == 1 else 0.02
    power = (13.18e6,) if mode == "ideal_dc" else (13.18e6, -13.18e6)
    if from_power:
        refs = dict(p_set=power)
    else:
        refs = dict(i_amp=tuple(2.0 * p / (3.0 * grid.amplitude) for p in power))
    scenario = Scenario(
        duration=duration, events=_schedule(shape, duration), mode=mode, **refs
    )
    kwargs = dict(params=params, grid=grid, dc_link=link)
    got = simulate(scenario, **kwargs)
    want = reference_simulate(scenario, **kwargs)
    assert got.steps == int(round(duration / params.T_s))
    assert _as_bytes(got) == _as_bytes(want)


def test_kernel_matches_on_weighted_compare_pair():
    params, grid, _, _ = build_stock_system()
    params = replace(params, w_z=0.25)
    for events in ([], [(0.0, SortPolicy.F1V2)]):
        scenario = Scenario(
            duration=0.03, events=events, mode="ideal_dc", p_set=(11.5e6,)
        )
        got = simulate(scenario, params=params, grid=grid)
        want = reference_simulate(scenario, params=params, grid=grid)
        assert _as_bytes(got) == _as_bytes(want)


def test_capacitor_collapse_stops_the_run_at_its_first_step():
    params, grid, _, _ = build_stock_system()
    params = replace(params, C=2.0e-5)
    scenario = Scenario(duration=0.05, mode="ideal_dc", i_amp=(5000.0,))
    with pytest.raises(SimulationDiverged) as info:
        simulate(scenario, params=params, grid=grid)
    # The per-phase loop has no capacitor guard and runs on below zero.
    record = reference_simulate(scenario, params=params, grid=grid)
    collapsed = (record.v_c <= 0.0).any(axis=2)
    first = int(np.argmax(collapsed.any(axis=1)))
    label = record.labels[int(np.argmax(collapsed[first]))]
    assert info.value.step == first
    assert info.value.detail.startswith(f"phase {label} capacitor voltage")


# Pairs of schedules for the batch tests: rows that disagree at every
# step, rows that disagree on some steps only, and identical rows.
PAIRS = (("V1F2", "F1V2"), ("switch", "V1F2"), ("switch", "switch"))


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", (1, 6, 48))
def test_batch_rows_match_solo_runs(n, mode, pair):
    params, grid, link, _ = build_stock_system()
    params = replace(params, n=n)
    duration = 0.01
    power = (13.18e6,) if mode == "ideal_dc" else (13.18e6, -13.18e6)
    scenarios = [
        Scenario(duration=duration, events=_schedule(shape, duration), mode=mode, p_set=power)
        for shape in pair
    ]
    kwargs = dict(params=params, grid=grid, dc_link=link)
    rows = _simulate_batch(scenarios, **kwargs)
    for row, scenario in zip(rows, scenarios):
        assert _as_bytes(row) == _as_bytes(simulate(scenario, **kwargs))
    # The rows are views of the batch's arrays, not copies.
    assert np.may_share_memory(rows[0].v_c, rows[1].v_c)


CAPACITOR_B = "phase b capacitor voltage non-finite or <= 0"


@pytest.mark.parametrize(
    "mode, duration, steps",
    [
        # Alone, V1F2 collapses at step 274, F1V2 at step 176 and
        # V1F2 turning F1V2 at step 40 at step 174, each on a capacitor
        # of phase b: an ideal bus has no state of its own to name.
        ("ideal_dc", 0.05, [(274, CAPACITOR_B), (176, CAPACITOR_B), (174, CAPACITOR_B)]),
        # 200 steps: the V1F2 row stays healthy.
        ("ideal_dc", 0.005, [None, (176, CAPACITOR_B), (174, CAPACITOR_B)]),
        ("back_to_back", 0.005, [(16, "phase 2b capacitor voltage non-finite or <= 0")] * 3),
    ],
)
def test_batch_rows_diverge_as_they_do_alone(mode, duration, steps):
    params, grid, link, _ = build_stock_system()
    params = replace(params, C=2.0e-5)
    i_amp = (5000.0,) if mode == "ideal_dc" else (5000.0, -5000.0)
    scenarios = [
        Scenario(duration=duration, events=events, mode=mode, i_amp=i_amp)
        for events in ([], [(0.0, SortPolicy.F1V2)], [(0.001, SortPolicy.F1V2)])
    ]
    kwargs = dict(params=params, grid=grid, dc_link=link)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _simulate_batch(scenarios, **kwargs)
    # Each row's (step, detail) alone, or None for a healthy row.
    for row, scenario, failure in zip(rows, scenarios, steps):
        if failure is None:
            assert _as_bytes(row) == _as_bytes(simulate(scenario, **kwargs))
            continue
        with pytest.raises(SimulationDiverged) as alone:
            simulate(scenario, **kwargs)
        assert isinstance(row, SimulationDiverged)
        assert (row.step, row.detail) == (alone.value.step, alone.value.detail)
        assert (row.step, row.detail) == failure


def test_batch_rows_fail_on_the_dc_link_as_they_do_alone():
    # Modulation index 0.97 on microhenry chokes: every row's link
    # overflows at step 206, after the numpy sums feeding it have.
    params, grid, link, _ = build_stock_system()
    params = replace(params, L=7e-6, l_arm=4e-6, C=1.27e-3, w=5.0, w_z=5.0)
    grid = replace(grid, amplitude=29000.0)
    link = replace(link, length_km=1.0)
    scenarios = [
        Scenario(duration=0.01, events=events, mode="back_to_back", i_amp=(5000.0, -5000.0))
        for events in ([], [(0.0, SortPolicy.F1V2)], [(0.001, SortPolicy.F1V2)])
    ]
    kwargs = dict(params=params, grid=grid, dc_link=link)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _simulate_batch(scenarios, **kwargs)
        for row, scenario in zip(rows, scenarios):
            with pytest.raises(SimulationDiverged) as alone:
                simulate(scenario, **kwargs)
            assert isinstance(row, SimulationDiverged)
            assert (row.step, row.detail) == (alone.value.step, alone.value.detail)
            assert (row.step, row.detail) == (206, "DC link v_mmc1 non-finite")


def test_batch_of_zero_duration_runs_has_empty_rows():
    params, grid, _, _ = build_stock_system()
    scenarios = [
        Scenario(duration=0.0, events=events, mode="ideal_dc", p_set=(13.18e6,))
        for events in ([], [(0.0, SortPolicy.F1V2)])
    ]
    rows = _simulate_batch(scenarios, params=params, grid=grid)
    for row, scenario in zip(rows, scenarios):
        assert row.steps == 0
        assert _as_bytes(row) == _as_bytes(simulate(scenario, params=params, grid=grid))


def test_batch_refuses_scenarios_that_differ_beyond_their_events():
    params, grid, _, _ = build_stock_system()
    scenarios = [
        Scenario(duration=duration, mode="ideal_dc", p_set=(13.18e6,))
        for duration in (0.001, 0.002)
    ]
    with pytest.raises(ConfigError, match="differ only in their events"):
        _simulate_batch(scenarios, params=params, grid=grid)
