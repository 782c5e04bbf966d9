"""Unit tests for the discrete-time converter model.

Expected numbers were computed with an independent plain-arithmetic
script (no numpy, no package imports) and frozen here as literals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcsim.errors import ContractError
from mmcsim.model import ConverterParams
from per_phase_reference import (
    ArmState,
    PhaseState,
    SubmoduleState,
    SwitchDecision,
    advance_phase,
    arm_voltage,
    decompose_arm_currents,
    initial_phase_state,
    predict_capacitor_voltage,
    step_ac_current,
    step_circulating_current,
)

STOCK_PARAMS = ConverterParams(
    n=6,
    R=0.03,
    L=5e-3,
    l_arm=3e-3,
    C=2.5e-3,
    V_dc=60e3,
    T_s=25e-6,
)


def approx(value):
    return pytest.approx(value, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------- params


def test_derived_constants():
    assert STOCK_PARAMS.L_prime == approx(0.006500000000000001)
    assert STOCK_PARAMS.K_prime == approx(260.03)
    assert STOCK_PARAMS.v_sm_nominal == 10000.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 0),
        ("R", -0.1),
        ("L", 0.0),
        ("l_arm", 0.0),
        ("C", 0.0),
        ("V_dc", 0.0),
        ("T_s", 0.0),
        ("w", -1.0),
        ("w_z", -0.5),
        ("w", math.nan),
        ("w", math.inf),
        ("w_z", math.nan),
        ("w_z", math.inf),
    ],
)
def test_params_reject_nonpositive(field, value):
    kwargs = dict(
        n=6, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=60e3, T_s=25e-6
    )
    kwargs[field] = value
    with pytest.raises(ContractError):
        ConverterParams(**kwargs)


def test_params_reject_both_weights_zero():
    with pytest.raises(ContractError):
        ConverterParams(
            n=6, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=60e3,
            T_s=25e-6, w=0.0, w_z=0.0,
        )
    # A single zero weight is a legal degenerate objective.
    ConverterParams(
        n=6, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=60e3,
        T_s=25e-6, w=0.0, w_z=1.0,
    )


# ------------------------------------------------------- state containers


def test_submodule_rejects_bad_status():
    with pytest.raises(ContractError):
        SubmoduleState(v_c=10e3, u=2)
    with pytest.raises(ContractError):
        SubmoduleState(v_c=10e3, u=-1)


def test_arm_state_validation():
    good = ArmState(
        v_c=np.full(6, 10e3),
        u=np.zeros(6, dtype=np.int8),
        i_arm=0.0,
        side="upper",
    )
    assert good.n == 6
    with pytest.raises(ContractError):
        ArmState(
            v_c=np.full(6, 10e3),
            u=np.zeros(5, dtype=np.int8),
            i_arm=0.0,
            side="upper",
        )
    with pytest.raises(ContractError):
        ArmState(
            v_c=np.full(6, 10e3),
            u=np.full(6, 2, dtype=np.int8),
            i_arm=0.0,
            side="upper",
        )
    with pytest.raises(ContractError):
        ArmState(
            v_c=np.full(6, 10e3),
            u=np.zeros(6, dtype=np.int8),
            i_arm=0.0,
            side="middle",
        )


def test_switch_decision_validates_counts():
    statuses = np.zeros(12, dtype=np.int8)
    statuses[:2] = 1
    SwitchDecision(statuses=statuses, n_up=2, n_low=0)
    with pytest.raises(ContractError):
        SwitchDecision(statuses=statuses, n_up=1, n_low=1)


def test_initial_phase_state():
    phase = initial_phase_state(STOCK_PARAMS, v_s=123.0)
    assert phase.n == 6
    assert phase.i == 0.0
    assert phase.i_z == 0.0
    assert phase.v_s == 123.0
    for arm in (phase.upper, phase.lower):
        assert np.all(arm.v_c == 10000.0)
        assert np.all(arm.u == 0)
        assert arm.i_arm == 0.0


# ------------------------------------------------------ capacitor update


def test_capacitor_charges_when_inserted():
    sm = SubmoduleState(v_c=10e3, u=1)
    assert predict_capacitor_voltage(sm, 100.0, 1, STOCK_PARAMS) == 10001.0


def test_capacitor_discharges_on_negative_current():
    sm = SubmoduleState(v_c=10e3, u=1)
    assert predict_capacitor_voltage(sm, -100.0, 1, STOCK_PARAMS) == 9999.0


def test_capacitor_frozen_when_bypassed():
    sm = SubmoduleState(v_c=10e3, u=1)
    assert predict_capacitor_voltage(sm, 500.0, 0, STOCK_PARAMS) == 10000.0


@given(
    v_c=st.floats(5e3, 15e3),
    i_arm=st.floats(-500.0, 500.0),
)
def test_bypassed_voltage_bit_exact(v_c, i_arm):
    sm = SubmoduleState(v_c=v_c, u=0)
    assert predict_capacitor_voltage(sm, i_arm, 0, STOCK_PARAMS) == v_c


# ---------------------------------------------------------- arm voltage


def test_arm_voltage_example():
    arm = ArmState(
        v_c=np.array([10e3, 10e3]),
        u=np.array([1, 0], dtype=np.int8),
        i_arm=100.0,
        side="upper",
    )
    params = ConverterParams(
        n=2, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=20e3, T_s=25e-6
    )
    # Inserted capacitor charges first, then sums: 10001 + 0.
    statuses = np.array([1, 0], dtype=np.int8)
    assert arm_voltage(arm, statuses, params) == 10001.0


def test_arm_voltage_all_bypassed_is_zero():
    arm = ArmState(
        v_c=np.full(6, 10e3),
        u=np.ones(6, dtype=np.int8),
        i_arm=321.0,
        side="lower",
    )
    assert arm_voltage(arm, np.zeros(6, dtype=np.int8), STOCK_PARAMS) == 0.0


def test_arm_voltage_rejects_wrong_length():
    arm = ArmState(
        v_c=np.full(6, 10e3),
        u=np.zeros(6, dtype=np.int8),
        i_arm=0.0,
        side="upper",
    )
    with pytest.raises(ContractError):
        arm_voltage(arm, np.zeros(5, dtype=np.int8), STOCK_PARAMS)


@given(
    i_arm=st.floats(-400.0, 400.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60)
def test_charge_bookkeeping(i_arm, seed):
    # Total stored charge moves by T_s * i_arm per inserted submodule.
    rng = np.random.default_rng(seed)
    v_c = rng.uniform(9e3, 11e3, 6)
    statuses = rng.integers(0, 2, 6).astype(np.int8)
    arm = ArmState(
        v_c=v_c.copy(),
        u=np.zeros(6, dtype=np.int8),
        i_arm=i_arm,
        side="upper",
    )
    after = np.array(
        [
            predict_capacitor_voltage(sm, i_arm, int(statuses[j]), STOCK_PARAMS)
            for j, sm in enumerate(arm.submodules)
        ]
    )
    moved = STOCK_PARAMS.C * (after - v_c).sum()
    expected = STOCK_PARAMS.T_s * i_arm * int(statuses.sum())
    assert moved == pytest.approx(expected, rel=1e-9, abs=1e-12)


# --------------------------------------------------------- current steps


def test_ac_current_zero_drive_fixed_point():
    phase = initial_phase_state(STOCK_PARAMS, v_s=0.0)
    assert step_ac_current(phase, 30e3, 30e3, 0.0, STOCK_PARAMS) == 0.0


def test_ac_current_frozen_example():
    phase = initial_phase_state(STOCK_PARAMS, v_s=0.0)
    got = step_ac_current(phase, 29e3, 31e3, 0.0, STOCK_PARAMS)
    assert got == approx(3.8457101103718805)


def test_ac_current_affine_slopes():
    # The update is affine; finite differences recover the exact gains.
    phase = PhaseState(
        upper=initial_phase_state(STOCK_PARAMS).upper,
        lower=initial_phase_state(STOCK_PARAMS).lower,
        i=17.0,
        i_z=3.0,
        v_s=1200.0,
    )
    base = step_ac_current(phase, 28e3, 31e3, 500.0, STOCK_PARAMS)
    d = 1024.0
    k = STOCK_PARAMS.K_prime
    slope_up = (step_ac_current(phase, 28e3 + d, 31e3, 500.0, STOCK_PARAMS) - base) / d
    slope_low = (step_ac_current(phase, 28e3, 31e3 + d, 500.0, STOCK_PARAMS) - base) / d
    slope_vs = (step_ac_current(phase, 28e3, 31e3, 500.0 + d, STOCK_PARAMS) - base) / d
    assert slope_up == pytest.approx(-1.0 / (2.0 * k), rel=1e-9)
    assert slope_low == pytest.approx(1.0 / (2.0 * k), rel=1e-9)
    assert slope_vs == pytest.approx(-1.0 / k, rel=1e-9)
    bumped = PhaseState(
        upper=phase.upper, lower=phase.lower, i=phase.i + d,
        i_z=phase.i_z, v_s=phase.v_s,
    )
    slope_i = (step_ac_current(bumped, 28e3, 31e3, 500.0, STOCK_PARAMS) - base) / d
    assert slope_i == pytest.approx(
        STOCK_PARAMS.L_prime / (STOCK_PARAMS.T_s * STOCK_PARAMS.K_prime), rel=1e-9
    )


def test_circulating_current_frozen_example():
    phase = PhaseState(
        upper=initial_phase_state(STOCK_PARAMS).upper,
        lower=initial_phase_state(STOCK_PARAMS).lower,
        i=0.0,
        i_z=0.0,
        v_s=0.0,
    )
    got = step_circulating_current(phase, 29e3, 30e3, STOCK_PARAMS)
    assert got == approx(4.166666666666667)


def test_circulating_current_balanced_fixed_point():
    phase = PhaseState(
        upper=initial_phase_state(STOCK_PARAMS).upper,
        lower=initial_phase_state(STOCK_PARAMS).lower,
        i=0.0,
        i_z=5.0,
        v_s=0.0,
    )
    # Arm voltages summing to the bus leave i_z untouched, bit for bit.
    assert step_circulating_current(phase, 20e3, 40e3, STOCK_PARAMS) == 5.0


def test_circulating_current_bus_override():
    phase = initial_phase_state(STOCK_PARAMS)
    base = step_circulating_current(phase, 29e3, 30e3, STOCK_PARAMS)
    riding = step_circulating_current(phase, 29e3, 30e3, STOCK_PARAMS, v_dc=61e3)
    expected_gain = STOCK_PARAMS.T_s / (2.0 * STOCK_PARAMS.l_arm) * 1e3
    assert riding - base == pytest.approx(expected_gain, rel=1e-9)


def test_all_off_growth_rate():
    # Fully bypassed arms put the whole bus across the two arm chokes.
    phase = initial_phase_state(STOCK_PARAMS)
    assert step_circulating_current(phase, 0.0, 0.0, STOCK_PARAMS) == 250.0


# ------------------------------------------------------- decomposition


def test_decompose_examples():
    assert decompose_arm_currents(0.0, 0.0) == (0.0, 0.0)
    assert decompose_arm_currents(100.0, 0.0) == (50.0, -50.0)
    assert decompose_arm_currents(100.0, 10.0) == (60.0, -40.0)


@given(
    i=st.floats(-2e3, 2e3),
    i_z=st.floats(-500.0, 500.0),
)
def test_decompose_round_trip(i, i_z):
    i_up, i_low = decompose_arm_currents(i, i_z)
    assert i_up - i_low == pytest.approx(i, rel=1e-12, abs=1e-9)
    assert 0.5 * (i_up + i_low) == pytest.approx(i_z, rel=1e-12, abs=1e-9)


# ------------------------------------------------------- phase stepping


def _decision_all(n, value):
    statuses = np.full(2 * n, value, dtype=np.int8)
    return SwitchDecision(
        statuses=statuses, n_up=int(statuses[:n].sum()),
        n_low=int(statuses[n:].sum()),
    )


def test_advance_phase_all_off_quiescent():
    phase = initial_phase_state(STOCK_PARAMS)
    nxt = advance_phase(phase, _decision_all(6, 0), 0.0, STOCK_PARAMS)
    assert nxt.i == 0.0
    assert nxt.i_z == 250.0
    assert np.all(nxt.upper.v_c == 10000.0)
    assert np.all(nxt.lower.v_c == 10000.0)
    assert np.all(nxt.upper.u == 0)


def test_advance_phase_updates_arm_currents():
    phase = initial_phase_state(STOCK_PARAMS)
    nxt = advance_phase(phase, _decision_all(6, 0), 0.0, STOCK_PARAMS)
    i_up, i_low = decompose_arm_currents(nxt.i, nxt.i_z)
    assert nxt.upper.i_arm == i_up
    assert nxt.lower.i_arm == i_low


def test_advance_phase_rejects_size_mismatch():
    phase = initial_phase_state(STOCK_PARAMS)
    with pytest.raises(ContractError):
        advance_phase(phase, _decision_all(4, 0), 0.0, STOCK_PARAMS)


def test_advance_phase_bypassed_voltages_untouched():
    rng = np.random.default_rng(7)
    phase = initial_phase_state(STOCK_PARAMS)
    state = PhaseState(
        upper=ArmState(
            v_c=rng.uniform(9.5e3, 10.5e3, 6), u=phase.upper.u,
            i_arm=120.0, side="upper",
        ),
        lower=ArmState(
            v_c=rng.uniform(9.5e3, 10.5e3, 6), u=phase.lower.u,
            i_arm=-80.0, side="lower",
        ),
        i=200.0,
        i_z=20.0,
        v_s=15e3,
    )
    statuses = np.array([1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0], dtype=np.int8)
    decision = SwitchDecision(statuses=statuses, n_up=3, n_low=3)
    nxt = advance_phase(state, decision, 14e3, STOCK_PARAMS)
    for m, arm, nxt_arm in (
        (0, state.upper, nxt.upper), (1, state.lower, nxt.lower)
    ):
        keep = statuses[m * 6:(m + 1) * 6] == 0
        assert np.array_equal(nxt_arm.v_c[keep], arm.v_c[keep])
        assert not np.any(nxt_arm.v_c[~keep] == arm.v_c[~keep])


GOLDEN_TRACE = [
    (21.155590185096827, 0.0, 0.0, 60000.0),
    (42.32007261063177, 0.0026444487731472083, 0.0, 59999.365332294445),
    (63.500593338170624, 0.010578245510381142, 0.0, 59998.095888783064),
    (84.70429543156081, 0.026446971853480744, 0.0, 59996.191505677656),
    (105.93831810734935, 0.05289712338262689, 0.0, 59993.651963633005),
]
GOLDEN_STATUSES = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]


def test_golden_five_step_trace():
    """Closed-loop micro-trace pinned against a frozen reference run."""
    from mmcsim.controller import SortPolicy
    from mmcsim.testbench import GridSource
    from per_phase_reference import control_step, grid_voltage, reference_current

    grid = GridSource(amplitude=24.5e3, frequency=60.0)
    phase = initial_phase_state(STOCK_PARAMS, v_s=grid_voltage(grid, 0.0)[0])
    p_ref = 13.18e6
    for step, expect in enumerate(GOLDEN_TRACE):
        t_next = (step + 1) * STOCK_PARAMS.T_s
        i_ref_next = reference_current(p_ref, grid, t_next)[0]
        decision = control_step(phase, i_ref_next, SortPolicy.V1F2, STOCK_PARAMS)
        phase = advance_phase(
            phase, decision, grid_voltage(grid, t_next)[0], STOCK_PARAMS
        )
        exp_i, exp_iz, exp_vup, exp_vlow = expect
        assert phase.i == exp_i
        assert phase.i_z == exp_iz
        assert float((phase.upper.v_c * phase.upper.u).sum()) == exp_vup
        assert float((phase.lower.v_c * phase.lower.u).sum()) == exp_vlow
        statuses = np.concatenate([phase.upper.u, phase.lower.u])
        assert statuses.tolist() == GOLDEN_STATUSES
