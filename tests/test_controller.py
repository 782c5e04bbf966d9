"""Unit tests for target computation, sorting, and submodule selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcsim.controller import _STATUS_FIRST, SortPolicy, _rank
from mmcsim.errors import ContractError
from mmcsim.model import ConverterParams
from per_phase_reference import (
    ArmState,
    PhaseState,
    TargetVoltages,
    compute_targets,
    control_step,
    cumulative_sums,
    initial_phase_state,
    objective_f,
    select_submodules,
    sort_arm,
)

STOCK_PARAMS = ConverterParams(
    n=6, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=60e3, T_s=25e-6
)


def approx(value):
    return pytest.approx(value, rel=1e-12, abs=0.0)


def _phase(i=0.0, i_z=0.0, v_s=0.0):
    base = initial_phase_state(STOCK_PARAMS, v_s=v_s)
    return PhaseState(
        upper=base.upper, lower=base.lower, i=i, i_z=i_z, v_s=v_s
    )


def _arm(v_c, u, i_arm, side="upper"):
    return ArmState(
        v_c=np.asarray(v_c, dtype=float),
        u=np.asarray(u, dtype=np.int8),
        i_arm=i_arm,
        side=side,
    )


# -------------------------------------------------------------- targets


def test_targets_quiescent_split_bus():
    targets = compute_targets(_phase(), 0.0, STOCK_PARAMS)
    assert targets.v_up_star == 30000.0
    assert targets.v_low_star == 30000.0


def test_targets_frozen_example():
    phase = _phase(i=290.0, i_z=2.0, v_s=20e3)
    targets = compute_targets(phase, 300.0, STOCK_PARAMS)
    assert targets.v_up_star == approx(7631.000000000015)
    assert targets.v_low_star == approx(52848.999999999985)


def test_targets_antisymmetric_drive():
    # The drive term moves the two targets by equal and opposite amounts.
    quiet = compute_targets(_phase(), 0.0, STOCK_PARAMS)
    loaded = compute_targets(_phase(v_s=1e3), 0.0, STOCK_PARAMS)
    up_shift = loaded.v_up_star - quiet.v_up_star
    low_shift = loaded.v_low_star - quiet.v_low_star
    assert up_shift == approx(-1e3)
    assert low_shift == approx(1e3)


@given(
    i=st.floats(-600.0, 600.0),
    i_z=st.floats(-100.0, 100.0),
    v_s=st.floats(-30e3, 30e3),
    i_ref=st.floats(-600.0, 600.0),
    i_z_ref=st.floats(-50.0, 50.0),
)
def test_target_sum_identity(i, i_z, v_s, i_ref, i_z_ref):
    # v_up* + v_low* = V_dc + (2 l / T_s)(i_z - i_z_ref), independent of
    # the drive term.
    targets = compute_targets(_phase(i=i, i_z=i_z, v_s=v_s), i_ref, STOCK_PARAMS, i_z_ref)
    expected = STOCK_PARAMS.V_dc + (2.0 * STOCK_PARAMS.l_arm / STOCK_PARAMS.T_s) * (i_z - i_z_ref)
    got = targets.v_up_star + targets.v_low_star
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-6)


def test_target_sum_frozen_example():
    targets = compute_targets(
        _phase(i=290.0, i_z=2.0, v_s=20e3), 300.0, STOCK_PARAMS
    )
    assert targets.v_up_star + targets.v_low_star == approx(60480.0)


# ------------------------------------------------------------ objective


def test_objective_zero_errors():
    assert objective_f(0.0, 0.0, STOCK_PARAMS) == 0.0


def test_objective_pure_ac_error():
    # Antisymmetric errors excite only the output-current term.
    d = 123.456
    assert objective_f(d, -d, STOCK_PARAMS) == approx(0.4747759873860709)


def test_objective_pure_circulating_error():
    d = 123.456
    assert objective_f(d, d, STOCK_PARAMS) == approx(1.0288000000000002)


def test_objective_weights_scale_terms():
    heavy = ConverterParams(
        n=6, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=60e3, T_s=25e-6,
        w=2.0, w_z=1.0,
    )
    assert objective_f(50.0, -50.0, heavy) == approx(
        2.0 * objective_f(50.0, -50.0, STOCK_PARAMS)
    )
    assert objective_f(50.0, 50.0, heavy) == approx(
        objective_f(50.0, 50.0, STOCK_PARAMS)
    )


@given(
    dv_up=st.floats(-5e3, 5e3),
    dv_low=st.floats(-5e3, 5e3),
)
def test_objective_symmetry(dv_up, dv_low):
    # Swapping the arm errors leaves the cost unchanged.
    assert objective_f(dv_up, dv_low, STOCK_PARAMS) == objective_f(
        dv_low, dv_up, STOCK_PARAMS
    )


# -------------------------------------------------------------- sorting


def test_sort_v1f2_ascending_for_charging_current():
    arm = _arm([10e3, 30e3, 20e3], [0, 1, 1], i_arm=50.0)
    params = ConverterParams(
        n=3, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=60e3, T_s=25e-6
    )
    result = sort_arm(arm, SortPolicy.V1F2, params)
    assert result.order.tolist() == [0, 2, 1]
    assert result.sorted_voltages.tolist() == [10e3, 20e3, 30e3]


def test_sort_v1f2_descending_for_discharging_current():
    arm = _arm([10e3, 30e3, 20e3], [0, 1, 1], i_arm=-50.0)
    params = ConverterParams(
        n=3, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=60e3, T_s=25e-6
    )
    result = sort_arm(arm, SortPolicy.V1F2, params)
    assert result.order.tolist() == [1, 2, 0]


def test_sort_f1v2_on_group_first():
    arm = _arm([10e3, 30e3, 20e3], [0, 1, 1], i_arm=50.0)
    params = ConverterParams(
        n=3, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=60e3, T_s=25e-6
    )
    result = sort_arm(arm, SortPolicy.F1V2, params)
    # ON submodules lead, each group keeps the voltage order.
    assert result.order.tolist() == [2, 1, 0]
    assert result.sorted_voltages.tolist() == [20e3, 30e3, 10e3]


def test_sort_ties_keep_physical_order():
    arm = _arm([10e3, 10e3, 10e3, 10e3], [1, 0, 1, 0], i_arm=10.0)
    params = ConverterParams(
        n=4, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=40e3, T_s=25e-6
    )
    v1 = sort_arm(arm, SortPolicy.V1F2, params)
    f1 = sort_arm(arm, SortPolicy.F1V2, params)
    assert v1.order.tolist() == [0, 1, 2, 3]
    assert f1.order.tolist() == [0, 2, 1, 3]


def test_sort_policies_agree_when_statuses_equal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v_c = rng.uniform(9e3, 11e3, 6)
        i_arm = float(rng.uniform(-300, 300))
        for fill in (0, 1):
            arm = _arm(v_c, np.full(6, fill), i_arm)
            a = sort_arm(arm, SortPolicy.V1F2, STOCK_PARAMS)
            b = sort_arm(arm, SortPolicy.F1V2, STOCK_PARAMS)
            assert np.array_equal(a.order, b.order)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_sort_f1v2_priority_and_group_stability(seed):
    rng = np.random.default_rng(seed)
    v_c = rng.uniform(8e3, 12e3, 6)
    u = rng.integers(0, 2, 6).astype(np.int8)
    i_arm = float(rng.uniform(-400, 400))
    arm = _arm(v_c, u, i_arm)
    base = sort_arm(arm, SortPolicy.V1F2, STOCK_PARAMS)
    two_pass = sort_arm(arm, SortPolicy.F1V2, STOCK_PARAMS)
    statuses_sorted = u[two_pass.order]
    # ON group strictly precedes the OFF group.
    assert np.all(np.diff(statuses_sorted) <= 0)
    # Within each group the single-pass voltage order is preserved.
    for group in (1, 0):
        want = [j for j in base.order if u[j] == group]
        got = [j for j in two_pass.order if u[j] == group]
        assert want == got


@pytest.mark.parametrize("n", [1, 2, 6, 48])
def test_rank_equals_the_two_pass_sort_on_stacked_arms(n):
    # A (40, 3, 2) stack of arms, as the kernel ranks them: voltages
    # half drawn from three levels (exact ties), all equal in the arms of
    # the first four rows, and currents of 0.0 and -0.0 among signed
    # ones.  Each arm goes under V1F2, under F1V2, and under a policy of
    # its own.
    rng = np.random.default_rng(n)
    shape = (40, 3, 2)
    v_c = rng.uniform(9e3, 11e3, (*shape, n))
    tied = rng.random(v_c.shape) < 0.5
    v_c[tied] = rng.choice(rng.uniform(9e3, 11e3, 3), tied.sum())
    v_c[:4] = 10e3
    u = rng.integers(0, 2, v_c.shape).astype(np.int8)
    i_arm = rng.choice([0.0, -0.0, 150.0, -150.0], shape) * rng.uniform(0.5, 2.0, shape)
    assert np.any(np.signbit(i_arm) & (i_arm == 0.0)) and np.any(~np.signbit(i_arm) & (i_arm == 0.0))
    mixed = rng.random(shape) < 0.5
    # The kernel's tables: each SM's policy and the flat index of its arm.
    arm = np.broadcast_to(np.arange(i_arm.size).reshape(*shape, 1), v_c.shape).copy()

    def rank(status_first):
        table = np.broadcast_to(status_first[..., None], v_c.shape)
        return _rank(v_c, u, i_arm, table, arm, np.empty(v_c.shape, np.int64))

    for f1v2 in (np.zeros(shape, bool), np.ones(shape, bool), mixed):
        order = rank(f1v2 * _STATUS_FIRST)
        assert order.shape == v_c.shape
        for arm_index in np.ndindex(shape):
            policy = SortPolicy.F1V2 if f1v2[arm_index] else SortPolicy.V1F2
            reference = sort_arm(
                _arm(v_c[arm_index], u[arm_index], float(i_arm[arm_index])), policy, STOCK_PARAMS)
            assert order[arm_index].tolist() == reference.order.tolist(), (arm_index, policy)
    # A policy per leg row, broadcast over the row's arms, ranks as its
    # full table does.
    rows = mixed[:, :1, :1]
    assert np.array_equal(rank(rows * _STATUS_FIRST),
                          rank(np.broadcast_to(rows, shape) * _STATUS_FIRST))


# ------------------------------------------------------ insertion counts


def test_cumulative_sums_examples():
    arm = _arm([10e3, 10e3, 10e3], [0, 0, 0], i_arm=1.0)
    params = ConverterParams(
        n=3, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=30e3, T_s=25e-6
    )
    sums = cumulative_sums(sort_arm(arm, SortPolicy.V1F2, params))
    assert sums.tolist() == [0.0, 10e3, 20e3, 30e3]


def test_cumulative_sums_first_entry_is_zero():
    arm = _arm([9.9e3, 10.1e3], [0, 0], i_arm=1.0)
    params = ConverterParams(
        n=2, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=20e3, T_s=25e-6
    )
    sums = cumulative_sums(sort_arm(arm, SortPolicy.V1F2, params))
    assert sums[0] == 0.0
    assert sums.tolist() == [0.0, 9.9e3, 20e3]


def _brute_force_best(sorted_up, sorted_low, targets, params):
    """Exhaustive scan over every insertion-count pair."""
    sums_up = cumulative_sums(sorted_up)
    sums_low = cumulative_sums(sorted_low)
    best = None
    for k_up in range(params.n + 1):
        for k_low in range(params.n + 1):
            cost = objective_f(
                targets.v_up_star - sums_up[k_up],
                targets.v_low_star - sums_low[k_low],
                params,
            )
            if best is None or cost < best[0]:
                best = (cost, k_up, k_low)
    return best


def test_select_equal_voltage_example():
    params = ConverterParams(
        n=2, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=20e3, T_s=25e-6
    )
    up = sort_arm(_arm([10e3, 10e3], [0, 0], 1.0, "upper"), SortPolicy.V1F2, params)
    low = sort_arm(_arm([10e3, 10e3], [0, 0], 1.0, "lower"), SortPolicy.V1F2, params)
    targets = TargetVoltages(v_up_star=14e3, v_low_star=46e3)

    decision = select_submodules(up, low, targets, params)
    cost = objective_f(
        targets.v_up_star - 10e3 * decision.n_up,
        targets.v_low_star - 10e3 * decision.n_low,
        params,
    )
    best_cost, k_up, k_low = _brute_force_best(up, low, targets, params)
    assert cost == best_cost
    assert (decision.n_up, decision.n_low) == (k_up, k_low) == (2, 2)


def test_select_clamps_below_zero_target():
    params = ConverterParams(
        n=2, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=20e3, T_s=25e-6
    )
    up = sort_arm(_arm([10e3, 10.2e3], [0, 0], 1.0, "upper"), SortPolicy.V1F2, params)
    low = sort_arm(_arm([10e3, 10.2e3], [0, 0], 1.0, "lower"), SortPolicy.V1F2, params)
    targets = TargetVoltages(v_up_star=-5e3, v_low_star=65e3)

    decision = select_submodules(up, low, targets, params)
    assert decision.n_up == 0
    assert decision.n_low == 2


def test_select_statuses_follow_sorted_order():
    params = ConverterParams(
        n=3, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=30e3, T_s=25e-6
    )
    up = sort_arm(
        _arm([10.2e3, 9.8e3, 10e3], [0, 0, 0], 5.0, "upper"),
        SortPolicy.V1F2, params,
    )
    low = sort_arm(
        _arm([10e3, 10e3, 10e3], [0, 0, 0], -5.0, "lower"),
        SortPolicy.V1F2, params,
    )
    targets = TargetVoltages(v_up_star=10e3, v_low_star=20e3)

    decision = select_submodules(up, low, targets, params)
    # One upper submodule: the cheapest is index 1 (lowest, charging).
    assert decision.statuses[:3].tolist() == [0, 1, 0]
    assert decision.n_up == 1
    assert decision.n_low == 2


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_select_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    params = ConverterParams(
        n=n, R=0.03, L=5e-3, l_arm=3e-3, C=2.5e-3, V_dc=10e3 * n, T_s=25e-6
    )
    policy = SortPolicy.F1V2 if rng.integers(0, 2) else SortPolicy.V1F2
    arms = []
    for side in ("upper", "lower"):
        arm = _arm(
            rng.uniform(0.9, 1.1, n) * 10e3,
            rng.integers(0, 2, n).astype(np.int8),
            float(rng.uniform(-400, 400)),
            side,
        )
        arms.append(sort_arm(arm, policy, params))
    targets = TargetVoltages(
        v_up_star=float(rng.uniform(0.0, float(arms[0].sorted_voltages.sum()))),
        v_low_star=float(rng.uniform(0.0, float(arms[1].sorted_voltages.sum()))),
    )

    decision = select_submodules(arms[0], arms[1], targets, params)
    sums_up = cumulative_sums(arms[0])
    sums_low = cumulative_sums(arms[1])
    cost = objective_f(
        targets.v_up_star - sums_up[decision.n_up],
        targets.v_low_star - sums_low[decision.n_low],
        params,
    )
    assert cost == _brute_force_best(arms[0], arms[1], targets, params)[0]


# ----------------------------------------------------------- full step


def test_control_step_quiescent_splits_evenly():
    decision = control_step(
        initial_phase_state(STOCK_PARAMS), 0.0, SortPolicy.V1F2, STOCK_PARAMS
    )
    assert decision.n_up == 3
    assert decision.n_low == 3


def test_control_step_is_pure():
    phase = _phase(i=120.0, i_z=4.0, v_s=18e3)
    first = control_step(phase, 130.0, SortPolicy.F1V2, STOCK_PARAMS)
    second = control_step(phase, 130.0, SortPolicy.F1V2, STOCK_PARAMS)
    assert np.array_equal(first.statuses, second.statuses)
    assert phase.i == 120.0 and phase.upper.i_arm == 0.0


def test_sorted_arm_rejects_bad_permutation():
    from per_phase_reference import SortedArm

    with pytest.raises(ContractError):
        SortedArm(
            order=np.array([0, 0, 1], dtype=np.intp),
            sorted_voltages=np.array([1.0, 2.0, 3.0]),
        )
