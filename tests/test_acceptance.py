"""Acceptance suite for the stock 60 kV test system.

One test per criterion, in order:

1. selection optimality against brute force (exact minimum value)
2. plant/controller equations against independent oracles
3. switching-frequency reduction of the status-first policy
4. per-SM capacitor ripple band and policy insensitivity
5. circulating-current deviation bound
6. AC reference tracking error bound
7. back-to-back bus voltage and link current bands
8. structural laws of the status-first ranking
9. byte-level determinism of the command-line interface

Closed-loop criteria 3..6 share two 0.5 s single-converter runs (one
per policy, identical initial conditions, circulating weight 0.25,
metrics over 0.1..0.5 s); criterion 7 uses one 1.0 s back-to-back run
at stock weights with a 0.2 s settling exclusion.
"""

import json
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mmcsim.cli import OUTPUT_DIR_ENV, main
from mmcsim.controller import SortPolicy
from mmcsim.metrics import summarize
from mmcsim.model import ConverterParams
from mmcsim.testbench import Scenario, build_stock_system, simulate
from per_phase_reference import (
    ArmState,
    PhaseState,
    SubmoduleState,
    TargetVoltages,
    compute_targets,
    cumulative_sums,
    initial_phase_state,
    objective_f,
    predict_capacitor_voltage,
    select_submodules,
    sort_arm,
    step_ac_current,
    step_circulating_current,
)

IDEAL_WINDOW = (0.1, 0.5)
B2B_WINDOW = (0.2, 1.0)
IDEAL_W_Z = 0.25


@pytest.fixture(scope="session")
def stock():
    return build_stock_system()


@pytest.fixture(scope="session")
def ideal_runs(stock):
    """0.5 s ideal-bus run per policy, identical initial conditions."""
    params0, grid, _, _ = stock
    params = replace(params0, w_z=IDEAL_W_Z)
    records = {}
    started = time.perf_counter()
    for policy in (SortPolicy.V1F2, SortPolicy.F1V2):
        scenario = Scenario(
            duration=0.5,
            events=[(0.0, policy)],
            mode="ideal_dc",
            p_set=(13.18e6,),
        )
        records[policy] = simulate(scenario, params=params, grid=grid)
    elapsed = time.perf_counter() - started
    metrics = {
        policy: summarize(record, IDEAL_WINDOW, params.v_sm_nominal)
        for policy, record in records.items()
    }
    return SimpleNamespace(
        params=params, records=records, metrics=metrics, elapsed=elapsed
    )


@pytest.fixture(scope="session")
def b2b_run(stock):
    """1.0 s back-to-back run at stock weights."""
    params, grid, link, _ = stock
    scenario = Scenario(
        duration=1.0, mode="back_to_back", p_set=(13.18e6, -13.18e6)
    )
    record = simulate(scenario, params=params, grid=grid, dc_link=link)
    return SimpleNamespace(params=params, record=record)


# --------------------------------------------------------- criterion 1


def test_criterion_1_selection_matches_brute_force(stock):
    params0 = stock[0]
    rng = np.random.default_rng(20260814)
    started = time.perf_counter()
    cases = 0
    for n in (2, 3, 4):
        params = replace(params0, n=n)
        nominal = params.v_sm_nominal
        for _ in range(3500):
            policy = SortPolicy.F1V2 if rng.integers(0, 2) else SortPolicy.V1F2
            sorted_arms = []
            for side in ("upper", "lower"):
                arm = ArmState(
                    v_c=rng.uniform(0.9, 1.1, n) * nominal,
                    u=rng.integers(0, 2, n).astype(np.int8),
                    i_arm=float(rng.uniform(-400.0, 400.0)),
                    side=side,
                )
                sorted_arms.append(sort_arm(arm, policy, params))
            alpha = cumulative_sums(sorted_arms[0])
            beta = cumulative_sums(sorted_arms[1])
            targets = TargetVoltages(
                v_up_star=float(rng.uniform(0.0, alpha[-1])),
                v_low_star=float(rng.uniform(0.0, beta[-1])),
            )
            decision = select_submodules(
                sorted_arms[0], sorted_arms[1], targets, params
            )
            chosen = objective_f(
                targets.v_up_star - alpha[decision.n_up],
                targets.v_low_star - beta[decision.n_low],
                params,
            )
            brute = min(
                objective_f(
                    targets.v_up_star - alpha[ku],
                    targets.v_low_star - beta[kl],
                    params,
                )
                for ku in range(n + 1)
                for kl in range(n + 1)
            )
            assert chosen == brute, (
                f"n={n} case {cases}: selected cost {chosen!r} != "
                f"brute-force minimum {brute!r}"
            )
            cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 10_000
    assert elapsed < 10.0, f"selection sweep took {elapsed:.1f} s"
    print(f"criterion 1: PASS ({cases} states, exact minima, {elapsed:.1f} s)")


# --------------------------------------------------------- criterion 2


def _random_params(rng):
    return ConverterParams(
        n=int(rng.integers(2, 9)),
        R=float(rng.uniform(0.01, 0.5)),
        L=float(rng.uniform(1e-3, 20e-3)),
        l_arm=float(rng.uniform(0.5e-3, 10e-3)),
        C=float(rng.uniform(0.5e-3, 10e-3)),
        V_dc=float(rng.uniform(20e3, 400e3)),
        T_s=float(rng.uniform(10e-6, 100e-6)),
    )


def _close(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_criterion_2_equations_match_oracles():
    rng = np.random.default_rng(413)
    started = time.perf_counter()
    for _ in range(150):
        params = _random_params(rng)
        l_prime = params.L + params.l_arm / 2.0
        k_prime = params.R + l_prime / params.T_s
        i = float(rng.uniform(-600.0, 600.0))
        i_z = float(rng.uniform(-100.0, 100.0))
        i_arm = float(rng.uniform(-500.0, 500.0))
        v_s = float(rng.uniform(-0.5, 0.5)) * params.V_dc
        v_up = float(rng.uniform(0.0, params.V_dc))
        v_low = float(rng.uniform(0.0, params.V_dc))
        v_c = float(rng.uniform(0.8, 1.2)) * params.v_sm_nominal
        u = int(rng.integers(0, 2))

        got = predict_capacitor_voltage(SubmoduleState(v_c, u), i_arm, u, params)
        want = v_c + (params.T_s * i_arm / params.C) * u
        assert _close(got, want), f"capacitor update: {got!r} vs {want!r}"

        base = initial_phase_state(params, v_s)
        phase = PhaseState(
            upper=base.upper, lower=base.lower, i=i, i_z=i_z, v_s=v_s
        )
        got = step_ac_current(phase, v_up, v_low, v_s, params)
        want = ((v_low - v_up) / 2.0 - v_s + (l_prime / params.T_s) * i) / k_prime
        assert _close(got, want), f"AC current update: {got!r} vs {want!r}"

        got = step_circulating_current(phase, v_up, v_low, params)
        want = (params.T_s / (2.0 * params.l_arm)) * (
            params.V_dc - v_low - v_up
        ) + i_z
        assert _close(got, want), f"circulating update: {got!r} vs {want!r}"

        i_ref = float(rng.uniform(-600.0, 600.0))
        i_z_ref = float(rng.uniform(-50.0, 50.0))
        targets = compute_targets(phase, i_ref, params, i_z_ref)
        common = params.V_dc / 2.0 + (params.l_arm / params.T_s) * (i_z - i_z_ref)
        drive = k_prime * i_ref + v_s - (l_prime / params.T_s) * i
        assert _close(targets.v_up_star, common - drive), "upper target"
        assert _close(targets.v_low_star, common + drive), "lower target"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f} s"
    print(f"criterion 2: PASS (150 randomized inputs, {elapsed:.2f} s)")


# --------------------------------------------------------- criterion 3


def test_criterion_3_switching_frequency_reduction(ideal_runs):
    fs_v1f2 = ideal_runs.metrics[SortPolicy.V1F2].fs_mean
    fs_f1v2 = ideal_runs.metrics[SortPolicy.F1V2].fs_mean
    ratio = fs_f1v2 / fs_v1f2
    assert 5000.0 <= fs_v1f2 <= 9000.0, f"fs(V1F2) = {fs_v1f2:.0f} Hz"
    assert ratio <= 0.4, f"fs ratio = {ratio:.3f}"
    assert ideal_runs.elapsed < 60.0, f"runs took {ideal_runs.elapsed:.1f} s"
    print(
        f"criterion 3: PASS (fs {fs_v1f2:.0f} Hz -> {fs_f1v2:.0f} Hz, "
        f"ratio {ratio:.3f}, {ideal_runs.elapsed:.1f} s)"
    )


# --------------------------------------------------------- criterion 4


def test_criterion_4_capacitor_ripple_band(ideal_runs):
    spreads = {}
    for policy, metrics in ideal_runs.metrics.items():
        values = np.concatenate(list(metrics.ripple_pct.values()))
        spreads[policy] = (values.min(), values.max())
        assert np.all(values >= 0.5) and np.all(values <= 2.5), (
            f"{policy.value}: per-SM ripple spans "
            f"[{values.min():.2f}, {values.max():.2f}] %"
        )
    worst_gap = 0.0
    a = ideal_runs.metrics[SortPolicy.V1F2].ripple_pct
    b = ideal_runs.metrics[SortPolicy.F1V2].ripple_pct
    n = ideal_runs.params.n
    for label in a:
        for arm in (slice(0, n), slice(n, 2 * n)):
            gap = abs(float(a[label][arm].mean()) - float(b[label][arm].mean()))
            worst_gap = max(worst_gap, gap)
    assert worst_gap <= 1.0, f"arm-mean ripple gap {worst_gap:.2f} pp"
    print(
        "criterion 4: PASS (ripple "
        f"V1F2 [{spreads[SortPolicy.V1F2][0]:.2f}, {spreads[SortPolicy.V1F2][1]:.2f}] %, "
        f"F1V2 [{spreads[SortPolicy.F1V2][0]:.2f}, {spreads[SortPolicy.F1V2][1]:.2f}] %, "
        f"gap {worst_gap:.2f} pp)"
    )


# --------------------------------------------------------- criterion 5


def test_criterion_5_circulating_current_bound(ideal_runs):
    ratios = {
        policy: metrics.i_z_max_ratio
        for policy, metrics in ideal_runs.metrics.items()
    }
    for policy, ratio in ratios.items():
        assert ratio <= 0.15, f"{policy.value}: |i_z| ratio {ratio:.3f}"
    print(
        "criterion 5: PASS (peak deviation ratio "
        f"V1F2 {ratios[SortPolicy.V1F2]:.3f}, "
        f"F1V2 {ratios[SortPolicy.F1V2]:.3f})"
    )


# --------------------------------------------------------- criterion 6


def test_criterion_6_tracking_error_bound(ideal_runs):
    errors = {
        policy: metrics.tracking_rmse_pct
        for policy, metrics in ideal_runs.metrics.items()
    }
    for policy, rmse in errors.items():
        assert rmse <= 2.0, f"{policy.value}: tracking rmse {rmse:.2f} %"
    print(
        "criterion 6: PASS (tracking rmse "
        f"V1F2 {errors[SortPolicy.V1F2]:.2f} %, "
        f"F1V2 {errors[SortPolicy.F1V2]:.2f} %)"
    )


# --------------------------------------------------------- criterion 7


def test_criterion_7_back_to_back_bands(b2b_run):
    record = b2b_run.record
    params = b2b_run.params
    mask = record.times > B2B_WINDOW[0]
    v_bus = record.v_dc_link[mask]
    assert np.all(v_bus >= 0.95 * params.V_dc) and np.all(
        v_bus <= 1.05 * params.V_dc
    ), f"bus spans [{v_bus.min():.0f}, {v_bus.max():.0f}] V"

    implied = 13.18e6 / params.V_dc
    i_link = record.i_dc_link[mask, 0]
    assert np.all(i_link >= 0.8 * implied) and np.all(
        i_link <= 1.2 * implied
    ), f"link current spans [{i_link.min():.1f}, {i_link.max():.1f}] A"
    print(
        f"criterion 7: PASS (bus [{v_bus.min():.0f}, {v_bus.max():.0f}] V, "
        f"link [{i_link.min():.1f}, {i_link.max():.1f}] A "
        f"around {implied:.1f} A)"
    )


# --------------------------------------------------------- criterion 8


def test_criterion_8_status_first_structural_laws(stock):
    params = stock[0]
    n = params.n
    rng = np.random.default_rng(977)
    checks = 100_000
    voltages = rng.uniform(0.8, 1.2, (checks, n)) * params.v_sm_nominal
    statuses = rng.integers(0, 2, (checks, n)).astype(np.int8)
    currents = rng.uniform(-400.0, 400.0, checks)
    for row in range(checks):
        arm = ArmState(
            v_c=voltages[row],
            u=statuses[row],
            i_arm=float(currents[row]),
            side="upper",
        )
        two_pass = sort_arm(arm, SortPolicy.F1V2, params)
        u_sorted = statuses[row][two_pass.order]
        # Priority law: every ON SM precedes every OFF SM.
        assert np.all(np.diff(u_sorted) <= 0), f"row {row}: {u_sorted}"
        # Stability law: each group keeps the single-pass voltage order.
        single = sort_arm(arm, SortPolicy.V1F2, params).order
        u_row = statuses[row]
        merged = np.concatenate(
            [single[u_row[single] == 1], single[u_row[single] == 0]]
        )
        assert np.array_equal(two_pass.order, merged), f"row {row}"
    print(f"criterion 8: PASS ({checks} randomized sorts)")


# --------------------------------------------------------- criterion 9


CONFIG_TEXT = """
[scenario]
mode = ideal_dc
duration = 0.05
p_set = 13.18e6
policy_schedule = [(0.025, F1V2)]

[output]
directory = out
"""


def test_criterion_9_deterministic_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    config = tmp_path / "system.ini"
    config.write_text(CONFIG_TEXT)

    assert main(["run", str(config)]) == 0
    first = (tmp_path / "out" / "run.csv").read_bytes()
    assert main(["run", str(config)]) == 0
    second = (tmp_path / "out" / "run.csv").read_bytes()
    assert first == second, "repeated runs differ byte for byte"

    twin = tmp_path / "twin.ini"
    twin.write_text(CONFIG_TEXT)
    capsys.readouterr()
    assert main(["compare", str(config), str(twin)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert report["fs_ratio_b_over_a"] == 1.0
    assert report["a"] == report["b"]
    print(
        f"criterion 9: PASS ({len(first)} byte CSV reproduced, "
        "compare ratio exactly 1.0)"
    )
