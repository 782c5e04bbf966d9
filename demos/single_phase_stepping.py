#!/usr/bin/env python3
"""Follow one phase leg of a run step by step.

Builds the stock 60 kV converter, runs it on an ideal bus for two grid
periods under the conventional voltage-first ranking, then walks phase
a of the recorded run.  Every couple of milliseconds a snapshot is
printed: the synthesized arm voltages, the insertion counts, the
tracking error, and the capacitor spread.  At the end the per-SM
switching frequencies show how busy the voltage-first ranking keeps the
devices.
"""

from mmcsim import (
    Scenario,
    SortPolicy,
    build_stock_system,
    simulate,
    summarize,
)


def main():
    params, grid, _, _ = build_stock_system()
    policy = SortPolicy.V1F2
    duration = 2.0 / grid.frequency
    scenario = Scenario(
        duration=duration, events=[(0.0, policy)], mode="ideal_dc", p_set=(13.18e6,)
    )
    record = simulate(scenario, params=params, grid=grid)
    print(f"stepping phase a for {duration * 1e3:.1f} ms "
          f"({record.steps} periods of {params.T_s * 1e6:.0f} us) under {policy.value}")
    print(f"{'t [ms]':>8} {'v_up [kV]':>11} {'v_low [kV]':>11} "
          f"{'n_up':>4} {'n_low':>5} {'i [A]':>8} {'i_ref [A]':>9} "
          f"{'spread [V]':>10}")

    p = record.labels.index("a")
    n = params.n
    report_every = int(2e-3 / params.T_s)
    for k in range(0, record.steps, report_every):
        u = record.u[k, p]
        v_c = record.v_c[k, p]
        print(f"{record.times[k] * 1e3:8.2f} {record.v_up[k, p] / 1e3:11.2f} "
              f"{record.v_low[k, p] / 1e3:11.2f} {int(u[:n].sum()):4d} "
              f"{int(u[n:].sum()):5d} {record.i[k, p]:8.1f} {record.i_ref[k, p]:9.1f} "
              f"{v_c.max() - v_c.min():10.1f}")

    f_s = summarize(record, (0.0, duration), params.v_sm_nominal).fs_per_sm["a"]
    print(f"\nper-SM effective switching frequency over {duration * 1e3:.1f} ms:")
    print("  upper arm:", " ".join(f"{f:7.0f}" for f in f_s[:n]), "Hz")
    print("  lower arm:", " ".join(f"{f:7.0f}" for f in f_s[n:]), "Hz")
    print(f"  arm average: {f_s.mean():.0f} Hz")


if __name__ == "__main__":
    main()
