"""Seeded generator of the benchmark's workloads.

Each workload is a set of INI files plus the ``mmcsim`` commands that
run on them; the program sees nothing but those files.  The seed picks
the power setpoint and, on ``b2b_run``, the policy switch times, all
inside the stock operating envelope (rated transfer 13.18 MW, schedule
V1F2 -> F1V2 -> V1F2 as in the stock 3 s run, scaled into the run).

Inputs depend on ``seed % VARIANTS`` only, so that every seed the
benchmark can be given has output digests recorded in ``digests.json``.

A workload comes in two kinds: ``measured``, the timed run, and
``setup``, the same commands on the same configs shortened to one
sampling period.  One step (not zero) keeps ``metrics`` runnable,
because it refuses a CSV without data rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VARIANTS = 16
DEFAULT_SEED = 0
# Seed kept out of all tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 11

KINDS = ("measured", "setup")

STOCK_P_SET = 13.18e6   # rated transfer of the stock system [W]
T_S = 25e-6             # stock sampling period [s]; setup runs one step

B2B_DURATION = 0.04
COMPARE_DURATION = 0.06
COMPARE_WINDOW = (0.01, 0.06)
COMPARE_W_Z = 0.25      # circulating weight of the acceptance pair
WIDE_N_SM = 48
WIDE_DURATION = 0.03
WIDE_WINDOW = (0.005, 0.03)


@dataclass(frozen=True)
class Workload:
    """INI files, the commands run on them, and the outputs to check.

    Commands run in the directory holding ``configs``, with the output
    directory ``out``; ``outputs`` and ``same_bytes`` name files in it.
    """

    name: str
    configs: dict[str, str]
    commands: list[list[str]]
    outputs: list[str]
    # Sanity band: compare's fs_ratio_b_over_a must stay below this.
    max_fs_ratio: float | None = None
    # Pairs of output files that must be byte-identical.
    same_bytes: list[tuple[str, str]] = field(default_factory=list)


def variant(seed: int) -> int:
    return seed % VARIANTS


def _p_set(rng: random.Random) -> float:
    """Setpoint magnitude between 80 % and 100 % of rated, 10 kW grid."""
    return round(STOCK_P_SET * rng.uniform(0.8, 1.0), -4)


def _ini(sections: dict[str, dict[str, str]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _window_keys(window: tuple[float, float] | None) -> dict[str, str]:
    if window is None:
        return {}
    return {"window_start": repr(window[0]), "window_end": repr(window[1])}


def _b2b_run(rng: random.Random, setup: bool) -> Workload:
    p = _p_set(rng)
    # Stock switch times 1.2 s and 1.4 s of 3 s, i.e. 40 % and 47 %.
    t1_ms = rng.randint(12, 20)
    t2_ms = t1_ms + rng.randint(2, 8)
    schedule = "[]" if setup else f"[({t1_ms / 1000!r}, F1V2), ({t2_ms / 1000!r}, V1F2)]"
    ini = _ini({
        "scenario": {
            "mode": "back_to_back",
            "duration": repr(T_S if setup else B2B_DURATION),
            "policy_schedule": schedule,
            "p_set": f"{p!r}, {-p!r}",
        },
        "output": {"directory": "out"},
    })
    return Workload(
        name="b2b_run",
        configs={"b2b.ini": ini},
        commands=[["run", "b2b.ini"]],
        outputs=["run.csv", "metrics.json"],
    )


def _ideal_compare(rng: random.Random, setup: bool) -> Workload:
    p = _p_set(rng)
    window = None if setup else COMPARE_WINDOW

    def config(schedule: str) -> str:
        return _ini({
            "converter": {"w_z": repr(COMPARE_W_Z)},
            "scenario": {
                "mode": "ideal_dc",
                "duration": repr(T_S if setup else COMPARE_DURATION),
                "policy_schedule": schedule,
                "p_set": repr(p),
            },
            "output": {"directory": "out", **_window_keys(window)},
        })

    return Workload(
        name="ideal_compare",
        configs={"v1f2.ini": config("[]"), "f1v2.ini": config("[(0.0, F1V2)]")},
        commands=[["compare", "v1f2.ini", "f1v2.ini"]],
        outputs=["compare.json"],
        max_fs_ratio=None if setup else 0.5,
    )


def _wide_arm_post(rng: random.Random, setup: bool) -> Workload:
    p = _p_set(rng)
    window = (0.0, T_S) if setup else WIDE_WINDOW
    ini = _ini({
        "converter": {"n_sm": str(WIDE_N_SM)},
        "scenario": {
            "mode": "ideal_dc",
            "duration": repr(T_S if setup else WIDE_DURATION),
            "policy_schedule": "[(0.0, F1V2)]",
            "p_set": repr(p),
        },
        "output": {"directory": "out", **_window_keys(window)},
    })
    return Workload(
        name="wide_arm_post",
        configs={"wide.ini": ini},
        commands=[
            ["run", "wide.ini"],
            ["metrics", "out/run.csv", "--window", repr(window[0]), repr(window[1])],
        ],
        outputs=["run.csv", "metrics.json"],
        same_bytes=[("run.metrics.json", "metrics.json")],
    )


_GENERATORS = {
    "b2b_run": _b2b_run,
    "ideal_compare": _ideal_compare,
    "wide_arm_post": _wide_arm_post,
}
WORKLOAD_NAMES = tuple(_GENERATORS)


def build(name: str, seed: int, kind: str) -> Workload:
    """The workload ``name`` of the given kind for ``seed``."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    rng = random.Random(variant(seed))
    return _GENERATORS[name](rng, kind == "setup")
