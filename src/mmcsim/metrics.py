"""Post-processing metrics over recorded simulation series.

Every metric is a pure function of a recorded series and a time window,
so recomputing from a persisted CSV reproduces the in-memory values
bit-exactly (at recording decimation 1).

Window conventions, pinned so that partitioned windows add up cleanly:

* switching events are timestamped at the sample where the new status
  first appears and counted over the half-open window ``(t0, t1]``;
* sampled series (ripple, currents) use the closed window ``[t0, t1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, MetricWindowError

__all__ = [
    "RunRecord",
    "SummaryMetrics",
    "ripple_percent",
    "circulating_ratio",
    "tracking_rmse",
    "summarize",
]


# ===== ELEMENTARY METRICS =====


def _check_window(window: tuple[float, float]) -> tuple[float, float]:
    t0, t1 = window
    if not (t1 > t0):
        raise MetricWindowError(f"window must satisfy t1 > t0, got ({t0}, {t1})")
    return t0, t1


def _window_mask(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    t0, t1 = _check_window(window)
    mask = (times >= t0) & (times <= t1)
    if not mask.any():
        raise MetricWindowError(f"no samples inside window ({t0}, {t1})")
    return mask


def ripple_percent(
    times: np.ndarray,
    v_c: np.ndarray,
    nominal: float,
    window: tuple[float, float],
) -> float:
    """Peak-to-peak capacitor-voltage ripple as a percentage of nominal."""
    if nominal <= 0.0:
        raise ContractError(f"nominal voltage must be > 0, got {nominal}")
    times = np.asarray(times, dtype=float)
    v_c = np.asarray(v_c, dtype=float)
    if times.shape != v_c.shape:
        raise ContractError("times and v_c must have equal length")
    sel = v_c[_window_mask(times, window)]
    return 100.0 * float(sel.max() - sel.min()) / nominal


def circulating_ratio(
    times: np.ndarray,
    i_z: np.ndarray,
    i: np.ndarray,
    window: tuple[float, float],
) -> float:
    """Peak circulating current relative to the AC amplitude.

    The AC amplitude is estimated as the peak |i| over the same window.
    """
    times = np.asarray(times, dtype=float)
    i_z = np.asarray(i_z, dtype=float)
    i = np.asarray(i, dtype=float)
    if not (times.shape == i_z.shape == i.shape):
        raise ContractError("times, i_z and i must have equal length")
    mask = _window_mask(times, window)
    amp = float(np.abs(i[mask]).max())
    if amp == 0.0:
        raise MetricWindowError("AC amplitude is zero inside the window")
    return float(np.abs(i_z[mask]).max()) / amp


def tracking_rmse(
    times: np.ndarray,
    i: np.ndarray,
    i_ref: np.ndarray,
    window: tuple[float, float],
) -> float:
    """RMS AC-current tracking error as a percentage of the reference amplitude."""
    times = np.asarray(times, dtype=float)
    i = np.asarray(i, dtype=float)
    i_ref = np.asarray(i_ref, dtype=float)
    if not (times.shape == i.shape == i_ref.shape):
        raise ContractError("times, i and i_ref must share one sample grid")
    mask = _window_mask(times, window)
    amp = float(np.abs(i_ref[mask]).max())
    if amp == 0.0:
        raise MetricWindowError("reference amplitude is zero inside the window")
    err = i[mask] - i_ref[mask]
    return 100.0 * float(np.sqrt(np.mean(err * err))) / amp


# ===== RUN RECORDS =====


@dataclass
class RunRecord:
    """Full-rate (or decimated) per-phase series of one simulation run.

    Rows exist at times ``t[k]`` for every recorded step; each phase
    column family is indexed by the phase label order in ``labels``.
    """

    times: np.ndarray        # (steps,) [s]
    labels: list[str]        # phase labels, e.g. ["a","b","c"] or ["1a",...,"2c"]
    i: np.ndarray            # (steps, P) [A]
    i_ref: np.ndarray        # (steps, P) [A]
    i_z: np.ndarray          # (steps, P) [A]
    v_up: np.ndarray         # (steps, P) [V]
    v_low: np.ndarray        # (steps, P) [V]
    v_c: np.ndarray          # (steps, P, 2n) [V]
    u: np.ndarray            # (steps, P, 2n) 0/1
    v_dc_link: np.ndarray    # (steps, P) [V]
    i_dc_link: np.ndarray    # (steps, P) [A]
    policy: list[str]        # (steps,) active policy name per step

    @property
    def n(self) -> int:
        return self.v_c.shape[2] // 2

    @property
    def steps(self) -> int:
        return self.times.shape[0]

    def phase_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ContractError(f"unknown phase label {label!r}") from None


def _transition_counts(
    times: np.ndarray, statuses: np.ndarray, t0: float, t1: float
) -> np.ndarray:
    """Status transitions in each column of ``statuses`` with ``t0 < t <= t1``.

    A transition is timestamped at the sample where the new status first
    appears.  Statuses other than 0 or 1 (NaN included) are refused.
    """
    if np.count_nonzero(statuses == 0) + np.count_nonzero(statuses == 1) != statuses.size:
        raise ContractError("switch statuses must be 0 or 1")
    t = times[1:]
    in_window = ((t > t0) & (t <= t1))[:, None]
    return np.add.reduce(statuses[1:] != statuses[:-1], axis=0, where=in_window)


# ===== RUN SUMMARY =====


@dataclass
class SummaryMetrics:
    """Aggregate metrics of one run over one evaluation window."""

    window: tuple[float, float]
    fs_per_sm: dict[str, np.ndarray] = field(default_factory=dict)       # (2n,) [Hz]
    fs_arm_mean: dict[str, tuple[float, float]] = field(default_factory=dict)
    fs_mean: float = 0.0                                                 # [Hz]
    ripple_pct: dict[str, np.ndarray] = field(default_factory=dict)      # (2n,) [%]
    ripple_mean_pct: float = 0.0
    i_z_max_ratio: float = 0.0    # peak |i_z - window mean| / AC amplitude
    tracking_rmse_pct: float = 0.0
    p_ac: dict[str, float] = field(default_factory=dict)                 # [W] per MMC
    p_dc: dict[str, float] = field(default_factory=dict)                 # [W] per MMC

    def to_flat(self) -> dict[str, float]:
        """Flatten to sorted scalar key/value pairs for reporting."""
        flat: dict[str, float] = {
            "window_start_s": self.window[0],
            "window_end_s": self.window[1],
            "fs_mean_hz": self.fs_mean,
            "ripple_mean_pct": self.ripple_mean_pct,
            "i_z_max_ratio": self.i_z_max_ratio,
            "tracking_rmse_pct": self.tracking_rmse_pct,
        }
        for label, pair in sorted(self.fs_arm_mean.items()):
            flat[f"fs_arm_mean_hz.{label}.upper"] = pair[0]
            flat[f"fs_arm_mean_hz.{label}.lower"] = pair[1]
        for label, values in sorted(self.fs_per_sm.items()):
            for j, v in enumerate(values, start=1):
                flat[f"fs_hz.{label}.sm{j}"] = float(v)
        for label, values in sorted(self.ripple_pct.items()):
            for j, v in enumerate(values, start=1):
                flat[f"ripple_pct.{label}.sm{j}"] = float(v)
        for label, v in sorted(self.p_ac.items()):
            flat[f"p_ac_w.{label}"] = v
        for label, v in sorted(self.p_dc.items()):
            flat[f"p_dc_w.{label}"] = v
        return flat


def _mmc_groups(labels: list[str]) -> dict[str, list[int]]:
    """Group phase-column indices by converter.

    Single-converter runs use labels "a","b","c" (group "mmc1");
    back-to-back runs prefix the converter number, e.g. "1a".
    """
    groups: dict[str, list[int]] = {}
    for idx, label in enumerate(labels):
        key = "mmc" + (label[0] if label[0].isdigit() else "1")
        groups.setdefault(key, []).append(idx)
    return groups


def summarize(
    record: RunRecord,
    window: tuple[float, float],
    nominal_sm_voltage: float,
) -> SummaryMetrics:
    """Compute the aggregate metrics of a run over one window."""
    if record.steps == 0:
        raise MetricWindowError("cannot summarize an empty record")
    t = record.times
    out = SummaryMetrics(window=window)

    fs_all: list[float] = []
    ripple_all: list[float] = []
    ratio_worst = 0.0
    rmse_worst = 0.0
    n = record.n
    t0, t1 = _check_window(window)
    for p, label in enumerate(record.labels):
        # One on/off cycle is two transitions.
        fs = _transition_counts(t, record.u[:, p], t0, t1) / (2.0 * (t1 - t0))
        out.fs_per_sm[label] = fs
        out.fs_arm_mean[label] = (float(fs[:n].mean()), float(fs[n:].mean()))
        fs_all.extend(fs.tolist())

        ripple = np.array(
            [
                ripple_percent(t, record.v_c[:, p, j], nominal_sm_voltage, window)
                for j in range(2 * n)
            ]
        )
        out.ripple_pct[label] = ripple
        ripple_all.extend(ripple.tolist())

        # The circulating current carries a DC component transferring the
        # converter power through the bus; the quantity the controller
        # drives to zero is the deviation from that steady level, so the
        # ratio is taken on the series less its window mean.
        mask_p = _window_mask(t, window)
        i_z_dev = record.i_z[:, p] - float(record.i_z[mask_p, p].mean())
        ratio_worst = max(
            ratio_worst, circulating_ratio(t, i_z_dev, record.i[:, p], window)
        )
        rmse_worst = max(
            rmse_worst, tracking_rmse(t, record.i[:, p], record.i_ref[:, p], window)
        )

    out.fs_mean = float(np.mean(fs_all))
    out.ripple_mean_pct = float(np.mean(ripple_all))
    out.i_z_max_ratio = ratio_worst
    out.tracking_rmse_pct = rmse_worst

    # Converter powers: AC side from the synthesized differential voltage,
    # DC side from the bus voltage and the summed circulating currents.
    mask = _window_mask(t, window)
    for key, cols in _mmc_groups(record.labels).items():
        p_ac = 0.0
        p_dc = 0.0
        for p in cols:
            e_conv = 0.5 * (record.v_low[mask, p] - record.v_up[mask, p])
            p_ac += float(np.mean(e_conv * record.i[mask, p]))
            p_dc += float(np.mean(record.v_dc_link[mask, p] * record.i_z[mask, p]))
        out.p_ac[key] = p_ac
        out.p_dc[key] = p_dc
    return out
