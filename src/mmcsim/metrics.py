"""Post-processing metrics over recorded simulation series.

Every metric is a pure function of a recorded series and a time window,
computed by :func:`summarize` as reductions over the time axis, so
recomputing from a persisted CSV reproduces the in-memory values
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
    "summarize",
]


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


def _check_window(window: tuple[float, float]) -> tuple[float, float]:
    t0, t1 = window
    if not (np.isfinite(window).all() and t1 > t0):
        raise MetricWindowError(f"window must be finite with t1 > t0, got ({t0}, {t1})")
    return t0, t1


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
    window: tuple[float, float] | None,
    nominal_sm_voltage: float,
) -> SummaryMetrics:
    """Compute the aggregate metrics of a run over one window.

    Each metric is one reduction over the time axis of the record,
    taken for every SM or phase at once on the window's samples.
    ``window`` None is the whole record: 0 to the last sample time.
    """
    if record.steps == 0:
        raise MetricWindowError("cannot summarize an empty record")
    if window is None:
        window = (0.0, float(record.times[-1]))
    t0, t1 = _check_window(window)
    if nominal_sm_voltage <= 0.0:
        raise ContractError(f"nominal voltage must be > 0, got {nominal_sm_voltage}")
    t = record.times
    mask = (t >= t0) & (t <= t1)
    if not mask.any():
        raise MetricWindowError(f"no samples inside window ({t0}, {t1})")
    u = record.u
    if np.count_nonzero(u == 0) + np.count_nonzero(u == 1) != u.size:
        raise ContractError("switch statuses must be 0 or 1")
    out = SummaryMetrics(window=window)
    n = record.n

    # Switching frequency: transitions in (t0, t1], each timestamped at
    # the sample where the new status first appears; one on/off cycle
    # is two transitions.
    t_new = t[1:]
    counted = ((t_new > t0) & (t_new <= t1))[:, None, None]
    transitions = np.add.reduce(u[1:] != u[:-1], axis=0, where=counted)
    fs = transitions / (2.0 * (t1 - t0))
    # Ripple: peak-to-peak capacitor voltage over [t0, t1] in percent of
    # nominal, reduced with ``where=`` so the v_c window is never copied.
    sampled = mask[:, None, None]
    v_max = np.max(record.v_c, axis=0, where=sampled, initial=-np.inf)
    v_min = np.min(record.v_c, axis=0, where=sampled, initial=np.inf)
    ripple = 100.0 * (v_max - v_min) / nominal_sm_voltage
    for p, label in enumerate(record.labels):
        out.fs_per_sm[label] = fs[p]
        out.fs_arm_mean[label] = (float(fs[p, :n].mean()), float(fs[p, n:].mean()))
        out.ripple_pct[label] = ripple[p]
    out.fs_mean = float(fs.mean())
    out.ripple_mean_pct = float(ripple.mean())

    # Each phase's window samples as one contiguous row, so that every
    # phase reduces in sample order, as a 1-D series would.  The rows
    # are copies, which the deviation and the tracking error overwrite.
    i, i_ref, i_z = (
        np.ascontiguousarray(x[mask].T) for x in (record.i, record.i_ref, record.i_z)
    )
    # The AC amplitude is the peak |i| of the window.
    amp = np.abs(i).max(axis=1)
    if not amp.all():
        raise MetricWindowError("AC amplitude is zero inside the window")
    ref_amp = np.abs(i_ref).max(axis=1)
    if not ref_amp.all():
        raise MetricWindowError("reference amplitude is zero inside the window")
    # The circulating current carries a DC component transferring the
    # converter power through the bus; the quantity the controller
    # drives to zero is the deviation from that steady level, so the
    # ratio is taken on the series less its window mean.
    i_z -= i_z.mean(axis=1, keepdims=True)
    out.i_z_max_ratio = float((np.abs(i_z, out=i_z).max(axis=1) / amp).max())
    # RMS AC-current tracking error in percent of the reference amplitude.
    err = np.subtract(i, i_ref, out=i)
    rmse = 100.0 * np.sqrt(np.mean(np.square(err, out=err), axis=1)) / ref_amp
    out.tracking_rmse_pct = float(rmse.max())

    # Converter powers: AC side from the synthesized differential voltage,
    # DC side from the bus voltage and the summed circulating currents.
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
