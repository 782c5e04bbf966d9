"""Post-processing metrics over recorded simulation series.

Every metric is a pure function of a recorded series and a time window,
computed as reductions over the time axis, so recomputing from a
persisted CSV reproduces the in-memory values bit-exactly (from a CSV
that keeps every step).  The reductions live in one place,
:class:`SummaryAccumulator`, which takes a record chunk by chunk: runs
and ``mmcsim metrics`` feed it as they step or read, and
:func:`summarize` feeds it a whole record at once.  It holds the
per-phase series of the run whole and reduces the per-SM series
(capacitor voltages and statuses) as they come, so memory grows with
the phases, not with the SMs.

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
    "SummaryAccumulator",
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


def _row_dtype(n: int) -> np.dtype:
    """One step of one phase of a record, one CSV row, in column order; an
    array field spans one column per SM, and those between ``phase`` and
    ``policy`` are the RunRecord arrays.  Text fields are objects, so no
    label is cut short."""
    return np.dtype([
        ("t", np.float64), ("phase", object),
        *[(name, np.float64) for name in ("i", "i_ref", "i_z", "v_up", "v_low")],
        ("v_c", np.float64, (2 * n,)), ("u", np.int8, (2 * n,)),
        ("v_dc_link", np.float64), ("i_dc_link", np.float64), ("policy", object),
    ])


def _binary_statuses(u: np.ndarray) -> np.ndarray:
    """Per entry of ``u``'s first axis: does it hold statuses of 0 or 1 only?"""
    binary = u == 0
    binary |= u == 1   # in place: a third array cost 0.1 MiB of peak RSS in `compare`
    return binary.all(axis=tuple(range(1, u.ndim)))


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
    """Compute the aggregate metrics of a run over one window: the
    :class:`SummaryAccumulator` fed the whole record at once.

    ``window`` None is the whole record: 0 to the last sample time.
    """
    summary = SummaryAccumulator(window, nominal_sm_voltage)
    summary.add(record)
    return summary.result()


# Steps of a record reduced at once for the per-SM metrics, which
# bounds the transition table whatever the length of the record.
_SM_STEPS = 1024


class SummaryAccumulator:
    """The metrics of a run over one window, taken chunk by chunk.

    :meth:`add` takes consecutive chunks of the record in time order.
    The per-SM metrics are reduced as the chunks come, exactly under
    any chunking: transition counts are integers, summed with the last
    statuses of the chunk before carried, and the ripple is a running
    max and min.  The per-phase series (times, ``i``, ``i_ref``,
    ``i_z``, ``v_up``, ``v_low`` and ``v_dc_link``) are kept whole, in
    one array each, and :meth:`result` reduces them over the time axis,
    taken for every phase at once, so that each mean is that of one
    pass over the window's samples.

    ``window`` None is the whole record, 0 to the last sample time; the
    per-SM part reads it as (0, +inf), which is the same for a record
    whose times rise.
    """

    _SERIES = ("times", "i", "i_ref", "i_z", "v_up", "v_low", "v_dc_link")

    def __init__(self, window: tuple[float, float] | None, nominal_sm_voltage: float):
        if window is not None:
            _check_window(window)
        if nominal_sm_voltage <= 0.0:
            raise ContractError(f"nominal voltage must be > 0, got {nominal_sm_voltage}")
        self.window = window
        self.nominal_sm_voltage = nominal_sm_voltage
        self.steps = 0
        self.labels: list[str] = []
        self._series: dict[str, np.ndarray] = {}
        self._transitions = self._v_max = self._v_min = self._last_u = None

    def add(self, record: RunRecord) -> None:
        """Take the record's next chunk: keep its per-phase series and
        reduce its statuses and capacitor voltages.  The first chunk's
        per-phase arrays are kept as they are, not copied."""
        u = record.u
        if not _binary_statuses(u).all():
            raise ContractError("switch statuses must be 0 or 1")
        if self._transitions is None:
            self.labels = record.labels
            self._transitions = np.zeros(u.shape[1:], dtype=np.int64)
            self._v_max = np.full(u.shape[1:], -np.inf)
            self._v_min = np.full(u.shape[1:], np.inf)
        k1 = self.steps + record.steps
        for name in self._SERIES:
            chunk = getattr(record, name)
            kept = self._series.get(name)
            if kept is None:
                self._series[name] = chunk   # a record fed once is not copied
                continue
            if k1 > len(kept):
                # Doubled when full, so each step is copied a bounded number
                # of times, into one array per series: chunks kept apart
                # would be small blocks that the allocator does not hand back
                # to the system once they are joined.
                grown = np.empty((max(k1, 2 * len(kept)), *chunk.shape[1:]), chunk.dtype)
                grown[: self.steps] = kept[: self.steps]
                self._series[name] = kept = grown
            kept[self.steps : k1] = chunk
        self.steps = k1
        t0, t1 = self.window if self.window is not None else (0.0, np.inf)
        for k0 in range(0, record.steps, _SM_STEPS):
            t = record.times[k0 : k0 + _SM_STEPS]
            u = record.u[k0 : k0 + _SM_STEPS]
            v_c = record.v_c[k0 : k0 + _SM_STEPS]
            # Switching: transitions in (t0, t1], each timestamped at the
            # sample where the new status first appears.
            if self._last_u is not None and t0 < t[0] <= t1:
                self._transitions += u[0] != self._last_u
            t_new = t[1:]
            counted = ((t_new > t0) & (t_new <= t1))[:, None, None]
            self._transitions += np.add.reduce(u[1:] != u[:-1], axis=0, where=counted)
            self._last_u = u[-1].copy()
            # Ripple: capacitor voltage extremes over [t0, t1], reduced
            # with ``where=`` so the v_c window is never copied.
            sampled = ((t >= t0) & (t <= t1))[:, None, None]
            np.maximum(self._v_max, np.max(v_c, axis=0, where=sampled, initial=-np.inf),
                       out=self._v_max)
            np.minimum(self._v_min, np.min(v_c, axis=0, where=sampled, initial=np.inf),
                       out=self._v_min)

    def result(self) -> SummaryMetrics:
        """The metrics of the chunks taken so far."""
        if self.steps == 0:
            raise MetricWindowError("cannot summarize an empty record")
        record = {name: series[: self.steps] for name, series in self._series.items()}
        t = record["times"]
        window = self.window if self.window is not None else (0.0, float(t[-1]))
        t0, t1 = _check_window(window)
        mask = (t >= t0) & (t <= t1)
        if not mask.any():
            raise MetricWindowError(f"no samples inside window ({t0}, {t1})")
        out = SummaryMetrics(window=window)
        n = self._transitions.shape[-1] // 2

        # One on/off cycle is two transitions.
        fs = self._transitions / (2.0 * (t1 - t0))
        # Ripple: peak-to-peak in percent of nominal.
        ripple = 100.0 * (self._v_max - self._v_min) / self.nominal_sm_voltage
        for p, label in enumerate(self.labels):
            out.fs_per_sm[label] = fs[p]
            out.fs_arm_mean[label] = (float(fs[p, :n].mean()), float(fs[p, n:].mean()))
            out.ripple_pct[label] = ripple[p]
        out.fs_mean = float(fs.mean())
        out.ripple_mean_pct = float(ripple.mean())

        # Each phase's window samples as one contiguous row, so that every
        # phase reduces in sample order, as a 1-D series would.  The rows
        # are copies, which the tracking error and the deviation overwrite;
        # i_z's is taken once i's and i_ref's are dropped, so that at most
        # two are alive at once.
        i, i_ref = (np.ascontiguousarray(record[name][mask].T) for name in ("i", "i_ref"))
        # The AC amplitude is the peak |i| of the window.
        amp = np.abs(i).max(axis=1)
        if not amp.all():
            raise MetricWindowError("AC amplitude is zero inside the window")
        ref_amp = np.abs(i_ref).max(axis=1)
        if not ref_amp.all():
            raise MetricWindowError("reference amplitude is zero inside the window")
        # RMS AC-current tracking error in percent of the reference amplitude.
        err = np.subtract(i, i_ref, out=i)
        rmse = 100.0 * np.sqrt(np.mean(np.square(err, out=err), axis=1)) / ref_amp
        out.tracking_rmse_pct = float(rmse.max())
        del i, i_ref, err
        # The circulating current carries a DC component transferring the
        # converter power through the bus; the quantity the controller
        # drives to zero is the deviation from that steady level, so the
        # ratio is taken on the series less its window mean.
        i_z = np.ascontiguousarray(record["i_z"][mask].T)
        i_z -= i_z.mean(axis=1, keepdims=True)
        out.i_z_max_ratio = float((np.abs(i_z, out=i_z).max(axis=1) / amp).max())

        # Converter powers: AC side from the synthesized differential voltage,
        # DC side from the bus voltage and the summed circulating currents.
        for key, cols in _mmc_groups(self.labels).items():
            p_ac = 0.0
            p_dc = 0.0
            for p in cols:
                e_conv = 0.5 * (record["v_low"][mask, p] - record["v_up"][mask, p])
                p_ac += float(np.mean(e_conv * record["i"][mask, p]))
                p_dc += float(np.mean(record["v_dc_link"][mask, p] * record["i_z"][mask, p]))
            out.p_ac[key] = p_ac
            out.p_dc[key] = p_dc
        return out
