"""Post-processing metrics over recorded simulation series.

Every metric is a pure function of a recorded series and a time window,
computed as reductions over the window's slice of the time axis, so
recomputing from a persisted CSV reproduces the in-memory values
bit-exactly (from a CSV that keeps every step).  The reductions live in
one place, :class:`SummaryAccumulator`, which takes a record chunk by
chunk: runs and ``mmcsim metrics`` feed it as they step or read, and
:func:`summarize` feeds it a whole record at once.  It reduces the
per-SM series (capacitor voltages and statuses) and the current peaks
as they come and keeps, of the window's samples only, the four
per-phase series that the window means sum, so memory grows with the
phases and the window, not with the SMs or the steps outside it.

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


# The phase labels of a run, one converter's or the back-to-back pair's.
_PHASES = (["a", "b", "c"], ["1a", "1b", "1c", "2a", "2b", "2c"])


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
    Raises ContractError when a switch status is not 0 or 1, or when
    ``nominal_sm_voltage`` is not finite and > 0.
    """
    summary = SummaryAccumulator(window, nominal_sm_voltage)
    if not _binary_statuses(record.u).all():
        raise ContractError("switch statuses must be 0 or 1")
    summary.add(record)
    return summary.result()


class SummaryAccumulator:
    """The metrics of a run over one window, taken chunk by chunk.

    :meth:`add` takes consecutive chunks of the record in time order and
    reduces each as it comes, its window as one slice of its steps,
    exactly under any chunking: transition counts are integers, summed
    with the last statuses of the chunk before carried, and the ripple
    and the peak ``|i|`` and ``|i_ref|`` are running maxima and minima.
    That leaves four window means, which ``np.mean`` sums pairwise in an
    order fixed by the sample count, so their series are kept, for the
    window's samples only: ``(i - i_ref)**2``, ``i_z``, ``0.5 * (v_low -
    v_up) * i`` and ``v_dc_link * i_z``, formed per chunk with the
    operations of the whole-record formulas, in one array per chunk.
    :meth:`result` joins each product's pieces phase by phase into one
    contiguous row, so that each mean is that of one pass over the
    window's samples.

    ``window`` None is the whole record, 0 to the last sample time,
    which is (0, +inf) for chunks whose times do not fall.
    """

    def __init__(self, window: tuple[float, float] | None, nominal_sm_voltage: float):
        if window is not None:
            _check_window(window)
        if not 0.0 < nominal_sm_voltage < np.inf:   # NaN too
            raise ContractError(f"nominal voltage must be finite and > 0, got {nominal_sm_voltage}")
        self.window = window
        self.nominal_sm_voltage = nominal_sm_voltage
        self.steps = 0
        self.labels: list[str] = []
        self._t_last = -np.inf
        self._pieces: list[np.ndarray] = []   # per chunk, (window samples, 4, phases)
        self._peaks = self._transitions = self._v_max = self._v_min = self._last_u = None

    def add(self, record: RunRecord) -> None:
        """Take the record's next chunk, whose statuses are taken to be 0
        or 1.  Raises ContractError when its times fall, also from the
        chunk before, or are not finite, or when its SMs per arm or its
        phases are not the first chunk's."""
        if record.steps == 0:
            return
        t = record.times
        if not (np.isfinite(t).all() and t[0] >= self._t_last and (t[1:] >= t[:-1]).all()):
            raise ContractError("record times must not fall and must be finite")
        u = record.u
        if self._transitions is None:
            self.labels = record.labels
            self._transitions = np.zeros(u.shape[1:], dtype=np.int64)
            self._v_max = np.full(u.shape[1:], -np.inf)
            self._v_min = np.full(u.shape[1:], np.inf)
            self._peaks = np.zeros((2, u.shape[1]))   # max |i| and max |i_ref|
        n = self._transitions.shape[-1] // 2
        if record.n != n:
            raise ContractError(f"record has {record.n} SMs per arm, summary expects {n}")
        if record.labels != self.labels:
            raise ContractError(f"record has phases {record.labels}, summary expects {self.labels}")
        self.steps += record.steps
        self._t_last = float(t[-1])
        t0, t1 = self.window if self.window is not None else (0.0, np.inf)
        # As the times do not fall, the chunk's samples in [t0, t1] are
        # lo:hi, and the steps whose new statuses fall in (t0, t1] new:hi.
        lo, hi = t.searchsorted(t0, "left"), t.searchsorted(t1, "right")
        new = t.searchsorted(t0, "right")
        # Switching: each transition is timestamped at the sample where
        # the new status first appears; step 0's is against the chunk before.
        if new == 0 < hi and self._last_u is not None:
            self._transitions += u[0] != self._last_u
        k = max(new, 1)
        if k < hi:   # not when hi is 0: u[k - 1 : hi - 1] would be u[0:-1]
            self._transitions += np.add.reduce(u[k:hi] != u[k - 1 : hi - 1], axis=0)
        self._last_u = u[-1].copy()
        if lo < hi:
            i, i_ref, i_z = record.i[lo:hi], record.i_ref[lo:hi], record.i_z[lo:hi]
            for peak, series in zip(self._peaks, (i, i_ref)):
                np.maximum(peak, np.maximum.reduce(np.abs(series), axis=0), out=peak)
            np.maximum(self._v_max, record.v_c[lo:hi].max(axis=0), out=self._v_max)
            np.minimum(self._v_min, record.v_c[lo:hi].min(axis=0), out=self._v_min)
            piece = np.empty((hi - lo, 4, u.shape[1]))
            self._pieces.append(piece)
            np.square(i - i_ref, out=piece[:, 0])
            piece[:, 1] = i_z
            np.multiply(0.5 * (record.v_low[lo:hi] - record.v_up[lo:hi]), i, out=piece[:, 2])
            np.multiply(record.v_dc_link[lo:hi], i_z, out=piece[:, 3])

    def result(self) -> SummaryMetrics:
        """The metrics of the chunks taken so far."""
        if self.steps == 0:
            raise MetricWindowError("cannot summarize an empty record")
        window = self.window if self.window is not None else (0.0, self._t_last)
        t0, t1 = _check_window(window)
        if not self._pieces:
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

        # The AC amplitude is the peak |i| of the window.
        amp, ref_amp = self._peaks
        if not amp.all():
            raise MetricWindowError("AC amplitude is zero inside the window")
        if not ref_amp.all():
            raise MetricWindowError("reference amplitude is zero inside the window")

        shape = (len(self.labels), sum(len(piece) for piece in self._pieces))

        def rows(j: int) -> np.ndarray:
            """Product ``j``'s window samples, each phase's as one
            contiguous row, so that every phase reduces in sample order,
            as a 1-D series would; one copy is taken at a time."""
            pieces = [piece[:, j].T for piece in self._pieces]
            return np.concatenate(pieces, axis=1, out=np.empty(shape))

        # RMS AC-current tracking error in percent of the reference amplitude.
        rmse = 100.0 * np.sqrt(np.mean(rows(0), axis=1)) / ref_amp
        out.tracking_rmse_pct = float(rmse.max())
        # The circulating current carries a DC component transferring the
        # converter power through the bus; the quantity the controller
        # drives to zero is the deviation from that steady level, so the
        # ratio is taken on the series less its window mean.
        i_z = rows(1)
        i_z -= i_z.mean(axis=1, keepdims=True)
        out.i_z_max_ratio = float((np.abs(i_z, out=i_z).max(axis=1) / amp).max())
        del i_z

        # Converter powers: AC side from the synthesized differential voltage,
        # DC side from the bus voltage and the summed circulating currents.
        p_ac_phase, p_dc_phase = rows(2).mean(axis=1), rows(3).mean(axis=1)
        for key, cols in _mmc_groups(self.labels).items():
            p_ac = 0.0
            p_dc = 0.0
            for p in cols:
                p_ac += float(p_ac_phase[p])
                p_dc += float(p_dc_phase[p])
            out.p_ac[key] = p_ac
            out.p_dc[key] = p_dc
        return out
