"""Per-phase scalar reference of the controller, the plant and the
switch-trace metrics.

This is the scalar API the package shipped before its array kernel
(``mmcsim.testbench.simulate``): one phase leg at a time, fresh state
objects on every step, every invariant checked in the constructors.
It is kept here, outside the package, as the oracle the tests hold the
kernel and the paper's formulas against:

* plant: ``SubmoduleState``, ``ArmState``, ``PhaseState``,
  ``SwitchDecision`` and ``advance_phase`` with its helpers;
* controller: ``compute_targets``, ``sort_arm``, ``select_submodules``
  and ``control_step`` (targets, ranking, selection);
* references: ``policy_at``, a scenario's policy at a decision time,
  ``grid_voltage``, the grid's instantaneous phase voltages, and
  ``reference_current``, the three-phase current reference for a
  power setpoint;
* switch traces: ``SwitchTrace``, ``effective_switching_frequency`` and
  ``switch_traces_from_history``, the event-list counterpart of
  ``summarize``'s transition counts, with ``phase_index``, a phase
  label's index in a record;
* window metrics: ``ripple_percent``, ``circulating_ratio`` and
  ``tracking_rmse``, one SM or phase series at a time, and
  ``reference_summarize``, the per-phase, per-SM loop over them that
  ``mmcsim.metrics.summarize`` replaces with one array pass;
* the run CSV: ``oracle_load``, the per-field loader, and
  ``whole_file_load_record_csv``, the loader that parses and checks the
  whole file at once, whose errors the block-wise loader must repeat.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from mmcsim.controller import SortPolicy
from mmcsim.csvio import _row_dtype, csv_columns
from mmcsim.errors import ConfigError, ContractError, MetricWindowError
from mmcsim.metrics import RunRecord, SummaryMetrics, _check_window, _mmc_groups
from mmcsim.model import ConverterParams
from mmcsim.testbench import _PHASE_OFFSETS, GridSource, Scenario


# ===== STATE CONTAINERS =====


@dataclass(frozen=True)
class SubmoduleState:
    """Capacitor voltage [V] and insertion status (0 or 1) of one SM."""

    v_c: float
    u: int

    def __post_init__(self):
        if self.u not in (0, 1):
            raise ContractError(f"submodule status must be 0 or 1, got {self.u}")


@dataclass
class ArmState:
    """One arm: per-SM capacitor voltages, statuses, and the arm current.

    ``v_c`` and ``u`` are indexed by fixed physical SM position; the
    ordering never changes over a run.  ``side`` is "upper" or "lower".
    """

    v_c: np.ndarray          # (n,) capacitor voltages [V]
    u: np.ndarray            # (n,) insertion statuses, 0/1
    i_arm: float             # arm current [A]
    side: str

    def __post_init__(self):
        self.v_c = np.asarray(self.v_c, dtype=float)
        self.u = np.asarray(self.u, dtype=np.int8)
        if self.v_c.ndim != 1 or self.v_c.shape != self.u.shape:
            raise ContractError("v_c and u must be 1-D arrays of equal length")
        if self.side not in ("upper", "lower"):
            raise ContractError(f"side must be 'upper' or 'lower', got {self.side!r}")
        if not np.all((self.u == 0) | (self.u == 1)):
            raise ContractError("arm statuses must be 0 or 1")

    @property
    def n(self) -> int:
        return self.v_c.shape[0]

    @property
    def submodules(self) -> list[SubmoduleState]:
        """Per-SM view in physical order (copies, not live references)."""
        return [SubmoduleState(float(v), int(s)) for v, s in zip(self.v_c, self.u)]


@dataclass
class PhaseState:
    """Full electrical state of one phase leg at a sampling instant."""

    upper: ArmState
    lower: ArmState
    i: float                 # AC-side output current [A]
    i_z: float               # circulating current [A]
    v_s: float               # grid phase voltage at the current step [V]

    def __post_init__(self):
        if self.upper.n != self.lower.n:
            raise ContractError("upper and lower arms must have equal SM counts")

    @property
    def n(self) -> int:
        return self.upper.n


@dataclass
class SwitchDecision:
    """Next-step insertion statuses for the 2n SMs of one phase.

    ``statuses`` holds the upper arm in positions 0..n-1 and the lower
    arm in positions n..2n-1, both in physical SM order.
    """

    statuses: np.ndarray     # (2n,) 0/1
    n_up: int                # inserted count, upper arm
    n_low: int               # inserted count, lower arm

    def __post_init__(self):
        self.statuses = np.asarray(self.statuses, dtype=np.int8)
        if self.statuses.ndim != 1 or self.statuses.shape[0] % 2 != 0:
            raise ContractError("statuses must be a 1-D array of even length 2n")
        if not np.all((self.statuses == 0) | (self.statuses == 1)):
            raise ContractError("statuses must be 0 or 1")
        n = self.statuses.shape[0] // 2
        if int(self.statuses[:n].sum()) != self.n_up:
            raise ContractError("n_up does not match the upper-arm statuses")
        if int(self.statuses[n:].sum()) != self.n_low:
            raise ContractError("n_low does not match the lower-arm statuses")


# ===== STATE TRANSITIONS =====


def predict_capacitor_voltage(
    sm: SubmoduleState, i_arm: float, u_next: int, params: ConverterParams
) -> float:
    """Next-step capacitor voltage of one SM.

    An inserted SM (``u_next = 1``) integrates the arm current held at
    its start-of-step value; a bypassed SM keeps its voltage.
    """
    if u_next not in (0, 1):
        raise ContractError(f"u_next must be 0 or 1, got {u_next}")
    return sm.v_c + (params.T_s * i_arm / params.C) * u_next


def _predict_arm_capacitors(
    v_c: np.ndarray, i_arm: float, u_next: np.ndarray, params: ConverterParams
) -> np.ndarray:
    """Vectorized next-step capacitor voltages for one whole arm."""
    return v_c + (params.T_s * i_arm / params.C) * u_next


def arm_voltage(arm: ArmState, statuses: np.ndarray, params: ConverterParams) -> float:
    """Predicted arm voltage for a candidate status vector.

    Sums the next-step capacitor voltages of the SMs that ``statuses``
    inserts, i.e. the voltage the arm would synthesize one step ahead.
    """
    statuses = np.asarray(statuses)
    if statuses.shape != arm.v_c.shape:
        raise ContractError("statuses length must equal the arm SM count")
    if not np.all((statuses == 0) | (statuses == 1)):
        raise ContractError("statuses must be 0 or 1")
    v_next = _predict_arm_capacitors(arm.v_c, arm.i_arm, statuses, params)
    return float(np.dot(v_next, statuses))


def step_ac_current(
    phase: PhaseState,
    v_up_next: float,
    v_low_next: float,
    v_s_next: float,
    params: ConverterParams,
) -> float:
    """Next-step AC-side current from the synthesized arm voltages."""
    drive = 0.5 * (v_low_next - v_up_next) - v_s_next
    return (drive + (params.L_prime / params.T_s) * phase.i) / params.K_prime


def step_circulating_current(
    phase: PhaseState,
    v_up_next: float,
    v_low_next: float,
    params: ConverterParams,
    v_dc: float | None = None,
) -> float:
    """Next-step circulating current from the arm-voltage sum error.

    ``v_dc`` is the actual DC bus voltage seen by the leg; it defaults
    to the nominal ``params.V_dc`` (an ideal stiff bus).
    """
    bus = params.V_dc if v_dc is None else v_dc
    return (params.T_s / (2.0 * params.l_arm)) * (bus - v_low_next - v_up_next) + phase.i_z


def decompose_arm_currents(i: float, i_z: float) -> tuple[float, float]:
    """Split the leg currents into (i_up, i_low) = (i_z + i/2, i_z - i/2)."""
    return i_z + 0.5 * i, i_z - 0.5 * i


def advance_phase(
    phase: PhaseState,
    decision: SwitchDecision,
    v_s_next: float,
    params: ConverterParams,
    v_dc: float | None = None,
) -> PhaseState:
    """Apply a switch decision and advance the plant by one period.

    Update order: capacitor voltages (arm currents held at their
    start-of-step values), then arm voltages, then the AC and
    circulating currents, then the arm-current decomposition.

    Parameters
    ----------
    phase : PhaseState
        State at the current step.
    decision : SwitchDecision
        Statuses to apply for the coming interval (2n entries).
    v_s_next : float
        Grid phase voltage at the end of the step [V].
    params : ConverterParams
        Converter constants.
    v_dc : float, optional
        Actual DC bus voltage [V]; defaults to the nominal value.

    Returns
    -------
    PhaseState
        State at the next step; the input state is left untouched.
    """
    n = phase.n
    if decision.statuses.shape[0] != 2 * n:
        raise ContractError(
            f"decision has {decision.statuses.shape[0]} statuses, expected {2 * n}"
        )
    u_up = decision.statuses[:n]
    u_low = decision.statuses[n:]

    v_c_up = _predict_arm_capacitors(phase.upper.v_c, phase.upper.i_arm, u_up, params)
    v_c_low = _predict_arm_capacitors(phase.lower.v_c, phase.lower.i_arm, u_low, params)
    v_up_next = float(np.dot(v_c_up, u_up))
    v_low_next = float(np.dot(v_c_low, u_low))

    i_next = step_ac_current(phase, v_up_next, v_low_next, v_s_next, params)
    i_z_next = step_circulating_current(phase, v_up_next, v_low_next, params, v_dc)
    i_up, i_low = decompose_arm_currents(i_next, i_z_next)

    return PhaseState(
        upper=ArmState(v_c_up, u_up.copy(), i_up, "upper"),
        lower=ArmState(v_c_low, u_low.copy(), i_low, "lower"),
        i=i_next,
        i_z=i_z_next,
        v_s=v_s_next,
    )


def initial_phase_state(params: ConverterParams, v_s: float = 0.0) -> PhaseState:
    """Nominal start: capacitors at V_dc/n, all SMs bypassed, currents zero."""
    v_nom = np.full(params.n, params.v_sm_nominal)
    zeros = np.zeros(params.n, dtype=np.int8)
    return PhaseState(
        upper=ArmState(v_nom.copy(), zeros.copy(), 0.0, "upper"),
        lower=ArmState(v_nom.copy(), zeros.copy(), 0.0, "lower"),
        i=0.0,
        i_z=0.0,
        v_s=v_s,
    )


# ===== CONTROLLER =====


@dataclass(frozen=True)
class TargetVoltages:
    """Deadbeat arm-voltage targets [V] for one phase and one step."""

    v_up_star: float
    v_low_star: float


@dataclass
class SortedArm:
    """An arm's SM ranking for one decision.

    ``order`` holds physical SM indices, most-preferred first; the SM
    ranked k-th is inserted whenever the chosen count exceeds k.
    ``sorted_voltages`` are the measured capacitor voltages in that
    order.
    """

    order: np.ndarray            # (n,) physical indices
    sorted_voltages: np.ndarray  # (n,) [V]

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=np.intp)
        self.sorted_voltages = np.asarray(self.sorted_voltages, dtype=float)
        n = self.order.shape[0]
        if self.sorted_voltages.shape != (n,):
            raise ContractError("order and sorted_voltages must have equal length")
        if not np.array_equal(np.sort(self.order), np.arange(n)):
            raise ContractError("order must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return self.order.shape[0]


def compute_targets(
    phase: PhaseState,
    i_ref_next: float,
    params: ConverterParams,
    i_z_ref: float = 0.0,
) -> TargetVoltages:
    """Arm-voltage targets that deadbeat both leg currents.

    The common-mode part steers the circulating current to ``i_z_ref``
    (zero by default) one step ahead; the differential part steers the
    AC current to ``i_ref_next``.  Uses the measured grid voltage held
    from the current step.
    """
    common = 0.5 * params.V_dc + (params.l_arm / params.T_s) * (phase.i_z - i_z_ref)
    drive = (
        params.K_prime * i_ref_next
        + phase.v_s
        - (params.L_prime / params.T_s) * phase.i
    )
    return TargetVoltages(v_up_star=common - drive, v_low_star=common + drive)


def objective_f(dv_up: float, dv_low: float, params: ConverterParams) -> float:
    """Weighted cost of a pair of arm-voltage deviations [A].

    ``dv_up`` and ``dv_low`` are target-minus-synthesized deviations.
    Their difference maps to the AC-current error and their sum to the
    circulating-current error; both are weighted in ampere units.
    """
    track = (params.w / (2.0 * params.K_prime)) * abs(dv_low - dv_up)
    circ = (params.w_z * params.T_s / (2.0 * params.l_arm)) * abs(dv_low + dv_up)
    return track + circ


def sort_arm(arm: ArmState, policy: SortPolicy, params: ConverterParams) -> SortedArm:
    """Rank an arm's SMs for insertion under the given policy.

    The voltage key is ascending while the arm current charges inserted
    capacitors (``i_arm >= 0``) and descending while it discharges them.
    ``F1V2`` then stably promotes currently inserted SMs ahead of
    bypassed ones, preserving the voltage order inside each group.  All
    sorts are stable with the physical index as the final tiebreak.
    """
    key = arm.v_c if arm.i_arm >= 0.0 else -arm.v_c
    order = np.argsort(key, kind="stable")
    if policy is SortPolicy.F1V2:
        order = order[np.argsort(-arm.u[order], kind="stable")]
    elif policy is not SortPolicy.V1F2:
        raise ContractError(f"unknown sort policy: {policy!r}")
    return SortedArm(order=order, sorted_voltages=arm.v_c[order])


def cumulative_sums(sorted_arm: SortedArm) -> np.ndarray:
    """Achievable arm voltages for prefix insertion: [0, a_1, ..., a_n].

    Entry k is the voltage synthesized by inserting the k best-ranked
    SMs; entry 0 is always exactly 0.
    """
    sums = np.empty(sorted_arm.n + 1)
    sums[0] = 0.0
    np.cumsum(sorted_arm.sorted_voltages, out=sums[1:])
    return sums


def _bracket_counts(sums: np.ndarray, v_star: float) -> tuple[int, ...]:
    """Candidate insertion counts whose prefix voltages bracket a target.

    In-range targets return the two counts with sums[k] <= v* < sums[k+1];
    targets below zero or at/above the full sum clamp to a single count.
    """
    n = sums.shape[0] - 1
    if v_star < 0.0:
        return (0,)
    if v_star >= sums[n]:
        return (n,)
    k = int(np.searchsorted(sums, v_star, side="right")) - 1
    return (k, k + 1)


def select_submodules(
    sorted_up: SortedArm,
    sorted_low: SortedArm,
    targets: TargetVoltages,
    params: ConverterParams,
) -> SwitchDecision:
    """Choose insertion counts for both arms and build the status vector.

    Evaluates the weighted objective on the at-most-four bracketing
    count pairs and keeps the first minimizer in scan order (upper count
    ascending, then lower count ascending).  The chosen counts insert a
    prefix of each arm's ranking.
    """
    if sorted_up.n != sorted_low.n:
        raise ContractError("arm rankings must have equal SM counts")
    n = sorted_up.n

    alpha = cumulative_sums(sorted_up)
    beta = cumulative_sums(sorted_low)
    best_f = None
    best = (0, 0)
    for ku in _bracket_counts(alpha, targets.v_up_star):
        dv_up = targets.v_up_star - alpha[ku]
        for kl in _bracket_counts(beta, targets.v_low_star):
            f = objective_f(dv_up, targets.v_low_star - beta[kl], params)
            if best_f is None or f < best_f:
                best_f = f
                best = (ku, kl)

    n_up, n_low = best
    statuses = np.zeros(2 * n, dtype=np.int8)
    statuses[sorted_up.order[:n_up]] = 1
    statuses[n + sorted_low.order[:n_low]] = 1
    return SwitchDecision(statuses=statuses, n_up=n_up, n_low=n_low)


def control_step(
    phase: PhaseState,
    i_ref_next: float,
    policy: SortPolicy,
    params: ConverterParams,
    i_z_ref: float = 0.0,
) -> SwitchDecision:
    """One full decision for one phase: targets, ranking, selection.

    Pure function of the measured phase state, the reference, and the
    parameters; repeated calls with equal inputs return equal decisions.
    """
    targets = compute_targets(phase, i_ref_next, params, i_z_ref)
    sorted_up = sort_arm(phase.upper, policy, params)
    sorted_low = sort_arm(phase.lower, policy, params)
    return select_submodules(sorted_up, sorted_low, targets, params)


# ===== REFERENCES =====


def policy_at(scenario: Scenario, t: float) -> SortPolicy:
    """Active policy of ``scenario`` for a decision taken at time t: that
    of its last event with t >= event time, V1F2 before the first."""
    active = SortPolicy.V1F2
    for event_time, policy in scenario.events:
        if t >= event_time:
            active = policy
        else:
            break
    return active


def grid_voltage(grid: GridSource, t: float) -> np.ndarray:
    """Instantaneous phase voltages (a, b, c) at time t [V]."""
    wt = grid.omega * t
    return np.array([grid.amplitude * math.cos(wt + off) for off in _PHASE_OFFSETS])


def reference_current(setpoint_power: float, grid: GridSource, t: float) -> np.ndarray:
    """Three-phase current reference in phase with the grid voltage [A].

    The amplitude satisfies ``P = 3 * V_peak * I_peak / 2`` for the
    requested three-phase power; negative power yields anti-phase
    references (the converter absorbs from its grid).
    """
    if grid.amplitude == 0.0:
        raise ConfigError("cannot derive a current reference from a zero-amplitude grid")
    i_peak = 2.0 * setpoint_power / (3.0 * grid.amplitude)
    wt = grid.omega * t
    return np.array([i_peak * math.cos(wt + off) for off in _PHASE_OFFSETS])


# ===== SWITCH TRACES =====


@dataclass
class SwitchTrace:
    """Ordered (time, new_status) events of a single submodule."""

    events: list[tuple[float, int]]

    def __post_init__(self):
        last_t = -np.inf
        last_u = None
        for t, u in self.events:
            if u not in (0, 1):
                raise ContractError(f"switch status must be 0 or 1, got {u}")
            if t < last_t:
                raise ContractError("switch event times must be non-decreasing")
            if u == last_u:
                raise ContractError("consecutive switch events must change status")
            last_t, last_u = t, u

    @classmethod
    def from_samples(
        cls, times: np.ndarray, statuses: np.ndarray, initial: int | None = None
    ) -> "SwitchTrace":
        """Build a trace from sampled statuses.

        An event is recorded at each sample whose status differs from
        the previous sample; the first sample is compared against
        ``initial`` when given, otherwise it produces no event.
        """
        times = np.asarray(times, dtype=float)
        statuses = np.asarray(statuses)
        if times.shape != statuses.shape:
            raise ContractError("times and statuses must have equal length")
        events: list[tuple[float, int]] = []
        prev = initial
        for t, u in zip(times, statuses):
            u = int(u)
            if prev is not None and u != prev:
                events.append((float(t), u))
            prev = u
        return cls(events)


def effective_switching_frequency(
    trace: SwitchTrace, window: tuple[float, float]
) -> float:
    """Switching frequency of one SM over a window [Hz].

    Counts status transitions with ``t0 < t <= t1`` and divides by twice
    the window length (one on/off cycle is two transitions).
    """
    t0, t1 = _check_window(window)
    count = sum(1 for t, _ in trace.events if t0 < t <= t1)
    return count / (2.0 * (t1 - t0))


def phase_index(record: RunRecord, label: str) -> int:
    """Index of the phase ``label`` on the record's phase axis."""
    try:
        return record.labels.index(label)
    except ValueError:
        raise ContractError(f"unknown phase label {label!r}") from None


def switch_traces_from_history(record: RunRecord, phase: str) -> list[SwitchTrace]:
    """Per-SM switch traces of one phase, from consecutive recorded rows."""
    p = phase_index(record, phase)
    return [
        SwitchTrace.from_samples(record.times, record.u[:, p, j])
        for j in range(2 * record.n)
    ]


# ===== WINDOW METRICS =====


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


def reference_summarize(
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


# ===== RUN CSV =====


def oracle_load(path):
    """The per-field CSV loader: every field parsed with float() or int()."""
    with open(path, newline="") as f:
        header = f.readline().rstrip("\r\n").split(",")
        n2 = sum(1 for c in header if c.startswith("v_c_"))
        raw_rows = [line.rstrip("\r\n").split(",") for line in f if line.strip()]
    labels = []
    for row in raw_rows:
        if row[1] in labels:
            break
        labels.append(row[1])
    n_cols = len(labels)
    steps = len(raw_rows) // n_cols
    times = np.empty(steps)
    shape = (steps, n_cols)
    series = {name: np.empty(shape) for name in
              ("i", "i_ref", "i_z", "v_up", "v_low", "v_dc_link", "i_dc_link")}
    v_c = np.empty((steps, n_cols, n2))
    u = np.empty((steps, n_cols, n2), dtype=np.int8)
    policy = []
    for r, row in enumerate(raw_rows):
        k, p = divmod(r, n_cols)
        if p == 0:
            times[k] = float(row[0])
            policy.append(row[-1])
        for j, name in enumerate(("i", "i_ref", "i_z", "v_up", "v_low")):
            series[name][k, p] = float(row[2 + j])
        v_c[k, p] = [float(x) for x in row[7 : 7 + n2]]
        u[k, p] = [int(x) for x in row[7 + n2 : 7 + 2 * n2]]
        series["v_dc_link"][k, p] = float(row[7 + 2 * n2])
        series["i_dc_link"][k, p] = float(row[8 + 2 * n2])
    return RunRecord(times=times, labels=labels, v_c=v_c, u=u, policy=policy, **series)


def whole_file_load_record_csv(path: str) -> RunRecord:
    """The run CSV loader that parses the whole file in one
    ``numpy.loadtxt`` pass and then checks it, raising the ContractError
    of ``mmcsim.csvio.load_record_csv`` for a file with one defect, or
    with a line that is not UTF-8 and a row that does not parse, named
    in line order."""
    try:
        return _whole_file_parse(path)
    except UnicodeDecodeError:
        _name_first_bad_line(path)


def _name_first_bad_line(path: str) -> NoReturn:
    """Raise the ContractError of the first line of ``path`` that is not
    UTF-8 text or that the parse refuses on its own, before any check of
    the table: the header, or a row with a wrong field count or a field
    that does not parse.  Lines are numbered as numpy.loadtxt splits
    rows: at ``\n``, ``\r\n`` and a bare ``\r``."""
    with open(path, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    for no, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContractError(
                f"{path!r}: line {no} is not UTF-8 text (byte {exc.start + 1}: {exc.reason})"
            ) from None
        if no == 1:
            dtype, n_fields = _schema(path, text)
        elif text.rstrip("\r\n"):
            _check_row(path, no, text, dtype, n_fields)
    raise ContractError(f"{path!r} is not UTF-8 text")


def _schema(path: str, header: str) -> tuple[np.dtype, int]:
    """The row dtype and the field count of a CSV whose first line is ``header``."""
    header = header.rstrip("\r\n").split(",")
    n2 = sum(1 for c in header if c.startswith("v_c_"))
    if n2 == 0 or n2 % 2 or header != csv_columns(n2 // 2):
        raise ContractError(f"{path!r} does not match the run CSV schema")
    return _row_dtype(n2 // 2), len(header)


def _whole_file_parse(path: str) -> RunRecord:
    with open(path, newline="", encoding="utf-8") as f:
        dtype, n_fields = _schema(path, f.readline())
    if next(_data_lines(path), None) is None:
        raise ContractError(f"{path!r} contains no data rows")
    try:
        table = np.loadtxt(
            path, dtype=dtype, delimiter=",", skiprows=1, comments=None, ndmin=1, encoding="utf-8"
        )
    except ValueError:
        _name_bad_line(path, dtype, n_fields)

    phase = table["phase"]
    # The first row's phase starts the phases of a run: a, b, c or 1a to 2c.
    labels = {"a": ["a", "b", "c"], "1a": ["1a", "1b", "1c", "2a", "2b", "2c"]}.get(phase[0])
    if labels is None:
        _refuse(path, np.arange(phase.size) == 0, "starts with a phase other than a or 1a")
    n_cols = len(labels)
    _refuse(path, phase != np.resize(labels, phase.size), "breaks the phase ordering")
    if phase.size % n_cols:
        _refuse(path, np.arange(phase.size) == phase.size - 1,
                f"ends the file inside a step of {n_cols} phases")
    step = table.reshape(-1, n_cols)
    policy = step["policy"]
    _refuse(path, policy != policy[:, :1], "has a policy other than its step's first row")
    _refuse(path, (policy != "V1F2") & (policy != "F1V2"), "has a policy other than V1F2 or F1V2")
    u = table["u"]
    _refuse(path, ((u != 0) & (u != 1)).any(axis=1), "has a switch status other than 0 or 1")
    # Every row of a step repeats the step's time text, hence its bits.
    t_bits = step["t"].view(np.int64)
    _refuse(path, t_bits != t_bits[:, :1], "has a time other than its step's first row")
    times = step["t"][:, 0]
    _refuse(path, (~np.isfinite(times)).repeat(n_cols), "has a time that is not finite")
    _refuse(path, np.r_[False, times[1:] < times[:-1]].repeat(n_cols), "goes back in time")
    return RunRecord(
        times=times.copy(),
        labels=labels,
        policy=policy[:, 0].tolist(),
        **{name: step[name].copy() for name in dtype.names[2:-1]},
    )


def _data_lines(path: str):
    """``(1-based line number, text)`` of each data row of ``path`` as
    ``numpy.loadtxt`` reads it: every line after the header but empty ones."""
    with open(path, encoding="utf-8") as f:
        next(f)
        yield from ((no, line) for no, line in enumerate(f, start=2) if line != "\n")


def _refuse(path: str, bad: np.ndarray, what: str) -> None:
    rows = np.flatnonzero(bad)
    if rows.size:
        no, _ = next(itertools.islice(_data_lines(path), int(rows[0]), None))
        raise ContractError(f"{path!r}: line {no} {what}")


def _name_bad_line(path: str, dtype: np.dtype, n_fields: int) -> NoReturn:
    for no, line in _data_lines(path):
        _check_row(path, no, line, dtype, n_fields)
    raise ContractError(f"{path!r}: numeric fields do not parse")


def _check_row(path: str, no: int, line: str, dtype: np.dtype, n_fields: int) -> None:
    """Raise ContractError when data row ``line``, line ``no`` of ``path``,
    has a wrong field count or does not parse on its own."""
    fields = line.count(",") + 1
    if fields != n_fields:
        raise ContractError(f"{path!r}: line {no} has {fields} fields, expected {n_fields}")
    try:
        np.loadtxt([line], dtype=dtype, delimiter=",", comments=None)
    except ValueError as exc:
        raise ContractError(
            f"{path!r}: line {no} has a field that does not parse ({exc})"
        ) from None
