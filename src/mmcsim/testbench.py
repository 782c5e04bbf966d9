"""Closed-loop test system: grid, DC side, scenarios, and the run engine.

Two operating modes are supported:

* ``ideal_dc``: a single converter on an ideally stiff DC bus, for
  isolating the behaviour of the switching controller itself.
* ``back_to_back``: two converters joined by a lumped-parameter DC
  link; the second converter runs the same controller with a negated
  power reference, so power flows through the link from converter 2 to
  converter 1.

The run engine, :func:`simulate`, is a struct-of-arrays kernel: the
state of every phase leg of every converter lives in chunk tables
(capacitor voltages and statuses with one row per arm, leg currents
with one entry per leg) with one row per step and one more.  Step j
reads row j and writes row j + 1, in five stages, each one vectorized
pass over all legs: ``targets`` (the deadbeat arm voltages), ``rank``
(each arm's SMs under its row's policy, as one stable sort of a packed
key, :func:`mmcsim.controller._rank`), ``select`` (bracket the
targets, choose and insert the counts), ``plant`` (capacitors, then leg
currents) and ``link`` (in back-to-back mode one semi-implicit Euler
update of the DC link from the freshly summed converter common-mode
currents).  The arithmetic and its order are those of a per-phase loop
of scalar formulas, kept with the tests as the reference the kernel
must match byte for byte.  Inputs are validated once, at the boundary
(the constructors of the parameters, grid, link and scenario); the
loop checks no state.  It steps in chunks of 128 steps, and a run that
diverges is found from the chunk's tables when the chunk ends.  Each
healthy row's chunk then goes, whole, as a :class:`RunRecord` of views
of them, to one callable, ``consume(row, record)``, and the last row is
carried to row 0.  In ``run_scenario`` and ``compare`` it hands row 0's
chunk to the CSV sink, if any, which keeps every k-th step and formats
them in a second process while the run steps on, then adds the chunk to
the row's summary, which keeps the per-phase series and reduces the
per-SM ones; in :func:`simulate` it copies the chunk into the whole
record.  So a summarized run holds one chunk of per-SM state, not the
run's.  The reference part of the deadbeat drive, the grid voltages and
each row's policy per step are tables built per chunk.  Everything is
deterministic; there is no randomness anywhere in the loop.

The leg axis also spans a batch: scenarios that share the system and
differ only in their policy schedule (``compare``'s two configs) step
side by side as rows of one pass, so the per-call overhead of the pass
is paid once per sample for all of them.  Each row's record, or error,
is that of its scenario run alone: no row reads another's state, so a
row that fails steps on until the scan finds it.  :func:`simulate` is
the same kernel with one row.

The controller targets alone do not regulate the total energy stored in
the arm capacitors: tracking the AC reference steadily exports energy
that only a DC-component of the circulating current can replace.  The
testbench therefore supplies each phase controller with a circulating-
current reference composed of a power feedforward plus a slow
capacitor-energy trim; in back-to-back mode a bus-voltage droop term is
added to damp the DC link's lightly damped LC mode.  All terms are
plain functions of measured state and configuration, keeping runs
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controller import _STATUS_FIRST, SortPolicy, _rank
from .errors import ConfigError, SimulationDiverged
from .metrics import _PHASES, RunRecord, SummaryAccumulator, SummaryMetrics, _row_dtype
from .model import ConverterParams

__all__ = [
    "GridSource",
    "DcLink",
    "Scenario",
    "build_stock_system",
    "simulate",
    "run_scenario",
]


# Time constant of the capacitor-energy trim on the circulating-current
# reference [s].  Slow against the AC period, fast against a run.
_ENERGY_TRIM_TAU = 0.05

# Damping ratio imposed on the DC link's end-to-end LC mode by the
# bus-voltage droop term of the circulating-current reference.  The
# converters alone leave that mode with a quality factor in the
# hundreds, and switching dither keeps re-exciting it.
_LINK_DROOP_ZETA = 0.7

_PHASE_OFFSETS = (0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0)


# ===== SOURCES AND NETWORK ELEMENTS =====


@dataclass(frozen=True)
class GridSource:
    """Balanced three-phase voltage source.

    ``amplitude`` is the phase-to-neutral peak [V]; phases are offset by
    exactly +/- 2*pi/3.
    """

    amplitude: float
    frequency: float

    def __post_init__(self):
        if not math.isfinite(self.amplitude) or self.amplitude < 0.0:
            raise ConfigError(f"grid amplitude must be finite and >= 0, got {self.amplitude}")
        if not math.isfinite(self.frequency) or self.frequency <= 0.0:
            raise ConfigError(f"grid frequency must be finite and > 0, got {self.frequency}")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.frequency


@dataclass(frozen=True)
class DcLink:
    """Lumped single-pi model of the HVDC line between the converters.

    Half the total line capacitance sits at each converter bus and the
    total inductance carries the link current, defined positive when it
    flows from converter 2 toward converter 1.  Only the line's
    parameters live here: a run starts both bus voltages at the
    converters' nominal ``V_dc`` and the link current at zero.
    """

    length_km: float
    c_per_km: float          # [F/km]
    l_per_km: float          # [H/km]

    def __post_init__(self):
        for name in ("length_km", "c_per_km", "l_per_km"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")

    @property
    def c_total(self) -> float:
        """Total line capacitance [F]."""
        return self.c_per_km * self.length_km

    @property
    def l_total(self) -> float:
        """Total line inductance [H]."""
        return self.l_per_km * self.length_km

    @property
    def omega(self) -> float:
        """Angular frequency of the line's end-to-end LC mode [rad/s]:
        the total inductance against the two bus capacitors in series."""
        return math.sqrt(2.0 / (self.l_total * (0.5 * self.c_total)))

    def check_step(self, t_s: float) -> None:
        """Raise ConfigError unless the link update is stable at ``t_s``.

        Semi-implicit Euler keeps an undamped oscillator of angular
        frequency omega bounded only for omega * T_s < 2 (Hairer, Lubich
        & Wanner, Geometric Numerical Integration, I.1); beyond it the
        link states grow without bound.
        """
        wt = self.omega * t_s
        if not wt < 2.0:
            raise ConfigError(
                f"[dc_link] with [converter] t_s = {t_s!r}: the line's LC mode has"
                f" omega*t_s = {wt:.3g}, but the link update is stable only for"
                " omega*t_s < 2, where omega = sqrt(2 / (L_total * C_total / 2));"
                " lengthen the line or shorten t_s"
            )


# ===== SCENARIOS =====

_MODES = ("ideal_dc", "back_to_back")


@dataclass
class Scenario:
    """A timed run: duration, policy schedule, mode, and references.

    ``events`` lists (time, policy) pairs with strictly increasing
    times; the run starts under ``V1F2`` and the decision at the first
    control step with t >= event time uses the new policy.  References
    are either per-converter power setpoints ``p_set`` [W] (positive:
    the converter delivers power to its grid) or explicit per-converter
    current amplitudes ``i_amp`` [A]; exactly one must be given.
    """

    duration: float
    events: list[tuple[float, SortPolicy]] = field(default_factory=list)
    mode: str = "ideal_dc"
    p_set: tuple[float, ...] | None = None
    i_amp: tuple[float, ...] | None = None

    def __post_init__(self):
        if not math.isfinite(self.duration) or self.duration < 0.0:
            raise ConfigError(f"duration must be finite and >= 0, got {self.duration}")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        last = -math.inf
        for t, policy in self.events:
            if not isinstance(policy, SortPolicy):
                raise ConfigError(f"event policy must be a SortPolicy, got {policy!r}")
            if t <= last:
                raise ConfigError("event times must be strictly increasing")
            if not 0.0 <= t <= self.duration:
                raise ConfigError(f"event time {t} outside [0, {self.duration}]")
            last = t
        if (self.p_set is None) == (self.i_amp is None):
            raise ConfigError("exactly one of p_set and i_amp must be given")
        refs = self.p_set if self.p_set is not None else self.i_amp
        if not all(math.isfinite(x) for x in refs):
            raise ConfigError(f"references must be finite, got {refs}")
        if len(refs) != self.n_converters:
            raise ConfigError(
                f"{self.mode} needs {self.n_converters} reference(s), got {len(refs)}"
            )

    @property
    def n_converters(self) -> int:
        return 2 if self.mode == "back_to_back" else 1


def build_stock_system() -> tuple[ConverterParams, GridSource, DcLink, Scenario]:
    """Stock back-to-back HVDC test system.

    Six SMs per arm on a 60 kV bus, 2.5 mF submodule capacitors,
    0.03 ohm / 5 mH AC side, 3 mH arms, 25 us sampling, 13.18 MW
    transfer over a 5 km line (16 uF/km, 50 uH/km).  The 3 s schedule
    starts under V1F2, switches to F1V2 at 1.2 s and back at 1.4 s.
    """
    params = ConverterParams(
        n=6,
        R=0.03,
        L=5.0e-3,
        l_arm=3.0e-3,
        C=2.5e-3,
        V_dc=60.0e3,
        T_s=25.0e-6,
    )
    # The grid amplitude puts the modulation index near 0.82 on the
    # 60 kV bus, so the rated 13.18 MW transfer runs at about 359 A peak
    # per phase; the frequency is a conventional 60 Hz (neither value is
    # part of the converter itself).
    grid = GridSource(24.5e3, 60.0)   # phase peak [V], [Hz]
    link = DcLink(
        length_km=5.0,
        c_per_km=16.0e-6,
        l_per_km=50.0e-6,
    )
    scenario = Scenario(
        duration=3.0,
        events=[(1.2, SortPolicy.F1V2), (1.4, SortPolicy.V1F2)],
        mode="back_to_back",
        p_set=(13.18e6, -13.18e6),
    )
    return params, grid, link, scenario


# ===== RUN ENGINE =====


def _signed_amplitudes(scenario: Scenario, grid: GridSource) -> list[float]:
    if scenario.i_amp is not None:
        return list(scenario.i_amp)
    if grid.amplitude == 0.0:
        raise ConfigError("p_set needs a non-zero [grid] amplitude to derive current references")
    return [2.0 * p / (3.0 * grid.amplitude) for p in scenario.p_set]


def _power_feedforward(i_amp: float, params: ConverterParams, grid: GridSource) -> float:
    """Per-phase DC circulating current that balances the AC export [A]."""
    p_conv_phase = 0.5 * grid.amplitude * i_amp + 0.5 * params.R * i_amp * i_amp
    return p_conv_phase / params.V_dc


def simulate(
    scenario: Scenario,
    *,
    params: ConverterParams,
    grid: GridSource,
    dc_link: DcLink | None = None,
) -> RunRecord:
    """Run a scenario at full rate and return the recorded series.

    ``dc_link`` is required in back-to-back mode and ignored otherwise.
    The controller follows a supervisory circulating-current reference:
    the power feedforward, the capacitor-energy trim, and in
    back-to-back mode the bus-voltage droop.

    Raises :class:`ConfigError` when the DC link is outside the
    stability bound of its update (:meth:`DcLink.check_step`), and
    :class:`SimulationDiverged`, naming the step, the phase and the
    state variable, when a phase current or a DC-link state turns
    non-finite or a capacitor voltage turns non-finite or non-positive.
    The run stops within a chunk of it, without a warning.
    """
    (outcome,) = _simulate_batch([scenario], params=params, grid=grid, dc_link=dc_link)
    if isinstance(outcome, SimulationDiverged):
        raise outcome
    return outcome


def run_scenario(
    scenario: Scenario,
    sink=None,
    *,
    params: ConverterParams,
    grid: GridSource,
    dc_link: DcLink | None = None,
    window: tuple[float, float] | None = None,
) -> SummaryMetrics:
    """Run a scenario, stream rows to a sink, and summarize the run.

    ``sink`` is any object with ``write_record(record)``, such as the
    CSV sink.  As the run steps, the kernel hands each chunk of
    ``_SCAN_STEPS`` steps, as a :class:`RunRecord`, to
    ``sink.write_record`` and then to the summary, which is taken at
    full rate chunk by chunk, so no whole record of the run is held.  A
    chunk's arrays are valid during the call, and a sink copies what it
    keeps.  A run that diverges hands the sink the chunks before the one
    it fails in.  ``window`` defaults to the whole run, 0 to the last
    sample time.  A zero duration produces no rows and all-zero
    initial-state metrics.
    """
    (metrics,) = _summarize_batch(
        [scenario], window, params=params, grid=grid, dc_link=dc_link, sink=sink
    )
    return metrics


def _simulate_batch(
    scenarios: list[Scenario],
    *,
    params: ConverterParams,
    grid: GridSource,
    dc_link: DcLink | None = None,
) -> list[RunRecord | SimulationDiverged]:
    """Run scenarios that differ only in their events side by side.

    Returns, per scenario, what :func:`simulate` would give for it
    alone: its record, or the :class:`SimulationDiverged` that stopped
    it.  The chunks are gathered into one array per record field with a
    row axis, of which each record is a view.
    """
    labels = _labels(scenarios[0])
    shape = (_steps(scenarios[0], params), len(scenarios), len(labels))
    times = np.empty(shape[0])
    fields = _row_dtype(params.n)
    arrays = {
        name: np.empty((*shape, *fields[name].shape), fields[name].base)
        for name in fields.names[2:-1]
    }
    policies: list[list[str]] = [[] for _ in scenarios]

    def collect(row: int, record: RunRecord) -> None:
        k0 = len(policies[row])
        k1 = k0 + record.steps
        times[k0:k1] = record.times
        for name, array in arrays.items():
            array[k0:k1, row] = getattr(record, name)
        policies[row] += record.policy

    failed = _step_batch(scenarios, collect, params=params, grid=grid, dc_link=dc_link)
    return [
        failed.get(row) or RunRecord(
            times=times, labels=list(labels), policy=policy,
            **{name: array[:, row] for name, array in arrays.items()},
        )
        for row, policy in enumerate(policies)
    ]


def _summarize_batch(
    scenarios: list[Scenario],
    window: tuple[float, float] | None,
    *,
    params: ConverterParams,
    grid: GridSource,
    dc_link: DcLink | None = None,
    sink=None,
) -> list[SummaryMetrics]:
    """Run scenarios as :func:`_simulate_batch` does and return each
    one's summary over ``window``, all zero for a run without steps,
    taken chunk by chunk.  A ``sink`` takes row 0's chunks, before its
    summary does.  The first row that failed, in row order after the
    summaries before it, raises its error."""
    summaries = [SummaryAccumulator(window, params.v_sm_nominal) for _ in scenarios]

    def consume(row: int, record: RunRecord) -> None:
        if row == 0 and sink is not None:
            sink.write_record(record)
        summaries[row].add(record)

    failed = _step_batch(scenarios, consume, params=params, grid=grid, dc_link=dc_link)
    metrics = []
    for row, summary in enumerate(summaries):
        if row in failed:
            raise failed[row]
        metrics.append(summary.result() if summary.steps else SummaryMetrics(window=(0.0, 0.0)))
    return metrics


def _steps(scenario: Scenario, params: ConverterParams) -> int:
    return int(round(scenario.duration / params.T_s))


def _labels(scenario: Scenario) -> list[str]:
    """Phase labels of a scenario's legs, converter by converter."""
    return _PHASES[scenario.mode == "back_to_back"]


# Steps between two scans of a batch's record for failed rows: the
# chunks the kernel steps in and hands to its consumer.
_SCAN_STEPS = 128


@np.errstate(all="ignore")   # failed rows step on; their errors are read from the record
def _step_batch(
    scenarios: list[Scenario],
    consume,
    *,
    params: ConverterParams,
    grid: GridSource,
    dc_link: DcLink | None,
) -> dict[int, SimulationDiverged]:
    """Step scenarios that differ only in their events side by side, a
    chunk of steps at a time, and return the rows that failed, each
    with the :class:`SimulationDiverged` of its first failing step.

    The rows step together in one kernel.  No row reads another's
    state, so a failed row steps on with the others until the scan of
    its chunk finds its error.  After each scan, for every row that has
    not failed, in row order, it calls ``consume(row, record)`` with the
    row's :class:`RunRecord` of the chunk.  A chunk's arrays are valid
    during the call, and a consumer copies what it keeps: they are views
    of tables that the next chunk overwrites.  Chunks are
    ``_SCAN_STEPS`` long.  It is no generator, so the ``errstate`` holds
    while the records are built, where failed rows' sums overflow.
    """
    first = scenarios[0]
    shared = (first.duration, first.mode, first.p_set, first.i_amp)
    if any((s.duration, s.mode, s.p_set, s.i_amp) != shared for s in scenarios):
        raise ConfigError("the scenarios of a batch may differ only in their events")
    labels = _labels(first)

    n_mmc = first.n_converters
    amps = _signed_amplitudes(first, grid)
    feedforward = [_power_feedforward(a, params, grid) for a in amps]
    trim_gain = 2.0 * params.C / _ENERGY_TRIM_TAU

    t_s = params.T_s
    steps = _steps(first, params)
    n = params.n
    n_legs = len(labels)
    n_rows = len(scenarios)
    # Struct-of-arrays layout: leg r = 3*m + p of converter m, phase p
    # of batch row b is held as (b*n_mmc + m, p), so grid quantities
    # broadcast over converters and bus quantities over phases; arm
    # axes are (upper, lower) and SM axes physical positions.  A single
    # row thus has no batch axis to pay for.  The link table holds
    # (v_mmc1, v_mmc2, i_link) per batch row.
    n_conv = n_rows * n_mmc
    legs = (n_conv, 3)
    rows = min(_SCAN_STEPS, steps) + 1
    rec_v_c = np.full((rows, *legs, 2, n), params.v_sm_nominal)
    rec_u = np.zeros((rows, *legs, 2, n), dtype=np.int8)
    rec_i = np.zeros((rows, *legs))
    rec_i_z = np.zeros((rows, *legs))
    rec_i_arm = np.zeros((rows, *legs, 2))
    rec_v_arm = np.empty((rows, *legs, 2))
    rec_link = np.zeros((rows, n_rows, 3))
    rec_link[..., :2] = params.V_dc
    # Each row's policy at a decision time k * T_s is that of its last
    # event with k * T_s >= event time.
    event_times = [[t for t, _ in s.events] for s in scenarios]
    choices = [[SortPolicy.V1F2, *(p for _, p in s.events)] for s in scenarios]
    choice_names = [np.array([p.value for p in c], dtype=object) for c in choices]
    choice_status = [np.array([p is SortPolicy.F1V2 for p in c]) * _STATUS_FIRST for c in choices]
    amp_col = np.array(amps * n_rows).reshape(n_conv, 1)
    k_prime = params.K_prime

    # Flat-index offsets of each arm's run of SMs and of prefix sums.
    arm_index = np.arange(n_conv * 6).reshape(*legs, 2, 1)
    sm_base = arm_index * n
    sum_base = arm_index * (n + 1)
    position = np.arange(n)
    # Candidate counts by the number c of prefix sums <= v*: (c-1, c)
    # clamped to [0, n], so out-of-range targets give one count twice.
    bracket = np.clip(np.arange(n + 2)[:, None] + np.array([-1, 0]), 0, n)
    # Positions of the (upper, lower) counts of the four candidate pairs
    # in a leg's flat (arm, candidate) table, in scan order.
    pair_pos = np.array([[0, 2], [0, 3], [1, 2], [1, 3]])
    leg_base = 4 * np.arange(n_conv * 3).reshape(*legs, 1)
    # What a step's stages hand on: targets, L'/T_s * i, rankings, sums.
    v_star = np.empty((*legs, 2))
    l_i = np.empty(legs)
    order = np.empty((*legs, 2, n), dtype=np.intp)
    sums = np.zeros((*legs, 2, n + 1))

    ff_col = np.array(feedforward * n_rows).reshape(n_conv, 1)
    v_dc = params.V_dc
    half_v_dc = 0.5 * v_dc
    v_nom_sm = params.v_sm_nominal
    l_prime_ts = params.L_prime / t_s
    l_arm_ts = params.l_arm / t_s
    ts_2l_arm = t_s / (2.0 * params.l_arm)
    c_sm = params.C
    w_track = params.w / (2.0 * k_prime)
    w_circ = params.w_z * t_s / (2.0 * params.l_arm)

    def targets(j):
        """Deadbeat arm-voltage targets of step j into ``v_star``, for the
        current references and the supervisory i_z reference, and the
        ``L'/T_s * i`` they subtract into ``l_i``."""
        v_mean = np.add.reduce(rec_v_c[j], -1) / n
        v_mean = 0.5 * (v_mean[..., 0] + v_mean[..., 1])
        i_z_ref = i_z_base + trim_gain * (v_nom_sm - v_mean)
        common = half_v_dc + l_arm_ts * (rec_i_z[j] - i_z_ref)
        drive = drive_table[j] - np.multiply(l_prime_ts, rec_i[j], out=l_i)
        np.subtract(common, drive, out=v_star[..., 0])
        np.add(common, drive, out=v_star[..., 1])

    def rank(j):
        """Each arm's SMs at step j, ranked by :func:`_rank` under its
        row's policy, into ``order`` as flat indices of a table row, and
        their prefix voltage sums into ``sums``."""
        v_c = rec_v_c[j]
        ranks = _rank(v_c, rec_u[j], rec_i_arm[j], status_first[:, j, None, None])
        np.add(ranks, sm_base, out=order)
        v_c.take(order).cumsum(axis=-1, out=sums[..., 1:])

    def select(j):
        """Statuses of step j into row j + 1: the prefix of each ranking
        of the count pair that best meets the targets."""
        # Bracketing by counting: capacitor voltages are positive, so
        # the prefix sums rise monotonically.
        counts = bracket.take(np.add.reduce(sums <= v_star[..., None], -1), axis=0)
        dv = v_star[..., None] - sums.take(counts + sum_base)
        # Objective on the four (upper, lower) pairs; argmin keeps the
        # first minimizer in scan order (upper ascending, then lower).
        dv_up = dv[..., 0, :, None]
        dv_low = dv[..., 1, None, :]
        f = w_track * np.abs(dv_low - dv_up) + w_circ * np.abs(dv_low + dv_up)
        best = f.reshape(*legs, 4).argmin(axis=-1)
        n_ins = counts.take(pair_pos.take(best, axis=0) + leg_base)
        rec_u[j + 1].put(order, position < n_ins[..., None])

    def plant(j):
        """Row j + 1 of the plant: the capacitors integrate the arm
        currents of row j under the new statuses, then the synthesized
        arm voltages drive both leg currents."""
        u_f = rec_u[j + 1].astype(float)
        v_c = np.add(rec_v_c[j], ((t_s * rec_i_arm[j]) / c_sm)[..., None] * u_f, out=rec_v_c[j + 1])
        v_arm = rec_v_arm[j + 1]
        np.matmul(v_c[..., None, :], u_f[..., :, None], out=v_arm[..., None, None])
        v_up, v_low = v_arm[..., 0], v_arm[..., 1]
        i = np.divide(0.5 * (v_low - v_up) - v_s_table[j + 1] + l_i, k_prime, out=rec_i[j + 1])
        i_z = np.add(ts_2l_arm * (bus - v_low - v_up), rec_i_z[j], out=rec_i_z[j + 1])
        half_i = 0.5 * i
        np.add(i_z, half_i, out=rec_i_arm[j + 1, ..., 0])
        np.subtract(i_z, half_i, out=rec_i_arm[j + 1, ..., 1])

    # ``bus`` and ``i_z_base`` are what a step reads of its link row, per
    # converter: the bus voltage and the feedforward and droop of i_z_ref.
    if first.mode == "back_to_back":
        if dc_link is None:
            raise ConfigError("back_to_back mode requires a DcLink")
        dc_link.check_step(t_s)
        c_end = 0.5 * dc_link.c_total
        # Per-phase conductance giving the LC mode the target damping.
        droop_gain = 2.0 * _LINK_DROOP_ZETA * dc_link.omega * c_end / 3.0
        dt_l, dt_c = t_s / dc_link.l_total, t_s / c_end
        scanned = rec_link

        def link(j):
            """Row j + 1 of each batch row's link, in Python floats, by
            semi-implicit (symplectic) Euler: the line current is advanced
            first and the fresh value feeds the bus-capacitor update.  The
            link's end-to-end LC mode has omega*T_s of order one, where the
            fully explicit update amplifies the oscillation each step; the
            symplectic form is neutrally stable at the same cost."""
            i_z = rec_i_z[j + 1]
            i_conv = (0.0 + i_z[:, 0] + i_z[:, 1] + i_z[:, 2]).tolist()
            for row, (v_mmc1, v_mmc2, i_link) in enumerate(rec_link[j].tolist()):
                i_link += dt_l * (v_mmc2 - v_mmc1)
                v_mmc1 += dt_c * (i_link - i_conv[2 * row])
                v_mmc2 += dt_c * (-i_link - i_conv[2 * row + 1])
                rec_link[j + 1, row] = v_mmc1, v_mmc2, i_link
            bus[:] = rec_link[j + 1, :, :2].reshape(n_conv, 1)
            np.add(ff_col, droop_gain * (bus - v_dc), out=i_z_base)

        def bus_current(m):
            """The link stage wrote the line current step by step."""
    else:
        droop_gain = 0.0
        scanned = None   # an ideal bus has no state that can fail

        def link(j):
            """The ideal bus holds V_dc: nothing to advance."""

        def bus_current(m):
            """Each row's current from the ideal bus over the chunk's m steps."""
            z = rec_i_z[1 : m + 1]
            rec_link[1 : m + 1, :, 2] = 0.0 + z[..., 0] + z[..., 1] + z[..., 2]
    bus = np.full((n_conv, 1), v_dc)
    i_z_base = ff_col + droop_gain * (bus - v_dc)

    failed: dict[int, SimulationDiverged] = {}
    for k0 in range(0, steps, _SCAN_STEPS):
        m = min(_SCAN_STEPS, steps - k0)
        # The chunk's tables: the grid cosines at t = k * T_s for
        # k = k0..k0+m, one per phase, the current references and the
        # reference part of each step's deadbeat drive, K' * i_ref + v_s,
        # and each row's policy per step.
        phase_cos = np.array(
            [math.cos(grid.omega * (k * t_s) + off) for k in range(k0, k0 + m + 1)
             for off in _PHASE_OFFSETS]
        ).reshape(m + 1, 3)
        rec_i_ref = amp_col * phase_cos[1:, None, :]
        v_s_table = grid.amplitude * phase_cos
        drive_table = k_prime * rec_i_ref + v_s_table[:-1, None, :]
        in_force = [
            np.searchsorted(times, np.arange(k0, k0 + m) * t_s, side="right")
            for times in event_times
        ]
        policies = [names.take(f).tolist() for names, f in zip(choice_names, in_force)]
        status_first = np.repeat([s.take(f) for s, f in zip(choice_status, in_force)], n_mmc, 0)

        for j in range(m):
            targets(j)
            rank(j)
            select(j)
            plant(j)
            link(j)
        bus_current(m)

        now = slice(1, m + 1)
        _scan_failures(failed, k0, labels, rec_i[now], rec_i_z[now], rec_v_c[now], scanned)
        if len(failed) == n_rows:
            break
        # Each healthy row's record of the chunk.
        by_row = (m, n_rows, n_legs)
        row_v_dc = np.repeat(rec_link[now, :, :n_mmc], 3, axis=-1)
        row_i_dc = np.repeat(rec_link[now, :, 2:], n_legs, axis=-1)
        row_v_arm = rec_v_arm[now].reshape(*by_row, 2)
        row_v_c = rec_v_c[now].reshape(*by_row, 2 * n)
        row_u = rec_u[now].reshape(*by_row, 2 * n)
        row_i, row_i_ref, row_i_z = (
            x.reshape(by_row) for x in (rec_i[now], rec_i_ref, rec_i_z[now]))
        for row, row_policy in enumerate(policies):
            if row not in failed:
                consume(row, RunRecord(
                    times=np.arange(k0 + 1, k0 + m + 1, dtype=float) * t_s,
                    labels=list(labels), policy=row_policy,
                    i=row_i[:, row], i_ref=row_i_ref[:, row], i_z=row_i_z[:, row],
                    v_up=row_v_arm[:, row, :, 0], v_low=row_v_arm[:, row, :, 1],
                    v_c=row_v_c[:, row], u=row_u[:, row],
                    v_dc_link=row_v_dc[:, row], i_dc_link=row_i_dc[:, row],
                ))
        for table in (rec_v_c, rec_u, rec_i, rec_i_z, rec_i_arm, rec_link):
            table[0] = table[m]
    return failed


def _scan_failures(
    failed: dict[int, SimulationDiverged], k0: int, labels: list[str],
    rec_i: np.ndarray, rec_i_z: np.ndarray, rec_v_c: np.ndarray, rec_link: np.ndarray | None,
) -> None:
    """Add to ``failed`` each batch row not in it yet whose recorded state
    fails in the steps the ``rec_*`` arrays hold, from step ``k0`` in
    their row 0, with the error of its first failing step.  ``rec_link``
    starts a row earlier, with the link state before step ``k0``; it is
    None on an ideal bus.  Each arm's capacitors are reduced to their
    min and max, so nothing the size of the chunk's ``v_c`` is allocated."""
    current = ~(np.isfinite(rec_i) & np.isfinite(rec_i_z))
    capacitor = ~((rec_v_c.min(axis=(-2, -1)) > 0.0) & (rec_v_c.max(axis=(-2, -1)) < math.inf))
    # Each row's checks at each step in the order they are reported:
    # (currents, capacitors) leg by leg, then the link states, which are
    # stored (v_mmc1, v_mmc2, i_link) with step k's in row k + 1.
    checks = [np.stack((current, capacitor), axis=-1).reshape(len(rec_i), -1, 2 * len(labels))]
    if rec_link is not None:
        checks.append(~np.isfinite(rec_link[1 : len(rec_i) + 1, :, [2, 0, 1]]))
    bad = np.concatenate(checks, axis=-1)
    names = [f"phase {label} {what}" for label in labels for what in (
        "currents non-finite", "capacitor voltage non-finite or <= 0")]
    names += [f"DC link {name} non-finite" for name in ("i_link", "v_mmc1", "v_mmc2")]
    for row in np.flatnonzero(bad.any(axis=(0, 2))).tolist():
        if row not in failed:
            k = int(np.argmax(bad[:, row].any(axis=-1)))
            failed[row] = SimulationDiverged(k0 + k, names[int(np.argmax(bad[k, row]))])
