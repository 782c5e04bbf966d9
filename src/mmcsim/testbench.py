"""Closed-loop test system: grid, DC side, scenarios, and the run engine.

Two operating modes are supported:

* ``ideal_dc``: a single converter on an ideally stiff DC bus, for
  isolating the behaviour of the switching controller itself.
* ``back_to_back``: two converters joined by a lumped-parameter DC
  link; the second converter runs the same controller with a negated
  power reference, so power flows through the link from converter 2 to
  converter 1.

The run engine, :func:`simulate`, is a struct-of-arrays kernel: the
state of every phase leg of every converter lives in arrays (capacitor
voltages and statuses with one row per arm, leg currents with one entry
per leg), and each sample is one vectorized pass over all legs.  The
pass computes the deadbeat targets, ranks each arm's SMs, brackets the
targets, selects the insertion counts and advances the plant, with the
same arithmetic, in the same order, as a per-phase loop of scalar
formulas (kept with the tests as the reference the kernel must match
byte for byte).  In back-to-back mode one semi-implicit Euler update
of the DC link then uses the freshly summed converter common-mode
currents.  Inputs are validated once, at the boundary (the constructors
of the parameters, grid, link and scenario); the loop checks no state,
and a run that diverges is found from its record, scanned every 1,024
steps.  Everything is deterministic; there is
no randomness anywhere in the loop.

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

from .controller import SortPolicy
from .errors import ConfigError, SimulationDiverged
from .metrics import RunRecord, SummaryMetrics, summarize
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

    def policy_at(self, t: float) -> SortPolicy:
        """Active policy for a decision taken at time t."""
        active = SortPolicy.V1F2
        for event_time, policy in self.events:
            if t >= event_time:
                active = policy
            else:
                break
        return active


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
        raise ConfigError("cannot derive current references from a zero-amplitude grid")
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
    The run stops within ``_SCAN_STEPS`` steps of it, without a warning.
    """
    (outcome,) = _simulate_batch([scenario], params=params, grid=grid, dc_link=dc_link)
    if isinstance(outcome, SimulationDiverged):
        raise outcome
    return outcome


# Steps between two scans of a batch's record for failed rows.
_SCAN_STEPS = 1024


@np.errstate(all="ignore")   # failed rows step on; their errors are read from the record
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
    it.  The rows step together in one kernel.  No row reads another's
    state, so a failed row steps on with the others until the scan of its
    record, every ``_SCAN_STEPS`` steps and at the last, finds its error.
    """
    first = scenarios[0]
    shared = (first.duration, first.mode, first.p_set, first.i_amp)
    if any((s.duration, s.mode, s.p_set, s.i_amp) != shared for s in scenarios):
        raise ConfigError("the scenarios of a batch may differ only in their events")
    if first.mode == "back_to_back":
        if dc_link is None:
            raise ConfigError("back_to_back mode requires a DcLink")
        dc_link.check_step(params.T_s)
        c_end = 0.5 * dc_link.c_total
        l_total = dc_link.l_total
        labels = ["1a", "1b", "1c", "2a", "2b", "2c"]
    else:
        dc_link = rec_link = None
        labels = ["a", "b", "c"]

    n_mmc = first.n_converters
    amps = _signed_amplitudes(first, grid)
    feedforward = [_power_feedforward(a, params, grid) for a in amps]
    trim_gain = 2.0 * params.C / _ENERGY_TRIM_TAU
    droop_gain = 0.0
    if dc_link is not None:
        # Per-phase conductance giving the LC mode the target damping.
        droop_gain = 2.0 * _LINK_DROOP_ZETA * dc_link.omega * c_end / 3.0

    t_s = params.T_s
    steps = int(round(first.duration / t_s))
    n = params.n
    n_legs = len(labels)
    n_rows = len(scenarios)
    # Struct-of-arrays layout: leg r = 3*m + p of converter m, phase p
    # of batch row b is held as (b*n_mmc + m, p), so grid quantities
    # broadcast over converters and bus quantities over phases; arm
    # axes are (upper, lower) and SM axes physical positions.  A single
    # row thus has no batch axis to pay for.  The new plant state of
    # each step is written straight into that step's row of the record,
    # and each scenario's record is a view of its batch row.
    n_conv = n_rows * n_mmc
    legs = (n_conv, 3)
    times = np.arange(1, steps + 1, dtype=float) * t_s
    rec_i = np.empty((steps, *legs))
    rec_i_z = np.empty((steps, *legs))
    rec_v_arm = np.empty((steps, *legs, 2, 1, 1))   # matmul's (1, 1) results
    rec_v_c = np.empty((steps, *legs, 2, n))
    rec_u = np.empty((steps, *legs, 2, n), dtype=np.int8)
    policies = [[s.policy_at(k * t_s) for k in range(steps)] for s in scenarios]
    # F1V2 promotion per step: run for any row, kept per row when mixed.
    f1v2 = np.array([[p is SortPolicy.F1V2 for p in row] for row in policies], dtype=bool)
    any_f1v2 = f1v2.any(axis=0).tolist()
    all_f1v2 = f1v2.all(axis=0).tolist()
    f1v2 = np.repeat(f1v2, n_mmc, axis=0)
    # Grid cosines at t = k * T_s for k = 0..steps, one per phase.
    omega = grid.omega
    phase_cos = np.array(
        [math.cos(omega * (k * t_s) + off) for k in range(steps + 1) for off in _PHASE_OFFSETS]
    ).reshape(steps + 1, 3)
    rec_i_ref = np.array(amps * n_rows).reshape(n_conv, 1) * phase_cos[1:, None, :]
    v_s_table = grid.amplitude * phase_cos

    v_c = np.full((*legs, 2, n), params.v_sm_nominal)
    u = np.zeros((*legs, 2, n), dtype=np.int8)
    i = np.zeros(legs)
    i_z = np.zeros(legs)
    i_arm = np.zeros((*legs, 2))
    v_s = v_s_table[0]

    # Flat-index offsets of each arm's run of SMs and of prefix sums.
    arm_index = np.arange(n_conv * 6).reshape(*legs, 2, 1)
    sm_base = arm_index * n
    sum_base = arm_index * (n + 1)
    rank = np.arange(n)
    # Candidate counts by the number c of prefix sums <= v*: (c-1, c)
    # clamped to [0, n], so out-of-range targets give one count twice.
    bracket = np.clip(np.arange(n + 2)[:, None] + np.array([-1, 0]), 0, n)
    # Positions of the (upper, lower) counts of the four candidate pairs
    # in a leg's flat (arm, candidate) table, in scan order.
    pair_pos = np.array([[0, 2], [0, 3], [1, 2], [1, 3]])
    leg_base = 4 * np.arange(n_conv * 3).reshape(*legs, 1)
    key_sign = np.array([-1.0, 1.0])
    sums = np.zeros((*legs, 2, n + 1))
    v_star = np.empty((*legs, 2))
    i_arm_next = np.empty((*legs, 2))

    ff_col = np.array(feedforward * n_rows).reshape(n_conv, 1)
    v_dc = params.V_dc
    half_v_dc = 0.5 * v_dc
    v_nom_sm = params.v_sm_nominal
    k_prime = params.K_prime
    l_prime_ts = params.L_prime / t_s
    l_arm_ts = params.l_arm / t_s
    ts_2l_arm = t_s / (2.0 * params.l_arm)
    c_sm = params.C
    w_track = params.w / (2.0 * k_prime)
    w_circ = params.w_z * t_s / (2.0 * params.l_arm)
    bus = v_dc
    i_z_base = ff_col + droop_gain * (bus - v_dc)
    if dc_link is not None:
        # Each row's link state (v_mmc1, v_mmc2, i_link) as Python
        # floats, and the table of its values after every step, row 0
        # holding the start: both buses at V_dc, the line at 0 A.
        link = [[v_dc, v_dc, 0.0] for _ in scenarios]
        rec_link = np.empty((steps + 1, n_rows, 3))
        rec_link[0] = link

    failed: dict[int, SimulationDiverged] = {}
    k0 = 0   # first step not yet scanned
    for k in range(steps):
        i_ref = rec_i_ref[k]
        v_s_next = v_s_table[k + 1]
        if dc_link is not None:
            bus = rec_link[k, :, :2].reshape(n_conv, 1)
            i_z_base = ff_col + droop_gain * (bus - v_dc)

        # Deadbeat targets for both arms of every leg.
        v_mean = np.add.reduce(v_c, -1) / n
        v_mean = 0.5 * (v_mean[..., 0] + v_mean[..., 1])
        i_z_ref = i_z_base + trim_gain * (v_nom_sm - v_mean)
        common = half_v_dc + l_arm_ts * (i_z - i_z_ref)
        drive = k_prime * i_ref + v_s - l_prime_ts * i
        np.subtract(common, drive, out=v_star[..., 0])
        np.add(common, drive, out=v_star[..., 1])

        # Ranking: stable voltage sort, ascending while the arm current
        # charges; F1V2 then stably moves inserted SMs to the front.
        key = v_c * key_sign[(i_arm >= 0.0).view(np.int8)][..., None]
        order = np.argsort(key, axis=-1, kind="stable") + sm_base
        if any_f1v2[k]:
            promote = np.argsort(-u.reshape(-1)[order], axis=-1, kind="stable")
            promoted = order.reshape(-1)[promote + sm_base]
            if all_f1v2[k]:
                order = promoted
            else:
                order = np.where(f1v2[:, k, None, None, None], promoted, order)
        np.cumsum(v_c.reshape(-1)[order], axis=-1, out=sums[..., 1:])

        # Bracketing by counting: capacitor voltages are positive, so
        # the prefix sums rise monotonically.
        counts = bracket[np.add.reduce(sums <= v_star[..., None], -1)]
        dv = v_star[..., None] - sums.reshape(-1)[counts + sum_base]

        # Objective on the four (upper, lower) pairs; argmin keeps the
        # first minimizer in scan order (upper ascending, then lower).
        dv_up = dv[..., 0, :, None]
        dv_low = dv[..., 1, None, :]
        f = w_track * np.abs(dv_low - dv_up) + w_circ * np.abs(dv_low + dv_up)
        best = f.reshape(*legs, 4).argmin(axis=-1)
        n_ins = counts.reshape(-1)[pair_pos[best] + leg_base]

        # Prefix insertion of each ranking.
        u_next = rec_u[k]
        u_next.reshape(-1)[order] = rank < n_ins[..., None]
        u_f = u_next.astype(float)

        # Plant: capacitors integrate the start-of-step arm currents,
        # then the synthesized arm voltages drive both leg currents.
        v_c = np.add(v_c, ((t_s * i_arm) / c_sm)[..., None] * u_next, out=rec_v_c[k])
        v_arm = np.matmul(v_c[..., None, :], u_f[..., :, None], out=rec_v_arm[k])
        v_up = v_arm[..., 0, 0, 0]
        v_low = v_arm[..., 1, 0, 0]
        i = np.divide(
            0.5 * (v_low - v_up) - v_s_next + l_prime_ts * i, k_prime, out=rec_i[k]
        )
        i_z = np.add(ts_2l_arm * (bus - v_low - v_up), i_z, out=rec_i_z[k])
        half_i = 0.5 * i
        np.add(i_z, half_i, out=i_arm_next[..., 0])
        np.subtract(i_z, half_i, out=i_arm_next[..., 1])
        i_arm, i_arm_next = i_arm_next, i_arm
        u = u_next
        v_s = v_s_next

        if dc_link is not None:
            # Semi-implicit (symplectic) Euler: the line current is
            # advanced first and the fresh value feeds the bus-capacitor
            # update.  The link's end-to-end LC mode has omega*T_s of
            # order one, where the fully explicit update amplifies the
            # oscillation each step; the symplectic form is neutrally
            # stable at the same cost.
            i_conv = (0.0 + i_z[:, 0] + i_z[:, 1] + i_z[:, 2]).tolist()
            for row, state in enumerate(link):
                v_mmc1, v_mmc2, i_link = state
                i_link += (t_s / l_total) * (v_mmc2 - v_mmc1)
                v_mmc1 += (t_s / c_end) * (i_link - i_conv[2 * row])
                v_mmc2 += (t_s / c_end) * (-i_link - i_conv[2 * row + 1])
                state[:] = v_mmc1, v_mmc2, i_link
            rec_link[k + 1] = link

        if k + 1 == k0 + _SCAN_STEPS or k + 1 == steps:
            _scan_failures(failed, k0, k + 1, labels, rec_i, rec_i_z, rec_v_c, rec_link)
            if len(failed) == n_rows:
                break
            k0 = k + 1

    if dc_link is None:
        bus_v = np.full((steps, n_rows, 1), v_dc)
        i_dc = (0.0 + rec_i_z[:, :, 0] + rec_i_z[:, :, 1] + rec_i_z[:, :, 2])[..., None]
    else:
        bus_v = rec_link[1:, :, :2]
        i_dc = rec_link[1:, :, 2:]
    rec_v_dc = np.repeat(bus_v, 3, axis=-1)
    rec_i_dc = np.repeat(i_dc, n_legs, axis=-1)
    by_row = (steps, n_rows, n_legs)
    rec_i, rec_i_ref, rec_i_z = (x.reshape(by_row) for x in (rec_i, rec_i_ref, rec_i_z))
    rec_v_arm = rec_v_arm.reshape(*by_row, 2)
    rec_v_c = rec_v_c.reshape(*by_row, 2 * n)
    rec_u = rec_u.reshape(*by_row, 2 * n)
    return [
        failed.get(row) or RunRecord(
            times=times,
            labels=list(labels),
            i=rec_i[:, row],
            i_ref=rec_i_ref[:, row],
            i_z=rec_i_z[:, row],
            v_up=np.ascontiguousarray(rec_v_arm[:, row, :, 0]),
            v_low=np.ascontiguousarray(rec_v_arm[:, row, :, 1]),
            v_c=rec_v_c[:, row],
            u=rec_u[:, row],
            v_dc_link=rec_v_dc[:, row],
            i_dc_link=rec_i_dc[:, row],
            policy=[p.value for p in row_policy],
        )
        for row, row_policy in enumerate(policies)
    ]


def _scan_failures(
    failed: dict[int, SimulationDiverged], k0: int, k1: int, labels: list[str],
    rec_i: np.ndarray, rec_i_z: np.ndarray, rec_v_c: np.ndarray, rec_link: np.ndarray | None,
) -> None:
    """Add to ``failed`` each batch row not in it yet whose recorded state
    fails in steps ``[k0, k1)``, with the error of its first failing step.
    Each arm's capacitors are reduced to their min and max, so nothing
    the size of the block's ``v_c`` is allocated."""
    v_c = rec_v_c[k0:k1]
    current = ~(np.isfinite(rec_i[k0:k1]) & np.isfinite(rec_i_z[k0:k1]))
    capacitor = ~((v_c.min(axis=(-2, -1)) > 0.0) & (v_c.max(axis=(-2, -1)) < math.inf))
    # Each row's checks at each step in the order they are reported:
    # (currents, capacitors) leg by leg, then the link states, which are
    # stored (v_mmc1, v_mmc2, i_link) with step k's in row k + 1.
    checks = [np.stack((current, capacitor), axis=-1).reshape(k1 - k0, -1, 2 * len(labels))]
    if rec_link is not None:
        checks.append(~np.isfinite(rec_link[k0 + 1 : k1 + 1][..., [2, 0, 1]]))
    bad = np.concatenate(checks, axis=-1)
    names = [f"phase {label} {what}" for label in labels for what in (
        "currents non-finite", "capacitor voltage non-finite or <= 0")]
    names += [f"DC link {name} non-finite" for name in ("i_link", "v_mmc1", "v_mmc2")]
    for row in np.flatnonzero(bad.any(axis=(0, 2))).tolist():
        if row not in failed:
            k = int(np.argmax(bad[:, row].any(axis=-1)))
            failed[row] = SimulationDiverged(k0 + k, names[int(np.argmax(bad[k, row]))])


def _run_metrics(
    record: RunRecord, window: tuple[float, float] | None, params: ConverterParams
) -> SummaryMetrics:
    """Summary of a run's record; all zero for a run without steps."""
    if record.steps == 0:
        return SummaryMetrics(window=(0.0, 0.0))
    return summarize(record, window, params.v_sm_nominal)


def run_scenario(
    scenario: Scenario,
    sink=None,
    *,
    params: ConverterParams,
    grid: GridSource,
    dc_link: DcLink | None = None,
    decimation: int = 1,
    window: tuple[float, float] | None = None,
) -> SummaryMetrics:
    """Run a scenario, stream rows to a sink, and summarize the run.

    ``sink`` is any object with ``write_record(record, decimation)``
    (see the CSV sink); ``decimation`` thins the persisted rows only,
    never the metrics.  ``window`` defaults to the whole run, 0 to the
    last sample time.  A zero duration produces no rows and all-zero
    initial-state metrics.
    """
    if decimation < 1:
        raise ConfigError(f"decimation must be >= 1, got {decimation}")
    record = simulate(scenario, params=params, grid=grid, dc_link=dc_link)
    if sink is not None:
        sink.write_record(record, decimation)
    return _run_metrics(record, window, params)
