"""Unit tests for switching, ripple, circulating and tracking metrics."""

import cProfile
import functools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mmcsim.controller import SortPolicy
from mmcsim.csvio import TimeSeriesSink
from mmcsim.errors import ContractError, MetricWindowError
from mmcsim.metrics import RunRecord, SummaryAccumulator, summarize
from mmcsim.testbench import Scenario, build_stock_system, simulate
from per_phase_reference import (
    SwitchTrace,
    circulating_ratio,
    effective_switching_frequency,
    phase_index,
    reference_summarize,
    ripple_percent,
    switch_traces_from_history,
    tracking_rmse,
    whole_file_load_record_csv,
)


# --------------------------------------------------------- switch traces


def test_trace_rejects_bad_status():
    with pytest.raises(ContractError):
        SwitchTrace(events=[(0.0, 2)])


def test_trace_rejects_decreasing_times():
    with pytest.raises(ContractError):
        SwitchTrace(events=[(0.2, 1), (0.1, 0)])


def test_trace_rejects_repeated_status():
    with pytest.raises(ContractError):
        SwitchTrace(events=[(0.1, 1), (0.2, 1)])


def test_from_samples_counts_changes_only():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    trace = SwitchTrace.from_samples(times, np.array([0, 0, 1, 1]))
    assert trace.events == [(3.0, 1)]


def test_from_samples_initial_status():
    times = np.array([1.0, 2.0])
    trace = SwitchTrace.from_samples(times, np.array([1, 1]), initial=0)
    assert trace.events == [(1.0, 1)]


# ------------------------------------------------- switching frequency


def test_fs_toggle_every_step():
    # 4000 transitions inside a 0.1 s window: the sampled-period rate.
    t_s = 25e-6
    steps = 4000
    times = (np.arange(steps) + 0.5) * t_s
    statuses = np.arange(steps) % 2
    trace = SwitchTrace.from_samples(times, statuses, initial=1)
    assert effective_switching_frequency(trace, (0.0, 0.1)) == 20000.0


def test_fs_constant_is_zero():
    trace = SwitchTrace(events=[])
    assert effective_switching_frequency(trace, (0.0, 1.0)) == 0.0


def test_fs_hundred_transitions():
    events = [(1e-3 * (k + 1) * 0.9, k % 2) for k in range(100)]
    trace = SwitchTrace(events=events)
    assert effective_switching_frequency(trace, (0.0, 0.1)) == 500.0


def test_fs_window_is_half_open():
    trace = SwitchTrace(events=[(0.0, 1), (0.05, 0), (0.1, 1)])
    # Left edge excluded, right edge included.
    assert effective_switching_frequency(trace, (0.0, 0.1)) == 10.0
    assert effective_switching_frequency(trace, (-0.1, 0.0)) == 5.0


def test_fs_rejects_empty_window():
    trace = SwitchTrace(events=[])
    with pytest.raises(MetricWindowError):
        effective_switching_frequency(trace, (0.5, 0.5))
    with pytest.raises(MetricWindowError):
        effective_switching_frequency(trace, (0.5, 0.2))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_fs_counts_add_over_window_partition(seed):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 1.0, 40))
    events = [(float(t), k % 2) for k, t in enumerate(times)]
    trace = SwitchTrace(events=events)
    split = float(rng.uniform(0.1, 0.9))
    total = effective_switching_frequency(trace, (0.0, 1.0)) * 2.0
    left = effective_switching_frequency(trace, (0.0, split)) * 2.0 * split
    right = effective_switching_frequency(trace, (split, 1.0)) * 2.0 * (1.0 - split)
    assert round(left + right) == round(total) == 40


# ----------------------------------------------------------------- ripple


def test_ripple_constant_is_zero():
    times = np.arange(5.0)
    assert ripple_percent(times, np.full(5, 10e3), 10e3, (0.0, 4.0)) == 0.0


def test_ripple_example():
    times = np.arange(4.0)
    v_c = np.array([9940.0, 10010.0, 10060.0, 9990.0])
    assert ripple_percent(times, v_c, 10e3, (0.0, 3.0)) == 1.2


def test_ripple_scale_invariance():
    times = np.arange(4.0)
    v_c = np.array([9940.0, 10010.0, 10060.0, 9990.0])
    base = ripple_percent(times, v_c, 10e3, (0.0, 3.0))
    scaled = ripple_percent(times, 7.0 * v_c, 7.0 * 10e3, (0.0, 3.0))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_ripple_validation():
    times = np.arange(4.0)
    v_c = np.full(4, 10e3)
    with pytest.raises(ContractError):
        ripple_percent(times, v_c, 0.0, (0.0, 3.0))
    with pytest.raises(ContractError):
        ripple_percent(times, v_c[:3], 10e3, (0.0, 3.0))
    with pytest.raises(MetricWindowError):
        ripple_percent(times, v_c, 10e3, (10.0, 11.0))


# ------------------------------------------------------ circulating ratio


def test_ratio_example():
    times = np.arange(4.0)
    i_z = np.array([35.0, -10.0, 0.0, 5.0])
    i = np.array([100.0, -350.0, 200.0, 0.0])
    assert circulating_ratio(times, i_z, i, (0.0, 3.0)) == 0.1


def test_ratio_zero_circulating():
    times = np.arange(4.0)
    i = np.array([100.0, -350.0, 200.0, 1.0])
    assert circulating_ratio(times, np.zeros(4), i, (0.0, 3.0)) == 0.0


def test_ratio_scale_invariance():
    times = np.arange(4.0)
    i_z = np.array([35.0, -10.0, 0.0, 5.0])
    i = np.array([100.0, -350.0, 200.0, 0.0])
    base = circulating_ratio(times, i_z, i, (0.0, 3.0))
    scaled = circulating_ratio(times, 3.0 * i_z, 3.0 * i, (0.0, 3.0))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_ratio_rejects_zero_amplitude():
    times = np.arange(4.0)
    with pytest.raises(MetricWindowError):
        circulating_ratio(times, np.ones(4), np.zeros(4), (0.0, 3.0))


# --------------------------------------------------------- tracking error


def _cosine(amplitude, phase_shift, periods=1, samples=400):
    t = np.arange(samples * periods) / samples
    return t, amplitude * np.cos(2.0 * math.pi * t + phase_shift)


def test_rmse_perfect_tracking():
    t, i_ref = _cosine(350.0, 0.0)
    assert tracking_rmse(t, i_ref, i_ref, (0.0, 1.0)) == 0.0


def test_rmse_constant_offset():
    t, i_ref = _cosine(350.0, 0.0)
    assert tracking_rmse(t, i_ref + 7.0, i_ref, (0.0, 1.0)) == pytest.approx(
        100.0 * 7.0 / 350.0, rel=1e-12
    )


@pytest.mark.parametrize(
    "shift, expected",
    [
        (0.01, 0.7071038349119754),
        (0.1, 7.0681219018733925),
        (0.5, 34.988203456254695),
    ],
)
def test_rmse_phase_shift_closed_form(shift, expected):
    # RMS of cos(x+phi) - cos(x) is sqrt(2)*sin(phi/2); sampling over
    # whole periods reproduces the continuous value to rounding error.
    t, i_ref = _cosine(350.0, 0.0)
    _, i = _cosine(350.0, shift)
    assert tracking_rmse(t, i, i_ref, (0.0, 1.0)) == pytest.approx(
        expected, rel=1e-9
    )


def test_rmse_against_quadrature():
    from scipy.integrate import quad

    shift = 0.3
    t, i_ref = _cosine(1.0, 0.0)
    _, i = _cosine(1.0, shift)
    rms, _ = quad(
        lambda x: (math.cos(x + shift) - math.cos(x)) ** 2, 0.0, 2.0 * math.pi
    )
    expected = 100.0 * math.sqrt(rms / (2.0 * math.pi))
    assert tracking_rmse(t, i, i_ref, (0.0, 1.0)) == pytest.approx(
        expected, rel=1e-9
    )


def test_rmse_rejects_zero_reference():
    times = np.arange(4.0)
    with pytest.raises(MetricWindowError):
        tracking_rmse(times, np.ones(4), np.zeros(4), (0.0, 3.0))


# --------------------------------------------------------------- records


def _tiny_record():
    """An 8-step record of one converter whose phases b and c repeat
    phase a's series, so each peak, mean and ripple is phase a's."""
    steps = 8
    times = (np.arange(steps) + 1) * 1e-3
    i = np.where(np.arange(steps) % 2 == 0, 50.0, -50.0)[:, None].repeat(3, axis=1)
    i_z = np.where(np.arange(steps) % 2 == 0, 12.0, 8.0)[:, None].repeat(3, axis=1)
    v_c = np.full((steps, 3, 12), 10e3)
    u = np.zeros((steps, 3, 12), dtype=np.int8)
    u[4:, :, 0] = 1
    return RunRecord(
        times=times,
        labels=["a", "b", "c"],
        i=i.astype(float),
        i_ref=i.astype(float),
        i_z=i_z.astype(float),
        v_up=np.full((steps, 3), 30e3),
        v_low=np.full((steps, 3), 30e3),
        v_c=v_c,
        u=u,
        v_dc_link=np.full((steps, 3), 60e3),
        i_dc_link=np.zeros((steps, 3)),
        policy=np.zeros(steps, "<u4"),   # V1F2
    )


def test_phase_index_unknown_label():
    record = _tiny_record()
    assert phase_index(record, "a") == 0
    with pytest.raises(ContractError):
        phase_index(record, "d")


def test_switch_traces_from_history():
    record = _tiny_record()
    traces = switch_traces_from_history(record, "a")
    assert len(traces) == 12
    assert traces[0].events == [(5e-3, 1)]
    assert all(tr.events == [] for tr in traces[1:])


def test_summarize_uses_demeaned_circulating_current():
    record = _tiny_record()
    window = (float(record.times[0]), float(record.times[-1]))
    metrics = summarize(record, window, 10e3)
    # Raw series swings between 8 and 12; its window mean is exactly 10,
    # so the reported ratio sees only the +/-2 deviation.
    raw = circulating_ratio(record.times, record.i_z[:, 0], record.i[:, 0], window)
    assert raw == pytest.approx(12.0 / 50.0, rel=1e-12)
    assert metrics.i_z_max_ratio == pytest.approx(2.0 / 50.0, rel=1e-12)


def test_summarize_tiny_record_values():
    record = _tiny_record()
    window = (float(record.times[0]), float(record.times[-1]))
    metrics = summarize(record, window, 10e3)
    assert metrics.tracking_rmse_pct == 0.0
    assert metrics.ripple_mean_pct == 0.0
    # One transition per phase in a 7 ms window, averaged over its 12 SMs.
    expected_fs = 1.0 / (2.0 * 7e-3) / 12.0
    assert metrics.fs_mean == pytest.approx(expected_fs, rel=1e-12)
    assert set(metrics.fs_per_sm) == {"a", "b", "c"}
    assert metrics.fs_arm_mean["a"][1] == 0.0


def test_summarize_switching_counts_match_switch_traces():
    record = _tiny_record()
    # Sample times are k ms for k = 1..8; the window is (3 ms, 6 ms].
    record.u[2:, 0, 1] = 1          # first appears at 3 ms: outside
    record.u[3:, 0, 2] = 1          # 4 ms: inside
    record.u[5:, 0, 2] = 0          # 6 ms: inside, on the closed end
    record.u[6:, 0, 3] = 1          # 7 ms: outside
    record.u[[1, 3, 5], 0, 7] = 1   # 2, 3, 4, 5, 6, 7 ms: three inside
    window = (float(record.times[2]), float(record.times[5]))
    metrics = summarize(record, window, 10e3)
    expected = [
        effective_switching_frequency(trace, window)
        for trace in switch_traces_from_history(record, "a")
    ]
    assert metrics.fs_per_sm["a"].tobytes() == np.array(expected).tobytes()
    scale = 2.0 * (window[1] - window[0])
    counts = [round(fs * scale) for fs in expected]
    assert counts == [1, 0, 2, 0, 0, 0, 0, 3, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "dtype, status",
    [(np.int8, 2), (float, 2.0), (float, 0.5), (float, math.nan)],
    ids=["int8-2", "2", "0.5", "nan"],
)
def test_summarize_rejects_non_binary_statuses(dtype, status):
    record = _tiny_record()
    record.u = record.u.astype(dtype)
    record.u[3, 0, 5] = status
    with pytest.raises(ContractError):
        summarize(record, (float(record.times[0]), float(record.times[-1])), 10e3)


@pytest.mark.parametrize(
    "window, nominal, zeroed, error, match",
    [
        ((0.0, 0.01), 0.0, None, ContractError, "nominal voltage"),
        ((0.0, 0.01), math.nan, None, ContractError, "nominal voltage must be finite"),
        ((0.0, 0.01), math.inf, None, ContractError, "nominal voltage must be finite"),
        ((0.0, 0.01), -math.inf, None, ContractError, "nominal voltage must be finite"),
        ((0.01, 0.0), 10e3, None, MetricWindowError, "t1 > t0"),
        ((0.0, math.inf), 10e3, None, MetricWindowError, "window must be finite"),
        ((-0.02, 0.01), 10e3, None, MetricWindowError, "window must be finite with t1 > t0 >= 0"),
        ((0.0085, 0.009), 10e3, None, MetricWindowError, "no samples"),
        ((0.0, 0.01), 10e3, "i", MetricWindowError, "AC amplitude"),
        ((0.0, 0.01), 10e3, "i_ref", MetricWindowError, "reference amplitude"),
    ],
    ids=["nominal", "nominal-nan", "nominal-inf", "nominal-minus-inf",
         "inverted", "infinite", "before-zero", "empty-window", "zero-i", "zero-i_ref"],
)
def test_summarize_error_paths(window, nominal, zeroed, error, match):
    record = _tiny_record()
    if zeroed is not None:
        getattr(record, zeroed)[:, 0] = 0.0
    with pytest.raises(error, match=match):
        summarize(record, window, nominal)


@pytest.mark.parametrize(
    "series, metric",
    [("i_z", "i_z_max_ratio"), ("i", "tracking_rmse_pct")],
)
def test_summarize_reports_a_nan_sample_as_nan(series, metric):
    record = _tiny_record()
    getattr(record, series)[3, 0] = math.nan
    metrics = summarize(record, (0.0, 0.01), 10e3)
    assert math.isnan(getattr(metrics, metric))


@pytest.mark.parametrize("times", [(5e-3, 4e-3), (4e-3, math.nan)], ids=["swapped", "nan"])
def test_summarize_refuses_times_that_fall(times):
    record = _tiny_record()
    record.times[[3, 4]] = times
    with pytest.raises(ContractError, match="times must not fall"):
        summarize(record, (0.0, 0.01), 10e3)


@pytest.mark.parametrize("k, t", [(0, -math.inf), (-1, math.inf), (0, math.nan)])
def test_the_accumulator_refuses_times_that_are_not_finite(k, t):
    record = _tiny_record()
    record.times[k] = t
    with pytest.raises(ContractError, match="times must not fall and must be finite"):
        SummaryAccumulator(None, 10e3).add(record)


def test_a_chunk_that_starts_before_the_last_one_ended_is_refused():
    record = _tiny_record()
    summary = SummaryAccumulator(None, 10e3)
    summary.add(_chunk(record, 0, 5))
    with pytest.raises(ContractError, match="times must not fall"):
        summary.add(_chunk(record, 3, 8))


def _chunk(record, k0, k1):
    """Steps ``k0`` to ``k1`` of ``record``, as a record."""
    return RunRecord(**{
        f.name: getattr(record, f.name) if f.name == "labels" else getattr(record, f.name)[k0:k1]
        for f in fields(RunRecord)
    })


def _stock_record(n, mode):
    params, grid, link, _ = build_stock_system()
    params = replace(params, n=n)
    p_set = (13.18e6,) if mode == "ideal_dc" else (13.18e6, -13.18e6)
    scenario = Scenario(
        duration=0.02, events=[(0.008, SortPolicy.F1V2)], mode=mode, p_set=p_set
    )
    return simulate(scenario, params=params, grid=grid, dc_link=link), params


def _summary_bytes(metrics):
    flat = {key: np.float64(v).tobytes() for key, v in metrics.to_flat().items()}
    arrays = {
        (name, label): values.tobytes()
        for name in ("fs_per_sm", "ripple_pct")
        for label, values in getattr(metrics, name).items()
    }
    return flat, arrays


def _windows(record):
    # The whole run, an interior window whose ends fall between samples,
    # and one whose ends fall exactly on sample times.
    t = record.times
    return [
        (0.0, 0.02),
        (0.0051, 0.0163),
        (float(t[99]), float(t[-101])),
    ]


def _repeated_edges(record):
    """``record`` with steps 101 and 302 at the times of steps 100 and
    301, and windows that start or end on those repeated times."""
    t = record.times.copy()
    t[101], t[302] = t[100], t[301]
    windows = [(t[100], t[301]), (0.0, t[100]), (t[301], t[-1])]
    return replace(record, times=t), [(float(t0), float(t1)) for t0, t1 in windows]


@pytest.mark.parametrize("mode", ["ideal_dc", "back_to_back"])
@pytest.mark.parametrize("n", [1, 6, 48])
def test_summarize_matches_scalar_oracle(n, mode):
    record, params = _stock_record(n, mode)
    for window in _windows(record):
        got = summarize(record, window, params.v_sm_nominal)
        want = reference_summarize(record, window, params.v_sm_nominal)
        assert _summary_bytes(got) == _summary_bytes(want)
    # Times repeated at a window's edges: the record whole, cut between
    # the repeated steps, and cut around each of them.
    record, windows = _repeated_edges(record)
    for window in windows:
        want = reference_summarize(record, window, params.v_sm_nominal)
        for cuts in ([], [101, 302], [100, 101, 102, 301, 302, 303]):
            summary = SummaryAccumulator(window, params.v_sm_nominal)
            for k0, k1 in zip([0, *cuts], [*cuts, record.steps]):
                summary.add(_chunk(record, k0, k1))
            assert _summary_bytes(summary.result()) == _summary_bytes(want), cuts


def test_the_accumulator_runs_under_the_c_profiler():
    # The C profiler holds a reference to the array whose method it
    # sees called, so an in-place ``ndarray.resize`` of it would refuse.
    record, params = _stock_record(6, "ideal_dc")
    chunks = [_chunk(record, k0, k0 + 128) for k0 in range(0, 512, 128)]

    def summarize_chunks():
        summary = SummaryAccumulator(None, params.v_sm_nominal)
        for chunk in chunks:
            summary.add(chunk)
        return summary.result().to_flat()

    profile = cProfile.Profile()
    profile.enable()
    try:
        profiled = summarize_chunks()
    finally:
        profile.disable()
    assert profiled == summarize_chunks()


@functools.cache
def _cached_stock_record(n, mode):
    return _stock_record(n, mode)


@st.composite
def _window_and_cuts(draw, steps):
    """A window of a ``steps``-step record, or None, and the step indices
    at which to cut the record into chunks.  A drawn window has whole
    chunks before ``t0`` and after ``t1``, and a chunk across each edge;
    each edge is a sample time or falls between two."""
    cuts = draw(st.sets(st.integers(1, steps - 1), max_size=8))
    if draw(st.booleans()):
        return None, sorted(cuts)
    a = draw(st.integers(2, steps - 24))     # the first sample in the window
    b = draw(st.integers(a + 20, steps - 2))  # the last
    edges = (draw(st.integers(1, a - 1)), draw(st.integers(a + 1, b)),
             draw(st.integers(a + 1, b)), draw(st.integers(b + 1, steps - 1)))
    lo, hi = min(edges[1:3]), max(edges[1:3])
    # No cut inside the chunks across the edges.
    cuts = {c for c in cuts if not (edges[0] < c < lo or hi < c < edges[3])} | set(edges)
    return (a, draw(st.booleans()), b, draw(st.booleans())), sorted(cuts)


@pytest.mark.parametrize("mode", ["ideal_dc", "back_to_back"])
@pytest.mark.parametrize("n", [1, 6])
@given(data=st.data())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_summary_accumulator_matches_the_oracle_in_any_chunking(n, mode, data):
    record, params = _cached_stock_record(n, mode)
    t = record.times
    drawn, cuts = data.draw(_window_and_cuts(record.steps))
    if drawn is None:
        window, oracle_window = None, (0.0, float(t[-1]))
    else:
        a, a_between, b, b_between = drawn
        t0 = 0.5 * (t[a - 1] + t[a]) if a_between else t[a]
        t1 = 0.5 * (t[b] + t[b + 1]) if b_between else t[b]
        window = oracle_window = (float(t0), float(t1))
    summary = SummaryAccumulator(window, params.v_sm_nominal)
    for k0, k1 in zip([0, *cuts], [*cuts, record.steps]):
        summary.add(_chunk(record, k0, k1))
    want = reference_summarize(record, oracle_window, params.v_sm_nominal)
    assert _summary_bytes(summary.result()) == _summary_bytes(want)


@pytest.mark.parametrize(
    "n, mode, labels, match",
    [
        (6, "back_to_back", None,
         r"record has phases \['1a', .*, '2c'\], summary expects \['a', 'b', 'c'\]"),
        (8, "ideal_dc", None, "record has 8 SMs per arm, summary expects 6"),
        (6, "ideal_dc", ["x", "y", "z"],
         r"record has phases \['x', 'y', 'z'\], summary expects \['a', 'b', 'c'\]"),
    ],
    ids=["back-to-back-after-ideal-bus", "n8-after-n6", "other-labels"],
)
def test_a_chunk_that_does_not_continue_the_record_is_refused(n, mode, labels, match):
    first, params = _cached_stock_record(6, "ideal_dc")
    then, _ = _cached_stock_record(n, mode)
    if labels is not None:
        then = replace(then, labels=labels)
    summary = SummaryAccumulator(None, params.v_sm_nominal)
    summary.add(_chunk(first, 0, 5))
    with pytest.raises(ContractError, match=match):
        summary.add(_chunk(then, 5, 10))


@pytest.mark.parametrize(
    "labels", [["a"], ["b", "a", "c"], ["1a", "1b", "1c"]], ids=["one-phase", "reordered", "half"]
)
def test_a_record_whose_phases_are_not_a_run_s_is_refused(labels):
    record = _tiny_record()
    other = replace(record, labels=labels, **{
        f.name: getattr(record, f.name)[:, : len(labels)]
        for f in fields(RunRecord) if f.name not in ("times", "labels", "policy")
    })
    match = rf"record has phases \[{', '.join(map(repr, labels))}\], not those of a run"
    with pytest.raises(ContractError, match=match):
        summarize(other, None, 10e3)
    summary = SummaryAccumulator(None, 10e3)
    with pytest.raises(ContractError, match=match):
        summary.add(other)
    # Refused before anything was taken: a run's record still starts it.
    assert (summary.steps, summary.labels) == (0, [])
    summary.add(record)
    assert summary.result().to_flat() == summarize(record, None, 10e3).to_flat()


def test_summarize_matches_scalar_oracle_on_reloaded_csv(tmp_path):
    record, params = _stock_record(6, "back_to_back")
    path = tmp_path / "run.csv"
    with TimeSeriesSink(str(path), params, 3) as sink:
        sink.write_record(record)
    loaded = whole_file_load_record_csv(str(path))
    assert loaded.steps == record.steps // 3
    for window in _windows(loaded):
        got = summarize(loaded, window, params.v_sm_nominal)
        want = reference_summarize(loaded, window, params.v_sm_nominal)
        assert _summary_bytes(got) == _summary_bytes(want)


def test_summarize_flat_keys_are_floats():
    record = _tiny_record()
    window = (float(record.times[0]), float(record.times[-1]))
    flat = summarize(record, window, 10e3).to_flat()
    for key in (
        "window_start_s",
        "window_end_s",
        "fs_mean_hz",
        "ripple_mean_pct",
        "i_z_max_ratio",
        "tracking_rmse_pct",
        "fs_arm_mean_hz.a.upper",
        "fs_hz.a.sm1",
        "ripple_pct.a.sm12",
        "p_ac_w.mmc1",
        "p_dc_w.mmc1",
    ):
        assert key in flat
    assert all(isinstance(v, float) for v in flat.values())


def test_summarize_empty_record_rejected():
    record = _tiny_record()
    empty = RunRecord(
        times=record.times[:0],
        labels=record.labels,
        i=record.i[:0],
        i_ref=record.i_ref[:0],
        i_z=record.i_z[:0],
        v_up=record.v_up[:0],
        v_low=record.v_low[:0],
        v_c=record.v_c[:0],
        u=record.u[:0],
        v_dc_link=record.v_dc_link[:0],
        i_dc_link=record.i_dc_link[:0],
        policy=record.policy[:0],
    )
    with pytest.raises(MetricWindowError):
        summarize(empty, (0.0, 1.0), 10e3)
