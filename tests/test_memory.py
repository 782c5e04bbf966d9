"""Memory bounded by the chunk and the window, not the run.

``run``, ``compare`` and ``metrics`` keep four per-phase series of the
window's samples (4 floats per phase per step) and only a chunk of a
run's per-SM state (``v_c`` and ``u``, 2n of each per phase per step).
So from a 0.0125 s to a 0.05 s run of the n = 48 ideal-bus system, whose
window is the whole run, their peak traced memory may grow by the
per-phase series bytes of the extra steps, and a fixed slack, but not by
the per-SM state of them: 2.6 kB per step, 3.9 MB over the 1,500 extra
steps, nearly four times the slack.  The runs are short because tracing
every allocation slows the stepping about twentyfold.  The summary
accumulator alone is fed synthetic chunks, which is fast enough to
bound its growth per window step and to show that steps outside the
window add nothing.  The CSV writer formats a table of about
``_BLOCK_CELLS`` cells at once, and its temporaries are bounded per
cell of such a table.  ``simulate``, which returns a whole record,
refuses one over ``_RECORD_BUDGET`` bytes before it allocates it.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mmcsim.cli import main
from mmcsim.config import parse_config
from mmcsim import testbench
from mmcsim.csvio import _BLOCK_CELLS, TimeSeriesSink, _block_steps, _write_rows
from mmcsim.errors import ConfigError
from mmcsim.metrics import RunRecord, SummaryAccumulator, _step_dtype
from mmcsim.testbench import (
    _RECORD_BUDGET,
    Scenario,
    _kernel_bytes,
    _step_batch,
    _summarize_batch,
    build_stock_system,
    run_scenario,
    simulate,
)

CONFIG = """
[converter]
n_sm = 48

[scenario]
mode = ideal_dc
duration = {duration}
policy_schedule = [({event}, F1V2)]
"""
DURATIONS = (0.0125, 0.05)
# Bytes per window step and batch row of the per-phase series: 4 floats
# for each of the 3 phases.
SERIES_BYTES = 4 * 3 * 8
SLACK = 1 << 20


def _config(duration, event=0.0):
    return parse_config(CONFIG.format(duration=duration, event=event))


def _peak(call) -> int:
    """Peak traced bytes while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_bounded(peaks, rows=1):
    extra_steps = round((DURATIONS[1] - DURATIONS[0]) / _config(DURATIONS[0]).params.T_s)
    growth = peaks[1] - peaks[0]
    assert growth <= rows * SERIES_BYTES * extra_steps + SLACK, (peaks, extra_steps)


@pytest.fixture(scope="module")
def run_csvs(tmp_path_factory):
    """Peak traced bytes of ``run_scenario`` writing a CSV, and the CSV,
    for each duration."""
    out = tmp_path_factory.mktemp("memory")
    peaks, paths = [], []
    for duration in DURATIONS:
        config = _config(duration)
        path = str(out / f"run_{duration}.csv")

        def run():
            with TimeSeriesSink(path, config.params) as sink:
                run_scenario(config.scenario, sink, params=config.params, grid=config.grid)

        peaks.append(_peak(run))
        paths.append(path)
    return peaks, paths


def test_run_scenario_with_a_csv_sink_holds_a_chunk_of_per_sm_state(run_csvs):
    peaks, _ = run_csvs
    _assert_bounded(peaks)


def test_a_compare_batch_holds_a_chunk_of_per_sm_state():
    peaks = []
    for duration in DURATIONS:
        a, b = _config(duration, event=duration), _config(duration)

        def compare():
            _summarize_batch(
                [a.scenario, b.scenario], None, params=a.params, grid=a.grid
            )

        peaks.append(_peak(compare))
    _assert_bounded(peaks, rows=2)


def test_metrics_on_a_csv_holds_a_block_of_per_sm_state(run_csvs, tmp_path, monkeypatch, capsys):
    # From the sidecar the sink wrote beside each CSV.
    _, paths = run_csvs
    monkeypatch.setenv("MMCSIM_OUTPUT_DIR", str(tmp_path))
    codes = []
    peaks = [_peak(lambda: codes.append(main(["metrics", path]))) for path in paths]
    assert codes == [0, 0]
    capsys.readouterr()
    _assert_bounded(peaks)


CHUNK = 128


def _chunks(count):
    """``count`` consecutive 128-step chunks of a synthetic three-phase
    n = 1 record, one step per millisecond."""
    rng = np.random.default_rng(0)
    chunks = []
    for c in range(count):
        def series(*sms):
            return rng.standard_normal((CHUNK, 3, *sms))

        chunks.append(RunRecord(
            times=np.arange(c * CHUNK, (c + 1) * CHUNK) * 1e-3, labels=["a", "b", "c"],
            i=series(), i_ref=series(), i_z=series(), v_up=series(), v_low=series(),
            v_c=series(2), u=rng.integers(0, 2, (CHUNK, 3, 2), dtype=np.int8),
            v_dc_link=series(), i_dc_link=series(), policy=np.ones(CHUNK, "<u4"),   # F1V2
        ))
    return chunks


def _summary_peak(chunks, first, last):
    """Peak traced bytes of summarizing ``chunks`` over the window from
    step ``first`` to step ``last``."""
    times = np.concatenate([chunk.times for chunk in chunks])
    window = (float(times[first]), float(times[last]))

    def summarize():
        summary = SummaryAccumulator(window, 1.0)
        for chunk in chunks:
            summary.add(chunk)
        summary.result()

    return _peak(summarize)


def test_the_summary_grows_by_the_window_steps_alone():
    # 1,024 and 8,192 window steps; the third summary has 1,024 window
    # steps of 8,192, with 28 chunks before the window and 28 after it.
    # Per extra window step the kept pieces grow by SERIES_BYTES, and the
    # one product row that `result` joins at a time by a quarter of that.
    slack = 64 << 10
    chunks = _chunks(64)
    small = _summary_peak(chunks[:8], 0, 1023)
    large = _summary_peak(chunks, 0, 8191)
    assert large - small <= 5 * SERIES_BYTES * (8192 - 1024) // 4 + slack, (small, large)
    padded = _summary_peak(chunks, 28 * CHUNK, 36 * CHUNK - 1)
    assert padded - small <= slack, (small, padded)


# Bytes per cell of a full table that formatting it may hold at once
# (about 125 today).  Temporaries twice as large made the forked
# writer's heap shrink and grow again table by table, with 3 times the
# page faults at n = 48 and 2 times at n = 400.
FORMAT_BYTES_PER_CELL = 136


@pytest.mark.parametrize("n", [6, 48, 400])
def test_formatting_a_table_holds_bounded_temporaries(tmp_path, n):
    steps = _block_steps(3, 2 * n)
    rng = np.random.default_rng(n)
    table = np.zeros(steps, _step_dtype(n, 3))
    for name in ("i", "i_ref", "i_z", "v_up", "v_low", "v_dc_link", "i_dc_link"):
        table[name] = rng.normal(0.0, 1e3, table[name].shape)
    table["v_c"] = rng.normal(60e3 / n, 50.0, table["v_c"].shape)
    table["u"] = rng.integers(0, 2, table["u"].shape)
    table["times"] = 0.01 + 25e-6 * np.arange(steps)
    with open(tmp_path / "rows.csv", "wb") as f:
        def write():
            _write_rows(f, table, ["a", "b", "c"], 0)

        write()   # the formatter's tables are built on first use
        peak = _peak(write)
        assert f.tell() > 0
    assert peak <= FORMAT_BYTES_PER_CELL * _BLOCK_CELLS, peak


@pytest.mark.parametrize("n, mode", [(6, "back_to_back"), (48, "ideal_dc"), (400, "ideal_dc")])
def test_the_kernel_holds_the_tables_its_budget_counts(n, mode):
    # parse_config bounds n_sm by ``_kernel_bytes``; the kernel's peak is
    # those tables, plus its lists of row views and a step's temporaries,
    # under 0.5 MiB together.
    params, grid, link, _ = build_stock_system()
    params = dataclasses.replace(params, n=n)
    power = (13.18e6,) if mode == "ideal_dc" else (13.18e6, -13.18e6)
    scenario = Scenario(duration=0.005, mode=mode, p_set=power)
    peak = _peak(lambda: _step_batch([scenario], lambda row, record: None,
                                     params=params, grid=grid, dc_link=link))
    tables = _kernel_bytes(n, 1, scenario.n_converters, 200)
    assert tables <= peak < tables + (1 << 19)


# The whole record of a back-to-back run at n = 6: per step its time and
# its policy's index, and per phase the RunRecord arrays, 5 + 12 + 2 floats
# and 12 statuses.
B2B_STEP_BYTES = 8 + 4 + 6 * (19 * 8 + 12)


def _b2b(steps):
    """The stock back-to-back system and a scenario of ``steps`` steps."""
    params, grid, link, scenario = build_stock_system()
    return params, grid, link, Scenario(duration=steps * params.T_s, mode="back_to_back",
                                        p_set=scenario.p_set)


def test_simulate_refuses_a_record_over_its_budget_before_it_allocates():
    # The stock 3 s run's record, 119.5 MB, fits the budget of 1 GiB; one
    # step more than the budget holds is refused, with nothing large
    # allocated and not a step taken.
    assert _RECORD_BUDGET == 2**30
    assert B2B_STEP_BYTES == _step_dtype(6, 6).itemsize == 996
    assert 120_000 * B2B_STEP_BYTES == 119_520_000
    fits = _RECORD_BUDGET // B2B_STEP_BYTES
    params, grid, link, scenario = _b2b(fits + 1)
    refused = []

    def call():
        with pytest.raises(ConfigError) as exc:
            simulate(scenario, params=params, grid=grid, dc_link=link)
        refused.append(str(exc.value))

    assert _peak(call) < 1 << 20
    assert refused == [
        f"[scenario] duration = {scenario.duration!r} at [converter] n_sm = 6: the record"
        f" would hold {(fits + 1) * B2B_STEP_BYTES / 2**20:.1f} MiB, over its budget of"
        " 1024 MiB"
    ]


def test_the_record_budget_counts_the_bytes_of_the_record(monkeypatch):
    # At a budget of exactly a record's bytes, steps x rows x the bytes of
    # a step, the run is kept; a byte less refuses it.
    params, grid, link, scenario = _b2b(40)
    record = simulate(scenario, params=params, grid=grid, dc_link=link)
    step = _step_dtype(6, 6)
    nbytes = sum(getattr(record, name).nbytes for name in step.names)
    assert nbytes == 40 * 1 * step.itemsize
    monkeypatch.setattr(testbench, "_RECORD_BUDGET", nbytes)
    assert simulate(scenario, params=params, grid=grid, dc_link=link).steps == 40
    monkeypatch.setattr(testbench, "_RECORD_BUDGET", nbytes - 1)
    refused = r"^\[scenario\] duration = .* at \[converter\] n_sm = 6: the record would hold"
    with pytest.raises(ConfigError, match=refused):
        simulate(scenario, params=params, grid=grid, dc_link=link)
