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
cell of such a table.
"""

import logging
import shutil
import tracemalloc

import numpy as np
import pytest

from mmcsim.cli import main
from mmcsim.config import parse_config
from mmcsim.csvio import _BLOCK_CELLS, TimeSeriesSink, _block_steps, _step_dtype, _write_rows
from mmcsim.metrics import RunRecord, SummaryAccumulator
from mmcsim.testbench import _summarize_batch, run_scenario

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
            with TimeSeriesSink(path, config.params.n) as sink:
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


def test_metrics_on_a_csv_holds_a_block_of_per_sm_state(
    run_csvs, tmp_path, monkeypatch, capsys, caplog
):
    # From the sidecar the sink wrote beside each CSV, then from the text
    # of a copy of the CSV that has none.
    _, paths = run_csvs
    monkeypatch.setenv("MMCSIM_OUTPUT_DIR", str(tmp_path))
    caplog.set_level(logging.INFO, logger="mmcsim.cli")
    copies = [shutil.copy(path, tmp_path) for path in paths]
    for source, csvs in (("reading the sidecar of", paths), ("parsing", copies)):
        caplog.clear()
        peaks = [_peak(lambda: main(["metrics", path])) for path in csvs]
        assert caplog.messages == [f"metrics: {source} {path}" for path in csvs]
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
            v_dc_link=series(), i_dc_link=series(), policy=["F1V2"] * CHUNK,
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
