"""Memory bounded by the chunk, not the run.

``run``, ``compare`` and ``metrics`` keep the per-phase series of a run
whole (7 floats per phase per step, the times counted as one) and only a
chunk of its per-SM state (``v_c`` and ``u``, 2n of each per phase per
step).  So from a 0.0125 s to a 0.05 s run of the n = 48 ideal-bus
system their peak traced memory may grow by the per-phase series bytes
of the extra steps, and a fixed slack, but not by the per-SM state of
them: 2.6 kB per step, 3.9 MB over the 1,500 extra steps, nearly four
times the slack.  The runs are short because tracing every allocation
slows the stepping about twentyfold.
"""

import logging
import shutil
import tracemalloc

import pytest

from mmcsim.cli import main
from mmcsim.config import parse_config
from mmcsim.csvio import TimeSeriesSink
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
# Bytes per step and batch row of the per-phase series: 7 floats for
# each of the 3 phases.
SERIES_BYTES = 7 * 3 * 8
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
