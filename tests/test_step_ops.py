"""Counted operations per step of the run engine, by stage and mode.

The count is the number of the kernel's call, binary, comparison,
subscript and unary opcodes that one step runs, under ``sys.settrace``
with ``f_trace_opcodes``: the difference between a 512-step and a
256-step run, over 256.  It sees the number of numpy calls and Python
operations, not what each costs, so it guards against a change that adds
work to every step.  The ceilings are per Python version, because
opcodes differ between versions; on a version without ceilings the test
fails and prints the counts to set.
"""

import dis
import functools
import sys
from pathlib import Path

import pytest

from mmcsim import controller, testbench
from mmcsim.testbench import Scenario, _step_batch, build_stock_system

# The kernel's own frames: the engine and the ranking.
_FILES = {Path(testbench.__file__).resolve(), Path(controller.__file__).resolve()}
_STAGES = {"targets": "targets", "rank": "rank", "_rank": "rank", "select": "select",
           "plant": "plant", "link": "link"}
_COUNTED = ("CALL", "BINARY_", "COMPARE_OP", "STORE_SUBSCR", "STORE_SLICE", "UNARY_")

# Ceilings per step, by Python version, mode and stage ("chunk" is the
# per-chunk work of the loop, the scan and the records, spread over the
# steps).
CEILINGS = {
    (3, 11): {
        "ideal_dc": {"targets": 18, "rank": 17, "select": 21, "plant": 44,
                     "link": 0, "chunk": 19.14},
        "back_to_back": {"targets": 18, "rank": 17, "select": 21, "plant": 44,
                         "link": 36, "chunk": 19.11},
    },
}


@functools.cache
def _counted_ops(code) -> frozenset[int]:
    """Offsets of the counted opcodes of ``code``."""
    return frozenset(
        ins.offset for ins in dis.get_instructions(code) if ins.opname.startswith(_COUNTED)
    )


def _count(mode: str, steps: int) -> dict[str, int]:
    params, grid, link, _ = build_stock_system()
    power = (13.18e6,) if mode == "ideal_dc" else (13.18e6, -13.18e6)
    scenario = Scenario(duration=steps * params.T_s, mode=mode, p_set=power)
    counts = dict.fromkeys([*dict.fromkeys(_STAGES.values()), "chunk"], 0)

    def trace(frame, event, arg):
        code = frame.f_code
        if Path(code.co_filename).resolve() not in _FILES:
            return None
        stage = _STAGES.get(code.co_name, "chunk")
        ops = _counted_ops(code)
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            if event == "opcode" and frame.f_lasti in ops:
                counts[stage] += 1
            return local

        return local

    sys.settrace(trace)
    try:
        _step_batch([scenario], lambda row, record: None, params=params, grid=grid, dc_link=link)
    finally:
        sys.settrace(None)
    return counts


@pytest.mark.parametrize("mode", ["ideal_dc", "back_to_back"])
def test_counted_operations_per_step_stay_under_their_ceilings(mode):
    long, short = _count(mode, 512), _count(mode, 256)
    per_step = {stage: (long[stage] - short[stage]) / 256 for stage in long}
    ceilings = CEILINGS.get(sys.version_info[:2], {}).get(mode)
    assert ceilings is not None, f"no ceilings for Python {sys.version_info[:2]}: {per_step}"
    over = {stage: (per_step[stage], ceilings[stage])
            for stage in per_step if per_step[stage] > ceilings[stage]}
    assert not over, f"{mode}: (count, ceiling) by stage: {over}; all counts: {per_step}"
