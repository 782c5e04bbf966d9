"""Outside-in layer tracing of an ``mmcsim`` process.

``Tracer.install`` replaces functions with timing wrappers at the names
through which they are actually called: ``testbench`` binds
``control_step``, ``advance_phase``, ``summarize`` and ``simulate`` by
name, ``control_step`` looks up ``compute_targets``, ``sort_arm`` and
``select_submodules`` in ``controller``, and ``cli`` binds its own
imports.  Nothing in the package is edited.

Every call is a span.  Spans are folded into per-name totals as they
close, in memory: calls, total time, and the time covered by nested
wrapped calls, so self time is total minus children.  A name whose
function is missing or never called reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (module, attribute path, span name)
TARGETS = (
    ("mmcsim.testbench", "simulate", "testbench.simulate"),
    ("mmcsim.testbench", "control_step", "controller.control_step"),
    ("mmcsim.testbench", "advance_phase", "model.advance_phase"),
    ("mmcsim.testbench", "summarize", "metrics.summarize"),
    ("mmcsim.controller", "compute_targets", "controller.compute_targets"),
    ("mmcsim.controller", "sort_arm", "controller.sort_arm"),
    ("mmcsim.controller", "select_submodules", "controller.select_submodules"),
    ("mmcsim.cli", "parse_config", "config.parse_config"),
    ("mmcsim.cli", "run_scenario", "testbench.run_scenario"),
    ("mmcsim.cli", "summarize", "metrics.summarize"),
    ("mmcsim.cli", "load_record_csv", "csvio.load_record_csv"),
    ("mmcsim.csvio", "TimeSeriesSink.write_record", "csvio.write_record"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def record_bytes(record) -> int:
    """Bytes held by a RunRecord's arrays."""
    return sum(v.nbytes for v in vars(record).values() if isinstance(v, np.ndarray))


def switch_transitions(record) -> int:
    """Status changes between consecutive recorded samples, all SMs."""
    return int(np.count_nonzero(np.diff(record.u, axis=0)))


class Tracer:
    """Wraps the layer functions of a process and folds their spans."""

    def __init__(self):
        # span name -> [calls, total s, children s]
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        # Seconds inside outermost spans, i.e. not in the command's own code.
        self.top_level_s = 0.0
        self.record_bytes = 0
        self.switch_transitions = 0
        self._open: list[float] = []   # children seconds of each open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, inspect=None):
        clock = time.perf_counter
        open_spans = self._open
        agg = self.spans[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                agg[0] += 1
                agg[1] += duration
                agg[2] += children
                if open_spans:
                    open_spans[-1] += duration
                else:
                    self.top_level_s += duration
            if inspect is not None:
                inspect(result)
            return result

        return traced

    def _on_record(self, record, simulated):
        self.record_bytes = max(self.record_bytes, record_bytes(record))
        if simulated:
            self.switch_transitions += switch_transitions(record)

    def install(self) -> "Tracer":
        inspectors = {
            "testbench.simulate": lambda r: self._on_record(r, True),
            "csvio.load_record_csv": lambda r: self._on_record(r, False),
        }
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, inspectors.get(name)))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "children_s": ch}
                for name, (c, t, ch) in self.spans.items()
            },
            "top_level_s": self.top_level_s,
            "record_bytes": self.record_bytes,
            "switch_transitions": self.switch_transitions,
        }
