"""Deterministic CSV persistence of run records and metrics reports.

One row per (time step, phase); floats are serialized with 17
significant digits so a reloaded file reproduces the in-memory doubles
bit for bit.  The column layout is fixed at sink creation:

    t,phase,i,i_ref,i_z,v_up,v_low,v_c_1..v_c_<2n>,u_1..u_<2n>,
    v_dc_link,i_dc_link,policy

Switch statuses ``u_*`` are 0 or 1: the writer refuses to write and the
loader refuses to load anything else.

Only the inserted SMs of an arm change their capacitor voltage in a
sample; a bypassed SM holds its voltage bit for bit.  The writer
therefore formats a ``v_c`` cell only when its bit pattern differs from
the same cell of the previous row written for that phase and otherwise
repeats that row's text, so writing costs scale with the SMs that
changed.  Bits are compared, not values, so ``0.0``, ``-0.0`` and NaN
keep their exact text and the bytes equal those of formatting every
cell.  The loader parses every numeric column in one ``numpy.loadtxt``
call, whose C parser rounds exactly like ``float()``.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError, ContractError
from .metrics import RunRecord, SummaryMetrics

__all__ = [
    "csv_columns",
    "TimeSeriesSink",
    "load_record_csv",
    "format_metrics_text",
    "write_metrics_report",
]

_FLOAT_FMT = "%.17g"


def csv_columns(n: int) -> list[str]:
    """Column names for a converter with n SMs per arm."""
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    return (
        ["t", "phase", "i", "i_ref", "i_z", "v_up", "v_low"]
        + [f"v_c_{j}" for j in range(1, 2 * n + 1)]
        + [f"u_{j}" for j in range(1, 2 * n + 1)]
        + ["v_dc_link", "i_dc_link", "policy"]
    )


# Kept steps are formatted and written in blocks of about this many
# cells, which bounds the text held in memory at once.
_BLOCK_CELLS = 1 << 12
_ROW_FMT = "%s,%s,%s,%s,%s,%s,%s\n"


def _format_changed(values: np.ndarray) -> np.ndarray:
    """``%.17g`` text of each cell of a 2-D float64 array.

    A cell is formatted only where its bit pattern differs from the cell
    above it; elsewhere it takes the text of the cell above.
    """
    bits = values.view(np.int64)
    changed = np.empty(values.shape, dtype=bool)
    changed[0] = True
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    text = np.empty(values.size, dtype=object)
    text[changed.ravel()] = [_FLOAT_FMT % x for x in values[changed].tolist()]
    source = np.where(changed, np.arange(values.size).reshape(values.shape), 0)
    np.maximum.accumulate(source, axis=0, out=source)
    return text[source]


class TimeSeriesSink:
    """CSV writer for run records with a schema fixed at creation."""

    def __init__(self, path: str, n: int):
        self.path = path
        self.n = n
        self.columns = csv_columns(n)
        self._last_t = -np.inf
        try:
            self._file = open(path, "w", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot open {path!r} for writing: {exc}") from exc
        self._file.write(",".join(self.columns) + "\n")

    def write_record(self, record: RunRecord, decimation: int = 1) -> None:
        """Append a record's rows, keeping every ``decimation``-th step.

        Raises ContractError, before writing anything, when the kept rows
        would go backwards in time or hold a status other than 0 or 1.
        """
        if decimation < 1:
            raise ConfigError(f"decimation must be >= 1, got {decimation}")
        if record.n != self.n:
            raise ContractError(
                f"record has {record.n} SMs per arm, sink expects {self.n}"
            )
        kept = slice(decimation - 1, None, decimation)
        times = record.times[kept]
        if times.size == 0:
            return
        if times[0] < self._last_t or (times[1:] < times[:-1]).any():
            raise ContractError("record rows would go backwards in time")
        u = record.u[kept]
        if np.count_nonzero(u == 0) + np.count_nonzero(u == 1) != u.size:
            raise ContractError("switch statuses must be 0 or 1")
        self._last_t = times[-1]

        labels = record.labels
        n_phases = len(labels)
        n2 = 2 * self.n
        phase_series = [
            a[kept] for a in (record.i, record.i_ref, record.i_z, record.v_up, record.v_low)
        ]
        v_c = record.v_c[kept]
        v_dc = record.v_dc_link[kept]
        i_dc = record.i_dc_link[kept]
        policy = record.policy[kept]
        u_width = 2 * n2 - 1
        block = max(1, _BLOCK_CELLS // (n_phases * (n2 + 8)))
        for b0 in range(0, times.size, block):
            b1 = min(b0 + block, times.size)
            # A phase's series and capacitor voltages are compared with
            # the same phase one kept step earlier, the columns shared
            # by phases (time, link voltage and current) with the row
            # before.  The first row of a block is formatted in full.
            values = np.empty((b1 - b0, n_phases, 5 + n2))
            for j, series in enumerate(phase_series):
                values[:, :, j] = series[b0:b1]
            values[:, :, 5:] = v_c[b0:b1]
            phase_cells = _format_changed(values.reshape(b1 - b0, -1)).reshape(-1, 5 + n2)
            phase_text = [",".join(row) for row in phase_cells.tolist()]
            link = np.empty((b1 - b0, n_phases, 3))
            link[:, :, 0] = times[b0:b1, None]
            link[:, :, 1] = v_dc[b0:b1]
            link[:, :, 2] = i_dc[b0:b1]
            link_text = _format_changed(link.reshape(-1, 3)).tolist()
            # Status text: digits interleaved with commas, one byte each.
            table = np.full((len(phase_text), u_width), ord(","), dtype=np.uint8)
            np.add(u[b0:b1].reshape(-1, n2), ord("0"), out=table[:, ::2], casting="unsafe")
            u_text = table.view(f"S{u_width}").astype(f"U{u_width}").ravel().tolist()
            row_policy = [p for p in policy[b0:b1] for _ in labels]
            self._file.write("".join([
                _ROW_FMT % (t, label, phase, status, v, i, pol)
                for (t, v, i), label, phase, status, pol
                in zip(link_text, labels * (b1 - b0), phase_text, u_text, row_policy)
            ]))

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "TimeSeriesSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_record_csv(path: str) -> RunRecord:
    """Reload a persisted run into a RunRecord (bit-exact floats).

    Raises ContractError, naming the 1-based line of the file, when a row
    has the wrong number of fields, breaks the phase order, holds a field
    that is not a number or a status other than 0 or 1.
    """
    with open(path, newline="") as f:
        header = f.readline().rstrip("\n").split(",")
        n2 = sum(1 for c in header if c.startswith("v_c_"))
        if n2 == 0 or n2 % 2 or header != csv_columns(n2 // 2):
            raise ContractError(f"{path!r} does not match the run CSV schema")
        lines = f.readlines()
    line_no = [no for no, line in enumerate(lines, start=2) if not line.isspace()]
    rows = [lines[no - 2] for no in line_no]
    del lines
    if not rows:
        raise ContractError(f"{path!r} contains no data rows")

    commas = len(header) - 1
    for no, row in zip(line_no, rows):
        if row.count(",") != commas:
            raise ContractError(
                f"{path!r}: line {no} has {row.count(',') + 1} fields,"
                f" expected {len(header)}"
            )
    row_labels = [row.split(",", 2)[1] for row in rows]
    labels: list[str] = []
    for label in row_labels:
        if label in labels:
            break
        labels.append(label)
    n_cols = len(labels)
    for r, label in enumerate(row_labels):
        if label != labels[r % n_cols]:
            raise ContractError(f"{path!r}: line {line_no[r]} breaks the phase ordering")
    if len(rows) % n_cols:
        raise ContractError(
            f"{path!r}: line {line_no[-1]} ends the file inside a step of"
            f" {n_cols} phases"
        )
    steps = len(rows) // n_cols
    policy = [rows[r].rpartition(",")[2].rstrip("\n") for r in range(0, len(rows), n_cols)]

    data = _parse_numeric(path, rows, line_no, n2)
    del rows  # free the text before the arrays are copied out
    bad = np.flatnonzero(((data["u"] != 0) & (data["u"] != 1)).any(axis=1))
    if bad.size:
        raise ContractError(
            f"{path!r}: line {line_no[bad[0]]} has a switch status other than 0 or 1"
        )
    head = data["head"].reshape(steps, n_cols, -1)
    tail = data["tail"].reshape(steps, n_cols, 2)
    return RunRecord(
        times=head[:, 0, 0].copy(),
        labels=labels,
        i=head[:, :, 1].copy(),
        i_ref=head[:, :, 2].copy(),
        i_z=head[:, :, 3].copy(),
        v_up=head[:, :, 4].copy(),
        v_low=head[:, :, 5].copy(),
        v_c=head[:, :, 6:].copy(),
        u=data["u"].reshape(steps, n_cols, n2).copy(),
        v_dc_link=tail[:, :, 0].copy(),
        i_dc_link=tail[:, :, 1].copy(),
        policy=policy,
    )


def _parse_numeric(path: str, rows: list[str], line_no: list[int], n2: int) -> np.ndarray:
    """Every numeric field of ``rows``: time, the five phase series and
    v_c (``head``), statuses (``u``), link voltage and current (``tail``)."""
    dtype = np.dtype([
        ("head", np.float64, (6 + n2,)),
        ("u", np.int8, (n2,)),
        ("tail", np.float64, (2,)),
    ])
    usecols = [0, *range(2, 9 + 2 * n2)]
    options = dict(dtype=dtype, delimiter=",", usecols=usecols, comments=None, ndmin=1)
    try:
        return np.loadtxt(rows, **options)
    except ValueError:
        pass
    # Parse line by line to name the first line that does not parse.
    for no, row in zip(line_no, rows):
        try:
            np.loadtxt([row], **options)
        except ValueError as exc:
            raise ContractError(
                f"{path!r}: line {no} has a field that does not parse ({exc})"
            ) from None
    raise ContractError(f"{path!r}: numeric fields do not parse")


def format_metrics_text(metrics: SummaryMetrics) -> str:
    """Flat ``key = value`` report, one metric per line, sorted by key."""
    flat = metrics.to_flat()
    return "".join(
        f"{key} = {_FLOAT_FMT % value}\n" for key, value in sorted(flat.items())
    )


def write_metrics_report(
    metrics: SummaryMetrics, text_path: str, json_path: str
) -> None:
    """Persist a metrics summary as flat text plus machine-readable JSON."""
    text = format_metrics_text(metrics)
    with open(text_path, "w") as f:
        f.write(text)
    with open(json_path, "w") as f:
        json.dump(metrics.to_flat(), f, sort_keys=True, indent=2)
        f.write("\n")
