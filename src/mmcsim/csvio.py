"""Deterministic CSV persistence of run records and metrics reports.

One row per (time step, phase); floats are serialized with 17
significant digits so a reloaded file reproduces the in-memory doubles
bit for bit.  The column layout is fixed at sink creation:

    t,phase,i,i_ref,i_z,v_up,v_low,v_c_1..v_c_<2n>,u_1..u_<2n>,
    v_dc_link,i_dc_link,policy

Switch statuses ``u_*`` are 0 or 1: the writer refuses to write and the
loader refuses to load anything else.

The writer formats a float cell only when its bit pattern differs from
the cell it is compared with and otherwise repeats that cell's text.
A phase's series (``i`` to ``v_low``) and its ``v_c`` cells are compared
with the same phase one kept step earlier; the time and the link
voltage and current with the row before.  Only the inserted SMs of an
arm change their capacitor voltage in a sample, and a bypassed SM holds
its voltage bit for bit, so writing costs scale with what changed.
Bits are compared, not values, so ``0.0``, ``-0.0`` and NaN keep their
exact text and the bytes equal those of formatting every cell.

Formatting runs in a writer process that the sink forks at its first
rows: the caller checks each record it is given and pickles the kept
rows into a pipe, and the writer formats and appends them, so a run
that hands its record over block by block steps while its CSV is
written.  Where ``os.fork`` is missing the caller formats the rows
itself, with the same function.

The layout is defined once, as a structured row dtype that
``csv_columns`` derives from.  The loader parses the file into a table
of such rows in one ``numpy.loadtxt`` pass, whose C parser rounds like
``float()``, checks the table with array operations, takes the record's
arrays by field name, and reads the file line by line only to name the
line of a refused row.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pickle
import signal
from typing import NoReturn

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


def _row_dtype(n: int) -> np.dtype:
    """One CSV row, its fields in column order; an array field spans one
    column per SM.  The text fields are objects, so no label is cut short."""
    return np.dtype([
        ("t", np.float64), ("phase", object),
        *[(name, np.float64) for name in ("i", "i_ref", "i_z", "v_up", "v_low")],
        ("v_c", np.float64, (2 * n,)), ("u", np.int8, (2 * n,)),
        ("v_dc_link", np.float64), ("i_dc_link", np.float64), ("policy", object),
    ])


def csv_columns(n: int) -> list[str]:
    """Column names for a converter with n SMs per arm."""
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    dtype = _row_dtype(n)
    columns: list[str] = []
    for name in dtype.names:
        shape = dtype[name].shape
        columns += [f"{name}_{j}" for j in range(1, shape[0] + 1)] if shape else [name]
    return columns


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


def _write_rows(file, labels, times, phase_series, v_c, u, v_dc, i_dc, policy) -> None:
    """Append the text of kept steps to ``file``: ``times`` and
    ``policy`` per step, the others per step and phase, ``phase_series``
    being the ``i`` to ``v_low`` arrays in column order."""
    n_phases = len(labels)
    n2 = v_c.shape[-1]
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
        file.write("".join([
            _ROW_FMT % (t, label, phase, status, v, i, pol)
            for (t, v, i), label, phase, status, pol
            in zip(link_text, labels * (b1 - b0), phase_text, u_text, row_policy)
        ]))


# Bytes the pipe to a writer process is asked to hold: the unprivileged
# limit of Linux, about nine 128-step blocks of a back-to-back run.
_PIPE_BYTES = 1 << 20

# Write ends of the pipes to this process's live writer processes.  A
# writer forked later closes its copies, so that each writer sees the
# end of its rows when its own sink closes.
_writer_pipes: set[int] = set()


def _writer_main(file, rows_fd: int, error_fd: int, parent_fds: tuple[int, ...]) -> NoReturn:
    """Body of a writer process: append the rows read from ``rows_fd``
    to ``file`` until the pipe ends, then exit.  A failure is pickled to
    ``error_fd`` for the sink to raise.  It never returns into the
    caller's stack, so a fork under a test runner cannot run the rest of
    the tests twice.  Its copies of the parent's pipe ends are closed,
    so a parent that dies ends the rows."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent's close() ends it
        for fd in (*parent_fds, *_writer_pipes):
            os.close(fd)
        with file, os.fdopen(rows_fd, "rb") as rows:
            while True:
                try:
                    block = pickle.load(rows)
                except EOFError:
                    break
                _write_rows(file, *block)
        status = 0
    except BaseException as exc:   # whatever it is, the parent raises it
        with os.fdopen(error_fd, "wb") as errors:
            errors.write(pickle.dumps(exc))
    finally:
        os._exit(status)


class TimeSeriesSink:
    """CSV writer for run records with a schema fixed at creation.

    The rows are formatted in a writer process, forked at the first
    :meth:`write_record` after the header is written, so that a run
    steps on one core while its CSV is formatted on another.  Each call
    checks its rows in the caller, then pickles them into a pipe that
    the writer reads; :meth:`close` ends the pipe, waits for the writer
    and raises the exception it failed with, if any.  Where ``os.fork``
    is missing the same formatting runs in the caller.

    The writer does no BLAS call and no logging: a forked child holds
    only the forking thread, while numpy's BLAS keeps a thread pool, and
    Python 3.12 and later warn when a process with threads forks.
    """

    def __init__(self, path: str, n: int):
        self.path = path
        self.n = n
        self.columns = csv_columns(n)
        self._last_t = -np.inf
        self._pid: int | None = None     # the writer process, once forked
        self._pipe = None                # rows to it
        self._errors: int | None = None  # its failure, pickled
        try:
            self._file = open(path, "w", newline="", encoding="utf-8")
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
            raise ContractError(f"record has {record.n} SMs per arm, sink expects {self.n}")
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

        rows = (
            record.labels, times,
            [a[kept] for a in (record.i, record.i_ref, record.i_z, record.v_up, record.v_low)],
            record.v_c[kept], u, record.v_dc_link[kept], record.i_dc_link[kept],
            record.policy[kept],
        )
        if self._pid is None and hasattr(os, "fork"):
            self._fork_writer()
        if self._pid is None:
            _write_rows(self._file, *rows)
            return
        try:
            pickle.dump(rows, self._pipe, protocol=pickle.HIGHEST_PROTOCOL)
            self._pipe.flush()
        except BrokenPipeError:
            self.close()   # raises the writer's failure
            raise

    def _fork_writer(self) -> None:
        import fcntl   # POSIX, as os.fork is

        self._file.flush()
        rows_r, rows_w = os.pipe()
        errors_r, errors_w = os.pipe()
        # A pipe that holds several blocks (Linux) lets the caller step
        # on while the writer is a block or two behind.
        with contextlib.suppress(AttributeError, OSError):
            fcntl.fcntl(rows_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        try:
            pid = os.fork()
        except OSError:
            for fd in (rows_r, rows_w, errors_r, errors_w):
                os.close(fd)
            raise
        if pid == 0:
            _writer_main(self._file, rows_r, errors_w, (rows_w, errors_r))
        os.close(rows_r)
        os.close(errors_w)
        self._file.close()
        self._pid, self._errors = pid, errors_r
        self._pipe = os.fdopen(rows_w, "wb")
        _writer_pipes.add(rows_w)

    def close(self) -> None:
        """Finish the file; raise what the writer process failed with."""
        self._file.close()
        if self._pid is None:
            return
        pid, self._pid = self._pid, None
        _writer_pipes.discard(self._pipe.fileno())
        try:
            self._pipe.close()
        except BrokenPipeError:
            pass   # the writer has exited; its error tells why
        with os.fdopen(self._errors, "rb") as errors:
            failure = errors.read()
        _, status = os.waitpid(pid, 0)
        if failure:
            raise pickle.loads(failure)
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise OSError(f"the CSV writer of {self.path!r} exited with code {code}")

    def __enter__(self) -> "TimeSeriesSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except Exception:
            if exc_type is None:
                raise   # else the caller's exception goes on unchanged


def load_record_csv(path: str) -> RunRecord:
    """Reload a persisted run into a RunRecord (bit-exact floats).

    Raises ContractError, naming the 1-based line of the file, when a line
    is not UTF-8 text, a row has the wrong number of fields, breaks the
    phase order, holds a field that is not a number or a status other
    than 0 or 1, has a time or a policy other than the first row of its
    step, or starts a step earlier than the step before.
    """
    try:
        return _parse_record_csv(path)
    except UnicodeDecodeError:
        _name_undecodable_line(path)


def _parse_record_csv(path: str) -> RunRecord:
    with open(path, newline="", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
    n2 = sum(1 for c in header if c.startswith("v_c_"))
    if n2 == 0 or n2 % 2 or header != csv_columns(n2 // 2):
        raise ContractError(f"{path!r} does not match the run CSV schema")
    if next(_data_lines(path), None) is None:
        raise ContractError(f"{path!r} contains no data rows")
    dtype = _row_dtype(n2 // 2)
    try:
        table = np.loadtxt(
            path, dtype=dtype, delimiter=",", skiprows=1, comments=None, ndmin=1, encoding="utf-8"
        )
    except ValueError:
        _name_bad_line(path, dtype, len(header))

    phase = table["phase"]
    # The phase labels are those before the first repeated one.
    n_cols = next((r for r, label in enumerate(phase) if label in phase[:r]), phase.size)
    labels = phase[:n_cols].tolist()
    _refuse(path, phase != np.resize(phase[:n_cols], phase.size), "breaks the phase ordering")
    if phase.size % n_cols:
        _refuse(path, np.arange(phase.size) == phase.size - 1,
                f"ends the file inside a step of {n_cols} phases")
    step = table.reshape(-1, n_cols)
    policy = step["policy"]
    _refuse(path, policy != policy[:, :1], "has a policy other than its step's first row")
    u = table["u"]
    _refuse(path, ((u != 0) & (u != 1)).any(axis=1), "has a switch status other than 0 or 1")
    # Every row of a step repeats the step's time text, hence its bits.
    t_bits = step["t"].view(np.int64)
    _refuse(path, t_bits != t_bits[:, :1], "has a time other than its step's first row")
    times = step["t"][:, 0]
    _refuse(path, np.r_[False, times[1:] < times[:-1]].repeat(n_cols), "goes back in time")
    # The fields between the phase label and the policy are the
    # RunRecord arrays of the same names.
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
    """Raise ContractError naming the file line of the first data row
    flagged in ``bad``, a boolean array in row order, if any is."""
    rows = np.flatnonzero(bad)
    if rows.size:
        no, _ = next(itertools.islice(_data_lines(path), int(rows[0]), None))
        raise ContractError(f"{path!r}: line {no} {what}")


def _name_undecodable_line(path: str) -> NoReturn:
    """Raise ContractError naming the first line of ``path`` that is not
    UTF-8 text."""
    with open(path, "rb") as f:
        for no, line in enumerate(f, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ContractError(
                    f"{path!r}: line {no} is not UTF-8 text (byte {exc.start + 1}: {exc.reason})"
                ) from None
    raise ContractError(f"{path!r} is not UTF-8 text")


def _name_bad_line(path: str, dtype: np.dtype, n_fields: int) -> NoReturn:
    """Raise ContractError naming the first data line whose field count is
    wrong or that does not parse on its own."""
    for no, line in _data_lines(path):
        fields = line.count(",") + 1
        if fields != n_fields:
            raise ContractError(f"{path!r}: line {no} has {fields} fields, expected {n_fields}")
        try:
            np.loadtxt([line], dtype=dtype, delimiter=",", comments=None)
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
