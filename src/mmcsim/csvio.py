"""Deterministic CSV persistence of run records and metrics reports.

One row per (time step, phase); floats are serialized with 17
significant digits so a reloaded file reproduces the in-memory doubles
bit for bit.  The column layout is fixed at sink creation:

    t,phase,i,i_ref,i_z,v_up,v_low,v_c_1..v_c_<2n>,u_1..u_<2n>,
    v_dc_link,i_dc_link,policy

Switch statuses ``u_*`` are 0 or 1: the writer refuses to write and the
loader refuses to load anything else.  The sink keeps every k-th step
(its decimation), counting steps across its calls, so a run handed over
in chunks writes the bytes of one call with the whole record.

The writer formats a float cell only when its bit pattern differs from
the cell it is compared with and otherwise repeats that cell's text.
A phase's series (``i`` to ``v_low``) and its ``v_c`` cells are compared
with the same phase one kept step earlier; the time and the link
voltage and current with the row before.  Only the inserted SMs of an
arm change their capacitor voltage in a sample, and a bypassed SM holds
its voltage bit for bit, so writing costs scale with what changed.
Bits are compared, not values, so ``0.0``, ``-0.0`` and NaN keep their
exact text and the bytes equal those of formatting every cell.

A run hands the sink its record chunk by chunk, each a
:class:`RunRecord`, and the sink hands the kept rows of each, checked
in the caller, to a writer process that only formats them (see
:class:`TimeSeriesSink`), so a run steps while its CSV is written.  The
caller writes their steps to a sidecar, the CSV's path plus ``.rec``:
fixed-layout records (``_step_dtype``), then, once the sink closes
unless a write failed, JSON metadata (the byte size and CRC-32 of the
CSV as written, ``n``, the labels, the policy names) and a footer.
``mmcsim metrics`` reads it (:func:`_sidecar_blocks`) when it names the
CSV's size and CRC-32.

The layout is defined once, as a structured row dtype that
``csv_columns`` derives from.  The loader reads the file in blocks of
whole steps, each a table of such rows parsed by one ``numpy.loadtxt``
call on the open file, whose C parser rounds like ``float()``.  It
checks each block with array operations as it comes, takes the
record's arrays by field name, and reads the file again line by line
only to name the line of a refused row.  ``mmcsim metrics`` summarizes
the blocks as they are read (:func:`read_record_blocks`), so its memory
holds one block of per-SM state; :func:`load_record_csv` joins them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pickle
import signal
import warnings
import zlib
from collections.abc import Iterator
from typing import NoReturn

import numpy as np

from .errors import ConfigError, ContractError
from .metrics import RunRecord, SummaryMetrics, _binary_statuses, _row_dtype

__all__ = [
    "csv_columns",
    "TimeSeriesSink",
    "load_record_csv",
    "read_record_blocks",
    "format_metrics_text",
    "write_metrics_report",
]

_FLOAT_FMT = "%.17g"

# The RunRecord arrays, by name.
_ARRAYS = ("times", *_row_dtype(1).names[2:-1])


# A sidecar ends: JSON metadata, their length, the CRC-32 of all before, _MAGIC.
_SIDECAR, _MAGIC = ".rec", b"mmcsim-rec-1"
_FOOTER = 8 + 4 + len(_MAGIC)
# Bytes read at once for a CRC-32: 1 MiB reads cost 2 MiB of peak RSS.
_IO_BYTES = 1 << 16


def _step_dtype(n: int, n_phases: int) -> np.dtype:
    """One kept step of a sidecar: the RunRecord arrays, then its policy's index."""
    row = _row_dtype(n)
    arrays = [(name, row[name].base, (n_phases, *row[name].shape)) for name in _ARRAYS[1:]]
    return np.dtype([("times", "f8"), *arrays, ("policy", "u4")]).newbyteorder("<")


def _crc32(f, size: int) -> int:
    """CRC-32 of the next ``size`` bytes of ``f`` (fewer where it ends)."""
    crc = 0
    for k in range(0, size, _IO_BYTES):
        crc = zlib.crc32(f.read(min(_IO_BYTES, size - k)), crc)
    return crc


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


def _block_steps(n_phases: int, n2: int) -> int:
    """Kept steps formatted at once, for ``n2`` SMs per phase."""
    return max(1, _BLOCK_CELLS // (n_phases * (n2 + 8)))


def _write_rows(file, record: RunRecord, crc: int) -> int:
    """Append the text of ``record``'s steps to ``file``; return ``crc`` continued over it."""
    labels = record.labels
    n_phases = len(labels)
    n2 = 2 * record.n
    u_width = 2 * n2 - 1
    block = _block_steps(n_phases, n2)
    for b0 in range(0, record.steps, block):
        b1 = min(b0 + block, record.steps)
        # A phase's series and capacitor voltages are compared with
        # the same phase one kept step earlier, the columns shared
        # by phases (time, link voltage and current) with the row
        # before.  The first row of a block is formatted in full.
        values = np.empty((b1 - b0, n_phases, 5 + n2))
        for j, name in enumerate(("i", "i_ref", "i_z", "v_up", "v_low")):
            values[:, :, j] = getattr(record, name)[b0:b1]
        values[:, :, 5:] = record.v_c[b0:b1]
        phase_cells = _format_changed(values.reshape(b1 - b0, -1)).reshape(-1, 5 + n2)
        phase_text = [",".join(row) for row in phase_cells.tolist()]
        link = np.empty((b1 - b0, n_phases, 3))
        link[:, :, 0] = record.times[b0:b1, None]
        link[:, :, 1] = record.v_dc_link[b0:b1]
        link[:, :, 2] = record.i_dc_link[b0:b1]
        link_text = _format_changed(link.reshape(-1, 3)).tolist()
        # Status text: digits interleaved with commas, one byte each.
        table = np.full((len(phase_text), u_width), ord(","), dtype=np.uint8)
        np.add(record.u[b0:b1].reshape(-1, n2), ord("0"), out=table[:, ::2], casting="unsafe")
        u_text = table.view(f"S{u_width}").astype(f"U{u_width}").ravel().tolist()
        row_policy = [p for p in record.policy[b0:b1] for _ in labels]
        text = "".join([
            _ROW_FMT % (t, label, phase, status, v, i, pol)
            for (t, v, i), label, phase, status, pol
            in zip(link_text, labels * (b1 - b0), phase_text, u_text, row_policy)
        ]).encode()
        file.write(text)
        crc = zlib.crc32(text, crc)
    return crc


# Bytes the pipe to a writer process is asked to hold: the unprivileged
# limit of Linux, about nine 128-step blocks of a back-to-back run.
_PIPE_BYTES = 1 << 20


def _writer_main(file, crc: int, rows_fd: int, result_fd: int,
                 parent_fds: tuple[int, ...]) -> NoReturn:
    """Body of a writer process: format the records read from ``rows_fd``
    into the CSV ``file``, whose bytes so far have the CRC-32 ``crc``,
    until a ``None`` comes; then pickle the CSV's byte size and CRC-32,
    or the exception that ended the rows, to ``result_fd`` for the sink.
    It exits even when that pipe is broken, and never returns into the
    caller's stack, so a fork under a test runner cannot run the rest of
    the tests twice.  Its copies of the caller's pipe ends are closed,
    so a caller that dies ends the rows, without the ``None``."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # the caller's close() ends it
        for fd in parent_fds:
            os.close(fd)
        try:
            with file, os.fdopen(rows_fd, "rb") as rows:
                while (record := pickle.load(rows)) is not None:   # None ends the rows
                    crc = _write_rows(file, record, crc)
                size = file.tell()
            result, status = (size, crc), 0
        except BaseException as exc:   # whatever it is, the caller raises it
            result = exc
        with os.fdopen(result_fd, "wb") as out:
            out.write(pickle.dumps(result))
    finally:
        os._exit(status)


class TimeSeriesSink:
    """CSV writer for run records with a schema fixed at creation.

    The rows are formatted in a writer process, so that a run steps on
    one core while its CSV is formatted on another.  Each call checks
    its kept rows in the caller, as a :class:`RunRecord` of their own,
    pickles that record into a pipe that the writer reads, then appends
    its steps to the sidecar; :meth:`close` ends the pipe, waits for the
    writer and raises the exception it failed with, if any.  Formatting
    one block (``_block_steps``) in the caller costs less than forking,
    so a first call whose kept steps fit one block is formatted in the
    caller at once, and only a later call, or a larger first one, forks
    the writer: a short run forks nothing.  Where ``os.fork`` is missing
    every call is formatted in the caller, with the same function.  The
    sidecar's metadata is written by :meth:`close` alone, once every
    call has returned and the writer, if any, has reported the CSV's
    size and CRC-32.

    The writer does no BLAS call and no logging: a forked child holds
    only the forking thread, while numpy's BLAS keeps a thread pool, and
    Python 3.12 and later warn when a process with threads forks.
    """

    def __init__(self, path: str, n: int, decimation: int = 1):
        if decimation < 1:
            raise ConfigError(f"decimation must be >= 1, got {decimation}")
        self.path = path
        self.n = n
        self.decimation = decimation
        self.columns = csv_columns(n)
        self._steps = 0                  # steps given so far, kept or not
        self._last_t = -np.inf           # of the last kept step; -inf before one
        self._pid: int | None = None     # the writer process, once forked
        self._pipe = None                # rows to it
        self._result: int | None = None  # its CSV size and CRC-32, or failure, pickled
        self._labels: list[str] | None = None   # of the first kept step
        self._policies: dict[str, int] = {}     # policy names, by sidecar index
        self._rec_crc = 0                       # of the sidecar so far
        self._broken = False                    # a write in the caller failed
        self._rec = None
        try:
            self._rec = open(path + _SIDECAR, "wb")   # first: a refused sink keeps the CSV
            self._file = open(path, "wb")
        except OSError as exc:
            if self._rec:
                self._rec.close()
            raise ConfigError(f"cannot open {path!r} for writing: {exc}") from exc
        header = (",".join(self.columns) + "\n").encode()
        self._file.write(header)
        self._csv_crc = zlib.crc32(header)      # of the CSV so far, until a writer takes it

    def write_record(self, record: RunRecord) -> None:
        """Append the rows of the steps the sink keeps: step k of all
        those given, counted across calls, when (k + 1) % decimation == 0.

        Raises ContractError, before writing anything, when the kept rows
        would go backwards in time, hold a status other than 0 or 1, or
        name other phases than the rows before them.
        """
        if record.n != self.n:
            raise ContractError(f"record has {record.n} SMs per arm, sink expects {self.n}")
        if self._labels not in (None, record.labels):
            raise ContractError(f"record has phases {record.labels}, sink expects {self._labels}")
        kept = slice((-self._steps - 1) % self.decimation, None, self.decimation)
        rows = RunRecord(labels=record.labels, policy=record.policy[kept],
                         **{name: getattr(record, name)[kept] for name in _ARRAYS})
        times, u = rows.times, rows.u
        if times.size and (times[0] < self._last_t or (times[1:] < times[:-1]).any()):
            raise ContractError("record rows would go backwards in time")
        if not _binary_statuses(u).all():
            raise ContractError("switch statuses must be 0 or 1")
        self._steps += record.steps
        if times.size == 0:
            return
        first, self._last_t = self._last_t == -np.inf, times[-1]
        self._labels = rows.labels
        self._broken = True   # until the rows are in both files
        if not hasattr(os, "fork") or (
            first and times.size <= _block_steps(len(rows.labels), 2 * self.n)
        ):
            self._csv_crc = _write_rows(self._file, rows, self._csv_crc)
        else:
            if self._pid is None:
                self._fork_writer()
            try:
                pickle.dump(rows, self._pipe, protocol=pickle.HIGHEST_PROTOCOL)
                self._pipe.flush()
            except BrokenPipeError:
                self.close()   # raises the writer's failure
                raise
        table = np.empty(rows.steps, _step_dtype(self.n, len(rows.labels)))
        for name in _ARRAYS:
            table[name] = getattr(rows, name)
        table["policy"] = [self._policies.setdefault(p, len(self._policies)) for p in rows.policy]
        self._rec_crc = zlib.crc32(table, self._rec_crc)
        self._rec.write(table)
        self._broken = False

    def _fork_writer(self) -> None:
        import fcntl   # POSIX, as os.fork is

        self._file.flush()
        self._rec.flush()   # so that the writer's copy of it holds no buffered record
        rows_r, rows_w = os.pipe()
        result_r, result_w = os.pipe()
        # A pipe that holds several blocks (Linux) lets the caller step
        # on while the writer is a block or two behind.
        with contextlib.suppress(AttributeError, OSError):
            fcntl.fcntl(rows_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        try:
            pid = os.fork()
        except OSError:
            for fd in (rows_r, rows_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            _writer_main(self._file, self._csv_crc, rows_r, result_w, (rows_w, result_r))
        os.close(rows_r)
        os.close(result_w)
        self._file.close()
        self._pid, self._result = pid, result_r
        self._pipe = os.fdopen(rows_w, "wb")

    def close(self) -> None:
        """Finish the CSV and, unless a write failed, end the sidecar with
        its metadata; raise what the writer process failed with."""
        if self._rec.closed:
            return
        with self._rec:
            if self._pid is None:
                with self._file:
                    csv = (self._file.tell(), self._csv_crc)
            else:
                csv = self._reap()
            if not self._broken:
                meta = {"csv": csv,   # byte size, CRC-32
                        "n": self.n, "labels": self._labels, "policies": list(self._policies)}
                tail = json.dumps(meta, sort_keys=True).encode()
                tail += len(tail).to_bytes(8, "little")
                tail += zlib.crc32(tail, self._rec_crc).to_bytes(4, "little")
                self._rec.write(tail + _MAGIC)

    def _reap(self) -> tuple[int, int]:
        """End the writer's rows and reap it: its CSV's byte size and CRC-32, or raise its failure."""
        with contextlib.suppress(BrokenPipeError):   # the writer has exited; its result tells why
            try:
                pickle.dump(None, self._pipe)
            finally:
                self._pipe.close()
        with os.fdopen(self._result, "rb") as result:
            result = result.read()
        _, status = os.waitpid(self._pid, 0)
        if not status:
            return pickle.loads(result)
        if result:
            raise pickle.loads(result)
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
    """Reload a persisted run into a RunRecord (bit-exact floats): the
    blocks of :func:`read_record_blocks`, joined.

    Raises ContractError, naming the 1-based line of the file, when a line
    is not UTF-8 text, a row has the wrong number of fields, breaks the
    phase order, holds a field that is not a number or a status other
    than 0 or 1, has a time or a policy other than the first row of its
    step, or starts a step earlier than the step before.
    """
    blocks = list(read_record_blocks(path))
    return RunRecord(
        labels=blocks[0].labels,
        policy=[p for block in blocks for p in block.policy],
        **{name: np.concatenate([getattr(block, name) for block in blocks])
           for name in _ARRAYS},
    )


# Fields parsed at once, about: blocks of whole steps of three or six
# phases, whatever the number of SMs, which bounds a block's memory.
_LOAD_CELLS = 1 << 15


def _block_rows(n_fields: int) -> int:
    """Data rows parsed at once, for rows of ``n_fields`` fields."""
    return max(6, _LOAD_CELLS // n_fields // 6 * 6)


def read_record_blocks(path: str) -> Iterator[RunRecord]:
    """Yield the record of a run CSV as the file is read, in blocks of
    whole steps, each checked as :func:`load_record_csv` describes.

    A block is about ``_LOAD_CELLS`` fields of whole rows, parsed in one
    ``numpy.loadtxt`` call on the open file.  Its ``v_c`` and ``u`` are
    views of the block's table; its other arrays are its own.  A defect
    is named when its block is read, after the blocks before it.
    """
    try:
        yield from _parse_blocks(path)
    except UnicodeDecodeError:
        _name_undecodable_line(path)


def _sidecar_blocks(path: str) -> Iterator[RunRecord]:
    """The blocks of :func:`read_record_blocks`, from the sidecar of the CSV
    at ``path``; none unless the sidecar matches its CRC-32, holds a step
    and names the CSV's byte size and CRC-32."""
    try:
        f = open(path + _SIDECAR, "rb")
    except OSError:
        return
    with f:
        try:
            body = f.seek(-_FOOTER, os.SEEK_END)   # OSError when the file is shorter
            footer = f.read()
            f.seek(0)
            if footer[12:] != _MAGIC or _crc32(f, body + 8).to_bytes(4, "little") != footer[8:12]:
                return
            length = int.from_bytes(footer[:8], "little")
            f.seek(body - length)
            meta = json.loads(f.read(length))
            with open(path, "rb") as csv:
                size = os.fstat(csv.fileno()).st_size
                if not meta["labels"] or meta["csv"] != [size, _crc32(csv, size)]:
                    return
        except OSError:
            return
        labels, policies = meta["labels"], meta["policies"]
        dtype = _step_dtype(meta["n"], len(labels))
        steps = (body - length) // dtype.itemsize
        block = max(1, _block_rows(len(csv_columns(meta["n"]))) // len(labels))
        f.seek(0)
        for k0 in range(0, steps, block):
            table = np.empty(min(block, steps - k0), dtype)
            if f.readinto(table) != table.nbytes:
                raise ContractError(f"{path + _SIDECAR!r} ended while it was read")
            yield _block_record(table, labels, [policies[j] for j in table["policy"].tolist()],
                                table["times"])


def _block_record(table, labels: list[str], policy: list[str], times: np.ndarray) -> RunRecord:
    """The RunRecord of a block read into ``table``: ``v_c`` and ``u`` are
    views of it, the per-phase arrays and ``times`` copies, so that a
    consumer keeping them does not keep the table."""
    return RunRecord(times=times.copy(), labels=labels, policy=policy,
                     **{name: table[name] if name in ("v_c", "u") else table[name].copy()
                        for name in _ARRAYS[1:]})


def _parse_blocks(path: str) -> Iterator[RunRecord]:
    with open(path, newline="", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        n2 = sum(1 for c in header if c.startswith("v_c_"))
        if n2 == 0 or n2 % 2 or header != csv_columns(n2 // 2):
            raise ContractError(f"{path!r} does not match the run CSV schema")
        dtype = _row_dtype(n2 // 2)
        rows = _block_rows(len(header))
        labels = None                # the phase labels, once a label repeats
        held = np.empty(0, dtype)    # rows of a step not yet whole
        first = 0                    # data row of the table's first row
        at_end = False
        last_t = -np.inf
        while not at_end:
            block = _load_rows(f, path, dtype, len(header), rows, first + held.size)
            at_end = block.size < rows
            table = np.concatenate([held, block]) if held.size else block
            if not table.size:
                if labels is None:
                    raise ContractError(f"{path!r} contains no data rows")
                return

            phase = table["phase"]
            if labels is None:
                # The phase labels are those before the first repeated one.
                n_cols = next((r for r, label in enumerate(phase) if label in phase[:r]), None)
                if n_cols is None and not at_end:
                    held = table   # no step is known whole yet
                    continue
                labels = phase[: n_cols or phase.size].copy()
            n_cols = labels.size
            _refuse(path, first, phase != np.resize(labels, phase.size),
                    "breaks the phase ordering")
            whole = phase.size - phase.size % n_cols
            if at_end and whole < phase.size:
                _refuse(path, first, np.arange(phase.size) == phase.size - 1,
                        f"ends the file inside a step of {n_cols} phases")
            held, table = table[whole:], table[:whole]
            if not table.size:
                continue
            step = table.reshape(-1, n_cols)
            policy = step["policy"]
            _refuse(path, first, policy != policy[:, :1],
                    "has a policy other than its step's first row")
            u = table["u"]
            _refuse(path, first, ~_binary_statuses(u), "has a switch status other than 0 or 1")
            # Every row of a step repeats the step's time text, hence its bits.
            t_bits = step["t"].view(np.int64)
            _refuse(path, first, t_bits != t_bits[:, :1],
                    "has a time other than its step's first row")
            times = step["t"][:, 0]
            _refuse(path, first, (times < np.r_[last_t, times[:-1]]).repeat(n_cols),
                    "goes back in time")
            # The fields between the phase label and the policy are the
            # RunRecord arrays of the same names.
            yield _block_record(step, labels.tolist(), policy[:, 0].tolist(), times)
            last_t = times[-1]
            first += whole
            del block, table, phase, step, u   # before the next block is read


def _load_rows(f, path: str, dtype: np.dtype, n_fields: int, rows: int,
               first: int) -> np.ndarray:
    """The table of up to ``rows`` data rows read from ``f``, whose
    first is data row ``first`` of ``path``.  Raises ContractError naming
    the first line whose field count is wrong or that does not parse on
    its own."""
    try:
        with warnings.catch_warnings():
            # Notes on the empty lines skipped and, at the end, on no rows read.
            warnings.filterwarnings("ignore", "Input line", UserWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(f, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                              max_rows=rows)
    except ValueError:
        pass
    for no, line in itertools.islice(_data_lines(path), first, None):
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


def _data_lines(path: str):
    """``(1-based line number, text)`` of each data row of ``path`` as
    ``numpy.loadtxt`` reads it: every line after the header but empty ones."""
    with open(path, encoding="utf-8") as f:
        next(f)
        yield from ((no, line) for no, line in enumerate(f, start=2) if line != "\n")


def _refuse(path: str, first: int, bad: np.ndarray, what: str) -> None:
    """Raise ContractError naming the file line of the first row flagged
    in ``bad``, a boolean array over the data rows from row ``first``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        no, _ = next(itertools.islice(_data_lines(path), first + int(rows[0]), None))
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
