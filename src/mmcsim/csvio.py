"""Deterministic CSV persistence of run records, and the report files.

The CSV is an export for other tools: one row per (time step, phase),
floats serialized with 17 significant digits so that a parser that
rounds like ``float()`` gets the in-memory doubles back bit for bit.
The column layout is fixed at sink creation:

    t,phase,i,i_ref,i_z,v_up,v_low,v_c_1..v_c_<2n>,u_1..u_<2n>,
    v_dc_link,i_dc_link,policy

The phases are ``a, b, c`` or ``1a`` to ``2c``, in that order, the
policies ``V1F2`` or ``F1V2`` (:class:`.SortPolicy`), and switch
statuses ``u_*`` are 0 or 1: the writer refuses to write anything
else.  A record holds each step's policy as its index in
:class:`.SortPolicy`; the CSV's text is the only place its name is
written.  The sink keeps every k-th step (its decimation), counting steps
across its calls, so a run handed over in chunks writes the bytes of
one call with the whole record.

The writer builds each table's text as one byte array: every float
cell is the ``%.17g`` text of :func:`._float_text.float_text`, computed
in numpy, in a slot of 24 bytes padded with NUL; the labels, statuses,
commas, policies and line ends fill columns of their own; the NULs are
dropped from the whole table at once.

A run hands the sink its record chunk by chunk, each a
:class:`RunRecord`.  The sink checks each chunk's kept steps and packs
them into a sidecar, the CSV's path plus ``.rec``: the steps, in the
layout of a record's step (``metrics._step_dtype``), then, once the
sink closes unless a write failed, JSON metadata (the byte size and
CRC-32 of the CSV as written, ``n``, the labels, the decimation and the
run's nominal SM voltage) and a footer ending ``mmcsim-rec-4``.  The CSV
is formatted from the sidecar's tables, by a writer process that reads
them back (see :class:`TimeSeriesSink`), so a run steps while its CSV
is written.
``mmcsim metrics`` reads a run back from the sidecar alone
(:func:`_sidecar`), and only when the sidecar names the CSV's size and
CRC-32, its metadata are of this layout and its steps' policies are
indices in :class:`.SortPolicy`; it refuses anything else, naming the
reason.  The sidecar also names the decimation and the
nominal SM voltage that the ripple is taken against, which the CSV
cannot tell.  It is read in blocks
of whole steps, so ``metrics`` holds one block of per-SM state, and a
block's arrays are views of its table.

The layout is defined once, as ``metrics._step_dtype``: the sidecar's
steps are of it, and ``csv_columns`` derives from it.
:func:`write_report` writes each command's report files: the text it
prints, and its numbers as sorted JSON.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
import zlib
from collections.abc import Iterator
from typing import NoReturn

import numpy as np

from .controller import SortPolicy
from .errors import ConfigError, ContractError
from .metrics import _PHASES, RunRecord, SummaryMetrics, _binary_statuses, _step_dtype
from .model import ConverterParams

__all__ = [
    "csv_columns",
    "TimeSeriesSink",
    "format_metrics_text",
    "write_report",
]

_FLOAT_FMT = "%.17g"

# The RunRecord arrays, by name.
_ARRAYS = _step_dtype(1, 1).names


# A sidecar ends: JSON metadata, their length, the CRC-32 of all before, _MAGIC.
# _MAGIC names the layout: a change to _step_dtype or to _META bumps it.
_SIDECAR, _MAGIC = ".rec", b"mmcsim-rec-4"
_META = ("csv", "decimation", "labels", "n", "v_sm_nominal")   # the metadata keys, sorted
_FOOTER = 8 + 4 + len(_MAGIC)
# Bytes read at once for a CRC-32: 1 MiB reads cost 2 MiB of peak RSS.
_IO_BYTES = 1 << 16


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
    dtype = _step_dtype(n, 1)   # a step of one phase
    columns = ["t", "phase"]
    for name in dtype.names[1:]:
        shape = dtype[name].shape[1:]   # a column per SM, or one
        columns += [f"{name}_{j}" for j in range(1, shape[0] + 1)] if shape else [name]
    return columns


# Kept steps are packed and formatted in tables of about this many
# cells, which bounds the memory held at once: formatting one takes
# about 125 bytes a cell.  With twice as many, the writer's heap is
# given back and faulted in again table by table (3 times its page
# faults at n = 48, 2 times at n = 400).
_BLOCK_CELLS = 1 << 12


def _block_steps(n_phases: int, n2: int) -> int:
    """Kept steps packed and formatted at once, for ``n2`` SMs per phase."""
    return max(1, _BLOCK_CELLS // (n_phases * (n2 + 8)))


def _padded(strings: list[str], end: str) -> np.ndarray:
    """The UTF-8 bytes of each of ``strings`` then ``end``, one row each, padded with NUL."""
    encoded = [(text + end).encode() for text in strings]
    return np.array(encoded, f"S{max(map(len, encoded))}").view(np.uint8).reshape(len(encoded), -1)


def _write_rows(file, table: np.ndarray, labels: list[str], crc: int) -> int:
    """Append the text of the steps of the sidecar ``table`` to ``file``,
    whose phases are ``labels``; return ``crc`` continued over it."""
    # Imported on first use: its tables add 1.2 MB to the RSS of `compare` and `metrics`.
    from ._float_text import float_text

    steps, n_phases, n2 = table["v_c"].shape
    # The rows are built as bytes padded with NUL: a float cell is its 24
    # bytes of text and a comma, a status its digit and a comma.
    series = [np.broadcast_to(table["times"][:, None], (steps, n_phases)),
              *(table[name] for name in ("i", "i_ref", "i_z", "v_up", "v_low"))]
    values = np.concatenate([np.stack(series, axis=2), table["v_c"],
                             np.stack([table["v_dc_link"], table["i_dc_link"]], axis=2)], axis=2)
    comma = np.uint8(ord(","))
    cells = np.concatenate([float_text(values).reshape(*values.shape, 24),
                            np.full((*values.shape, 1), comma)], axis=3)
    status = np.stack([table["u"].astype(np.uint8) + np.uint8(ord("0")),
                       np.full(table["u"].shape, comma)], axis=3)
    label = _padded(labels, ",")
    policy = _padded([p.value for p in SortPolicy], "\n")[table["policy"]]
    rows = np.concatenate([
        cells[:, :, 0],
        np.broadcast_to(label, (steps, *label.shape)),
        cells[:, :, 1:-2].reshape(steps, n_phases, -1),
        status.reshape(steps, n_phases, -1),
        cells[:, :, -2:].reshape(steps, n_phases, -1),
        np.broadcast_to(policy[:, None], (steps, n_phases, policy.shape[1])),
    ], axis=2)
    text = rows.tobytes().translate(None, b"\0")
    file.write(text)
    return zlib.crc32(text, crc)


def _tables(f, dtype: np.dtype, steps: int, block: int) -> Iterator[np.ndarray]:
    """The next ``steps`` steps of the sidecar ``f``, in tables of ``block`` steps."""
    for k in range(0, steps, block):
        table = np.empty(min(block, steps - k), dtype)
        if f.readinto(table) != table.nbytes:
            raise ContractError(f"{f.name!r} ended while it was read")
        yield table


def _writer_main(file, crc: int, rec, dtype: np.dtype, labels: list[str],
                 rows_fd: int, result_fd: int, parent_fds: tuple[int, ...]) -> NoReturn:
    """Body of a writer process: for each ``(first step, end step)`` read
    from ``rows_fd``, format those steps of the sidecar ``rec``, of
    ``dtype`` and phases ``labels``, into the CSV ``file``,
    whose bytes so far have the CRC-32 ``crc``, until a ``None`` comes;
    then pickle the CSV's byte size and CRC-32, or the exception that
    ended the rows, to ``result_fd`` for the sink.  It exits even when
    that pipe is broken, and never returns into the caller's stack, so a
    fork under a test runner cannot run the rest of the tests twice.
    Its copies of the caller's pipe ends are closed, so a caller that
    dies ends the rows, without the ``None``."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # the caller's close() ends it
        for fd in parent_fds:
            os.close(fd)
        block = _block_steps(len(labels), dtype["v_c"].shape[-1])
        try:
            with file, rec, os.fdopen(rows_fd, "rb") as rows:
                for first, end in iter(lambda: pickle.load(rows), None):   # None ends them
                    rec.seek(first * dtype.itemsize)
                    for table in _tables(rec, dtype, end - first, block):
                        crc = _write_rows(file, table, labels, crc)
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
    one core while its CSV is formatted on another.  Each call checks its
    kept steps and appends them to the sidecar in tables of
    ``_block_steps`` steps, then sends the writer their range; the writer
    reads the tables back and formats them, so both files hold the same
    steps.  :meth:`close` ends the pipe, waits
    for the writer and raises the exception it failed with, if any.
    Formatting one block in the caller costs less than forking, so a
    first call whose kept steps fit one block is formatted in the caller,
    table by table, and only a later call, or a larger first one, forks
    the writer: a short run forks nothing.  Where ``os.fork`` is missing
    every call is formatted in the caller.  The sidecar's metadata is
    written by :meth:`close` alone, once every call has returned and the
    writer, if any, has reported the CSV's size and CRC-32.

    The writer does no BLAS call and no logging: a forked child holds
    only the forking thread, while numpy's BLAS keeps a thread pool, and
    Python 3.12 and later warn when a process with threads forks.
    """

    def __init__(self, path: str, params: ConverterParams, decimation: int = 1):
        if decimation < 1:
            raise ConfigError(f"decimation must be >= 1, got {decimation}")
        self.path = path
        self.n = params.n
        self.v_sm_nominal = params.v_sm_nominal   # what `metrics` takes the ripple against
        self.decimation = decimation
        self.columns = csv_columns(self.n)
        self._steps = 0                  # steps given so far, kept or not
        self._last_t = -np.inf           # of the last kept step; -inf before one
        self._pid: int | None = None     # the writer process, once forked
        self._pipe = None                # the ranges of steps it formats
        self._result: int | None = None  # its CSV size and CRC-32, or failure, pickled
        self._labels: list[str] | None = None   # of the first kept step
        self._rec_crc = 0                       # of the sidecar so far
        self._broken = False                    # a write in the caller failed
        self._rec = self._rec_in = None
        try:
            self._rec = open(path + _SIDECAR, "wb")   # first: a refused sink keeps the CSV
            # A writer's own read of the sidecar: the descriptor it inherits
            # shares the caller's file offset.
            self._rec_in = open(path + _SIDECAR, "rb")
            self._file = open(path, "wb")
        except OSError as exc:
            for f in (self._rec, self._rec_in):
                if f:
                    f.close()
            raise ConfigError(f"cannot open {path!r} for writing: {exc}") from exc
        header = (",".join(self.columns) + "\n").encode()
        self._file.write(header)
        self._csv_crc = zlib.crc32(header)      # of the CSV so far, until a writer takes it

    def write_record(self, record: RunRecord) -> None:
        """Append the rows of the steps the sink keeps: step k of all
        those given, counted across calls, when (k + 1) % decimation == 0.

        Raises ContractError, before writing anything, when the record's
        phases are not ``a, b, c`` or ``1a`` to ``2c`` or not those of the
        rows before it, or when the kept rows have a policy that is not an
        integer index in :class:`.SortPolicy`, a time that is not finite,
        would go backwards in time or hold a status other than 0 or 1.
        """
        if record.n != self.n:
            raise ContractError(f"record has {record.n} SMs per arm, sink expects {self.n}")
        if record.labels not in _PHASES.values():
            raise ContractError(f"record has phases {record.labels}, not those of a run")
        if self._labels not in (None, record.labels):
            raise ContractError(f"record has phases {record.labels}, sink expects {self._labels}")
        kept = slice((-self._steps - 1) % self.decimation, None, self.decimation)
        policy = np.asarray(record.policy[kept])
        if policy.dtype.kind not in "iu" or not ((policy >= 0) & (policy < len(SortPolicy))).all():
            raise ContractError("record has a policy that is not an index in SortPolicy")
        times = record.times[kept]
        if not np.isfinite(times).all():
            raise ContractError("record rows would have a time that is not finite")
        if times.size and (times[0] < self._last_t or (times[1:] < times[:-1]).any()):
            raise ContractError("record rows would go backwards in time")
        if not _binary_statuses(record.u[kept]).all():
            raise ContractError("switch statuses must be 0 or 1")
        self._steps += record.steps
        if times.size == 0:
            return
        first, self._last_t = self._last_t == -np.inf, times[-1]
        labels = self._labels = record.labels
        block = _block_steps(len(labels), 2 * self.n)   # bounds the table held at once
        inline = not hasattr(os, "fork") or (first and times.size <= block)
        self._broken = True   # until the steps are in both files
        dtype = _step_dtype(self.n, len(labels))
        start = self._rec.tell() // dtype.itemsize
        for k in range(0, times.size, block):
            table = np.empty(min(block, times.size - k), dtype)
            for name in _ARRAYS:
                table[name] = getattr(record, name)[kept][k:k + block]
            self._rec_crc = zlib.crc32(table, self._rec_crc)
            self._rec.write(table)
            if inline:
                self._csv_crc = _write_rows(self._file, table, labels, self._csv_crc)
        if not inline:
            if self._pid is None:
                self._fork_writer(dtype)
            self._rec.flush()   # the writer reads these steps from the file
            try:
                pickle.dump((start, start + times.size), self._pipe)
                self._pipe.flush()
            except BrokenPipeError:
                self.close()   # raises the writer's failure
                raise
        self._broken = False

    def _fork_writer(self, dtype: np.dtype) -> None:
        self._file.flush()
        rows_r, rows_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (rows_r, rows_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            _writer_main(self._file, self._csv_crc, self._rec_in, dtype, self._labels,
                         rows_r, result_w, (rows_w, result_r))
        os.close(rows_r)
        os.close(result_w)
        self._file.close()
        self._rec_in.close()
        self._pid, self._result = pid, result_r
        self._pipe = os.fdopen(rows_w, "wb")

    def close(self) -> None:
        """Finish the CSV and, unless a write failed, end the sidecar with
        its metadata; raise what the writer process failed with."""
        if self._rec.closed:
            return
        with self._rec:
            if self._pid is None:
                with self._file, self._rec_in:
                    csv = (self._file.tell(), self._csv_crc)
            else:
                csv = self._reap()
            if not self._broken:
                meta = {"csv": csv,   # byte size, CRC-32
                        "n": self.n, "labels": self._labels, "decimation": self.decimation,
                        "v_sm_nominal": self.v_sm_nominal}
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


# Steps read from a sidecar at once: those of about 2**15 CSV fields
# (4n + 10 a row), in a multiple of six rows, so that a block holds whole
# steps of three or six phases.  It bounds the per-SM state `metrics`
# holds, and sets its time and peak RSS.
_READ_FIELDS = 1 << 15


def _read_steps(n: int, n_phases: int) -> int:
    """Steps of a sidecar read at once, for ``n`` SMs per arm and ``n_phases`` phases."""
    return max(6, _READ_FIELDS // (4 * n + 10) // 6 * 6) // n_phases


def _sidecar(path: str) -> Iterator:
    """The sidecar's metadata, then the run's record in blocks of
    ``_read_steps`` steps, from the sidecar of the CSV at ``path``.

    Raises ContractError, naming the CSV and the reason, when the CSV or
    its sidecar cannot be read, the sidecar is cut short or of another
    layout, does not match its CRC-32, names another CSV's byte size and
    CRC-32, or holds no step.  A sidecar whose CRC-32 matches is still
    of another layout unless its metadata are a JSON object of the keys
    ``_META``, with ``n`` and ``decimation`` ints > 0, the labels of a
    run's phases and ``v_sm_nominal`` a finite float > 0, and its steps
    are whole ones of the ``_step_dtype`` they name, each with a policy
    index in :class:`.SortPolicy`; a step's policy is checked when its
    block is read.
    """
    rec = path + _SIDECAR
    layout = f"its sidecar is cut short or of another layout than {_MAGIC.decode()}"

    def refuse(reason: str) -> NoReturn:
        raise ContractError(f"{path!r}: {reason}")

    def opened(name: str, what: str):
        try:
            return open(name, "rb")
        except OSError as exc:
            refuse(f"cannot read {what} ({exc.strerror})")

    with opened(path, "the CSV") as csv, opened(rec, f"its sidecar {rec!r}") as f:
        try:
            body = f.seek(-_FOOTER, os.SEEK_END)
        except OSError:   # shorter than a footer
            body = -1
        footer = f.read()
        if body < 0 or footer[12:] != _MAGIC:
            refuse(layout)
        f.seek(0)
        if _crc32(f, body + 8).to_bytes(4, "little") != footer[8:12]:
            refuse("its sidecar is corrupt: it does not match its CRC-32")
        start = body - int.from_bytes(footer[:8], "little")   # of the metadata, after the steps
        f.seek(max(start, 0))
        try:   # any ValueError: not UTF-8, not JSON, or not of this layout
            meta = json.loads(f.read(body - start) if start >= 0 else b"")
            # The metadata the sink writes: labels are None where it kept no step.
            if not (isinstance(meta, dict) and sorted(meta) == list(_META)
                    and all(type(meta[key]) is int and meta[key] > 0 for key in ("n", "decimation"))
                    and type(meta["v_sm_nominal"]) is float and 0.0 < meta["v_sm_nominal"] < np.inf
                    and meta["labels"] in (None, *_PHASES.values())):
                raise ValueError
            labels = meta["labels"] or []
            dtype = _step_dtype(meta["n"], len(labels))   # a ValueError where n is too large
            if start % dtype.itemsize:
                raise ValueError
        except ValueError:
            refuse(layout)
        size = os.fstat(csv.fileno()).st_size
        if meta["csv"] != [size, _crc32(csv, size)]:
            refuse("its sidecar is stale: it names another CSV's byte size and CRC-32"
                   " (an edited CSV, or another run's sidecar)")
        if not labels:
            refuse("the run kept no step: the CSV contains no data rows")
        yield meta
        f.seek(0)
        for table in _tables(f, dtype, start // dtype.itemsize, _read_steps(meta["n"], len(labels))):
            if (table["policy"] >= len(SortPolicy)).any():
                refuse(layout)
            yield RunRecord(labels=labels, **{name: table[name] for name in _ARRAYS})


def format_metrics_text(metrics: SummaryMetrics) -> str:
    """Flat ``key = value`` report, one metric per line, sorted by key."""
    flat = metrics.to_flat()
    return "".join(
        f"{key} = {_FLOAT_FMT % value}\n" for key, value in sorted(flat.items())
    )


def write_report(text: str, payload, text_path: str, json_path: str) -> None:
    """Persist a report: ``text`` as it is, ``payload`` as sorted JSON."""
    with open(text_path, "w") as f:
        f.write(text)
    with open(json_path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")
