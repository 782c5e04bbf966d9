"""Deterministic CSV persistence of run records, and the report files.

One row per (time step, phase); floats are serialized with 17
significant digits so a reloaded file reproduces the in-memory doubles
bit for bit.  The column layout is fixed at sink creation:

    t,phase,i,i_ref,i_z,v_up,v_low,v_c_1..v_c_<2n>,u_1..u_<2n>,
    v_dc_link,i_dc_link,policy

The phases are ``a, b, c`` or ``1a`` to ``2c``, in that order, the
policies ``V1F2`` or ``F1V2`` (:class:`.SortPolicy`), and switch
statuses ``u_*`` are 0 or 1: the writer refuses to write and the loader
refuses to load anything else.  The sink keeps every k-th step
(its decimation), counting steps across its calls, so a run handed over
in chunks writes the bytes of one call with the whole record.

The writer builds each table's text as one byte array: every float
cell is the ``%.17g`` text of :func:`._float_text.float_text`, computed
in numpy, in a slot of 24 bytes padded with NUL; the labels, statuses,
commas, policies and line ends fill columns of their own; the NULs are
dropped from the whole table at once.

A run hands the sink its record chunk by chunk, each a
:class:`RunRecord`.  The sink checks each chunk's kept steps and packs
them into a sidecar, the CSV's path plus ``.rec``: fixed-layout records
(``_step_dtype``), then, once the sink closes unless a write failed,
JSON metadata (the byte size and CRC-32 of the CSV as written, ``n``,
the labels, the decimation) and a footer ending ``mmcsim-rec-3``; a
step's policy is its index in :class:`.SortPolicy`.  The CSV
is formatted from the sidecar's tables, by a writer process that reads
them back (see :class:`TimeSeriesSink`), so a run steps while its CSV
is written.
``mmcsim metrics`` reads the sidecar (:func:`_sidecar`) when it names
the CSV's size and CRC-32, and so knows the decimation; the CSV alone
does not tell it.

The layout is defined once, as a structured row dtype that
``csv_columns`` derives from.  The loader reads the file once, in lines
split where ``numpy.loadtxt`` splits rows, and parses it in blocks of
whole steps, the lines of each in one ``numpy.loadtxt`` call, whose C
parser rounds like ``float()``.  It checks each block with array
operations as it comes, names a refused row's line from the lines it
holds (bytes that are not UTF-8 too, read as lone surrogates), and
takes the record's arrays by field name.  The first data row's phase
gives the run's phases, and every block but the last holds whole steps,
since its rows are a multiple of six.  ``mmcsim metrics`` summarizes
the blocks as they are read (:func:`read_record_blocks`), so its memory
holds one block of per-SM state; :func:`load_record_csv` joins them.  A
block's arrays, from the CSV or the sidecar, are views of its table.
:func:`write_report` writes each command's report files: the text it
prints, and its numbers as sorted JSON.
"""

from __future__ import annotations

import contextlib
import itertools
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
from .metrics import _PHASES, RunRecord, SummaryMetrics, _binary_statuses, _row_dtype

__all__ = [
    "csv_columns",
    "TimeSeriesSink",
    "load_record_csv",
    "read_record_blocks",
    "format_metrics_text",
    "write_report",
]

_FLOAT_FMT = "%.17g"

# The RunRecord arrays, by name.
_ARRAYS = ("times", *_row_dtype(1).names[2:-1])

# Each policy name's index in a sidecar: its place in SortPolicy.
_POLICIES = {policy.value: k for k, policy in enumerate(SortPolicy)}


# A sidecar ends: JSON metadata, their length, the CRC-32 of all before, _MAGIC.
_SIDECAR, _MAGIC = ".rec", b"mmcsim-rec-3"
_FOOTER = 8 + 4 + len(_MAGIC)
# Bytes read at once for a CRC-32: 1 MiB reads cost 2 MiB of peak RSS.
_IO_BYTES = 1 << 16


def _step_dtype(n: int, n_phases: int) -> np.dtype:
    """One kept step of a sidecar: the RunRecord arrays, then its policy's index in SortPolicy."""
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
    policy = _padded(list(_POLICIES), "\n")[table["policy"]]
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
        rows before it, or when the kept rows have a policy other than
        ``V1F2`` or ``F1V2``, a time that is not finite, would go backwards
        in time or hold a status other than 0 or 1.
        """
        if record.n != self.n:
            raise ContractError(f"record has {record.n} SMs per arm, sink expects {self.n}")
        if record.labels not in _PHASES:
            raise ContractError(f"record has phases {record.labels}, not those of a run")
        if self._labels not in (None, record.labels):
            raise ContractError(f"record has phases {record.labels}, sink expects {self._labels}")
        kept = slice((-self._steps - 1) % self.decimation, None, self.decimation)
        try:
            policy = [_POLICIES[p] for p in record.policy[kept]]
        except KeyError as exc:
            raise ContractError(f"record has the policy {exc}, not a SortPolicy name") from None
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
            table["policy"] = policy[k:k + block]
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
                        "n": self.n, "labels": self._labels, "decimation": self.decimation}
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
    is not UTF-8 text, a row has the wrong number of fields, the first row
    has a phase other than ``a`` or ``1a``, a row breaks the phase order
    that phase starts, holds a field that is not a number or a status
    other than 0 or 1, has a policy other than ``V1F2`` or ``F1V2``, has
    a time or a policy other than the first row of its step, has a time
    that is not finite, or starts a step earlier than the step before.
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
    """Data rows parsed at once, for rows of ``n_fields`` fields: a
    multiple of six, so that every block but a file's last holds whole
    steps of three or six phases, as :func:`read_record_blocks` relies on."""
    return max(6, _LOAD_CELLS // n_fields // 6 * 6)


def _sidecar_blocks(path: str) -> Iterator[RunRecord]:
    """The blocks of :func:`read_record_blocks`, from the sidecar of the CSV
    at ``path`` (:func:`_sidecar`)."""
    return itertools.islice(_sidecar(path), 1, None)


def _sidecar(path: str) -> Iterator:
    """The decimation the run kept its steps at, then the blocks of
    :func:`read_record_blocks`, from the sidecar of the CSV at ``path``;
    nothing unless the sidecar matches its CRC-32, holds a step and
    names the CSV's byte size and CRC-32."""
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
        yield meta["decimation"]
        labels, policies = meta["labels"], list(_POLICIES)
        dtype = _step_dtype(meta["n"], len(labels))
        steps = (body - length) // dtype.itemsize
        block = max(1, _block_rows(len(csv_columns(meta["n"]))) // len(labels))
        f.seek(0)
        for table in _tables(f, dtype, steps, block):
            yield _block_record(table, labels, [policies[j] for j in table["policy"].tolist()],
                                table["times"])


def _block_record(table, labels: list[str], policy: list[str], times: np.ndarray) -> RunRecord:
    """The RunRecord of a block read into ``table``, whose arrays are views of it."""
    return RunRecord(times=times, labels=labels, policy=policy,
                     **{name: table[name] for name in _ARRAYS[1:]})


def read_record_blocks(path: str) -> Iterator[RunRecord]:
    """Yield the record of a run CSV as the file is read, in blocks of
    whole steps, each checked as :func:`load_record_csv` describes.

    A block is ``_block_rows`` rows, about ``_LOAD_CELLS`` fields, parsed
    in one ``numpy.loadtxt`` call from the lines it holds: whole steps,
    but where the file ends inside a step, which is refused.  Its arrays
    are views of the block's table.  A defect is named when its block is
    read, after the blocks before it.
    """
    # Bytes that are not UTF-8 decode to lone surrogates, which a block
    # finds when it encodes its lines again.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
        header = f.readline()
        _check_utf8(path, 1, header)
        header = header.rstrip("\r\n").split(",")
        n2 = sum(1 for c in header if c.startswith("v_c_"))
        if n2 == 0 or n2 % 2 or header != csv_columns(n2 // 2):
            raise ContractError(f"{path!r} does not match the run CSV schema")
        dtype = _row_dtype(n2 // 2)
        rows = _block_rows(len(header))

        def refuse(bad: np.ndarray, what: str) -> None:
            """Raise ContractError naming the line of the first row flagged in ``bad``."""
            if bad.any():
                raise ContractError(f"{path!r}: line {block[np.argmax(bad)][0]} {what}")

        # Lines end at \n, \r\n or \r, where numpy.loadtxt ends rows,
        # and, as it does, a line that is a line ending alone is skipped.
        lines = ((no, line) for no, line in enumerate(f, start=2) if line.rstrip("\r\n"))
        labels = None   # the run's phases, from the first row
        last_t = -np.inf
        # (line number, text) of each row of the table: row k is block[k]
        while block := list(itertools.islice(lines, rows)):
            text = [line for _, line in block]
            try:
                if not all(map(str.isascii, text)):
                    "".join(text).encode()   # UnicodeEncodeError, a ValueError, if not UTF-8
                table = np.loadtxt(text, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError:
                _name_bad_line(block, path, dtype, len(header))
                raise ContractError(f"{path!r}: numeric fields do not parse") from None

            phase = table["phase"]
            if labels is None:
                labels = next((p for p in _PHASES if p[0] == phase[0]), None)
                refuse(np.array([labels is None]), "starts with a phase other than a or 1a")
            n_cols = len(labels)
            refuse(phase != np.resize(labels, phase.size), "breaks the phase ordering")
            if phase.size % n_cols:   # a block short of whole steps is the file's last
                refuse(np.arange(phase.size) == phase.size - 1,
                       f"ends the file inside a step of {n_cols} phases")
            step = table.reshape(-1, n_cols)
            policy = step["policy"]
            refuse(policy != policy[:, :1], "has a policy other than its step's first row")
            refuse(~np.isin(policy, list(_POLICIES)),
                   f"has a policy other than {' or '.join(_POLICIES)}")
            refuse(~_binary_statuses(table["u"]), "has a switch status other than 0 or 1")
            # Every row of a step repeats the step's time text, hence its bits.
            t_bits = step["t"].view(np.int64)
            refuse(t_bits != t_bits[:, :1], "has a time other than its step's first row")
            times = step["t"][:, 0]
            refuse((~np.isfinite(times)).repeat(n_cols), "has a time that is not finite")
            refuse((times < np.r_[last_t, times[:-1]]).repeat(n_cols), "goes back in time")
            # The fields between the phase label and the policy are the
            # RunRecord arrays of the same names.
            yield _block_record(step, list(labels), policy[:, 0].tolist(), times)
            last_t = times[-1]
            del block, text, table, phase, step   # before the next block is read
        if labels is None:
            raise ContractError(f"{path!r} contains no data rows")


def _check_utf8(path: str, no: int, line: str) -> None:
    """Raise ContractError when ``line``, line ``no`` of ``path`` as read
    with ``surrogateescape``, is not UTF-8 text."""
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContractError(
            f"{path!r}: line {no} is not UTF-8 text (byte {exc.start + 1}: {exc.reason})"
        ) from None


def _name_bad_line(block: list, path: str, dtype: np.dtype, n_fields: int) -> None:
    """Raise ContractError naming the first line of ``block``, if any,
    that is not UTF-8 text, whose field count is wrong or that does not
    parse on its own."""
    for no, line in block:
        _check_utf8(path, no, line)
        fields = line.count(",") + 1
        if fields != n_fields:
            raise ContractError(f"{path!r}: line {no} has {fields} fields, expected {n_fields}")
        try:
            np.loadtxt([line], dtype=dtype, delimiter=",", comments=None)
        except ValueError as exc:
            raise ContractError(
                f"{path!r}: line {no} has a field that does not parse ({exc})"
            ) from None


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
