"""Deterministic fault injection for serialized Zeek logs and workers.

A 23-month border capture never arrives pristine: writers crash
mid-record, disks flip bytes, rotations restart, and referenced x509
rows go missing. :class:`LogCorruptor` plants exactly those faults into
serialized log text in a *seeded, ground-truth-aware* way, so tests can
assert that the resilient reader recovers planted statistics within a
stated tolerance — and that the :class:`~repro.zeek.ingest.IngestReport`
accounts for every dropped line exactly.

The *analysis processes* fail too: a long multiprocess campaign hits
OOM-killed workers, hung readers, and poison shards that crash any
worker they land on. :class:`WorkerFaultPlan` injects exactly those
process-level faults — deterministically, keyed by shard month — so the
supervision layer (:mod:`repro.core.supervisor`) is testable without
flaky sleeps or real resource exhaustion.

Fault types (all independently rated by a :class:`FaultPlan`):

- ``flip_rate``        — flip a byte inside a fragile field (ts, port,
  count, bool) so the row fails field parsing;
- ``garbage_rate``     — inject undecodable garbage lines;
- ``duplicate_rate``   — duplicate data lines (a replayed flush);
- ``drop_x509_rate``   — drop x509 rows, creating dangling fuids in the
  ssl stream (only applied to x509 logs);
- ``reorder_columns``  — permute the column order (schema drift across
  a Zeek upgrade); lossless for the lenient reader;
- ``truncate_final_record`` — cut the last data row mid-record and drop
  everything after it (a crashed writer's tail);
- ``drop_close``       — remove the ``#close`` footer (mid-rotation
  restart).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, replace

#: Columns whose parsers deterministically reject a flipped byte,
#: per log kind: (column index, column name).
_FRAGILE_COLUMNS = {
    "ssl": ((0, "ts"), (3, "id.orig_p"), (9, "established")),
    "x509": ((0, "ts"), (3, "certificate.version"), (11, "certificate.key_length")),
}

#: The flipped byte: never '#' (would hide the row as a comment), never
#: a tab (would change the cell count), never parseable as a digit/bool.
_FLIP_CHAR = "x"


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of which faults to plant, at which rates."""

    seed: int = 0
    flip_rate: float = 0.0
    garbage_rate: float = 0.0
    duplicate_rate: float = 0.0
    drop_x509_rate: float = 0.0
    reorder_columns: bool = False
    truncate_final_record: bool = False
    drop_close: bool = False

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """A mixed plan touching ~``rate`` of all lines, split across
        row-level fault types, plus one structural fault of each kind."""
        if rate < 0:
            raise ValueError("fault rate must be non-negative")
        return cls(
            seed=seed,
            flip_rate=rate * 0.4,
            garbage_rate=rate * 0.2,
            duplicate_rate=rate * 0.2,
            drop_x509_rate=rate * 0.2,
            reorder_columns=rate > 0,
            truncate_final_record=rate > 0,
            drop_close=rate > 0,
        )

    def scaled(self, factor: float) -> "FaultPlan":
        return replace(
            self,
            flip_rate=self.flip_rate * factor,
            garbage_rate=self.garbage_rate * factor,
            duplicate_rate=self.duplicate_rate * factor,
            drop_x509_rate=self.drop_x509_rate * factor,
        )


@dataclass
class CorruptionSummary:
    """Ground truth of what one corruption pass actually planted."""

    flipped_lines: int = 0
    garbage_lines: int = 0
    duplicated_lines: int = 0
    dropped_x509_rows: int = 0
    dropped_fuids: set[str] = field(default_factory=set)
    truncated_records: int = 0
    reordered_columns: bool = False
    dropped_close: bool = False

    @property
    def expected_reader_drops(self) -> int:
        """Rows the lenient reader must drop — and account for —
        exactly. (Duplicates parse fine; reordered columns are remapped;
        x509 drops never reach the reader.)"""
        return self.flipped_lines + self.garbage_lines + self.truncated_records

    def merge(self, other: "CorruptionSummary") -> "CorruptionSummary":
        return CorruptionSummary(
            flipped_lines=self.flipped_lines + other.flipped_lines,
            garbage_lines=self.garbage_lines + other.garbage_lines,
            duplicated_lines=self.duplicated_lines + other.duplicated_lines,
            dropped_x509_rows=self.dropped_x509_rows + other.dropped_x509_rows,
            dropped_fuids=self.dropped_fuids | other.dropped_fuids,
            truncated_records=self.truncated_records + other.truncated_records,
            reordered_columns=self.reordered_columns or other.reordered_columns,
            dropped_close=self.dropped_close or other.dropped_close,
        )


class LogCorruptor:
    """Applies a :class:`FaultPlan` to serialized Zeek log text.

    Deterministic: the same plan applied to the same text always yields
    the same corrupted text, independently of call order (each call
    derives its RNG from ``(seed, kind)``).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def corrupt(self, text: str, kind: str = "ssl") -> tuple[str, CorruptionSummary]:
        """Corrupt one serialized log; returns (text, ground truth)."""
        if kind not in _FRAGILE_COLUMNS:
            raise ValueError(f"unknown log kind {kind!r}")
        plan = self.plan
        rng = random.Random(f"{plan.seed}:{kind}")
        summary = CorruptionSummary()
        lines = text.splitlines()

        # Pass 1: drop x509 rows (dangling fuids downstream).
        if kind == "x509" and plan.drop_x509_rate > 0:
            kept: list[str] = []
            for line in lines:
                if not line.startswith("#") and rng.random() < plan.drop_x509_rate:
                    cells = line.split("\t")
                    if len(cells) > 1:
                        summary.dropped_fuids.add(cells[1])
                    summary.dropped_x509_rows += 1
                    continue
                kept.append(line)
            lines = kept

        # The final data row is reserved for truncation: no other fault
        # may touch it, or drop accounting would double-count it.
        reserved = -1
        if plan.truncate_final_record:
            for index in range(len(lines) - 1, -1, -1):
                if not lines[index].startswith("#"):
                    reserved = index
                    break

        # Pass 2: duplicates, flips, and garbage insertions.
        out: list[str] = []
        for index, line in enumerate(lines):
            pristine = line
            is_data = not line.startswith("#") and index != reserved
            if is_data and rng.random() < plan.garbage_rate:
                out.append(self._garbage_line(rng))
                summary.garbage_lines += 1
            if is_data and rng.random() < plan.flip_rate:
                line = self._flip(rng, line, kind)
                summary.flipped_lines += 1
            out.append(line)
            if is_data and rng.random() < plan.duplicate_rate:
                # Duplicate the pristine copy: a replayed flush re-emits
                # the record, it doesn't replay a later byte flip (and a
                # duplicated *bad* line would break exact accounting).
                out.append(pristine)
                summary.duplicated_lines += 1
        lines = out

        # Pass 3: structural faults.
        if plan.reorder_columns:
            lines = self._reorder(rng, lines)
            summary.reordered_columns = True
        if plan.drop_close:
            lines = [line for line in lines if line != "#close"]
            summary.dropped_close = True
        truncated_tail = False
        if plan.truncate_final_record:
            for index in range(len(lines) - 1, -1, -1):
                if not lines[index].startswith("#"):
                    cut = max(1, len(lines[index]) // 2)
                    lines = lines[: index + 1]
                    lines[index] = lines[index][:cut]
                    summary.truncated_records += 1
                    truncated_tail = True
                    break

        corrupted = "\n".join(lines)
        if not truncated_tail and corrupted:
            corrupted += "\n"
        return corrupted, summary

    def corrupt_logs(
        self, ssl_text: str, x509_text: str
    ) -> tuple[str, str, CorruptionSummary]:
        """Corrupt a linked ssl/x509 pair; returns combined ground truth."""
        ssl_out, ssl_summary = self.corrupt(ssl_text, "ssl")
        x509_out, x509_summary = self.corrupt(x509_text, "x509")
        return ssl_out, x509_out, ssl_summary.merge(x509_summary)

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _garbage_line(rng: random.Random) -> str:
        """An undecodable line: mojibake, control bytes, no tabs."""
        junk = "".join(
            rng.choice("�þß\x01\x02GARBLE0123456789")
            for _ in range(rng.randint(8, 40))
        )
        return f"�{junk}"

    @staticmethod
    def _flip(rng: random.Random, line: str, kind: str) -> str:
        """Flip one byte inside a fragile field so parsing fails."""
        cells = line.split("\t")
        candidates = [
            (idx, name) for idx, name in _FRAGILE_COLUMNS[kind] if idx < len(cells)
        ]
        idx, _name = rng.choice(candidates)
        cell = cells[idx]
        pos = rng.randrange(len(cell)) if cell else 0
        cells[idx] = cell[:pos] + _FLIP_CHAR + cell[pos + 1 :] if cell else _FLIP_CHAR
        return "\t".join(cells)

    @staticmethod
    def _reorder(rng: random.Random, lines: list[str]) -> list[str]:
        """Permute the columns of #fields/#types and every well-formed
        data row consistently (garbage lines are left as-is)."""
        width = None
        for line in lines:
            if line.startswith("#fields\t"):
                width = len(line.split("\t")) - 1
                break
        if not width or width < 2:
            return lines
        order = list(range(width))
        while True:
            rng.shuffle(order)
            if order != list(range(width)):
                break

        def permute(cells: list[str]) -> list[str]:
            return [cells[i] for i in order]

        out = []
        for line in lines:
            if line.startswith(("#fields\t", "#types\t")):
                tag, *cells = line.split("\t")
                out.append("\t".join([tag] + permute(cells)))
            elif not line.startswith("#"):
                cells = line.split("\t")
                out.append("\t".join(permute(cells)) if len(cells) == width else line)
            else:
                out.append(line)
        return out


# ---------------------------------------------------------------------------
# Process-level fault injection (worker crash / hang / transient failure)
# ---------------------------------------------------------------------------


class TransientWorkerFault(RuntimeError):
    """A worker failure that clears up on retry (an injected one)."""


class SimulatedWorkerCrash(RuntimeError):
    """Stands in for a hard worker death on the inline (jobs=1) path,
    where ``os._exit`` would take the whole campaign down with it."""


#: Exit status an injected crash dies with — picked to look like an
#: OOM-kill (128 + SIGKILL), the most common real-world worker death.
CRASH_EXIT_CODE = 137


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic process-level faults, keyed by shard month.

    Shipped to every worker through the supervisor's initializer; the
    worker consults :meth:`apply` immediately before executing a shard.
    All faults are exact (no rates): supervision tests must be able to
    assert retry counts and quarantine membership, not tolerances.

    - ``crash_months``     — the worker dies hard (``os._exit``) every
      time one of these shards lands on it: a poison shard. Inline
      (``jobs=1``) the crash is simulated by raising
      :class:`SimulatedWorkerCrash` instead.
    - ``hang_months``      — the worker sleeps ``hang_seconds`` before
      failing: a hung reader, detectable only by wall-clock timeout.
    - ``transient_failures`` — ``(month, n)`` pairs: the shard raises
      :class:`TransientWorkerFault` on its first ``n`` attempts and
      succeeds afterwards (attempts are 1-based and tracked by the
      supervisor, so worker recycling cannot reset the count).
    - ``phase``            — restrict the plan to one supervision phase
      (``"scan"`` or ``"analyze"``); ``None`` fires in both.
    """

    crash_months: tuple[str, ...] = ()
    hang_months: tuple[str, ...] = ()
    transient_failures: tuple[tuple[str, int], ...] = ()
    phase: str | None = None
    hang_seconds: float = 3600.0

    def transient_budget(self, month: str) -> int:
        """How many leading attempts fail for ``month`` (0 = none)."""
        return max(
            (n for m, n in self.transient_failures if m == month), default=0
        )

    def apply(
        self, month: str, phase: str, attempt: int, *, inline: bool = False
    ) -> None:
        """Fire the planned fault for this (shard, phase, attempt), if any.

        Called by the supervisor's workers (and its inline executor)
        right before the real shard work. ``attempt`` is 1-based.
        """
        if self.phase is not None and phase != self.phase:
            return
        if month in self.crash_months:
            if inline:
                raise SimulatedWorkerCrash(
                    f"injected crash on shard {month} ({phase})"
                )
            os._exit(CRASH_EXIT_CODE)
        if month in self.hang_months:
            # In a worker the supervisor's timeout kills us mid-sleep;
            # inline the sleep returns and the supervisor's post-hoc
            # wall-clock check converts it into the same timeout failure.
            time.sleep(self.hang_seconds)
            raise TransientWorkerFault(
                f"injected hang on shard {month} ({phase}) outlived its sleep"
            )
        budget = self.transient_budget(month)
        if attempt <= budget:
            raise TransientWorkerFault(
                f"injected transient failure on shard {month} ({phase}), "
                f"attempt {attempt}/{budget}"
            )


# ---------------------------------------------------------------------------
# Filesystem-level fault injection (torn writes, bit flips, ENOSPC, EIO)
# ---------------------------------------------------------------------------


class SimulatedCrash(OSError):
    """The process "died" at an instrumented I/O call.

    Subclasses :class:`OSError` deliberately: durable-write cleanup code
    swallows ``OSError`` on its best-effort tidy-up paths, so once the
    shim is dead those paths can no longer tidy anything — exactly like
    a real SIGKILL, which runs no cleanup at all. The chaos suite
    catches this exception where a real crash would catch nothing, then
    asserts on-disk state.
    """


@dataclass(frozen=True)
class IoFault:
    """One planted filesystem fault, addressed by operation and ordinal.

    - ``op``    — which :class:`FaultyIO` operation fires: ``mkstemp``,
      ``write``, ``fsync``, ``close``, ``replace``, ``fsync_dir``,
      ``unlink``, or ``read``.
    - ``mode``  — what happens there:

      - ``crash``  — the shim goes *dead* and raises
        :class:`SimulatedCrash`; every later call (including cleanup)
        also raises, so post-crash disk state is exactly what a kill at
        that instant would leave;
      - ``enospc`` / ``eio`` — a survivable :class:`OSError` with the
        matching errno; the shim stays alive so error-path cleanup runs;
      - ``flip``   — (``write`` only) silently flip one seeded byte of
        the payload before writing: bit rot the checksums must catch;
      - ``short``  — (``write``/``read``) transfer only half the
        requested bytes and return the short count: the caller's loop
        must tolerate it.

    - ``index`` — fire on the ``index``-th *matching* call (0-based), so
      a multi-file pack can be crashed at its Nth column file.
    - ``path``  — substring filter on the operation's path (the temp
      file for fd operations); empty matches everything.
    - ``after_bytes`` — for ``write``: bytes allowed through on the
      matching file before the fault fires, i.e. a torn write at byte N
      (``crash``) or a disk that fills after K bytes (``enospc``).
    """

    op: str
    mode: str = "crash"
    index: int = 0
    path: str = ""
    after_bytes: int | None = None


class FaultyIO:
    """Deterministic, seeded fault-injection stand-in for
    :class:`repro.core.durable.DurableIO`.

    Wraps the real I/O object and passes every call through untouched
    until the planted :class:`IoFault` matches; what happens then is the
    fault's ``mode``. Install under the durable-write layer with::

        fault = IoFault(op="fsync", path="manifest.json")
        with FaultyIO(fault).install():
            ...  # the write under test

    Deterministic end to end: same fault + same seed + same workload ⇒
    same corrupted bytes, so chaos tests need no retries or tolerances.
    """

    def __init__(self, fault: IoFault, *, seed: int = 0) -> None:
        from repro.core.durable import DurableIO

        self.fault = fault
        self.real = DurableIO()
        self.rng = random.Random(seed)
        self.dead = False
        self.fired = False
        self._matches = 0
        self._written: dict[int, int] = {}
        self._fd_paths: dict[int, str] = {}
        self._open_fds: set[int] = set()

    def install(self):
        """Context manager: route :mod:`repro.core.durable` through this
        shim; on exit, close any real fds a simulated crash leaked (a
        real kill would have the kernel do this)."""
        from contextlib import contextmanager

        from repro.core.durable import use_io

        @contextmanager
        def _installed():
            with use_io(self):
                try:
                    yield self
                finally:
                    for fd in list(self._open_fds):
                        try:
                            os.close(fd)
                        except OSError:
                            pass
                    self._open_fds.clear()

        return _installed()

    # ------------------------------------------------------------------ firing

    def _path_of(self, op: str, fd: int | None, path) -> str:
        if path is not None:
            return str(path)
        return self._fd_paths.get(fd, "") if fd is not None else ""

    def _matching(self, op: str, *, fd: int | None = None, path=None) -> bool:
        """Whether this call is the planted fault's target (counting
        matching calls so ``index`` selects an ordinal)."""
        if self.fired or self.fault.op != op:
            return False
        if self.fault.path and self.fault.path not in self._path_of(op, fd, path):
            return False
        ordinal = self._matches
        self._matches += 1
        return ordinal == self.fault.index

    def _fire(self, op: str, detail: str = "") -> None:
        self.fired = True
        mode = self.fault.mode
        suffix = f" ({detail})" if detail else ""
        if mode == "crash":
            self.dead = True
            raise SimulatedCrash(f"simulated crash at {op}{suffix}")
        if mode == "enospc":
            import errno

            raise OSError(errno.ENOSPC, f"injected ENOSPC at {op}{suffix}")
        if mode == "eio":
            import errno

            raise OSError(errno.EIO, f"injected EIO at {op}{suffix}")
        raise ValueError(f"fault mode {mode!r} cannot fire at {op}")

    def _check_dead(self, op: str) -> None:
        if self.dead:
            raise SimulatedCrash(f"process is dead (call to {op} after crash)")

    # --------------------------------------------------------------- operations

    def mkstemp(self, directory, prefix: str) -> tuple[int, str]:
        self._check_dead("mkstemp")
        if self._matching("mkstemp", path=directory):
            self._fire("mkstemp", str(directory))
        fd, tmp = self.real.mkstemp(directory, prefix)
        self._fd_paths[fd] = tmp
        self._written[fd] = 0
        self._open_fds.add(fd)
        return fd, tmp

    def write(self, fd: int, data) -> int:
        self._check_dead("write")
        buf = bytes(data)
        if self._matching("write", fd=fd):
            mode = self.fault.mode
            if mode == "flip" and buf:
                pos = self.rng.randrange(len(buf))
                flipped = buf[:pos] + bytes([buf[pos] ^ 0xFF]) + buf[pos + 1 :]
                self.fired = True
                n = self.real.write(fd, flipped)
                self._written[fd] = self._written.get(fd, 0) + n
                return n
            if mode == "short" and len(buf) > 1:
                self.fired = True
                n = self.real.write(fd, buf[: len(buf) // 2])
                self._written[fd] = self._written.get(fd, 0) + n
                return n
            if self.fault.after_bytes is not None:
                allowed = self.fault.after_bytes - self._written.get(fd, 0)
                if len(buf) <= allowed:
                    # Not at byte N yet: let it through, keep watching.
                    self._matches -= 1
                    self.fired = False
                else:
                    torn = self.real.write(fd, buf[: max(0, allowed)])
                    self._written[fd] = self._written.get(fd, 0) + torn
                    self._fire(
                        "write",
                        f"torn at byte {self.fault.after_bytes} of "
                        f"{self._fd_paths.get(fd, fd)}",
                    )
            else:
                self._fire("write", str(self._fd_paths.get(fd, fd)))
        n = self.real.write(fd, buf)
        self._written[fd] = self._written.get(fd, 0) + n
        return n

    def read(self, fd: int, count: int) -> bytes:
        self._check_dead("read")
        if self._matching("read", fd=fd):
            if self.fault.mode == "short" and count > 1:
                self.fired = True
                return os.read(fd, count // 2)
            self._fire("read")
        return os.read(fd, count)

    def fsync(self, fd: int) -> None:
        self._check_dead("fsync")
        if self._matching("fsync", fd=fd):
            self._fire("fsync", str(self._fd_paths.get(fd, fd)))
        self.real.fsync(fd)

    def close(self, fd: int) -> None:
        # Even dead, the real descriptor is released (the kernel closes
        # a killed process's fds too) — then the crash propagates so the
        # caller cannot continue its sequence.
        self._open_fds.discard(fd)
        if self.dead:
            try:
                os.close(fd)
            except OSError:
                pass
            raise SimulatedCrash("process is dead (call to close after crash)")
        if self._matching("close", fd=fd):
            self._open_fds.add(fd)  # fault fires before the real close
            self._fire("close", str(self._fd_paths.get(fd, fd)))
        self.real.close(fd)

    def replace(self, src, dst) -> None:
        self._check_dead("replace")
        if self._matching("replace", path=dst):
            self._fire("replace", f"{src} -> {dst}")
        self.real.replace(src, dst)

    def unlink(self, path) -> None:
        self._check_dead("unlink")
        if self._matching("unlink", path=path):
            self._fire("unlink", str(path))
        self.real.unlink(path)

    def fsync_dir(self, path) -> None:
        self._check_dead("fsync_dir")
        if self._matching("fsync_dir", path=path):
            self._fire("fsync_dir", str(path))
        self.real.fsync_dir(path)


def flip_byte(path, offset: int | None = None, *, seed: int = 0) -> int:
    """Flip one byte of ``path`` in place — deterministic bit rot.

    With ``offset=None`` a seeded position is chosen past any magic /
    header-length prefix (first 16 bytes) so the flip lands in content
    the per-section checksums must catch, not in framing the format
    check rejects anyway. Returns the flipped offset.
    """
    from pathlib import Path

    target = Path(path)
    blob = bytearray(target.read_bytes())
    if not blob:
        raise ValueError(f"{target}: cannot flip a byte of an empty file")
    if offset is None:
        low = min(16, len(blob) - 1)
        offset = random.Random(seed).randrange(low, len(blob))
    blob[offset] ^= 0xFF
    target.write_bytes(bytes(blob))
    return offset


class LiveLogWriter:
    """Replay a finished :class:`~repro.zeek.builder.ZeekLogs` capture
    into a directory the way a live Zeek writes it — incrementally, with
    injectable rotation, truncation, partial-write, and burst faults —
    so the live-tail daemon can be chaos-tested against a ground truth.

    The two streams are interleaved by timestamp: before each ssl row,
    every x509 row with an earlier-or-equal timestamp is written, plus
    any certificate the ssl row references that has not been emitted yet
    (Zeek logs the certificate before the connection that carried it).
    Live files are ``ssl.log``/``x509.log``; a row from a new calendar
    month first rotates the instance to ``{kind}.{YYYY-MM}.log``
    (collision-suffixed), mirroring the batch archive layout of
    :func:`repro.zeek.files.write_rotated_logs`.

    Faults:

    - :meth:`rotate` — close + rename now (``#close`` footer written);
    - :meth:`truncate` — the *copytruncate* idiom: the live file is
      truncated in place (same inode — a tailer observes a genuine size
      regression) and its prior content lands in a ``.copyN`` rotated
      file, so no durable row is destroyed;
    - :meth:`partial_write` — only a prefix of the next line, no
      newline (a mid-write read must buffer it);
    - :meth:`write_next` with a large count — a burst.

    After :meth:`finalize` the directory is a pure rotated archive —
    every live instance closed and renamed — that the batch pipeline
    consumes directly, which is what makes the daemon-vs-batch
    equivalence test possible.
    """

    def __init__(self, logs, directory) -> None:
        from pathlib import Path

        from repro.zeek.files import month_key
        from repro.zeek.tsv import format_ssl_row, format_x509_row

        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        ssl_sorted = sorted(logs.ssl, key=lambda r: r.ts)
        x509_sorted = sorted(logs.x509, key=lambda r: r.ts)
        by_fuid: dict[str, list[int]] = {}
        for index, record in enumerate(x509_sorted):
            by_fuid.setdefault(record.fuid, []).append(index)
        emitted = [False] * len(x509_sorted)
        events: list[tuple[str, str, str]] = []

        def emit_x509(index: int) -> None:
            if not emitted[index]:
                emitted[index] = True
                record = x509_sorted[index]
                events.append(
                    ("x509", format_x509_row(record) + "\n", month_key(record.ts))
                )

        next_x509 = 0
        for row in ssl_sorted:
            while (
                next_x509 < len(x509_sorted)
                and x509_sorted[next_x509].ts <= row.ts
            ):
                emit_x509(next_x509)
                next_x509 += 1
            for fuid in (*row.cert_chain_fuids, *row.client_cert_chain_fuids):
                for index in by_fuid.get(fuid, ()):
                    emit_x509(index)
            events.append(("ssl", format_ssl_row(row) + "\n", month_key(row.ts)))
        while next_x509 < len(x509_sorted):
            emit_x509(next_x509)
            next_x509 += 1
        self._events = events
        self._cursor = 0
        self._files: dict[str, object] = {}
        self._months: dict[str, str] = {}
        self._partial: tuple[str, str] | None = None
        self._copies = 0
        self.rotations = 0
        self.truncations = 0

    # ------------------------------------------------------------------ helpers

    def _live_path(self, kind: str):
        return self.directory / f"{kind}.log"

    def _ensure_open(self, kind: str, month: str):
        from repro.zeek.tsv import log_header_text

        fh = self._files.get(kind)
        if fh is not None and self._months[kind] != month:
            self.rotate(kind)
            fh = None
        if fh is None:
            fh = open(self._live_path(kind), "w", encoding="utf-8")
            fh.write(log_header_text(kind))
            fh.flush()
            self._files[kind] = fh
            self._months[kind] = month
        return fh

    def _complete_partial(self) -> None:
        if self._partial is None:
            return
        kind, rest = self._partial
        self._partial = None
        fh = self._files[kind]
        fh.write(rest)
        fh.flush()

    # ------------------------------------------------------------------ writing

    @property
    def remaining(self) -> int:
        """Events not yet (fully) written."""
        return len(self._events) - self._cursor

    def write_next(self, count: int = 1) -> int:
        """Write the next ``count`` interleaved lines (completing any
        pending partial line first); returns the lines written."""
        self._complete_partial()
        written = 0
        while written < count and self._cursor < len(self._events):
            kind, line, month = self._events[self._cursor]
            fh = self._ensure_open(kind, month)
            fh.write(line)
            fh.flush()
            self._cursor += 1
            written += 1
        return written

    def partial_write(self, nbytes: int | None = None) -> bool:
        """Write only a prefix of the next line — no trailing newline —
        leaving the remainder pending (completed by the next write). A
        mid-write reader must buffer, not drop, the cut row. Returns
        False when the capture is exhausted."""
        self._complete_partial()
        if self._cursor >= len(self._events):
            return False
        kind, line, month = self._events[self._cursor]
        self._cursor += 1
        cut = nbytes if nbytes is not None else max(1, len(line) // 2)
        cut = max(1, min(cut, len(line) - 1))  # keep the newline pending
        fh = self._ensure_open(kind, month)
        fh.write(line[:cut])
        fh.flush()
        self._partial = (kind, line[cut:])
        return True

    # ------------------------------------------------------------------- faults

    def rotate(self, kind: str):
        """Close the live instance (``#close`` footer) and rename it to
        its month-named rotated file, like Zeek's own rotation. Returns
        the rotated path (None when no instance is open)."""
        if self._partial is not None and self._partial[0] == kind:
            self._complete_partial()
        fh = self._files.pop(kind, None)
        if fh is None:
            return None
        month = self._months.pop(kind)
        fh.write("#close\n")
        fh.close()
        target = self.directory / f"{kind}.{month}.log"
        serial = 1
        while target.exists():
            serial += 1
            target = self.directory / f"{kind}.{month}.{serial}.log"
        os.replace(self._live_path(kind), target)
        self.rotations += 1
        return target

    def truncate(self, kind: str):
        """Copytruncate the live instance (logrotate's idiom): truncate
        ``{kind}.log`` in place — same inode, so a tailer observes a
        genuine size regression — then land the prior content in a
        ``.copyN`` rotated file. No durable row is destroyed. The
        truncation strictly precedes the copy's appearance, so a tailer
        never meets the copy without the truncation being observable."""
        from repro.zeek.tsv import log_header_text

        if self._partial is not None and self._partial[0] == kind:
            self._complete_partial()
        fh = self._files.get(kind)
        if fh is None:
            return None
        fh.flush()
        content = self._live_path(kind).read_bytes()
        fh.seek(0)
        fh.truncate()
        fh.write(log_header_text(kind))
        fh.flush()
        self.truncations += 1
        self._copies += 1
        month = self._months[kind]
        target = self.directory / f"{kind}.{month}.copy{self._copies}.log"
        tmp = target.with_suffix(".tmp")
        tmp.write_bytes(content)
        os.replace(tmp, target)
        return target

    def finalize(self) -> list:
        """Drain every remaining event and rotate all live instances;
        the directory becomes a finished rotated archive, directly
        consumable by the batch pipeline."""
        self.write_next(len(self._events))
        rotated = []
        for kind in ("ssl", "x509"):
            target = self.rotate(kind)
            if target is not None:
                rotated.append(target)
        return rotated

    def close(self) -> None:
        """Close the live files where they stand — no ``#close`` footer,
        no rename, like a writer that stopped mid-capture. Idempotent;
        :meth:`finalize` leaves nothing open to close."""
        while self._files:
            self._files.popitem()[1].close()

    def __enter__(self) -> "LiveLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
