"""Crash-consistent durable writes, shared by every artifact writer.

A 23-month monitor's durable artifacts — columnar-store column files
and manifests, campaign-manifest spills, live-tail checkpoints — must
survive a power cut, a SIGKILL, ENOSPC, and EIO without ever publishing
a half-written file. This module is the one place that sequence lives::

    temp file (same directory)  →  write  →  fsync(file)
        →  os.replace(temp, target)  →  fsync(parent directory)

The rename is atomic, the file fsync makes the *content* durable before
the name exists, and the directory fsync makes the *name* durable — a
crash at any instant leaves either the complete old artifact or the
complete new one, never a torn or empty rename target. ENOSPC and EIO
abort cleanly: the temp file is unlinked and the target untouched.

Every filesystem operation routes through a swappable I/O object
(:func:`use_io`), which is what makes the sequence *testable*: the
deterministic :class:`~repro.netsim.faults.FaultyIO` shim injects a
torn write at byte N, a bit flip, ENOSPC after K bytes, or EIO at any
single step, and the chaos suite asserts the old-or-new invariant at
every crash point.

A writer killed between ``mkstemp`` and ``replace`` leaves an orphaned
``<name>.<random>.tmp`` sibling; :func:`sweep_orphans` removes them.
Call it only from a context that excludes live writers (e.g. while
holding the directory's exclusive :class:`~repro.core.locks.FileLock`,
or during single-process startup), or a racing writer's in-flight temp
could be deleted under it.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: Every temp file this module creates ends with this, which is what
#: :func:`sweep_orphans` keys on. Durable artifacts must never use it.
TMP_SUFFIX = ".tmp"


class DurableIO:
    """The real filesystem operations behind :func:`durable_write`.

    Kept deliberately tiny — exactly the calls the durability sequence
    needs — so a fault-injection shim can stand in for the whole surface
    (see :class:`repro.netsim.faults.FaultyIO`).
    """

    def mkstemp(self, directory: Path | str, prefix: str) -> tuple[int, str]:
        return tempfile.mkstemp(
            dir=str(directory), prefix=prefix, suffix=TMP_SUFFIX
        )

    def write(self, fd: int, data) -> int:
        return os.write(fd, data)

    def fsync(self, fd: int) -> None:
        os.fsync(fd)

    def close(self, fd: int) -> None:
        os.close(fd)

    def replace(self, src: Path | str, dst: Path | str) -> None:
        os.replace(src, dst)

    def unlink(self, path: Path | str) -> None:
        os.unlink(path)

    def fsync_dir(self, path: Path | str) -> None:
        fd = os.open(str(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        except OSError:
            # Some filesystems refuse directory fsync; the rename is
            # still atomic, only its durability window widens.
            pass
        finally:
            os.close(fd)


_io = DurableIO()


def get_io() -> DurableIO:
    """The active I/O implementation (the real one unless a fault shim
    is installed via :func:`use_io`)."""
    return _io


@contextmanager
def use_io(io) -> Iterator:
    """Swap the I/O implementation for the duration of the block.

    Test-only in spirit: :class:`~repro.netsim.faults.FaultyIO` uses it
    to interpose deterministic faults under every durable write.
    """
    global _io
    previous = _io
    _io = io
    try:
        yield io
    finally:
        _io = previous


def durable_write(
    path: Path | str, payload: bytes, *, keep_prev: bool = False
) -> Path:
    """Publish ``payload`` at ``path`` durably and atomically.

    With ``keep_prev`` the existing file (if any) is retained as
    ``<path>.prev`` before the rename — the last-good fallback
    :func:`load_checkpoint_json` uses. A crash at any instant leaves
    the target as either the complete old content or the complete new
    content; an I/O error (ENOSPC, EIO) unlinks the temp file and
    re-raises with the target untouched.
    """
    path = Path(path)
    io = _io
    fd, tmp = io.mkstemp(path.parent, path.name + ".")
    closed = False
    try:
        view = memoryview(payload)
        written = 0
        while written < len(view):
            written += io.write(fd, view[written:])
        io.fsync(fd)
        io.close(fd)
        closed = True
        if keep_prev and path.exists():
            io.replace(path, path.with_suffix(path.suffix + ".prev"))
        io.replace(tmp, path)
        io.fsync_dir(path.parent)
    except BaseException:
        # Best-effort tidy-up for *survivable* errors (ENOSPC, EIO). A
        # simulated crash's dead I/O shim refuses both calls, so the fd
        # and temp file are left exactly as a real SIGKILL would leave
        # them — which is what sweep_orphans exists for.
        if not closed:
            try:
                io.close(fd)
            except OSError:
                pass
        try:
            io.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def durable_write_json(
    path: Path | str, payload: dict, *, keep_prev: bool = False, **dump_kwargs
) -> Path:
    """:func:`durable_write` for a JSON document."""
    return durable_write(
        path,
        json.dumps(payload, **dump_kwargs).encode("utf-8"),
        keep_prev=keep_prev,
    )


def load_checkpoint_json(path: Path | str) -> tuple[dict, bool]:
    """Load a JSON checkpoint written with ``keep_prev``, falling back
    to the last-good copy.

    Returns ``(document, used_prev)``: if the primary file is missing,
    corrupt, or truncated, the retained ``<path>.prev`` copy is tried;
    only when neither yields valid JSON does the primary's error
    propagate.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8")), False
    except (OSError, ValueError, UnicodeDecodeError) as primary_error:
        prev = path.with_suffix(path.suffix + ".prev")
        try:
            return json.loads(prev.read_text(encoding="utf-8")), True
        except (OSError, ValueError, UnicodeDecodeError):
            raise primary_error from None


def sweep_orphans(
    directory: Path | str, *, prefix: str | None = None
) -> list[Path]:
    """Remove temp files a killed writer left behind.

    Deletes every ``*.tmp`` entry in ``directory`` (optionally
    restricted to names starting with ``prefix``, e.g. a checkpoint
    file's own name so a sweep in a shared log directory cannot touch
    anything else). Returns the removed paths. Safe to call on a
    missing directory. Only call while live writers are excluded — see
    the module docstring.
    """
    directory = Path(directory)
    removed: list[Path] = []
    if not directory.is_dir():
        return removed
    for entry in directory.iterdir():
        name = entry.name
        if not name.endswith(TMP_SUFFIX):
            continue
        if prefix is not None and not name.startswith(prefix):
            continue
        if not entry.is_file():
            continue
        try:
            entry.unlink()
        except OSError:
            continue
        removed.append(entry)
    return removed
