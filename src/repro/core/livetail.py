"""Always-on live analysis: rotation-safe tailing of a hot Zeek log dir.

The batch pipeline reads a *finished* rotated archive; the paper's
measurement ran for 23 months against logs that were still being
written. This module provides the pieces of `repro serve`, a daemon that
follows the live ``ssl.log``/``x509.log`` of a directory while Zeek (or
the fault-injecting :class:`~repro.netsim.faults.LiveLogWriter`) keeps
rotating, truncating, and appending to them:

- :class:`LogTailer` — one live log stream, consumed exactly once. The
  tailer keeps the file descriptor open so a rename (rotation) can be
  drained to EOF from the old fd; it detects rotation by inode change on
  the path, truncation by size regression on the same inode, and never
  loses or re-reads a byte across either. Rotated files it did not
  watch being born are read whole, once. Mid-write reads are safe: raw
  bytes are buffered up to the last newline, so an unterminated trailing
  line (or a split multi-byte character) waits for its completion.
- :class:`AdmissionController` — bounded memory under burst overload:
  hot tables switch to reservoir sampling and carry an explicit
  offered/admitted correction factor; cold tables stay exact.
- :class:`LiveAnalysisEngine` — the incremental twin of the batch
  pipeline: keeps a bounded fuid → x509 record map, rebuilds each
  established connection's :class:`~repro.core.dataset.ConnView`,
  labels it through the same :class:`~repro.core.enrich.Enricher` path,
  and updates every registry partial. Because partials are
  deterministic independent of update/merge order (the
  :mod:`repro.core.protocol` contract), live arrival order is
  irrelevant: with sampling disabled the rendered tables are
  byte-identical to a batch ``analyze`` of the same rows.
- :class:`LiveTailDaemon` — the poll loop, scheduled checkpoints
  (engine state *and* tailer cursors in one atomic ``livetail/v2``
  document, so a SIGKILL rolls both back together — exactly-once
  resume), and graceful shutdown (final drain + final checkpoint).
"""

from __future__ import annotations

import base64
import io
import os
import pickle
import random
import threading
import time
import zlib
from pathlib import Path
from typing import Iterable

from repro.core import metrics, tracing
from repro.core.dataset import ConnView, remember_fuid
from repro.core.durable import (
    durable_write_json,
    load_checkpoint_json,
    sweep_orphans,
)
from repro.core.locks import FileLock, LockTimeout
from repro.core.enrich import AssociationRules, Enricher
from repro.core.protocol import (
    AnalysisContext,
    analysis_names,
    create_partials,
    load_default_analyses,
    update_partials,
)
from repro.trust import TrustBundle
from repro.zeek import (
    ErrorPolicy,
    FastPath,
    IngestReport,
    SslRecord,
    TailDecoder,
    X509Record,
    read_x509_log,
)

#: The checkpoint document's one top-level key: ``{"format", "tailers",
#: "state_b64"}``, the last a pickle of the engine's whole state.
LIVETAIL_STATE_KEY = "livetail"
LIVETAIL_STATE_FORMAT = "livetail/v2"
#: The previous layout, still restored (see `_v1_streaming_state`).
LIVETAIL_V1_FORMAT = "livetail/v1"

#: Tables that switch to reservoir sampling under overload by default:
#: the per-connection distribution tables, whose exact update cost is
#: proportional to the row flood. Identity-level tables (unique
#: certificates, issuers) stay exact — their state is bounded by the
#: number of distinct certificates, not connections.
DEFAULT_HOT_TABLES: tuple[str, ...] = ("table2", "table3", "table4", "figure2")

_CHUNK = 1 << 16
#: Bound on rotation-race resolution rounds within one poll; leftover
#: work simply carries into the next poll.
_MAX_SYNC_ROUNDS = 64


def _b64e(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _b64d(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


class LogTailer:
    """Tail one live Zeek log (``<kind>.log``) in a rotating directory.

    Exactly-once consumption across faults:

    - **Rotation** (the path's inode changes / the path vanishes): the
      old instance is drained to EOF through the still-open fd, its
      decoder finished, and its rotated name — located by inode — marked
      processed so it is never read again.
    - **Truncation in place** (same inode, size below our offset — the
      copytruncate idiom): the cut instance is parked as a
      *continuation* keyed by a CRC fingerprint of the bytes already
      consumed; when the copied-aside file appears, its matching prefix
      is skipped and only the remainder is decoded, through the parked
      decoder. A plain destructive truncation simply never matches and
      the live file restarts as a new instance either way.
    - **Mid-write reads**: bytes are buffered up to the last newline;
      an unterminated tail (even a split multi-byte character) is
      decoded only once completed — or flushed through the batch
      truncated-final-line path when the instance truly ends.

    The complete cursor state is JSON-serializable (`state_dict` /
    `load_state`); a restored tailer re-attaches to the live file only
    when inode *and* consumed-prefix CRC still match, and otherwise
    parks the old instance as a continuation — so a crash between
    checkpoint and restart moves no byte twice.
    """

    def __init__(
        self,
        directory: Path | str,
        kind: str,
        *,
        report: IngestReport | None = None,
        on_error: ErrorPolicy | str = ErrorPolicy.SKIP,
        fast_path: FastPath | str = FastPath.AUTO,
    ) -> None:
        self.directory = Path(directory)
        self.kind = kind
        self.live_path = self.directory / f"{kind}.log"
        self.report = report if report is not None else IngestReport()
        self.on_error = ErrorPolicy.coerce(on_error)
        self.fast_path = FastPath.coerce(fast_path)
        #: Rotated filenames fully consumed — never read twice.
        self.processed: set[str] = set()
        self.rotations_seen = 0
        self.truncations_seen = 0
        self._fh = None
        self._dev: int | None = None
        self._ino: int | None = None
        self._offset = 0
        self._crc = 0
        self._buffer = b""
        self._decoder: TailDecoder | None = None
        #: Cut instances whose remaining bytes may still appear as a
        #: rotated file; see the class docstring.
        self._continuations: list[dict] = []

    # ------------------------------------------------------------------ helpers

    def _new_decoder(self, path: Path, *, count_file: bool = True) -> TailDecoder:
        return TailDecoder(
            self.kind, on_error=self.on_error, report=self.report,
            path=str(path), fast_path=self.fast_path, count_file=count_file,
        )

    def _ingest(self, data: bytes, records: list) -> None:
        if not data:
            return
        self._offset += len(data)
        self._crc = zlib.crc32(data, self._crc)
        self._buffer += data
        cut = self._buffer.rfind(b"\n")
        if cut < 0:
            return
        complete = self._buffer[: cut + 1]
        self._buffer = self._buffer[cut + 1:]
        records.extend(self._decoder.feed(complete.decode("utf-8")))

    def _drain_fh(self, records: list) -> None:
        while True:
            chunk = self._fh.read(_CHUNK)
            if not chunk:
                return
            self._ingest(chunk, records)

    def _finish_instance(self, records: list) -> None:
        """The open instance ended: flush the byte buffer (unterminated
        tail → batch truncated-final-line semantics) and finish."""
        if self._buffer:
            records.extend(
                self._decoder.feed(self._buffer.decode("utf-8", "replace"))
            )
            self._buffer = b""
        records.extend(self._decoder.finish())

    def _close_fh(self) -> None:
        if self._fh is not None:
            self._fh.close()
        self._fh = None
        self._dev = self._ino = None
        self._offset = 0
        self._crc = 0
        self._buffer = b""
        self._decoder = None

    def _open_live(self) -> bool:
        try:
            fh = open(self.live_path, "rb")
        except FileNotFoundError:
            return False
        st = os.fstat(fh.fileno())
        self._fh = fh
        self._dev, self._ino = st.st_dev, st.st_ino
        self._offset = 0
        self._crc = 0
        self._buffer = b""
        self._decoder = self._new_decoder(self.live_path)
        return True

    def _find_by_inode(self, dev: int, ino: int) -> str | None:
        for path in self.directory.glob(f"{self.kind}.*.log"):
            if path.name in self.processed:
                continue
            try:
                st = path.stat()
            except FileNotFoundError:
                continue
            if (st.st_dev, st.st_ino) == (dev, ino):
                return path.name
        return None

    # ------------------------------------------------------------------- events

    def _handle_rotation(self, records: list) -> None:
        self._drain_fh(records)
        name = self._find_by_inode(self._dev, self._ino)
        self._finish_instance(records)
        if name is not None:
            self.processed.add(name)
        else:
            # Rename not visible yet; the fingerprint recognizes (and
            # skips) the file when it appears.
            self._continuations.append({
                "nbytes": self._offset, "crc": self._crc,
                "buffer": b"", "decoder": None,
            })
        self._close_fh()
        self.rotations_seen += 1

    def _handle_truncation(self) -> None:
        self._continuations.append({
            "nbytes": self._offset, "crc": self._crc,
            "buffer": self._buffer, "decoder": self._decoder,
        })
        self.truncations_seen += 1
        self._fh.seek(0)
        self._offset = 0
        self._crc = 0
        self._buffer = b""
        self._decoder = self._new_decoder(self.live_path)

    def _match_continuation(self, data: bytes) -> dict | None:
        for entry in self._continuations:
            n = entry["nbytes"]
            if len(data) >= n and zlib.crc32(data[:n]) == entry["crc"]:
                return entry
        return None

    def _consume_rotated(self, records: list) -> None:
        if (
            self._fh is not None
            and os.fstat(self._fh.fileno()).st_size < self._offset
        ):
            # Register an in-place truncation *before* scanning rotated
            # candidates: the copied-aside file (copytruncate writes it
            # after truncating) must meet its continuation entry, never
            # be mistaken for an unseen file and re-read.
            self._handle_truncation()
        for path in sorted(self.directory.glob(f"{self.kind}.*.log")):
            if path.name in self.processed:
                continue
            try:
                st = path.stat()
            except FileNotFoundError:
                continue
            if (
                self._fh is not None
                and (st.st_dev, st.st_ino) == (self._dev, self._ino)
            ):
                # The current live instance mid-rename; drained via fd.
                continue
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue
            entry = self._match_continuation(data)
            if entry is not None:
                self._continuations.remove(entry)
                decoder = entry["decoder"]
                if decoder is not None:
                    text = (entry["buffer"] + data[entry["nbytes"]:]).decode(
                        "utf-8", "replace"
                    )
                    if text:
                        records.extend(decoder.feed(text))
                    records.extend(decoder.finish())
            else:
                # A rotated file this tailer never watched (pre-existing
                # or rotated between polls): read whole, exactly once.
                decoder = self._new_decoder(path)
                text = data.decode("utf-8", "replace")
                if text:
                    records.extend(decoder.feed(text))
                records.extend(decoder.finish())
            self.processed.add(path.name)

    def _step_live(self, records: list) -> bool:
        """Advance the live file one step; True when the view is stable
        (the open fd is still ``<kind>.log``, drained to EOF)."""
        try:
            st = os.stat(self.live_path)
        except FileNotFoundError:
            st = None
        if self._fh is None:
            if st is None:
                return True
            if not self._open_live():
                return False
            self._drain_fh(records)
            return False  # verify no rotation raced the open
        if st is None or (st.st_dev, st.st_ino) != (self._dev, self._ino):
            self._handle_rotation(records)
            return False
        if os.fstat(self._fh.fileno()).st_size < self._offset:
            self._handle_truncation()
        self._drain_fh(records)
        try:
            st = os.stat(self.live_path)
        except FileNotFoundError:
            return False
        return (st.st_dev, st.st_ino) == (self._dev, self._ino)

    # --------------------------------------------------------------------- API

    def poll(self) -> list:
        """One sweep: consume newly rotated files and new live bytes.
        Loops until the directory view is stable, so a rotation racing
        the poll is resolved within the same call."""
        records: list = []
        for _ in range(_MAX_SYNC_ROUNDS):
            self._consume_rotated(records)
            if self._step_live(records):
                break
        return records

    def close(self) -> None:
        """Release the fd *without* finishing the live decoder — the
        file is still live; a resumed tailer continues exactly here."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        live = None
        if self._decoder is not None:
            live = {
                "dev": self._dev, "ino": self._ino,
                "offset": self._offset, "crc": self._crc,
                "buffer_b64": _b64e(self._buffer),
                "decoder": self._decoder.state_dict(),
            }
        return {
            "kind": self.kind,
            "processed": sorted(self.processed),
            "rotations_seen": self.rotations_seen,
            "truncations_seen": self.truncations_seen,
            "live": live,
            "continuations": [
                {
                    "nbytes": e["nbytes"], "crc": e["crc"],
                    "buffer_b64": _b64e(e["buffer"]),
                    "decoder": (
                        e["decoder"].state_dict()
                        if e["decoder"] is not None else None
                    ),
                }
                for e in self._continuations
            ],
        }

    def _restore_decoder(self, state: dict | None) -> TailDecoder | None:
        if state is None:
            return None
        decoder = self._new_decoder(self.live_path, count_file=False)
        decoder.load_state(state)
        return decoder

    def load_state(self, state: dict) -> None:
        if state.get("kind") != self.kind:
            raise ValueError(
                f"tailer state is for kind {state.get('kind')!r}, not {self.kind!r}"
            )
        self.processed = set(state["processed"])
        self.rotations_seen = state["rotations_seen"]
        self.truncations_seen = state["truncations_seen"]
        self._continuations = [
            {
                "nbytes": e["nbytes"], "crc": e["crc"],
                "buffer": _b64d(e["buffer_b64"]),
                "decoder": self._restore_decoder(e["decoder"]),
            }
            for e in state["continuations"]
        ]
        live = state["live"]
        if live is None:
            return
        decoder = self._restore_decoder(live["decoder"])
        buffer = _b64d(live["buffer_b64"])
        try:
            fh = open(self.live_path, "rb")
        except FileNotFoundError:
            fh = None
        if fh is not None:
            st = os.fstat(fh.fileno())
            attach = False
            if (
                (st.st_dev, st.st_ino) == (live["dev"], live["ino"])
                and st.st_size >= live["offset"]
            ):
                prefix = fh.read(live["offset"])
                attach = (
                    len(prefix) == live["offset"]
                    and zlib.crc32(prefix) == live["crc"]
                )
            if attach:
                self._fh = fh
                self._dev, self._ino = live["dev"], live["ino"]
                self._offset = live["offset"]
                self._crc = live["crc"]
                self._buffer = buffer
                self._decoder = decoder
                return
            fh.close()
        # The instance we were mid-reading moved on while the daemon was
        # down; pick it up from the recorded offset when its rotated
        # file is recognized.
        if decoder is not None and not decoder.finished:
            self._continuations.append({
                "nbytes": live["offset"], "crc": live["crc"],
                "buffer": buffer, "decoder": decoder,
            })


class AdmissionController:
    """Bounded memory under burst overload via per-table sampling.

    In EXACT mode every established connection updates every partial.
    When one poll batch exceeds ``high_watermark`` established rows, the
    controller opens a *sampling window*: hot tables stop receiving
    per-row updates and instead a bounded uniform reservoir (Algorithm
    R) of ``(view, enriched)`` pairs accumulates; cold tables stay
    exact. A batch at/below ``low_watermark`` closes the window — the
    reservoir is folded into the hot partials and offered/admitted
    counts committed. A hot table that ever sampled is permanently
    flagged, with ``correction = offered / admitted``: the factor its
    per-connection counts were scaled down by (its identity-level
    statements remain exact for the sampled subset).

    ``high_watermark=0`` (the default) disables the controller — a pure
    pass-through, keeping live results byte-identical to batch.
    """

    def __init__(
        self,
        *,
        high_watermark: int = 0,
        low_watermark: int | None = None,
        reservoir_size: int = 4096,
        hot_tables: Iterable[str] = DEFAULT_HOT_TABLES,
        seed: int = 2024,
    ) -> None:
        if high_watermark < 0:
            raise ValueError("high_watermark must be >= 0")
        self.high_watermark = high_watermark
        self.low_watermark = (
            low_watermark if low_watermark is not None else high_watermark // 2
        )
        if self.low_watermark > high_watermark:
            raise ValueError("low_watermark must not exceed high_watermark")
        self.reservoir_size = reservoir_size
        self.hot_tables = tuple(hot_tables)
        self.sampling = False
        self.windows = 0
        self.reservoir: list = []
        self.window_offered = 0
        self.offered: dict[str, int] = {}
        self.admitted: dict[str, int] = {}
        self.sampled_tables: set[str] = set()
        self._rng = random.Random(seed)

    @property
    def enabled(self) -> bool:
        return self.high_watermark > 0

    def observe_batch(self, rows: int) -> str | None:
        """Mode transition for a poll batch of ``rows`` established
        connections: ``"enter"``, ``"exit"`` (caller must fold
        :meth:`close_window`), or None."""
        if not self.enabled:
            return None
        if not self.sampling and rows > self.high_watermark:
            self.sampling = True
            self.windows += 1
            self.sampled_tables.update(self.hot_tables)
            return "enter"
        if self.sampling and rows <= self.low_watermark:
            return "exit"
        return None

    def offer(self, item) -> bool:
        """Offer one (view, enriched) pair to the open window's
        reservoir; True when it was admitted."""
        self.window_offered += 1
        if len(self.reservoir) < self.reservoir_size:
            self.reservoir.append(item)
            return True
        slot = self._rng.randrange(self.window_offered)
        if slot < self.reservoir_size:
            self.reservoir[slot] = item
            return True
        return False

    def close_window(self) -> list:
        """Commit the window: returns the admitted items for folding
        into the hot partials and resets to EXACT mode."""
        items = self.reservoir
        for name in self.hot_tables:
            self.offered[name] = self.offered.get(name, 0) + self.window_offered
            self.admitted[name] = self.admitted.get(name, 0) + len(items)
        self.reservoir = []
        self.window_offered = 0
        self.sampling = False
        return items

    def table_stats(self, name: str, *, include_open_window: bool = False) -> dict | None:
        """Sampling status for one table (None when it never sampled)."""
        if name not in self.sampled_tables:
            return None
        offered = self.offered.get(name, 0)
        admitted = self.admitted.get(name, 0)
        if include_open_window and self.sampling and name in self.hot_tables:
            offered += self.window_offered
            admitted += len(self.reservoir)
        correction = offered / admitted if admitted else float(offered or 1)
        return {
            "sampled": True,
            "offered": offered,
            "admitted": admitted,
            "correction": correction,
        }


class LiveAnalysisEngine:
    """The incremental twin of the batch pipeline (module docstring).

    x509 rows land in a fuid → record map bounded by ``max_fuid_map``
    (:func:`~repro.core.dataset.remember_fuid`); evictions count as
    ``livetail.fuid_evictions``.
    """

    def __init__(
        self,
        bundle: TrustBundle,
        *,
        rules: AssociationRules | None = None,
        max_fuid_map: int | None = None,
        fast_path: FastPath | str = FastPath.AUTO,
        min_interception_domains: int = 5,
        admission: AdmissionController | None = None,
    ) -> None:
        if max_fuid_map is not None and max_fuid_map <= 0:
            raise ValueError("max_fuid_map must be positive (or None)")
        load_default_analyses()
        self.max_fuid_map = max_fuid_map
        self.x509_by_fuid: dict[str, X509Record] = {}
        self.connections_seen = 0
        self.metrics = metrics.MetricsRegistry()
        # No CT log: the live filter only tracks fingerprints (an empty
        # interception report), exactly like a batch `analyze` without
        # --ct — which is what the equivalence contract compares against.
        self.enricher = Enricher(
            bundle, ct_log=None, rules=rules,
            min_interception_domains=min_interception_domains,
            fact_cache=FastPath.coerce(fast_path).enabled,
        )
        self.context = AnalysisContext(bundle=bundle, rules=self.enricher.rules)
        self.admission = admission or AdmissionController()
        self.partials = self._new_partials()
        self.scan = self.enricher.new_scan()
        self.ssl_report = IngestReport()
        self.x509_report = IngestReport()
        self._rebind_tables()

    def _new_partials(self) -> dict:
        """Every registry partial, the hot and the cold admission group
        each from its own ``create_partials`` call: a sampled table must
        never share a profile store with an exact one."""
        hot = set(self.admission.hot_tables)
        names = analysis_names()
        partials = {
            **create_partials([n for n in names if n in hot], self.context),
            **create_partials([n for n in names if n not in hot], self.context),
        }
        return {name: partials[name] for name in names}

    def _rebind_tables(self) -> None:
        hot = set(self.admission.hot_tables)
        self._hot = {n: p for n, p in self.partials.items() if n in hot}
        self._cold = {n: p for n, p in self.partials.items() if n not in hot}

    # ------------------------------------------------------------------ feeding

    def feed(
        self, ssl_records: list[SslRecord], x509_records: list[X509Record]
    ) -> None:
        """Fold one poll batch in (x509 first — Zeek write ordering
        guarantees any referenced certificate row is durable before the
        ssl row referencing it)."""
        for record in x509_records:
            if remember_fuid(
                self.x509_by_fuid, record.fuid, record, self.max_fuid_map
            ):
                self.metrics.inc("livetail.fuid_evictions")
        self.metrics.inc("streaming.x509_records", len(x509_records))
        self.metrics.inc("streaming.ssl_records", len(ssl_records))
        established = [r for r in ssl_records if r.established]
        self.connections_seen += len(established)
        transition = self.admission.observe_batch(len(established))
        if transition == "enter":
            self.metrics.inc("livetail.admission.windows")
        elif transition == "exit":
            self._fold_window()
        sampling = self.admission.sampling
        views = []
        labelled = []
        for row in established:
            view = ConnView(
                ssl=row,
                server_leaf=self.x509_by_fuid.get(row.server_leaf_fuid),
                client_leaf=self.x509_by_fuid.get(row.client_leaf_fuid),
            )
            self.scan.observe(view)
            enriched = self.enricher.label(view)
            views.append(view)
            labelled.append(enriched)
            if sampling:
                self.admission.offer((view, enriched))
        update_partials(self._cold if sampling else self.partials, labelled, views)
        if sampling:
            self.metrics.inc("livetail.admission.deferred", len(established))

    def _fold_window(self) -> None:
        folded = self.admission.close_window()
        _update_pairs(self._hot, folded)
        self.metrics.inc("livetail.admission.folded", len(folded))

    # ------------------------------------------------------------------ queries

    def interception_report(self):
        return self.scan.finalize(self.enricher.min_interception_domains)

    def tables(self) -> dict[str, dict]:
        """Render every registry table with its sampling status.

        While a sampling window is open, hot tables render from a deep
        copy folded with the current reservoir — the committed partials
        stay sample-free until the window actually closes.
        """
        inter = self.partials.get("interception")
        if inter is not None:
            # The partial captured the (empty) report at construction;
            # refresh it from the live scan at query time.
            inter.report = self.interception_report()
        overlay: dict = {}
        if self.admission.sampling and self.admission.reservoir:
            overlay = pickle.loads(pickle.dumps(self._hot))
            _update_pairs(overlay, self.admission.reservoir)
        out: dict[str, dict] = {}
        for name in self.partials:
            partial = overlay.get(name, self.partials[name])
            out[name] = {
                "table": partial.finalize(),
                "sampling": self.admission.table_stats(
                    name, include_open_window=True
                ),
            }
        return out

    def publish_sampling_metrics(self) -> None:
        """Mirror per-table sampling status into the metrics registry
        (gauges: the stats are cumulative absolutes, not deltas)."""
        for name in sorted(self.admission.sampled_tables):
            stats = self.admission.table_stats(name, include_open_window=True)
            if stats is None:
                continue
            prefix = f"livetail.sampled.{name}"
            self.metrics.set_gauge(f"{prefix}.offered", stats["offered"])
            self.metrics.set_gauge(f"{prefix}.admitted", stats["admitted"])
            self.metrics.set_gauge(f"{prefix}.correction", stats["correction"])

    # ------------------------------------------------------------- persistence

    def checkpoint(self, path: Path | str, tailer_states: dict) -> Path:
        """Write the engine's state and the daemon's tailer cursors as
        one durable ``livetail/v2`` document (fsync before rename, the
        last good copy kept as ``<path>.prev``)."""
        self.publish_sampling_metrics()
        self.metrics.inc("streaming.checkpoint_writes")
        cache = self.enricher.fact_cache
        with metrics.scoped(self.metrics), tracing.span("streaming.checkpoint"):
            if cache is not None:
                self.metrics.mirror_cache(cache.stats, "streaming.certfacts")
            blob = pickle.dumps({
                "x509_by_fuid": self.x509_by_fuid,
                "max_fuid_map": self.max_fuid_map,
                "connections_seen": self.connections_seen,
                "certfacts": cache.state_dict() if cache is not None else None,
                "metrics": self.metrics.state_dict(),
                "partials": self.partials,
                "scan": self.scan,
                "ssl_report": self.ssl_report,
                "x509_report": self.x509_report,
                "admission": self.admission,
            })
            durable_write_json(path, {
                LIVETAIL_STATE_KEY: {
                    "format": LIVETAIL_STATE_FORMAT,
                    "tailers": tailer_states,
                    "state_b64": _b64e(blob),
                }
            }, keep_prev=True)
        return Path(path)

    @classmethod
    def from_checkpoint_doc(
        cls,
        bundle: TrustBundle,
        document: dict,
        *,
        rules: AssociationRules | None = None,
        min_interception_domains: int = 5,
    ) -> "LiveAnalysisEngine":
        """Rebuild a live engine from a ``livetail/v2`` or ``livetail/v1``
        checkpoint document, all of its state at the same instant (the
        tailer cursors under ``"tailers"`` are the daemon's to restore).
        Any other document is a ValueError naming its format."""
        live = document.get(LIVETAIL_STATE_KEY)
        found = document.get("format") if live is None else live.get("format")
        if live is None or found not in (
            LIVETAIL_STATE_FORMAT, LIVETAIL_V1_FORMAT
        ):
            raise ValueError(
                f"unsupported live checkpoint format {found!r} (expected "
                f"{LIVETAIL_STATE_FORMAT!r} or {LIVETAIL_V1_FORMAT!r})"
            )
        state = pickle.loads(_b64d(live["state_b64"]))
        if found == LIVETAIL_V1_FORMAT:
            state.update(_v1_streaming_state(document))
        engine = cls(
            bundle, rules=rules, max_fuid_map=state["max_fuid_map"],
            fast_path=(
                FastPath.OFF if state["certfacts"] is None else FastPath.AUTO
            ),
            min_interception_domains=min_interception_domains,
            admission=state["admission"],
        )
        engine.x509_by_fuid = state["x509_by_fuid"]
        engine.connections_seen = state["connections_seen"]
        engine.metrics.merge_state(state["metrics"])
        if engine.enricher.fact_cache is not None:
            engine.enricher.fact_cache.load_state(state["certfacts"])
        engine.partials = state["partials"]
        engine.scan = state["scan"]
        # The scan's fact cache is process-local acceleration state,
        # nulled on pickling; reattach the (restored) shared one.
        engine.scan.fact_cache = engine.enricher.fact_cache
        engine.ssl_report = state["ssl_report"]
        engine.x509_report = state["x509_report"]
        engine._rebind_tables()
        return engine


def _v1_streaming_state(document: dict) -> dict:
    """The engine state a ``livetail/v1`` document kept beside its
    ``livetail`` key, in a ``streaming-analyzer/v2`` snapshot: the fuid
    map (x509 TSV text, in map order), fact cache, metrics and counters.
    Its eviction count was never a metric and is not carried over."""
    records = read_x509_log(io.StringIO(document["x509_records"]))
    return {
        "x509_by_fuid": {record.fuid: record for record in records},
        "max_fuid_map": document["max_fuid_map"],
        "connections_seen": document["connections_seen"],
        "certfacts": document["certfacts"],
        "metrics": document["metrics"],
    }


def _update_pairs(partials: dict, pairs: list) -> None:
    """Fold admitted ``(view, enriched)`` reservoir pairs into partials."""
    update_partials(
        partials, [enriched for _, enriched in pairs], [view for view, _ in pairs]
    )


class LiveTailDaemon:
    """The `repro serve` poll loop: tailers → engine → checkpoints.

    All mutation happens under ``lock`` (the HTTP server's query threads
    take the same lock), and a checkpoint captures aggregates and tailer
    cursors in one atomic document — a SIGKILL at any instant rolls the
    whole daemon back to the last checkpoint on ``--resume``, and the
    tailers then re-consume exactly the bytes that came after it.
    """

    def __init__(
        self,
        directory: Path | str,
        bundle: TrustBundle,
        *,
        checkpoint_path: Path | str,
        checkpoint_interval: float = 30.0,
        poll_interval: float = 0.05,
        on_error: ErrorPolicy | str = ErrorPolicy.SKIP,
        fast_path: FastPath | str = FastPath.AUTO,
        max_fuid_map: int | None = None,
        rules: AssociationRules | None = None,
        min_interception_domains: int = 5,
        admission: AdmissionController | None = None,
        resume: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.checkpoint_path = Path(checkpoint_path)
        self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        # Exactly one daemon may own a checkpoint file: two `repro
        # serve` instances alternating checkpoints would each roll the
        # other's state back. Advisory, non-blocking, dies with us.
        self._checkpoint_lock = FileLock(
            self.checkpoint_path.with_suffix(self.checkpoint_path.suffix + ".lock")
        )
        try:
            self._checkpoint_lock.acquire(exclusive=True, timeout=0, op="serve")
        except LockTimeout as exc:
            raise RuntimeError(
                f"refusing to serve: another daemon owns "
                f"{self.checkpoint_path} ({exc})"
            ) from None
        self.checkpoint_interval = checkpoint_interval
        self.poll_interval = poll_interval
        self.lock = threading.RLock()
        self.stop_event = threading.Event()
        self.polls = 0
        self.checkpoints_written = 0
        self.resumed = False
        try:
            # A killed daemon's half-written checkpoint temps. The prefix
            # confines the sweep to this checkpoint's own temp files —
            # the live log directory may share this path, and its
            # writers use .tmp siblings of their own.
            sweep_orphans(
                self.checkpoint_path.parent, prefix=self.checkpoint_path.name
            )
            document = None
            if resume:
                try:
                    document, used_prev = load_checkpoint_json(
                        self.checkpoint_path
                    )
                except (OSError, ValueError):
                    document = None  # no usable checkpoint: fresh start
            if document is not None:
                self.engine = LiveAnalysisEngine.from_checkpoint_doc(
                    bundle, document, rules=rules,
                    min_interception_domains=min_interception_domains,
                )
                if used_prev:
                    self.engine.metrics.inc("streaming.checkpoint_fallbacks")
                self.resumed = True
            else:
                self.engine = LiveAnalysisEngine(
                    bundle, rules=rules, max_fuid_map=max_fuid_map,
                    fast_path=fast_path,
                    min_interception_domains=min_interception_domains,
                    admission=admission,
                )
            self.ssl_tailer = LogTailer(
                self.directory, "ssl", report=self.engine.ssl_report,
                on_error=on_error, fast_path=fast_path,
            )
            self.x509_tailer = LogTailer(
                self.directory, "x509", report=self.engine.x509_report,
                on_error=on_error, fast_path=fast_path,
            )
            if document is not None:
                tailers = document[LIVETAIL_STATE_KEY]["tailers"]
                self.ssl_tailer.load_state(tailers["ssl"])
                self.x509_tailer.load_state(tailers["x509"])
        except BaseException:
            # The lock is a raw fd that nothing else closes: kept, it
            # would turn away every later daemon on this checkpoint,
            # even one started in this process after the error.
            self._checkpoint_lock.release()
            raise
        self.started = time.monotonic()
        self._last_checkpoint = time.monotonic()

    # --------------------------------------------------------------------- ops

    def poll_once(self) -> int:
        """One full sweep of both streams. The ssl stream is snapshotted
        *before* x509: any x509 row an already-captured ssl row
        references was durable before that ssl row was written, so the
        later x509 read always covers it."""
        with self.lock:
            ssl_records = self.ssl_tailer.poll()
            x509_records = self.x509_tailer.poll()
            self.engine.feed(ssl_records, x509_records)
            self.polls += 1
            moved = len(ssl_records) + len(x509_records)
            if moved:
                self.engine.metrics.inc("livetail.records", moved)
        return moved

    def checkpoint(self) -> Path:
        with self.lock, tracing.span("livetail.checkpoint"):
            self.engine.metrics.set_gauge("livetail.polls", self.polls)
            path = self.engine.checkpoint(
                self.checkpoint_path,
                {
                    "ssl": self.ssl_tailer.state_dict(),
                    "x509": self.x509_tailer.state_dict(),
                },
            )
            self.checkpoints_written += 1
            self._last_checkpoint = time.monotonic()
        return path

    def run(self) -> None:
        """Poll until stopped; on stop, drain what is on disk and write
        the final checkpoint (the graceful-shutdown contract)."""
        while not self.stop_event.is_set():
            self.poll_once()
            if time.monotonic() - self._last_checkpoint >= self.checkpoint_interval:
                self.checkpoint()
            self.stop_event.wait(self.poll_interval)
        self.poll_once()
        self.checkpoint()
        self.close()

    def stop(self) -> None:
        self.stop_event.set()

    def close(self) -> None:
        with self.lock:
            self.ssl_tailer.close()
            self.x509_tailer.close()
        self._checkpoint_lock.release()

    # ----------------------------------------------------------------- queries

    def health(self) -> dict:
        with self.lock:
            admission = self.engine.admission
            return {
                "status": "ok",
                "uptime_s": round(time.monotonic() - self.started, 3),
                "polls": self.polls,
                "rows": {
                    "ssl": self.engine.ssl_report.rows_ok,
                    "x509": self.engine.x509_report.rows_ok,
                },
                "connections_seen": self.engine.connections_seen,
                "rotations": {
                    "ssl": self.ssl_tailer.rotations_seen,
                    "x509": self.x509_tailer.rotations_seen,
                },
                "truncations": {
                    "ssl": self.ssl_tailer.truncations_seen,
                    "x509": self.x509_tailer.truncations_seen,
                },
                "sampling": admission.sampling,
                "sampled_tables": sorted(admission.sampled_tables),
                "checkpoints_written": self.checkpoints_written,
                "checkpoint_path": str(self.checkpoint_path),
                "resumed": self.resumed,
            }

    def ingest_summary(self) -> dict:
        with self.lock:
            return {
                "ssl": self.engine.ssl_report.to_dict(),
                "x509": self.engine.x509_report.to_dict(),
            }
