"""Store-native queries: headline analyses without record objects.

The streaming analyzer answers its queries by materializing every TSV
row into a record and folding it into mergeable state. Over a columnar
store the same answers fall out of the derived ``__flags__`` bitmap
column directly:

- per-month connection/mutual totals are ``bytes.count`` calls over the
  flags column (pure C) whenever a shard's rows share one calendar
  month — the overwhelmingly common layout, since shards *are* months;
- the TLS 1.3 blind spot adds one slim Python pass over the pooled IP
  index columns to build the distinct-endpoint sets.

Both queries return the exact objects (:class:`MonthlyShare` rows,
:class:`Tls13Blindspot`) a :class:`StreamingAnalyzer` fed the same
records would return — the equivalence the differential suite pins.
"""

from __future__ import annotations

from repro.core.prevalence import MonthlyShare, MonthlyShareState
from repro.core.tuples import Tls13Blindspot, Tls13State
from repro.store.codec import (
    FLAG_CLIENT_CHAIN,
    FLAG_ESTABLISHED,
    FLAG_SERVER_CHAIN,
    FLAG_TLS13,
)
from repro.store.source import ColumnarStoreSource

_MUTUAL = FLAG_ESTABLISHED | FLAG_SERVER_CHAIN | FLAG_CLIENT_CHAIN

#: Every flag byte value matching each predicate (the bitmap is 5 bits
#: wide, so exhaustive enumeration beats per-row tests by a mile).
_EST_VALUES = tuple(v for v in range(32) if v & FLAG_ESTABLISHED)
_MUTUAL_VALUES = tuple(v for v in _EST_VALUES if (v & _MUTUAL) == _MUTUAL)
_TLS13_VALUES = tuple(v for v in _EST_VALUES if v & FLAG_TLS13)


class StoreQueryEngine:
    """Answer the re-analysis headliners straight off the columns.

    Shard sections are fetched through
    :meth:`~repro.store.source.ColumnarStoreSource.serve` — the fetch
    closures copy the columns out and mutate nothing, so a lazily
    detected checksum failure heals (quarantine + rebuild from TSV) and
    refetches without ever exposing a damaged byte to the fold below.
    """

    def __init__(self, source: ColumnarStoreSource) -> None:
        self.source = source

    def _shard_columns(self, month: str, fetch):
        filename = self.source.manifest["ssl_shards"][month]["file"]
        return self.source.serve(filename, fetch)

    def monthly_mutual_share(self) -> list[MonthlyShare]:
        """The Figure 1 series (mTLS share per month, established only)."""
        state = MonthlyShareState()
        for month in self.source.months():
            rows, flags, month_idx, strings = self._shard_columns(
                month,
                lambda t: (
                    t.rows,
                    t.raw("__flags__"),
                    t.typed("__month__").tolist(),
                    t.pool(),
                ),
            )
            if not rows:
                continue
            distinct = set(month_idx)
            if len(distinct) == 1:
                # Single-label shard (the normal rotation layout):
                # everything is C-speed byte counting.
                state.add(
                    strings[month_idx[0]],
                    sum(flags.count(v) for v in _EST_VALUES),
                    sum(flags.count(v) for v in _MUTUAL_VALUES),
                )
            else:
                # Hand-rotated file carrying out-of-window rows: fall
                # back to exact per-row attribution.
                for value, idx in zip(flags, month_idx):
                    if value & FLAG_ESTABLISHED:
                        state.add(strings[idx], 1, int((value & _MUTUAL) == _MUTUAL))
        return state.rows()

    def tls13_blindspot(self) -> Tls13Blindspot:
        """The §3.3 blind-spot counters over the whole capture."""
        state = Tls13State()
        for month in self.source.months():
            rows, flags, resp, orig, strings = self._shard_columns(
                month,
                lambda t: (
                    t.rows,
                    t.raw("__flags__"),
                    t.typed("id_resp_h").tolist(),
                    t.typed("id_orig_h").tolist(),
                    t.pool(),
                ),
            )
            if not rows:
                continue
            state.total_connections += sum(flags.count(v) for v in _EST_VALUES)
            state.tls13_connections += sum(flags.count(v) for v in _TLS13_VALUES)
            # Distinct-endpoint sets are collected as pool indexes (small
            # ints) and translated to strings once per shard — pool
            # indexes are per-file, so the cross-shard union must be on
            # the strings themselves.
            servers: set[int] = set()
            clients: set[int] = set()
            servers13: set[int] = set()
            clients13: set[int] = set()
            for value, resp_idx, orig_idx in zip(flags, resp, orig):
                if value & FLAG_ESTABLISHED:
                    servers.add(resp_idx)
                    clients.add(orig_idx)
                    if value & FLAG_TLS13:
                        servers13.add(resp_idx)
                        clients13.add(orig_idx)
            state.server_ips |= {strings[i] for i in servers}
            state.client_ips |= {strings[i] for i in clients}
            state.tls13_server_ips |= {strings[i] for i in servers13}
            state.tls13_client_ips |= {strings[i] for i in clients13}
        return state.result()
