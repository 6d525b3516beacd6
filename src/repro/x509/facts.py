"""Per-certificate derived facts and the bounded fact cache.

The paper's corpus shares certificates heavily across connections (the
same service leaf shows up in thousands of rows), yet the enrichment
layer historically re-derived the public-CA classification once per
*connection*. :class:`CertFactCache` memoizes it per distinct
certificate fingerprint behind a bounded LRU, so it runs once per
certificate instead.

The cache is deliberately generic: it stores whatever a ``derive``
callable returns (:func:`repro.core.enrich.derive_cert_facts` builds
the concrete :class:`CertFacts`), which keeps this module free of
upward imports into ``repro.core``. Stats are a picklable dataclass
with an associative, commutative merge — the same partial-aggregate
discipline as :class:`~repro.zeek.ingest.IngestReport` and the
metrics registry — so per-shard cache stats fold into campaign metrics
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: Default bound on distinct certificates held by a fact cache. Far
#: above any real shard's distinct-certificate count; exists so an
#: adversarial stream of unique certificates cannot grow memory
#: without limit.
DEFAULT_MAX_ENTRIES = 1 << 16


@dataclass(frozen=True)
class CertFacts:
    """What enrichment needs to know about one certificate: whether a
    public trust store vouches for its issuer.

    Derived once per distinct fingerprint; both fields are plain JSON
    types so the container survives pickling (shard results) and JSON
    (streaming snapshots) unchanged.
    """

    fingerprint: str
    is_public: bool

    def to_dict(self) -> dict[str, Any]:
        return {"fingerprint": self.fingerprint, "is_public": self.is_public}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CertFacts":
        """Reads only the two fields: checkpoints written before
        ``CertFacts`` shrank carry eight more per entry and must still
        load."""
        return cls(fingerprint=data["fingerprint"], is_public=data["is_public"])


@dataclass
class CacheStats:
    """Hit/miss/eviction counters; merge is associative and commutative."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "CacheStats":
        return cls(
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            evictions=int(data.get("evictions", 0)),
        )


class CertFactCache:
    """Bounded LRU of derived facts keyed by certificate fingerprint.

    LRU order rides Python's dict insertion order: a hit pops and
    reinserts the entry (move-to-end); when full, the oldest entry
    (``next(iter(...))``) is evicted. Because ``derive`` is pure, an
    eviction only ever costs recomputation — results are identical to
    the uncached path for any bound, which the hypothesis suite in
    ``tests/differential/test_certfact_cache.py`` pins with forced
    evictions.
    """

    def __init__(
        self,
        derive: Callable[[Any], Any],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._derive = derive
        self.max_entries = max_entries
        self._entries: dict[str, Any] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str, record: Any) -> Any:
        """The derived facts for ``record``, computed at most once per
        cache residency of its fingerprint."""
        entries = self._entries
        try:
            value = entries.pop(fingerprint)
        except KeyError:
            self.stats.misses += 1
            value = self._derive(record)
            if len(entries) >= self.max_entries:
                entries.pop(next(iter(entries)))
                self.stats.evictions += 1
        else:
            self.stats.hits += 1
        entries[fingerprint] = value
        return value

    # Snapshots -----------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """JSON-serializable cache state (entry order — the LRU order —
        survives the JSON round trip), for streaming checkpoints."""
        return {
            "max_entries": self.max_entries,
            "entries": {
                fp: facts.to_dict() for fp, facts in self._entries.items()
            },
            "stats": self.stats.to_dict(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        self.max_entries = int(state["max_entries"])
        self._entries = {
            fp: CertFacts.from_dict(data)
            for fp, data in state["entries"].items()
        }
        self.stats = CacheStats.from_dict(state["stats"])
