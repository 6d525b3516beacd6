"""Ingest-quality bookkeeping for resilient log reading.

Real rotated Zeek archives contain truncated tails from crashed
writers, flipped bytes, garbage lines, and mid-rotation restarts. The
TSV readers accept an :class:`ErrorPolicy` deciding what happens on a
malformed row, and (for the lenient policies) account for every dropped
line in an :class:`IngestReport` so an analysis run can state exactly
what fraction of the input it consumed.

- ``strict``     — fail fast (the historical behavior), but every error
  carries file path, line number, and field name;
- ``skip``       — drop bad rows, count them by reason;
- ``quarantine`` — like ``skip``, but additionally capture the raw text
  of every bad line for offline inspection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.zeek.records import SslRecord, X509Record


class ErrorPolicy(str, enum.Enum):
    """What a reader does when it meets a malformed line."""

    STRICT = "strict"
    SKIP = "skip"
    QUARANTINE = "quarantine"

    @classmethod
    def coerce(cls, value: "ErrorPolicy | str") -> "ErrorPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown error policy {value!r} (choices: {choices})"
            ) from None

    @property
    def lenient(self) -> bool:
        return self is not ErrorPolicy.STRICT

    @property
    def captures_raw(self) -> bool:
        return self is ErrorPolicy.QUARANTINE


class FastPath(str, enum.Enum):
    """Which decode engine readers and enrichers use.

    ``off`` forces the reference per-field implementation (the
    differential oracle); ``batch`` the vectorized whole-buffer engine
    that decodes columns in bulk. ``auto`` resolves to the library
    default, which is *batch*. The engines are proven byte-identical by
    ``tests/differential``, so the modes exist only as operator escape
    hatches and as differential baselines — never as semantic switches.
    """

    OFF = "off"
    AUTO = "auto"
    BATCH = "batch"

    @classmethod
    def coerce(cls, value: "FastPath | str") -> "FastPath":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown fast-path mode {value!r} (choices: {choices})"
            ) from None

    @property
    def enabled(self) -> bool:
        """Whether the batch engine (and the fact cache) is in use."""
        return self is not FastPath.OFF


@dataclass(frozen=True)
class IngestIssue:
    """One malformed line (or header) met during ingestion.

    ``raw`` is only populated under the ``quarantine`` policy.
    """

    path: str
    line_number: int
    category: str
    reason: str
    field: str | None = None
    raw: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line_number": self.line_number,
            "category": self.category,
            "reason": self.reason,
            "field": self.field,
            "raw": self.raw,
        }


#: Cap on retained IngestIssue records; counters are never capped, so
#: drop accounting stays exact even on pathological inputs.
MAX_RECORDED_ISSUES = 10_000


@dataclass
class IngestReport:
    """Running account of one (multi-file) ingestion.

    Counters are exact: ``rows_ok + rows_dropped`` equals the number of
    data rows met across all files fed into this report. The ``issues``
    list is capped at ``max_recorded_issues`` to bound memory; the
    ``issues_truncated`` flag says whether the cap was hit.
    """

    rows_ok: int = 0
    rows_dropped: int = 0
    files_read: int = 0
    header_recoveries: int = 0
    truncated_final_lines: int = 0
    files_missing_close: int = 0
    issues: list[IngestIssue] = field(default_factory=list)
    dropped_by_category: dict[str, int] = field(default_factory=dict)
    dropped_by_path: dict[str, int] = field(default_factory=dict)
    max_recorded_issues: int = MAX_RECORDED_ISSUES
    issues_truncated: bool = False

    # Recording -----------------------------------------------------------------

    def record_row(self) -> None:
        self.rows_ok += 1

    def record_drop(
        self,
        *,
        path: str,
        line_number: int,
        category: str,
        reason: str,
        field: str | None = None,
        raw: str | None = None,
    ) -> None:
        self.rows_dropped += 1
        self.dropped_by_category[category] = (
            self.dropped_by_category.get(category, 0) + 1
        )
        self.dropped_by_path[path] = self.dropped_by_path.get(path, 0) + 1
        self._record_issue(
            IngestIssue(
                path=path, line_number=line_number, category=category,
                reason=reason, field=field, raw=raw,
            )
        )

    def record_header_issue(
        self, *, path: str, line_number: int, category: str, reason: str,
        raw: str | None = None,
    ) -> None:
        """A header anomaly that is not itself a dropped data row."""
        self._record_issue(
            IngestIssue(
                path=path, line_number=line_number, category=category,
                reason=reason, field=None, raw=raw,
            )
        )

    def _record_issue(self, issue: IngestIssue) -> None:
        if len(self.issues) >= self.max_recorded_issues:
            self.issues_truncated = True
            return
        self.issues.append(issue)

    # Queries -------------------------------------------------------------------

    @property
    def rows_total(self) -> int:
        return self.rows_ok + self.rows_dropped

    @property
    def drop_rate(self) -> float:
        total = self.rows_total
        return self.rows_dropped / total if total else 0.0

    @property
    def quarantined(self) -> list[IngestIssue]:
        """Issues whose raw line was captured (quarantine policy)."""
        return [issue for issue in self.issues if issue.raw is not None]

    @property
    def clean(self) -> bool:
        return (
            self.rows_dropped == 0
            and self.header_recoveries == 0
            and self.truncated_final_lines == 0
            and self.files_missing_close == 0
        )

    def merge(self, other: "IngestReport") -> None:
        """Fold another report (e.g. from a parallel shard) into this one."""
        self.rows_ok += other.rows_ok
        self.rows_dropped += other.rows_dropped
        self.files_read += other.files_read
        self.header_recoveries += other.header_recoveries
        self.truncated_final_lines += other.truncated_final_lines
        self.files_missing_close += other.files_missing_close
        for key, count in other.dropped_by_category.items():
            self.dropped_by_category[key] = (
                self.dropped_by_category.get(key, 0) + count
            )
        for key, count in other.dropped_by_path.items():
            self.dropped_by_path[key] = self.dropped_by_path.get(key, 0) + count
        for issue in other.issues:
            self._record_issue(issue)
        self.issues_truncated = self.issues_truncated or other.issues_truncated

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable summary (issues included, capped)."""
        return {
            "rows_ok": self.rows_ok,
            "rows_dropped": self.rows_dropped,
            "rows_total": self.rows_total,
            "drop_rate": self.drop_rate,
            "files_read": self.files_read,
            "header_recoveries": self.header_recoveries,
            "truncated_final_lines": self.truncated_final_lines,
            "files_missing_close": self.files_missing_close,
            "dropped_by_category": dict(self.dropped_by_category),
            "dropped_by_path": dict(self.dropped_by_path),
            "issues_truncated": self.issues_truncated,
            "issues": [issue.to_dict() for issue in self.issues],
        }

    @classmethod
    def from_dict(cls, state: dict[str, Any]) -> "IngestReport":
        """Rebuild a report from :meth:`to_dict` output.

        Round-trips every counter and recorded issue, so a report
        replayed from a columnar-store manifest is indistinguishable
        (``to_dict()``-equal) from the one produced at pack time.
        """
        report = cls(
            rows_ok=state.get("rows_ok", 0),
            rows_dropped=state.get("rows_dropped", 0),
            files_read=state.get("files_read", 0),
            header_recoveries=state.get("header_recoveries", 0),
            truncated_final_lines=state.get("truncated_final_lines", 0),
            files_missing_close=state.get("files_missing_close", 0),
            dropped_by_category=dict(state.get("dropped_by_category", {})),
            dropped_by_path=dict(state.get("dropped_by_path", {})),
            issues_truncated=state.get("issues_truncated", False),
        )
        for issue in state.get("issues", ()):
            report.issues.append(
                IngestIssue(
                    path=issue["path"],
                    line_number=issue["line_number"],
                    category=issue["category"],
                    reason=issue["reason"],
                    field=issue.get("field"),
                    raw=issue.get("raw"),
                )
            )
        return report


# ---------------------------------------------------------------------------
# The unified ingestion surface: one options object, one source protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IngestOptions:
    """Everything a reader needs to know about *how* to ingest.

    Collapses the ``on_error``/``report``/``path``/``fast_path`` keyword
    sprawl that used to be duplicated across every reader and pipeline
    entry point: construct one options object, hand it to any of them.

    ``report`` and ``path`` are per-stream concerns; use :meth:`for_path`
    to derive a stream-specific variant from a shared base.
    """

    on_error: ErrorPolicy = ErrorPolicy.STRICT
    fast_path: FastPath = FastPath.AUTO
    report: IngestReport | None = None
    path: str | None = None
    #: Read-buffer size for the batch engine (``None`` = library
    #: default). Output is chunk-size-invariant (proven by the splitter
    #: property tests), so this is a tuning knob, never identity.
    batch_chunk_chars: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "on_error", ErrorPolicy.coerce(self.on_error))
        object.__setattr__(self, "fast_path", FastPath.coerce(self.fast_path))

    @classmethod
    def coerce(cls, value: "IngestOptions | None") -> "IngestOptions":
        return value if value is not None else cls()

    def for_path(
        self, path: str | None, report: IngestReport | None = None
    ) -> "IngestOptions":
        """A per-stream variant: same policies, stream-specific context."""
        return replace(
            self, path=path, report=report if report is not None else self.report
        )

    def replace(self, **changes) -> "IngestOptions":
        return replace(self, **changes)

    def identity(self) -> dict[str, str]:
        """The fingerprint-relevant fields (``report``/``path`` are
        per-stream context, not identity; ``fast_path`` is excluded
        because the two decoders are byte-identical by contract)."""
        return {"on_error": self.on_error.value}


@dataclass
class ShardRecords:
    """One month of records as served by a :class:`RecordSource`.

    ``ssl`` and ``x509`` are timestamp-sorted; ``x509`` is always the
    *full* (cross-month) certificate stream because fuid references may
    cross a rotation boundary. The TSV and store sources each read that
    stream once per instance and hand every shard a fresh list over the
    same records. The two reports carry the exact ingest accounting for
    this shard — replayed verbatim by store-backed sources so downstream
    ingest-health tables stay byte-identical.
    """

    month: str
    ssl: "list[SslRecord]"
    x509: "list[X509Record]"
    ssl_report: IngestReport
    x509_report: IngestReport


@runtime_checkable
class RecordSource(Protocol):
    """Anything the pipeline can pull shard records from.

    Implementations: :class:`repro.zeek.files.TsvDirectorySource` (a
    rotated TSV archive) and :class:`repro.store.ColumnarStoreSource`
    (the parse-once columnar store). Every entry point that used to take
    a directory path takes one of these instead, which is what makes
    stored and raw inputs interchangeable.
    """

    def months(self) -> tuple[str, ...]:
        """Shard keys in chronological order."""
        ...

    def read_month(self, month: str, options: IngestOptions) -> ShardRecords:
        """Load one shard (plus the broadcast x509 stream)."""
        ...

    def identity(self) -> str:
        """Cheap, stable identity for resume-manifest fingerprints."""
        ...
