"""Run-to-run comparison of exported study results.

Loads two JSON exports (from `repro.core.export.study_to_json` or
`python -m repro study --json`) and reports where they drift — the tool
for checking that a code change did not silently move a reproduced
number, or for comparing two scenarios.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.report import Table


@dataclass
class TableDiff:
    """Differences within one table."""

    title: str
    only_in_a: list[str] = field(default_factory=list)  # row keys
    only_in_b: list[str] = field(default_factory=list)
    changed_rows: list[tuple[str, list[str], list[str]]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.only_in_a or self.only_in_b or self.changed_rows)


@dataclass
class StudyDiff:
    """Differences between two study exports."""

    summary_changes: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    tables_only_in_a: list[str] = field(default_factory=list)
    tables_only_in_b: list[str] = field(default_factory=list)
    table_diffs: list[TableDiff] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (
            self.summary_changes or self.tables_only_in_a
            or self.tables_only_in_b or self.table_diffs
        )


def _row_key(row: list[str]) -> str:
    return row[0] if row else ""


def diff_tables(title: str, a: dict, b: dict) -> TableDiff:
    """Compare two exported tables row-by-row, keyed by first cell."""
    diff = TableDiff(title=title)
    rows_a = {_row_key(row): row for row in a.get("rows", [])}
    rows_b = {_row_key(row): row for row in b.get("rows", [])}
    diff.only_in_a = sorted(set(rows_a) - set(rows_b))
    diff.only_in_b = sorted(set(rows_b) - set(rows_a))
    for key in sorted(set(rows_a) & set(rows_b)):
        if rows_a[key] != rows_b[key]:
            diff.changed_rows.append((key, rows_a[key], rows_b[key]))
    return diff


def diff_studies(a: dict, b: dict) -> StudyDiff:
    """Compare two `study_to_dict` payloads."""
    diff = StudyDiff()
    summary_a = a.get("summary", {})
    summary_b = b.get("summary", {})
    for key in sorted(set(summary_a) | set(summary_b)):
        value_a, value_b = summary_a.get(key), summary_b.get(key)
        if value_a != value_b:
            diff.summary_changes[key] = (value_a, value_b)
    tables_a = a.get("tables", {})
    tables_b = b.get("tables", {})
    diff.tables_only_in_a = sorted(set(tables_a) - set(tables_b))
    diff.tables_only_in_b = sorted(set(tables_b) - set(tables_a))
    for title in sorted(set(tables_a) & set(tables_b)):
        table_diff = diff_tables(title, tables_a[title], tables_b[title])
        if not table_diff.is_empty:
            diff.table_diffs.append(table_diff)
    return diff


def diff_study_json(document_a: str, document_b: str) -> StudyDiff:
    return diff_studies(json.loads(document_a), json.loads(document_b))


def render_study_diff(diff: StudyDiff, max_rows: int = 40) -> Table:
    table = Table(
        "Study comparison (A vs B)",
        ["Where", "What", "A", "B"],
    )
    for key, (value_a, value_b) in diff.summary_changes.items():
        table.add_row("summary", key, value_a, value_b)
    for title in diff.tables_only_in_a:
        table.add_row("tables", title, "present", "absent")
    for title in diff.tables_only_in_b:
        table.add_row("tables", title, "absent", "present")
    shown = 0
    for table_diff in diff.table_diffs:
        for key, row_a, row_b in table_diff.changed_rows:
            if shown >= max_rows:
                table.add_note("... more row changes suppressed")
                return table
            table.add_row(table_diff.title, key, " | ".join(row_a), " | ".join(row_b))
            shown += 1
        for key in table_diff.only_in_a:
            table.add_row(table_diff.title, key, "present", "absent")
        for key in table_diff.only_in_b:
            table.add_row(table_diff.title, key, "absent", "present")
    if diff.is_empty:
        table.add_note("no differences")
    return table
