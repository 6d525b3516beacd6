"""Machine-readable export of study results.

Renders the whole study (or any `Table`) as JSON so results can be
diffed across runs, plotted externally, or archived — the
privacy-preserving "intermediate data" sharing the paper's artifact
statement aspires to.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.report import Table


def table_to_dict(table: Table) -> dict[str, Any]:
    """One table as {title, headers, rows, notes} with stringified cells."""
    return {
        "title": table.title,
        "headers": list(table.headers),
        "rows": [[str(cell) for cell in row] for row in table.rows],
        "notes": list(table.notes),
    }


def study_to_dict(study) -> dict[str, Any]:
    """Every artifact of a `CampusStudy` keyed by table title."""
    result = study.run()
    payload: dict[str, Any] = {
        "config": {
            "seed": study.config.seed,
            "months": study.config.months,
            "connections_per_month": study.config.connections_per_month,
        },
        "summary": {
            "connections": len(result.dataset),
            "mutual_connections": len(result.dataset.mutual_connections),
            "unique_certificates": len(result.enriched.profiles),
            "interception_issuers_flagged": len(
                result.enriched.interception.flagged_issuers
            ),
            "interception_certificates_excluded": len(
                result.enriched.interception.excluded_fingerprints
            ),
        },
        "tables": {},
    }
    for table in study.all_tables():
        payload["tables"][table.title] = table_to_dict(table)
    return payload


def study_to_json(study, indent: int = 2) -> str:
    """The full study as a JSON document."""
    return json.dumps(study_to_dict(study), indent=indent, sort_keys=True)


def export_tables_dict(source, names=None) -> dict[str, Any]:
    """Registry-keyed export of rendered analyses.

    ``source`` is anything with a ``table(name) -> Table`` method —
    a :class:`~repro.core.study.CampusStudy` or a
    :class:`~repro.core.parallel.CampaignResult`. ``names`` defaults to
    every registered analysis, in paper order. Each entry carries its
    registry name and the rendered table.
    """
    from repro.core import protocol

    selected = tuple(names) if names is not None else protocol.analysis_names()
    analyses: dict[str, Any] = {}
    for name in selected:
        analyses[name] = {"analysis": name, **table_to_dict(source.table(name))}
    return {"analyses": analyses, "order": list(selected)}


def export_tables_json(source, names=None, indent: int = 2) -> str:
    """JSON form of :func:`export_tables_dict`."""
    return json.dumps(
        export_tables_dict(source, names), indent=indent, sort_keys=True
    )
