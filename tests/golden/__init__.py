"""Golden-corpus regression suite.

A small deterministic netsim campaign (fixed seed) is the *corpus*; the
rendered output of every registered analysis over it is the *expected*
answer, checked in as ``expected.json`` next to a ``corpus.json``
fingerprint of the serialized logs. ``test_golden_corpus.py`` re-runs
the pipeline and fails with a readable unified diff the moment any
analysis output drifts — whether from an intentional change (re-pin
with ``python -m tests.golden.update``) or an accidental one.

The fingerprint separates the two ways a golden test can break: if
``corpus.json`` no longer matches, the *simulator* changed (the corpus
itself moved); if only ``expected.json`` mismatches, the *analyses*
changed on identical input.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.core import protocol
from repro.core.study import CampusStudy
from repro.netsim import ScenarioConfig
from repro.zeek import IngestOptions, ssl_log_to_string, x509_log_to_string

GOLDEN_DIR = Path(__file__).parent
EXPECTED_PATH = GOLDEN_DIR / "expected.json"
CORPUS_PATH = GOLDEN_DIR / "corpus.json"

#: The golden campaign: small enough to run in seconds, rich enough to
#: populate every table (interception, faults off — pure pipeline).
GOLDEN_CONFIG = ScenarioConfig(seed=29, months=6, connections_per_month=400)

#: Schema tags for the two checked-in documents.
EXPECTED_FORMAT = "golden-expected/v1"
CORPUS_FORMAT = "golden-corpus/v1"


def build_study(
    fast_path: str = "auto", on_error: str = "strict"
) -> CampusStudy:
    """The golden study; ``fast_path``/``on_error`` select the legs of
    the fast-vs-slow comparison (lenient legs re-ingest through the TSV
    reader, which is what exercises the decoders)."""
    return CampusStudy(
        config=GOLDEN_CONFIG,
        options=IngestOptions(fast_path=fast_path, on_error=on_error),
    )


def corpus_fingerprint(study: CampusStudy) -> dict[str, Any]:
    """Config plus a sha256 over the corpus's serialized Zeek logs."""
    logs = study.run().simulation.logs
    digest = hashlib.sha256()
    digest.update(ssl_log_to_string(logs.ssl).encode("utf-8"))
    digest.update(x509_log_to_string(logs.x509).encode("utf-8"))
    return {
        "format": CORPUS_FORMAT,
        "config": {
            "seed": GOLDEN_CONFIG.seed,
            "months": GOLDEN_CONFIG.months,
            "connections_per_month": GOLDEN_CONFIG.connections_per_month,
        },
        "ssl_rows": len(logs.ssl),
        "x509_rows": len(logs.x509),
        "sha256": digest.hexdigest(),
    }


def table_to_json(table) -> dict[str, Any]:
    """A Table as JSON-stable data (cells stringified, as rendered)."""
    return {
        "title": table.title,
        "headers": [str(h) for h in table.headers],
        "rows": [[str(cell) for cell in row] for row in table.rows],
        "notes": list(table.notes),
    }


def analysis_names() -> list[str]:
    return list(protocol.PAPER_TABLE_ORDER)


def expected_document(study: CampusStudy) -> dict[str, Any]:
    """Every registered analysis over the corpus, in paper order."""
    return {
        "format": EXPECTED_FORMAT,
        "tables": {
            name: table_to_json(study.table(name))
            for name in analysis_names()
        },
    }


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def load_corpus() -> dict[str, Any]:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def diff_tables(expected: dict[str, Any], actual: dict[str, Any]) -> str:
    """Readable unified diff between two table_to_json documents."""
    import difflib

    want = json.dumps(expected, indent=1, sort_keys=True).splitlines()
    got = json.dumps(actual, indent=1, sort_keys=True).splitlines()
    return "\n".join(
        difflib.unified_diff(want, got, "expected", "actual", lineterm="")
    )
