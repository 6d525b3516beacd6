"""Command-line interface.

Subcommands::

    python -m repro generate  --out DIR [--months N] [--cpm N] [--seed N]
                              [--rotated]
    python -m repro study     [--months N] [--cpm N] [--seed N] [--table NAME]
                              [--jobs N] [--fast-path MODE]
    python -m repro analyze   DIR --trust-bundle FILE [--jobs N]
                              [--table NAME] [--json] [--degrade POLICY]
                              [--max-attempts N] [--shard-timeout S]
                              [--resume DIR] [--fast-path MODE] [--store DIR]
    python -m repro pack      DIR --out STORE [--on-error POLICY]
    python -m repro fsck      STORE [--source DIR] [--repair]
    python -m repro audit     X509_LOG [--campus-marker TEXT]
                              [--fast-path MODE]
    python -m repro intercept SSL_LOG X509_LOG --trust-bundle FILE
                              [--min-domains N] [--fast-path MODE]
    python -m repro serve     DIR --trust-bundle FILE [--host H] [--port P]
                              [--checkpoint FILE] [--resume]
                              [--overload-rows N]
    python -m repro scenario  list | describe NAME |
                              generate [NAME] [--spec FILE] --out DIR
                              [--months N] [--cpm N] [--scale F] [--seed N]
                              [--rotated] [--verify]

`generate` writes Zeek-format ssl.log / x509.log plus a trust-bundle
file, so `intercept`, `audit`, and (with ``--rotated``) `analyze` can
be exercised on the artifacts — the same flow an operator would use
with real Zeek output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core import metrics as core_metrics
from repro.core import tracing
from repro.core.cnsan import CnSanClassifier
from repro.core.dataset import MtlsDataset
from repro.core.enrich import Enricher
from repro.core.report import render_ingest_health
from repro.core.study import CampusStudy
from repro.core.supervisor import CampaignDegradedError
from repro.netsim import FaultPlan, ScenarioConfig, TrafficGenerator
from repro.trust import TrustBundle
from repro.zeek import (
    ErrorPolicy,
    FastPath,
    IngestOptions,
    IngestReport,
    TsvFormatError,
    read_ssl_log,
    read_x509_log,
    write_ssl_log,
    write_x509_log,
)

#: Exit status of a PARTIAL campaign that lost months to quarantine.
EXIT_DEGRADED = 4

#: Exit status of `repro fsck` when damage was found and not repaired.
EXIT_CORRUPT = 5


def _table_choices() -> list[str]:
    """Registry analysis names plus the CLI-only health views."""
    from repro.core import protocol

    return sorted(
        set(protocol.analysis_names())
        | {"ingest-health", "run-health", "run-metrics"}
    )


#: Declarative registry of every shared flag: one place to define a
#: flag, one :func:`_options_parent` call per subcommand to pick the
#: groups it wants. New shared flags (``--store``) land on every consumer
#: at once instead of being copy-pasted into per-flag parent builders.
_FLAG_SPECS: dict[str, tuple[tuple[str, ...], dict]] = {
    "months": (("--months",), dict(type=int, default=23)),
    "cpm": (("--cpm",), dict(type=int, default=1000,
                             help="connections per month")),
    "seed": (("--seed",), dict(type=int, default=7)),
    "on-error": (("--on-error",), dict(
        choices=[p.value for p in ErrorPolicy], default="strict",
        help="malformed-line policy: fail fast (strict), drop and count "
             "(skip), or drop and capture raw lines (quarantine)",
    )),
    "fast-path": (("--fast-path",), dict(
        choices=[m.value for m in FastPath], default="auto",
        help="ingest/enrich fast path: the batch decode engine plus the "
             "per-certificate fact cache. Results are byte-identical "
             "either way; 'off' is the reference path, 'auto' (default) "
             "enables it",
    )),
    "jobs": (("--jobs",), dict(
        type=int, default=0, metavar="N",
        help="analyze per-month shards over N worker processes "
             "(0 = in-process sequential; tables are byte-identical)",
    )),
    "pipeline": (("--pipeline",), dict(
        choices=["on", "off", "auto"], default="auto",
        help="intra-shard pipelining: decode ssl batches on a reader "
             "thread while the shard enriches/analyzes them (sharded "
             "path only; results are byte-identical either way; 'auto' "
             "(default) enables it whenever the source streams)",
    )),
    "store": (("--store",), dict(
        type=Path, default=None, metavar="DIR",
        help="columnar record store: pack the archive into DIR on first "
             "use, then analyze from the memory-mapped columns instead "
             "of re-parsing TSV (results are byte-identical; the store "
             "is repacked automatically when the archive changes)",
    )),
    "metrics": (("--metrics",), dict(
        choices=["json", "table"], default=None,
        help="append run metrics to the output: 'table' prints the Run "
             "metrics section, 'json' prints one machine-readable JSON "
             "line (always the last line of stdout)",
    )),
    "trace": (("--trace",), dict(
        type=Path, default=None, metavar="FILE",
        help="append one JSONL trace event per pipeline phase to FILE "
             "(workers append to the same file)",
    )),
    "degrade": (("--degrade",), dict(
        choices=["strict", "partial"], default="strict",
        help="poison-shard policy: abort the campaign (strict) or complete "
             "it from the surviving months and exit %d (partial)"
             % EXIT_DEGRADED,
    )),
    "max-attempts": (("--max-attempts",), dict(
        type=int, default=3, metavar="N",
        help="attempts per shard per phase before quarantine (default 3)",
    )),
    "shard-timeout": (("--shard-timeout",), dict(
        type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per shard attempt; a worker that blows it "
             "is killed and the shard retried (default: unlimited)",
    )),
    "resume": (("--resume",), dict(
        type=Path, default=None, metavar="DIR",
        help="crash-safe run directory: completed shards are spilled here "
             "as they finish, and a rerun pointed at the same directory "
             "skips them",
    )),
}

#: Flag groups, named for what a subcommand is doing when it needs them.
_SCALE = ("months", "cpm", "seed")
_INGEST = ("on-error", "fast-path")
_SHARDED = ("jobs", "store", "pipeline")
_SUPERVISION = ("degrade", "max-attempts", "shard-timeout", "resume")
_OBSERVABILITY = ("metrics", "trace")


def _options_parent(*flags: str, **overrides: dict) -> argparse.ArgumentParser:
    """Build an argparse parent from registry flag names.

    ``overrides`` patches a flag's spec per consumer (keyed by the flag
    name with ``-`` as ``_``), e.g. ``on_error={"default": "skip"}`` for
    ``serve``'s lenient default.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for key in flags:
        names, kwargs = _FLAG_SPECS[key]
        patch = overrides.get(key.replace("-", "_"))
        if patch:
            kwargs = {**kwargs, **patch}
        parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mutual TLS in Practice (IMC 2024) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="simulate a campaign and write Zeek-format logs",
        parents=[_options_parent(*_SCALE)],
    )
    generate.add_argument("--out", type=Path, required=True, help="output directory")
    generate.add_argument(
        "--rotated", action="store_true",
        help="write a rotated monthly archive (ssl.YYYY-MM.log.gz) instead "
             "of single ssl.log/x509.log files",
    )

    study = sub.add_parser(
        "study", help="run the full study and print tables",
        parents=[_options_parent(
            *_SCALE, *_INGEST, "jobs", *_OBSERVABILITY
        )],
    )
    study.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="RATE",
        help="corrupt ~RATE of the serialized log lines before re-ingesting "
             "(exercises the resilient reader; implies a re-ingest pass)",
    )
    study.add_argument(
        "--table", choices=_table_choices(), default=None,
        help="print one artifact instead of all",
    )
    study.add_argument(
        "--json", action="store_true",
        help="emit the whole study as JSON instead of text tables",
    )

    analyze = sub.add_parser(
        "analyze",
        help="run every registered analysis over a rotated Zeek archive",
        parents=[_options_parent(
            *_INGEST, *_SHARDED, *_SUPERVISION, *_OBSERVABILITY
        )],
    )
    analyze.add_argument("directory", type=Path,
                         help="directory of ssl.YYYY-MM.log[.gz] files")
    analyze.add_argument(
        "--trust-bundle", type=Path, required=True,
        help="file with one trusted issuer DN per line ('org:<name>' lines "
             "add trusted organizations)",
    )
    analyze.add_argument(
        "--table", choices=_table_choices(), default=None,
        help="print one artifact instead of all",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the analyses as JSON instead of text tables",
    )
    analyze.add_argument(
        "--inject-crash", action="append", default=[], metavar="MONTH",
        help="chaos testing: crash any worker the given month's shard "
             "lands on (repeatable)",
    )

    pack = sub.add_parser(
        "pack",
        help="parse a rotated archive once into a columnar record store",
        parents=[_options_parent(*_INGEST)],
    )
    pack.add_argument("directory", type=Path,
                      help="directory of ssl.YYYY-MM.log[.gz] files")
    pack.add_argument(
        "--out", type=Path, required=True, metavar="DIR",
        help="store directory (reused as-is when it already matches the "
             "archive fingerprint and ingest policy)",
    )

    fsck = sub.add_parser(
        "fsck",
        help="verify a columnar store's checksums; optionally quarantine "
             "and rebuild damaged files from the TSV source",
    )
    fsck.add_argument("store", type=Path, help="store directory to audit")
    fsck.add_argument(
        "--source", type=Path, default=None, metavar="DIR",
        help="TSV archive to rebuild from (default: the directory the "
             "store's manifest records)",
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help="quarantine damaged files and rebuild them; a rebuild is "
             "accepted only if it reproduces the manifest checksum exactly",
    )

    audit = sub.add_parser(
        "audit", help="privacy audit of an x509.log",
        parents=[_options_parent(*_INGEST)],
    )
    audit.add_argument("x509_log", type=Path)
    audit.add_argument(
        "--campus-marker", default="university",
        help="issuer substring identifying campus-managed CAs",
    )

    intercept = sub.add_parser(
        "intercept", help="run the §3.2 interception filter on Zeek logs",
        parents=[_options_parent(*_INGEST)],
    )
    intercept.add_argument("ssl_log", type=Path)
    intercept.add_argument("x509_log", type=Path)
    intercept.add_argument(
        "--trust-bundle", type=Path, required=True,
        help="file with one trusted issuer DN per line ('org:<name>' lines "
             "add trusted organizations)",
    )
    intercept.add_argument("--min-domains", type=int, default=5)

    scenario = sub.add_parser(
        "scenario",
        help="work with the composable scenario library (list / describe "
             "/ generate)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list the library scenarios")
    describe = scenario_sub.add_parser(
        "describe", help="show a scenario's layers and planted cohorts"
    )
    describe.add_argument(
        "scenario", help="library scenario name or path to a .toml/.json spec"
    )
    sc_generate = scenario_sub.add_parser(
        "generate",
        help="run a scenario and write Zeek logs + planted ground truth",
    )
    sc_generate.add_argument(
        "scenario", nargs="?", default=None,
        help="library scenario name (or use --spec for a file)",
    )
    sc_generate.add_argument(
        "--spec", type=Path, default=None, metavar="FILE",
        help="path to a .toml/.json scenario spec (overrides the name)",
    )
    sc_generate.add_argument("--out", type=Path, required=True,
                             help="output directory")
    sc_generate.add_argument(
        "--months", type=int, default=None,
        help="override the campaign length (event months are rescaled)",
    )
    sc_generate.add_argument(
        "--cpm", type=int, default=None,
        help="pin every site to this many connections per month",
    )
    sc_generate.add_argument(
        "--scale", type=float, default=None,
        help="multiply each site's own connections-per-month",
    )
    sc_generate.add_argument("--seed", type=int, default=None,
                             help="override the scenario seed")
    sc_generate.add_argument(
        "--rotated", action="store_true",
        help="write a rotated monthly archive (ssl.YYYY-MM.log.gz) instead "
             "of single ssl.log/x509.log files",
    )
    sc_generate.add_argument(
        "--verify", action="store_true",
        help="run the ground-truth verification suite on the generated "
             "logs and fail if any check does (slower: runs every analysis)",
    )

    compare = sub.add_parser(
        "compare", help="diff two JSON study exports (from `study --json`)"
    )
    compare.add_argument("export_a", type=Path)
    compare.add_argument("export_b", type=Path)

    serve = sub.add_parser(
        "serve",
        help="tail a live Zeek log directory and serve the analyses "
             "over a local JSON API",
        # A long-running monitor should survive a malformed line and
        # account for it, so lenient ingest is serve's default.
        parents=[_options_parent(
            *_INGEST, *_OBSERVABILITY, on_error={"default": "skip"},
        )],
    )
    serve.add_argument("directory", type=Path,
                       help="directory holding the live ssl.log / x509.log")
    serve.add_argument(
        "--trust-bundle", type=Path, required=True,
        help="file with one trusted issuer DN per line ('org:<name>' lines "
             "add trusted organizations)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="API bind address (default loopback)")
    serve.add_argument(
        "--port", type=int, default=0,
        help="API port (default 0 = pick a free port; the chosen port is "
             "printed on startup)",
    )
    serve.add_argument(
        "--checkpoint", type=Path, default=None, metavar="FILE",
        help="checkpoint file (default DIR/livetail-checkpoint.json)",
    )
    serve.add_argument(
        "--checkpoint-interval", type=float, default=30.0, metavar="SECONDS",
        help="seconds between scheduled checkpoints (default 30)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=0.05, metavar="SECONDS",
        help="idle sleep between directory polls (default 0.05)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="restore tail positions and aggregates from the checkpoint "
             "file before serving (fresh start if it is absent)",
    )
    serve.add_argument(
        "--min-domains", type=int, default=5,
        help="interception filter threshold (see `intercept`)",
    )
    serve.add_argument(
        "--max-fuid-map", type=int, default=None, metavar="N",
        help="bound the fuid→certificate join map to N entries (LRU)",
    )
    serve.add_argument(
        "--overload-rows", type=int, default=0, metavar="N",
        help="admission control: switch hot tables to reservoir sampling "
             "when a poll delivers more than N established connections "
             "(0 = never sample; every row is exact)",
    )
    serve.add_argument(
        "--overload-clear-rows", type=int, default=None, metavar="N",
        help="leave sampling once a poll delivers at most N established "
             "connections (default: half of --overload-rows)",
    )
    serve.add_argument(
        "--reservoir", type=int, default=4096, metavar="N",
        help="reservoir size per sampling window (default 4096)",
    )
    serve.add_argument(
        "--sample-table", action="append", default=None, metavar="NAME",
        help="table switched to sampling under overload (repeatable; "
             "default: the volume-heavy distribution tables)",
    )
    return parser


def _print_ingest_health(report: IngestReport, dangling: int | None = None) -> None:
    print(render_ingest_health(report, dangling_fuid_refs=dangling).render())


def _emit_metrics(mode: str | None, registry) -> None:
    """Append the run metrics to stdout. In ``json`` mode the document
    is one line and always the *last* line, so scripts can parse it with
    ``tail -n 1``."""
    if mode == "table":
        print(registry.render().render())
    elif mode == "json":
        print(json.dumps(registry.state_dict(), sort_keys=True))


def _write_trust_bundle(bundle: TrustBundle, path: Path) -> None:
    with path.open("w") as out:
        for dn in sorted(bundle.subject_dns):
            out.write(dn + "\n")
        for org in sorted(bundle.organizations):
            out.write(f"org:{org}\n")


def load_trust_bundle(path: Path) -> TrustBundle:
    """Parse a trust-bundle file written by `generate` (or by hand)."""
    dns: set[str] = set()
    orgs: set[str] = set()
    with path.open() as source:
        for line in source:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if line.startswith("org:"):
                orgs.add(line[4:])
            else:
                dns.add(line)
    return TrustBundle(frozenset(dns), frozenset(orgs))


def cmd_generate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        seed=args.seed, months=args.months, connections_per_month=args.cpm
    )
    result = TrafficGenerator(config).generate()
    args.out.mkdir(parents=True, exist_ok=True)
    if getattr(args, "rotated", False):
        from repro.zeek.files import write_rotated_logs

        written = write_rotated_logs(result.logs, args.out)
        _write_trust_bundle(result.trust_bundle, args.out / "trust_bundle.txt")
        print(
            f"wrote {len(written)} rotated log files "
            f"({len(result.logs.ssl)} ssl rows, {len(result.logs.x509)} x509 "
            f"rows) and trust_bundle.txt to {args.out}"
        )
        return 0
    with (args.out / "ssl.log").open("w") as out:
        write_ssl_log(result.logs.ssl, out)
    with (args.out / "x509.log").open("w") as out:
        write_x509_log(result.logs.x509, out)
    _write_trust_bundle(result.trust_bundle, args.out / "trust_bundle.txt")
    print(
        f"wrote {len(result.logs.ssl)} ssl.log rows, "
        f"{len(result.logs.x509)} x509.log rows, and trust_bundle.txt "
        f"to {args.out}"
    )
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    if args.fault_rate < 0:
        print("error: --fault-rate must be non-negative", file=sys.stderr)
        return 2
    fault_plan = (
        FaultPlan.uniform(args.fault_rate, seed=args.seed)
        if args.fault_rate > 0 else None
    )
    if fault_plan is not None and args.on_error == "strict":
        print(
            "warning: --fault-rate with --on-error strict will abort on the "
            "first planted fault", file=sys.stderr,
        )
    if args.trace is not None:
        tracing.configure(args.trace)
    study = CampusStudy(
        seed=args.seed, months=args.months, connections_per_month=args.cpm,
        fault_plan=fault_plan, jobs=args.jobs,
        options=IngestOptions(on_error=args.on_error, fast_path=args.fast_path),
    )
    if getattr(args, "json", False):
        from repro.core.export import study_to_json

        print(study_to_json(study))
        _emit_study_metrics(args.metrics, study)
        return 0
    if args.table is not None:
        print(_study_table(study, args.table).render())
        _emit_study_metrics(args.metrics, study)
        return 0
    for table in study.all_tables():
        print(table.render())
        print()
    _emit_study_metrics(args.metrics, study)
    return 0


def _study_table(study: CampusStudy, name: str):
    if name == "ingest-health":
        return study.ingest_health()
    if name == "run-metrics":
        return study.run_metrics()
    return study.table(name)


def _emit_study_metrics(mode: str | None, study: CampusStudy) -> None:
    if mode is None:
        return
    study.partials()  # ensure the pipeline (and its metrics) ran
    _emit_metrics(mode, study.metrics)


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.parallel import analyze_directory
    from repro.core.report import render_ingest_health as _render
    from repro.core.report import render_run_health
    from repro.core.supervisor import RetryPolicy

    fault_plan = None
    if args.inject_crash:
        from repro.netsim import WorkerFaultPlan

        fault_plan = WorkerFaultPlan(crash_months=tuple(args.inject_crash))
    if args.trace is not None:
        tracing.configure(args.trace)
    bundle = load_trust_bundle(args.trust_bundle)
    campaign = analyze_directory(
        args.directory,
        bundle=bundle,
        options=IngestOptions(on_error=args.on_error, fast_path=args.fast_path),
        store=args.store,
        jobs=max(1, args.jobs),
        retry=RetryPolicy(
            max_attempts=args.max_attempts, timeout=args.shard_timeout
        ),
        degrade=args.degrade,
        fault_plan=fault_plan,
        resume_dir=args.resume,
        trace_path=args.trace,
        pipeline=getattr(args, "pipeline", "auto"),
    )
    health = campaign.health
    run_metrics = campaign.metrics or core_metrics.MetricsRegistry()

    def health_epilogue() -> int:
        """Degraded coverage must never exit 0 or pass silently."""
        if health is None or not health.degraded:
            return 0
        print(f"warning: campaign degraded: {health.summary()}", file=sys.stderr)
        return EXIT_DEGRADED

    if getattr(args, "json", False):
        from repro.core.export import export_tables_json

        print(export_tables_json(campaign))
        _emit_metrics(args.metrics, run_metrics)
        return health_epilogue()
    if args.table is not None:
        if args.table == "ingest-health":
            print(_render(
                campaign.ingest, dangling_fuid_refs=campaign.dangling_fuid_refs
            ).render())
        elif args.table == "run-health":
            print(render_run_health(health).render())
        elif args.table == "run-metrics":
            print(run_metrics.render().render())
        else:
            print(campaign.table(args.table).render())
        _emit_metrics(args.metrics, run_metrics)
        return health_epilogue()
    for table in campaign.tables():
        print(table.render())
        print()
    if args.on_error != "strict":
        _print_ingest_health(campaign.ingest, campaign.dangling_fuid_refs)
    if health is not None and not health.clean:
        print(render_run_health(health).render())
    _emit_metrics(args.metrics, run_metrics)
    return health_epilogue()


def cmd_pack(args: argparse.Namespace) -> int:
    from repro.store import MANIFEST_NAME, ensure_store

    options = IngestOptions(on_error=args.on_error, fast_path=args.fast_path)
    manifest = args.out / MANIFEST_NAME
    before = manifest.stat().st_mtime_ns if manifest.exists() else None
    source = ensure_store(args.directory, args.out, options)
    reused = before is not None and manifest.stat().st_mtime_ns == before
    ssl_rows = sum(
        shard["rows"] for shard in source.manifest["ssl_shards"].values()
    )
    print(
        f"{'reused' if reused else 'packed'} store at {args.out}: "
        f"{len(source.months())} months, {ssl_rows} ssl rows, "
        f"{source.manifest['x509']['rows']} x509 rows"
    )
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    from repro.core.report import render_fsck
    from repro.store import StoreFormatError, fsck

    try:
        result = fsck(args.store, source=args.source, repair=args.repair)
    except StoreFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_fsck(result).render())
    if not result.ok:
        if not args.repair:
            print(
                "hint: re-run with --repair to quarantine and rebuild from "
                "the TSV source",
                file=sys.stderr,
            )
        return EXIT_CORRUPT
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    report = IngestReport()
    options = IngestOptions(on_error=args.on_error, fast_path=args.fast_path)
    with args.x509_log.open() as source:
        records = read_x509_log(
            source, options.for_path(str(args.x509_log), report)
        )
    classifier = CnSanClassifier(campus_issuer_markers=(args.campus_marker,))
    sensitive = ("PersonalName", "UserAccount", "Email", "MAC")
    findings = 0
    for record in records:
        values = [("CN", record.subject_cn)] if record.subject_cn else []
        values.extend(("SAN", v) for v in record.san_dns)
        for fieldname, value in values:
            info_type = classifier.classify(value, record.issuer_org, record.issuer_cn)
            if info_type in sensitive:
                findings += 1
                print(f"[{info_type}] {fieldname}={value!r} "
                      f"(issuer: {record.issuer_org or '(missing)'})")
    print(f"{findings} sensitive values across {len(records)} certificates")
    if args.on_error != "strict":
        _print_ingest_health(report)
    return 0 if findings == 0 else 2


def cmd_intercept(args: argparse.Namespace) -> int:
    report = IngestReport()
    options = IngestOptions(on_error=args.on_error, fast_path=args.fast_path)
    with args.ssl_log.open() as source:
        ssl = read_ssl_log(source, options.for_path(str(args.ssl_log), report))
    with args.x509_log.open() as source:
        x509 = read_x509_log(
            source, options.for_path(str(args.x509_log), report)
        )
    bundle = load_trust_bundle(args.trust_bundle)

    # Without a live CT client, reconstruct the 'genuine issuer per
    # domain' ledger from the trusted (public-CA) observations in the
    # logs themselves — the best an offline operator can do.
    class LogDerivedCt:
        def __init__(self) -> None:
            self._issuers: dict[str, list[str]] = {}

        def add(self, domain: str, issuer: str) -> None:
            issuers = self._issuers.setdefault(domain.lower(), [])
            if issuer not in issuers:
                issuers.append(issuer)

        def knows_domain(self, domain: str) -> bool:
            return domain.lower() in self._issuers

        def issuers_for(self, domain: str) -> list[str]:
            return self._issuers.get(domain.lower(), [])

    ct = LogDerivedCt()
    by_fuid = {r.fuid: r for r in x509}
    for record in ssl:
        leaf = by_fuid.get(record.server_leaf_fuid or "")
        if leaf is None or not record.server_name:
            continue
        if bundle.is_public(leaf):
            ct.add(record.server_name, leaf.issuer)

    enricher = Enricher(
        bundle=bundle, ct_log=ct, min_interception_domains=args.min_domains,
        fact_cache=FastPath.coerce(args.fast_path).enabled,
    )
    dataset = MtlsDataset(ssl, x509, ingest_report=report)
    interception = enricher.interception_report(dataset)
    for issuer in sorted(interception.flagged_issuers):
        print(f"flagged: {issuer}")
    print(
        f"{len(interception.flagged_issuers)} issuers flagged, "
        f"{len(interception.excluded_fingerprints)} certificates "
        f"({100 * interception.excluded_fraction:.2f}%) excluded"
    )
    if args.on_error != "strict":
        _print_ingest_health(report, dataset.dangling_fuid_refs)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.core.livetail import (
        DEFAULT_HOT_TABLES,
        AdmissionController,
        LiveTailDaemon,
    )
    from repro.core.server import LiveTailServer

    if args.trace is not None:
        tracing.configure(args.trace)
    bundle = load_trust_bundle(args.trust_bundle)
    admission = AdmissionController(
        high_watermark=args.overload_rows,
        low_watermark=args.overload_clear_rows,
        reservoir_size=args.reservoir,
        hot_tables=tuple(args.sample_table) if args.sample_table
        else DEFAULT_HOT_TABLES,
    )
    checkpoint = args.checkpoint
    if checkpoint is None:
        checkpoint = args.directory / "livetail-checkpoint.json"
    daemon = LiveTailDaemon(
        args.directory, bundle,
        checkpoint_path=checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        poll_interval=args.poll_interval,
        on_error=args.on_error,
        fast_path=args.fast_path,
        max_fuid_map=args.max_fuid_map,
        min_interception_domains=args.min_domains,
        admission=admission,
        resume=args.resume,
    )
    server = LiveTailServer(daemon, host=args.host, port=args.port)

    def _stop(signum, frame):  # noqa: ARG001 - signal API
        daemon.stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    server.start()
    print(f"livetail: serving on http://{server.host}:{server.port}",
          flush=True)
    if daemon.resumed:
        print(f"livetail: resumed from {checkpoint}", flush=True)
    try:
        daemon.run()
    finally:
        server.shutdown()
    _emit_metrics(args.metrics, daemon.engine.metrics)
    return 0


def _load_scenario_spec(args: argparse.Namespace):
    from repro.netsim.scenarios import load_spec

    spec_path = getattr(args, "spec", None)
    if spec_path is not None:
        return load_spec(str(spec_path))
    if args.scenario is None:
        print("error: give a scenario name or --spec FILE", file=sys.stderr)
        return None
    return load_spec(args.scenario)


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.netsim.scenarios import list_scenarios, load_spec

    if args.scenario_command == "list":
        for name in list_scenarios():
            spec = load_spec(name)
            title = spec.title or spec.description or ""
            print(f"{name:14} {title}")
        return 0

    if args.scenario_command == "describe":
        spec = load_spec(args.scenario)
        print(f"scenario {spec.name}: {spec.title}")
        if spec.description:
            print(f"  {spec.description}")
        print(f"  seed {spec.seed}, {spec.months} months")
        for site in spec.topology.sites:
            trust = spec.trusts[site.trust]
            planted = sum((
                len(trust.dummy_cohorts), len(trust.dummy_both_cohorts),
                len(trust.shared_cohorts), len(trust.incorrect_date_cohorts),
                len(trust.expired_clusters),
                int(bool(trust.inbound_expired_total)),
                int(trust.extreme_validity is not None),
                int(trust.cross_sharing is not None),
                int(trust.guardicore is not None),
                int(trust.viptela), int(bool(trust.fnmt_count)),
                int(trust.malignant is not None),
            ))
            print(
                f"  site {site.name} ({site.kind}): "
                f"{site.connections_per_month} conns/month, "
                f"workload={site.workload}, trust={site.trust} "
                f"({planted} planted cohort groups)"
            )
        for event in spec.timeline.events:
            where = event.site or "all sites"
            print(f"  event month {event.month}: {event.kind} @ {where}")
        return 0

    # generate
    spec = _load_scenario_spec(args)
    if spec is None:
        return 2
    if any(value is not None
           for value in (args.months, args.cpm, args.scale, args.seed)):
        spec = spec.scaled(
            months=args.months, connections_per_month=args.cpm,
            scale=args.scale, seed=args.seed,
        )
    from repro.netsim.compose import ScenarioGenerator

    result = ScenarioGenerator(spec).generate()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.rotated:
        from repro.zeek.files import write_rotated_logs

        written = write_rotated_logs(result.logs, args.out)
        log_note = f"{len(written)} rotated log files"
    else:
        with (args.out / "ssl.log").open("w") as out:
            write_ssl_log(result.logs.ssl, out)
        with (args.out / "x509.log").open("w") as out:
            write_x509_log(result.logs.x509, out)
        log_note = "ssl.log and x509.log"
    _write_trust_bundle(result.trust_bundle, args.out / "trust_bundle.txt")
    (args.out / "ground_truth.json").write_text(
        result.ground_truth.to_json() + "\n"
    )
    print(
        f"scenario {spec.name}: wrote {log_note} "
        f"({len(result.logs.ssl)} ssl rows, {len(result.logs.x509)} x509 "
        f"rows), trust_bundle.txt, and ground_truth.json to {args.out}"
    )
    if args.verify:
        from repro.netsim.verify import verify_scenario

        report = verify_scenario(result)
        print(report.summary())
        if not report.ok:
            return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.compare import diff_study_json, render_study_diff

    diff = diff_study_json(
        args.export_a.read_text(), args.export_b.read_text()
    )
    print(render_study_diff(diff).render())
    return 0 if diff.is_empty else 3


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "study": cmd_study,
        "analyze": cmd_analyze,
        "pack": cmd_pack,
        "fsck": cmd_fsck,
        "audit": cmd_audit,
        "intercept": cmd_intercept,
        "compare": cmd_compare,
        "scenario": cmd_scenario,
        "serve": cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except CampaignDegradedError as exc:
        # Strict-mode supervision failure: a shard exhausted its retry
        # budget; completed shards were spilled if --resume was given.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TsvFormatError as exc:
        # Strict-mode ingestion failure: the message already carries
        # path, line number, and field name.
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: re-run with --on-error skip (or quarantine) to drop "
            "malformed lines and report them instead",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
