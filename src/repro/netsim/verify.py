"""Ground-truth verification: do the analyses recover what was planted?

`verify_scenario` runs the paper's full pipeline (ingest → §3.2
interception filter → the complete analysis registry) over a generated
:class:`~repro.netsim.compose.ScenarioResult` and checks every recovered
statistic against the scenario's planted :class:`ScenarioGroundTruth`:

- **exact** where the generator's bookkeeping predicts the pipeline
  deterministically (Figure 1 monthly totals, the interception filter's
  flagged issuers/excluded certificates, the TLS 1.3 blind-spot counts);
- **bounded/superset** where bulk sampling adds legitimate extra signal
  on top of the planted cohorts (Table 4/5 rows, Figure 5 expired
  usages, serial-collision membership, weak-crypto certificates).

The checker is the machine-readable contract of the scenario layers:
every layer contributes planted truth, and this module is the single
place that says what "the analyses must find it" means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.clock import CampaignClock
from repro.netsim.compose import ScenarioResult
from repro.zeek.files import LogsSource


@dataclass
class Check:
    """One verified assertion."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    """Outcome of verifying one scenario run."""

    scenario: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.ok]

    def summary(self) -> str:
        lines = [f"scenario {self.scenario}: "
                 f"{sum(c.ok for c in self.checks)}/{len(self.checks)} checks ok"]
        for check in self.failures:
            lines.append(f"  FAIL {check.name}: {check.detail}")
        return "\n".join(lines)


def _observed_fingerprints(result: ScenarioResult) -> set[str]:
    return {record.fingerprint for record in result.logs.x509}


def verify_scenario(result: ScenarioResult) -> VerificationReport:
    """Run the full pipeline on a scenario run and check its ground truth."""
    # Imported here: repro.core.enrich imports repro.netsim.network, so a
    # module-level import would make the two packages mutually recursive.
    from repro.core.parallel import ShardExecutor

    truth = result.ground_truth
    report = VerificationReport(scenario=truth.scenario)

    def check(name: str, ok: bool, detail: str = "") -> None:
        report.checks.append(Check(name, bool(ok), "" if ok else detail))

    campaign = ShardExecutor(result.trust_bundle, result.ct_log).run_source(
        LogsSource(result.logs)
    )
    results = {
        name: partial.result() for name, partial in campaign.partials.items()
    }
    observed = _observed_fingerprints(result)

    # ---- interception filter: exact -----------------------------------
    interception = campaign.interception
    check(
        "interception.flagged_issuers",
        interception.flagged_issuers == truth.expected_flagged_issuers,
        f"flagged {sorted(interception.flagged_issuers)[:3]}... != "
        f"expected {sorted(truth.expected_flagged_issuers)[:3]}... "
        f"({len(interception.flagged_issuers)} vs "
        f"{len(truth.expected_flagged_issuers)})",
    )
    check(
        "interception.excluded_fingerprints",
        interception.excluded_fingerprints
        == truth.expected_excluded_fingerprints,
        f"{len(interception.excluded_fingerprints)} excluded vs "
        f"{len(truth.expected_excluded_fingerprints)} expected",
    )

    # ---- figure 1: exact ----------------------------------------------
    clock = CampaignClock(months=truth.months)
    labels = [clock.month(index).label for index in range(truth.months)]
    figure1 = {row.label: row for row in results["figure1"]}
    expected_totals = [
        truth.monthly_total[index] - truth.expected_excluded_monthly[index]
        for index in range(truth.months)
    ]
    got_totals = [
        figure1[label].total_connections if label in figure1 else 0
        for label in labels
    ]
    got_mutual = [
        figure1[label].mutual_connections if label in figure1 else 0
        for label in labels
    ]
    check(
        "figure1.monthly_totals",
        got_totals == expected_totals,
        f"got {got_totals} != expected {expected_totals}",
    )
    check(
        "figure1.monthly_mutual",
        got_mutual == truth.monthly_visible_mutual,
        f"got {got_mutual} != expected {truth.monthly_visible_mutual}",
    )

    # ---- TLS 1.3 blind spot: exact on the raw capture -----------------
    tls13 = results["tls13"]
    check(
        "tls13.total_connections",
        tls13.total_connections == sum(truth.monthly_total),
        f"{tls13.total_connections} != {sum(truth.monthly_total)}",
    )
    check(
        "tls13.tls13_connections",
        tls13.tls13_connections == truth.tls13_connections,
        f"{tls13.tls13_connections} != {truth.tls13_connections}",
    )

    # ---- every planted certificate is observable ----------------------
    for label, fingerprints in sorted(truth.cohort_fingerprints.items()):
        missing = fingerprints - observed
        check(
            f"observed.{label}",
            not missing,
            f"{len(missing)}/{len(fingerprints)} planted certs never logged",
        )

    # ---- table 4 (dummy issuers): planted cohorts are recovered -------
    table4 = {
        (row.direction, row.side, row.issuer_org): row
        for row in results["table4"]
    }
    direction_name = {"in": "inbound", "out": "outbound"}
    for label, count in sorted(truth.cohort_connections.items()):
        if not label.startswith("dummy:") or label.count(":") != 3:
            continue
        _, direction, side, org = label.split(":", 3)
        key = (direction_name[direction], side, org)
        row = table4.get(key)
        check(
            f"table4.{label}",
            row is not None and row.connections >= count,
            f"row {key} missing or fewer connections than the {count} planted",
        )

    # ---- table 5 (same-connection sharing): planted certs appear ------
    table5_fps: set[str] = set()
    for row in results["table5"]:
        table5_fps |= row.fingerprints
    for label, fingerprints in sorted(truth.cohort_fingerprints.items()):
        if not label.startswith("shared:"):
            continue
        missing = fingerprints - table5_fps
        check(
            f"table5.{label}",
            not missing,
            f"{len(missing)}/{len(fingerprints)} planted shared certs "
            "not in any Table 5 row",
        )

    # ---- figure 5 (expired-but-used): planted populations appear ------
    figure5 = results["figure5"]
    inbound_fps = {usage.fingerprint for usage in figure5.inbound}
    outbound_fps = {usage.fingerprint for usage in figure5.outbound}
    if "expired_inbound" in truth.cohort_fingerprints:
        planted = truth.cohort_fingerprints["expired_inbound"]
        missing = planted - inbound_fps
        check(
            "figure5.expired_inbound",
            not missing,
            f"{len(missing)}/{len(planted)} planted expired inbound certs "
            "not recovered",
        )
    for label, fingerprints in sorted(truth.cohort_fingerprints.items()):
        if not label.startswith("expired_public:"):
            continue
        missing = fingerprints - outbound_fps
        check(
            f"figure5.{label}",
            not missing,
            f"{len(missing)}/{len(fingerprints)} planted expired outbound "
            "certs not recovered",
        )

    # ---- serial collisions: planted collision cohorts appear ----------
    collision_fps: set[str] = set()
    for name in ("serials-inbound", "serials-outbound"):
        for group in results[name].groups:
            collision_fps |= group.fingerprints
    for label in ("guardicore", "viptela"):
        if label not in truth.cohort_fingerprints:
            continue
        planted = truth.cohort_fingerprints[label]
        missing = planted - collision_fps
        check(
            f"serials.{label}",
            not missing,
            f"{len(missing)}/{len(planted)} planted collision certs "
            "not in any serial group",
        )

    # ---- weak crypto: planted v1 / weak-key certs are recovered -------
    weak = results["weak-crypto"]
    v1_planted: set[str] = set()
    weak_planted: set[str] = set()
    for label, fingerprints in truth.cohort_fingerprints.items():
        if label.endswith(":v1"):
            v1_planted |= fingerprints
        elif label.endswith(":weak"):
            weak_planted |= fingerprints
    if v1_planted:
        missing = v1_planted - weak.v1_fingerprints
        check(
            "weak_crypto.v1",
            not missing,
            f"{len(missing)}/{len(v1_planted)} planted v1 certs missed",
        )
    if weak_planted:
        missing = weak_planted - weak.weak_key_fingerprints
        check(
            "weak_crypto.weak_keys",
            not missing,
            f"{len(missing)}/{len(weak_planted)} planted weak-key certs missed",
        )

    # ---- timeline events ----------------------------------------------
    x509_by_issuer: dict[str, list] = {}
    for record in result.logs.x509:
        x509_by_issuer.setdefault(record.issuer, []).append(record)
    for event in truth.events:
        label = f"event.{event['kind']}.m{event['month']}.{event.get('site')}"
        boundary = clock.month(event["month"]).start
        if event["kind"] == "ca_compromise":
            old_rows = x509_by_issuer.get(event["old_issuer"], [])
            new_rows = x509_by_issuer.get(event["new_issuer"], [])
            check(
                f"{label}.old_ca_dies",
                bool(old_rows) and all(row.ts < boundary for row in old_rows),
                "old-CA certificates observed after the compromise month",
            )
            check(
                f"{label}.new_ca_takes_over",
                bool(new_rows) and all(row.ts >= boundary for row in new_rows),
                "replacement-CA certificates observed before the event",
            )
        elif event["kind"] == "mass_expiry":
            planted = truth.cohort_fingerprints.get(event["post_cohort"], set())
            missing = planted - outbound_fps
            check(
                f"{label}.wave_recovered",
                bool(planted) and not missing,
                f"{len(missing)}/{len(planted)} wave certs not in the "
                "expired-outbound report",
            )

    # ---- per-site certificate volume within authored bounds -----------
    for name, bounds in sorted(truth.cert_volume_bounds.items()):
        if not bounds:
            continue
        connections = truth.site_connections[name]
        certificates = truth.site_certificates[name]
        per_1k = 1000.0 * certificates / connections if connections else 0.0
        lo, hi = bounds
        check(
            f"cert_volume.{name}",
            lo <= per_1k <= hi,
            f"{per_1k:.1f} unique certs per 1k connections outside "
            f"[{lo}, {hi}]",
        )

    return report
