"""Scenario configuration: the calibrated campus profile.

Since the scenario-layer refactor, the paper-calibrated constants live
in ``repro/netsim/scenarios/campus.toml`` — the campus is just one spec
in the scenario library. This module loads that spec once
(:data:`CAMPUS_WORKLOAD`, :data:`CAMPUS_TRUST`) and defines the
:class:`ScenarioConfig` knob bundle, which resolves to a
:class:`repro.netsim.layers.SiteRuntime` via :meth:`ScenarioConfig.site`.

All fractions and counts are lifted from the paper's tables and prose.
Counts are *paper-scale* numbers; the generator multiplies them by
``cohort_scale`` (connections by
``connections_per_month / PAPER_MONTHLY_CONNECTIONS``), so shrinking the
run keeps every proportion intact.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.netsim.layers import (
    MONTH_DEC_2023,
    MONTH_NOV_2023,
    MONTH_OCT_2023,
    DummyBothCohort,
    DummyIssuerCohort,
    ExpiredClusterCohort,
    IncorrectDateCohort,
    SharedCertCohort,
    SiteRuntime,
    TrustEcosystem,
    WorkloadMix,
)
from repro.netsim.scenarios import load_spec

__all__ = [
    "ScenarioConfig", "CAMPUS_SPEC", "CAMPUS_WORKLOAD", "CAMPUS_TRUST",
    "DummyIssuerCohort", "DummyBothCohort", "SharedCertCohort",
    "IncorrectDateCohort", "ExpiredClusterCohort",
    "MONTH_OCT_2023", "MONTH_NOV_2023", "MONTH_DEC_2023",
]

#: The paper observes ~1.26M–2.36M mutual-TLS connections *per day*;
#: per month total TLS is on the order of 2e9. This constant anchors the
#: scale factor between a simulation run and the paper's absolute counts.
PAPER_MONTHLY_CONNECTIONS = 2_000_000_000 / 23

#: The calibrated campus, loaded once from the scenario library.
CAMPUS_SPEC = load_spec("campus")
CAMPUS_WORKLOAD: WorkloadMix = CAMPUS_SPEC.workloads["campus"]
CAMPUS_TRUST: TrustEcosystem = CAMPUS_SPEC.trusts["campus"]


@dataclass
class ScenarioConfig:
    """Top-level knobs of a single-site (campus-profile) simulation run.

    `connections_per_month` sets the run size; `cohort_scale` shrinks the
    paper-scale cohort counts (clients, certificates) by the same spirit.
    Everything else defaults to the campus calibration. For multi-site,
    event-driven, or adversarial runs use a :class:`ScenarioSpec` from
    the scenario library instead.
    """

    seed: int = 7
    months: int = 23
    connections_per_month: int = 2000
    #: Multiplier applied to paper-scale cohort counts (clients/certs).
    cohort_scale: float = 0.002
    tls13_share: float = CAMPUS_WORKLOAD.tls13_share
    mutual_share_start: float = CAMPUS_WORKLOAD.mutual_share_start
    mutual_share_end: float = CAMPUS_WORKLOAD.mutual_share_end
    health_surge_boost: float = CAMPUS_WORKLOAD.health_surge_boost
    rapid7_drop: float = CAMPUS_WORKLOAD.rapid7_drop
    #: Of mutual connections, the fraction arriving at campus servers.
    mutual_inbound_fraction: float = 0.55
    #: Of non-mutual connections, the fraction leaving campus.
    nonmutual_outbound_fraction: float = 0.80
    #: Fraction of non-mutual outbound connections that traverse a
    #: TLS-inspecting middlebox (tuned so ~8.4% of unique certs are
    #: interception artifacts).
    interception_fraction: float = 0.008
    #: Number of distinct interception issuers to simulate (186 at paper
    #: scale; smaller runs use fewer).
    interception_issuer_count: int = 6
    #: Fraction of client certificates that appear in connections with no
    #: server certificate at all (the 5.66% tunneling footnote).
    tunneling_client_fraction: float = 0.0566
    #: Number of distinct external destinations for non-mutual outbound
    #: traffic (controls the non-mutual unique-cert volume).
    nonmutual_site_density: float = 350.0
    #: Whether to include the misconfiguration cohorts.
    include_misconfig_cohorts: bool = True

    @classmethod
    def residential(
        cls, seed: int = 7, months: int = 23, connections_per_month: int = 2000
    ) -> "ScenarioConfig":
        """A residential-ISP-style profile (§3.3's generalizability caveat).

        Homes run almost no servers and almost no managed devices:
        mutual TLS is rare and flat, TLS 1.3 adoption is higher (consumer
        browsers update fast), nearly everything is outbound, there are
        no enterprise middleboxes, and none of the campus
        misconfiguration cohorts exist.
        """
        return cls(
            seed=seed,
            months=months,
            connections_per_month=connections_per_month,
            mutual_share_start=0.002,
            mutual_share_end=0.004,
            health_surge_boost=0.0,
            rapid7_drop=0.0,
            tls13_share=0.62,
            mutual_inbound_fraction=0.05,
            nonmutual_outbound_fraction=0.97,
            interception_fraction=0.0,
            tunneling_client_fraction=0.005,
            nonmutual_site_density=700.0,
            include_misconfig_cohorts=False,
        )

    @classmethod
    def enterprise(
        cls, seed: int = 7, months: int = 23, connections_per_month: int = 2000
    ) -> "ScenarioConfig":
        """An enterprise/hospital-style profile (§3.3: environments with
        'rigorous device management and access control' to which the
        campus patterns should generalize): higher mutual-TLS adoption,
        heavier middlebox presence, same misconfiguration ecology."""
        return cls(
            seed=seed,
            months=months,
            connections_per_month=connections_per_month,
            mutual_share_start=0.035,
            mutual_share_end=0.060,
            health_surge_boost=0.0,
            rapid7_drop=0.0,
            mutual_inbound_fraction=0.60,
            interception_fraction=0.02,
            include_misconfig_cohorts=True,
        )

    def site(self) -> SiteRuntime:
        """Resolve these knobs into generator parameters: the campus
        workload/trust templates with this config's scalars applied."""
        workload = dataclasses.replace(
            CAMPUS_WORKLOAD,
            tls13_share=self.tls13_share,
            mutual_share_start=self.mutual_share_start,
            mutual_share_end=self.mutual_share_end,
            health_surge_boost=self.health_surge_boost,
            rapid7_drop=self.rapid7_drop,
            mutual_inbound_fraction=self.mutual_inbound_fraction,
            nonmutual_outbound_fraction=self.nonmutual_outbound_fraction,
            tunneling_client_fraction=self.tunneling_client_fraction,
            nonmutual_site_density=self.nonmutual_site_density,
        )
        if self.include_misconfig_cohorts:
            trust = CAMPUS_TRUST
        else:
            # Keep the campus CA catalog (outbound destinations still use
            # the same issuers) but plant no misconfiguration cohorts.
            trust = TrustEcosystem(outbound_sld_cas=CAMPUS_TRUST.outbound_sld_cas)
        trust = dataclasses.replace(
            trust,
            interception_fraction=self.interception_fraction,
            interception_issuer_count=self.interception_issuer_count,
        )
        return SiteRuntime(
            site_name="campus",
            kind="campus",
            seed=self.seed,
            months=self.months,
            connections_per_month=self.connections_per_month,
            cohort_scale=self.cohort_scale,
            workload=workload,
            trust=trust,
        )

    def mutual_share(self, month_index: int) -> float:
        """Figure 1 target: mutual share of total TLS for a month."""
        if self.months <= 1:
            return self.mutual_share_end
        ramp = month_index / (self.months - 1)
        share = (
            self.mutual_share_start
            + (self.mutual_share_end - self.mutual_share_start) * ramp
        )
        if self.months == 23:
            # The Oct–Nov 2023 health surge and the Dec 2023 Rapid7 drop
            # only make sense on the real 23-month timeline.
            if month_index in (MONTH_OCT_2023, MONTH_NOV_2023):
                share += self.health_surge_boost
            elif month_index == MONTH_DEC_2023:
                share -= self.rapid7_drop
        return share

    @property
    def campaign_mutual_estimate(self) -> float:
        """Approximate visible mutual connections across the whole run."""
        average_share = (self.mutual_share_start + self.mutual_share_end) / 2
        return self.months * self.connections_per_month * average_share

    @property
    def cohort_client_cap(self) -> int:
        """Per-cohort ceiling so no single misconfiguration cohort swamps
        the bulk traffic (it never does in the real data either)."""
        return max(4, round(0.02 * self.campaign_mutual_estimate))

    def scaled(self, paper_count: int) -> int:
        """Scale a paper-scale cohort count down to this run's size."""
        return max(1, min(
            round(paper_count * self.cohort_scale), self.cohort_client_cap
        ))
