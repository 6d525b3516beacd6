"""Shard executor: byte-identical to sequential, 0/1/N-worker equal."""

import pickle

import pytest

from repro.core import protocol
from repro.core.dataset import MtlsDataset
from repro.core.enrich import Enricher
from repro.core.parallel import CampaignResult, ShardExecutor, analyze_directory
from repro.core.study import CampusStudy
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import IngestOptions
from repro.zeek.files import TsvDirectorySource, discover_shards, write_rotated_logs
from repro.zeek.tsv import read_x509_log

pytestmark = pytest.mark.usefixtures("supervision_watchdog")

_SCENARIO = ScenarioConfig(months=4, connections_per_month=250, seed=29)


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(_SCENARIO).generate()


@pytest.fixture(scope="module")
def archive(simulation, tmp_path_factory):
    directory = tmp_path_factory.mktemp("rotated")
    write_rotated_logs(simulation.logs, directory)
    return directory


@pytest.fixture(scope="module")
def sequential_tables(simulation):
    """Reference: the in-memory sequential pipeline."""
    dataset = MtlsDataset.from_logs(simulation.logs)
    enriched = Enricher(
        bundle=simulation.trust_bundle, ct_log=simulation.ct_log
    ).enrich(dataset)
    partials = protocol.run_analyses(enriched, raw=dataset)
    return [p.finalize().render() for p in partials.values()]


class TestDiscovery:
    def test_one_shard_per_month(self, archive):
        shards = discover_shards(archive)
        assert [month for month, _, _ in shards] == sorted(
            month for month, _, _ in shards
        )
        assert len(shards) == _SCENARIO.months

    def test_x509_broadcast_to_every_shard(self, archive):
        shards = discover_shards(archive)
        x509_sets = {tuple(str(p) for p in x509) for _, _, x509 in shards}
        assert len(x509_sets) == 1
        (x509_paths,) = x509_sets
        assert len(x509_paths) == _SCENARIO.months

    def test_empty_directory_rejected(self, tmp_path):
        from repro.zeek.tsv import TsvFormatError

        with pytest.raises(TsvFormatError, match="no rotated"):
            discover_shards(tmp_path)


class TestExecutorEquivalence:
    def test_inline_matches_sequential(self, archive, simulation, sequential_tables):
        campaign = analyze_directory(
            archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log, jobs=1
        )
        assert [t.render() for t in campaign.tables()] == sequential_tables

    def test_parallel_matches_sequential(self, archive, simulation, sequential_tables):
        campaign = analyze_directory(
            archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log, jobs=3
        )
        assert [t.render() for t in campaign.tables()] == sequential_tables
        assert campaign.jobs == 3

    def test_jobs_capped_at_shard_count(self, archive, simulation):
        campaign = analyze_directory(
            archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log, jobs=64
        )
        assert campaign.jobs == _SCENARIO.months

    def test_interception_report_is_global(self, archive, simulation):
        """The filter decision must come from the merged scan."""
        dataset = MtlsDataset.from_logs(simulation.logs)
        enricher = Enricher(
            bundle=simulation.trust_bundle, ct_log=simulation.ct_log
        )
        expected = enricher.enrich(dataset).interception
        campaign = analyze_directory(
            archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log, jobs=2
        )
        assert campaign.interception.flagged_issuers == expected.flagged_issuers
        assert (
            campaign.interception.excluded_fingerprints
            == expected.excluded_fingerprints
        )
        assert (
            campaign.interception.total_certificates
            == expected.total_certificates
        )

    def test_names_subset(self, archive, simulation):
        campaign = analyze_directory(
            archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log,
            names=("table1", "figure1"), jobs=1,
        )
        assert sorted(campaign.partials) == ["figure1", "table1"]
        with pytest.raises(KeyError, match="table5"):
            campaign.table("table5")

    def test_result_unknown_name_lists_known(self, archive, simulation):
        """result() is as helpful as table() about what exists."""
        campaign = analyze_directory(
            archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log,
            names=("table1", "figure1"), jobs=1,
        )
        with pytest.raises(KeyError, match="have: table1, figure1"):
            campaign.result("table5")
        assert campaign.result("table1") is not None

    def test_merge_scans_does_not_mutate_inputs(self, simulation):
        """Scans may be cached in a resume manifest: merging must build
        a fresh scan, never fold sibling shards into scans[0]."""
        from repro.core.enrich import InterceptionScan

        first = InterceptionScan(simulation.trust_bundle, None)
        first.fingerprints = {"fp-a"}
        first.mismatched_domains = {"evil-ca": {"a.example"}}
        second = InterceptionScan(simulation.trust_bundle, None)
        second.fingerprints = {"fp-b"}
        second.mismatched_domains = {"evil-ca": {"b.example"}}
        executor = ShardExecutor(simulation.trust_bundle)
        report = executor._merge_scans([first, second])
        assert report.total_certificates == 2
        assert first.fingerprints == {"fp-a"}
        assert first.mismatched_domains == {"evil-ca": {"a.example"}}
        assert second.fingerprints == {"fp-b"}

    def test_ingest_accounting_counts_x509_once(self, archive, simulation):
        campaign = analyze_directory(
            archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log,
            options=IngestOptions(on_error="skip"), jobs=2,
        )
        assert campaign.ingest.rows_ok == len(simulation.logs.ssl) + len(
            simulation.logs.x509
        )
        assert campaign.ingest.rows_dropped == 0

    @pytest.mark.parametrize("pipeline", ["on", "off"])
    def test_x509_files_decoded_once_per_campaign(
        self, archive, simulation, monkeypatch, pipeline
    ):
        from repro.zeek import files

        decoded = []

        def counting_read_x509_log(source, options=None):
            decoded.append(options.path)
            return read_x509_log(source, options)

        monkeypatch.setattr(files, "read_x509_log", counting_read_x509_log)
        analyze_directory(
            archive, bundle=simulation.trust_bundle,
            ct_log=simulation.ct_log, jobs=1, pipeline=pipeline,
        )
        x509_files = sorted(str(p) for p in archive.glob("x509.*"))
        assert len(x509_files) == _SCENARIO.months
        assert sorted(decoded) == x509_files

    def test_empty_shard_list_rejected(self, simulation):
        executor = ShardExecutor(simulation.trust_bundle)
        with pytest.raises(ValueError, match="no shards"):
            executor.run_source(TsvDirectorySource.from_shards([]))

    def test_campaign_result_picklable(self, archive, simulation):
        campaign = analyze_directory(
            archive, bundle=simulation.trust_bundle, ct_log=simulation.ct_log, jobs=1
        )
        clone = pickle.loads(pickle.dumps(campaign))
        assert isinstance(clone, CampaignResult)
        assert [t.render() for t in clone.tables()] == [
            t.render() for t in campaign.tables()
        ]


class TestStudyJobs:
    """0/1/N-worker equivalence through CampusStudy(jobs=...)."""

    @pytest.fixture(scope="class")
    def reference(self):
        study = CampusStudy(seed=41, months=3, connections_per_month=200)
        return [t.render() for t in study.all_tables()]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_jobs_equal_in_memory(self, jobs, reference):
        study = CampusStudy(
            seed=41, months=3, connections_per_month=200, jobs=jobs
        )
        assert [t.render() for t in study.all_tables()] == reference

    def test_single_table_access(self):
        study = CampusStudy(
            seed=41, months=3, connections_per_month=200, jobs=2
        )
        assert study.table5().render() == study.table("table5").render()
        with pytest.raises(KeyError, match="unknown analysis"):
            study.table("nope")

    def test_fault_plan_matches_in_memory(self):
        """Injected faults under quarantine: every table, the
        ingest-health section included, equal at jobs 0, 1 and 2."""
        from repro.netsim import FaultPlan

        def tables(jobs):
            study = CampusStudy(
                seed=41, months=3, connections_per_month=200, jobs=jobs,
                options=IngestOptions(on_error="quarantine"),
                fault_plan=FaultPlan.uniform(0.05, seed=29),
            )
            return [t.render() for t in study.all_tables()]

        ref = tables(0)
        assert "Ingest health" in ref[-1]
        assert "Quarantined lines" in ref[-1]
        assert tables(1) == ref
        assert tables(2) == ref

    def test_lenient_policy_matches_through_shards(self):
        """on_error=skip over clean logs: same tables, ingest health
        included."""
        skip = IngestOptions(on_error="skip")
        base = CampusStudy(
            seed=41, months=3, connections_per_month=200, options=skip
        )
        sharded = CampusStudy(
            seed=41, months=3, connections_per_month=200,
            options=skip, jobs=2,
        )
        ref = [t.render() for t in base.all_tables()]
        got = [t.render() for t in sharded.all_tables()]
        assert "Ingest health" in got[-1]
        assert got == ref
