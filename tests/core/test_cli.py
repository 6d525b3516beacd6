"""Tests for the command-line interface."""

import pytest

from repro.cli import load_trust_bundle, main
from repro.core.dataset import MtlsDataset
from repro.core.enrich import Enricher
from repro.zeek import read_ssl_log, read_x509_log


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    code = main([
        "generate", "--out", str(out), "--months", "4", "--cpm", "400",
        "--seed", "9",
    ])
    assert code == 0
    return out


class TestGenerate:
    def test_artifacts_written(self, generated_dir):
        assert (generated_dir / "ssl.log").exists()
        assert (generated_dir / "x509.log").exists()
        assert (generated_dir / "trust_bundle.txt").exists()

    def test_logs_parse_back(self, generated_dir):
        from repro.zeek import read_ssl_log, read_x509_log

        with (generated_dir / "ssl.log").open() as f:
            ssl = read_ssl_log(f)
        with (generated_dir / "x509.log").open() as f:
            x509 = read_x509_log(f)
        assert len(ssl) > 500
        assert len(x509) > 50

    def test_trust_bundle_round_trip(self, generated_dir):
        bundle = load_trust_bundle(generated_dir / "trust_bundle.txt")
        assert bundle.subject_dns
        assert bundle.organizations
        assert bundle.knows_organization("digicert inc")


class TestStudy:
    def test_single_table(self, capsys):
        code = main([
            "study", "--months", "3", "--cpm", "250", "--seed", "5",
            "--table", "table1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Server" in out

    def test_tls13_table(self, capsys):
        code = main([
            "study", "--months", "2", "--cpm", "200", "--seed", "5",
            "--table", "tls13",
        ])
        assert code == 0
        assert "§3.3" in capsys.readouterr().out

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "--table", "table99"])


class TestAudit:
    def test_audit_finds_sensitive_values(self, generated_dir, capsys):
        code = main([
            "audit", str(generated_dir / "x509.log"),
            "--campus-marker", "university",
        ])
        out = capsys.readouterr().out
        assert "sensitive values across" in out
        # The generated campaign plants personal names / user accounts.
        assert code == 2
        assert "[PersonalName]" in out or "[UserAccount]" in out


class TestIntercept:
    def test_intercept_runs_on_generated_logs(self, generated_dir, capsys):
        code = main([
            "intercept",
            str(generated_dir / "ssl.log"),
            str(generated_dir / "x509.log"),
            "--trust-bundle", str(generated_dir / "trust_bundle.txt"),
            "--min-domains", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "issuers flagged" in out

    @pytest.mark.parametrize("min_domains", [1, 2])
    def test_intercept_matches_whole_dataset_enrich(
        self, generated_dir, capsys, min_domains
    ):
        """The printed report is the one a full `Enricher.enrich` of the
        logs yields, under the same CT ledger rebuilt from the logs'
        public-CA observations. The command itself labels nothing."""

        def no_labelling(self, dataset):
            raise AssertionError("repro intercept must not label connections")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Enricher, "enrich", no_labelling)
            code = main([
                "intercept",
                str(generated_dir / "ssl.log"),
                str(generated_dir / "x509.log"),
                "--trust-bundle", str(generated_dir / "trust_bundle.txt"),
                "--min-domains", str(min_domains),
            ])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()

        with (generated_dir / "ssl.log").open() as source:
            ssl = read_ssl_log(source)
        with (generated_dir / "x509.log").open() as source:
            x509 = read_x509_log(source)
        bundle = load_trust_bundle(generated_dir / "trust_bundle.txt")
        by_fuid = {r.fuid: r for r in x509}
        ledger: dict[str, list[str]] = {}
        for record in ssl:
            leaf = by_fuid.get(record.server_leaf_fuid or "")
            if leaf is not None and record.server_name and bundle.is_public(leaf):
                issuers = ledger.setdefault(record.server_name.lower(), [])
                if leaf.issuer not in issuers:
                    issuers.append(leaf.issuer)

        class Ledger:
            def knows_domain(self, domain):
                return domain.lower() in ledger

            def issuers_for(self, domain):
                return ledger.get(domain.lower(), [])

        report = Enricher(
            bundle, ct_log=Ledger(), min_interception_domains=min_domains
        ).enrich(MtlsDataset(ssl, x509)).interception
        assert report.flagged_issuers  # the pin has something to pin
        assert printed == [
            *(f"flagged: {issuer}" for issuer in sorted(report.flagged_issuers)),
            f"{len(report.flagged_issuers)} issuers flagged, "
            f"{len(report.excluded_fingerprints)} certificates "
            f"({100 * report.excluded_fraction:.2f}%) excluded",
        ]

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


@pytest.fixture(scope="module")
def rotated_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("rotated-campaign")
    code = main([
        "generate", "--out", str(out), "--months", "3", "--cpm", "150",
        "--seed", "13", "--rotated",
    ])
    assert code == 0
    return out


class TestAnalyze:
    def test_rotated_generate_layout(self, rotated_dir):
        assert len(list(rotated_dir.glob("ssl.*.log.gz"))) == 3
        assert len(list(rotated_dir.glob("x509.*.log.gz"))) == 3
        assert (rotated_dir / "trust_bundle.txt").exists()

    def test_analyze_single_table(self, rotated_dir, capsys):
        code = main([
            "analyze", str(rotated_dir),
            "--trust-bundle", str(rotated_dir / "trust_bundle.txt"),
            "--table", "table1",
        ])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_analyze_jobs_match_inline(self, rotated_dir, capsys):
        argv = [
            "analyze", str(rotated_dir),
            "--trust-bundle", str(rotated_dir / "trust_bundle.txt"),
        ]
        assert main(argv) == 0
        inline = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == inline

    def test_analyze_json_export(self, rotated_dir, capsys):
        import json

        code = main([
            "analyze", str(rotated_dir),
            "--trust-bundle", str(rotated_dir / "trust_bundle.txt"),
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "table5" in payload["analyses"]
        assert payload["analyses"]["table5"]["legacy"] == (
            "repro.core.sharing.same_connection_sharing"
        )

    def test_study_jobs_single_table(self, capsys):
        code = main([
            "study", "--months", "2", "--cpm", "120", "--seed", "5",
            "--jobs", "2", "--table", "figure1",
        ])
        assert code == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_study_jobs_fault_rate_matches_jobs0(self, capsys):
        argv = [
            "study", "--months", "2", "--cpm", "120",
            "--fault-rate", "0.02", "--on-error", "skip",
        ]
        assert main([*argv, "--jobs", "0"]) == 0
        in_memory = capsys.readouterr().out
        assert "Ingest health" in in_memory
        assert main([*argv, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == in_memory

    @pytest.mark.parametrize(
        "flag", [["--store", "store-dir"], ["--pipeline", "on"]]
    )
    def test_study_has_no_sharded_switches(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["study", "--months", "2", "--cpm", "120", "--jobs", "1", *flag])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fast_path_batch_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["study", "--fast-path", "batch"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestAnalyzeSupervision:
    """Chaos flags: injected worker crashes, degrade policy, resume."""

    @pytest.fixture(scope="class")
    def first_month(self, rotated_dir):
        return sorted(
            p.name.split(".")[1] for p in rotated_dir.glob("ssl.*.log.gz")
        )[0]

    def _argv(self, rotated_dir, *extra):
        return [
            "analyze", str(rotated_dir),
            "--trust-bundle", str(rotated_dir / "trust_bundle.txt"),
            *extra,
        ]

    def test_injected_crash_partial_exits_degraded(
        self, rotated_dir, first_month, capsys
    ):
        from repro.cli import EXIT_DEGRADED

        code = main(self._argv(
            rotated_dir, "--jobs", "2", "--degrade", "partial",
            "--max-attempts", "2", "--inject-crash", first_month,
        ))
        assert code == EXIT_DEGRADED
        captured = capsys.readouterr()
        assert "Run health" in captured.out
        assert first_month in captured.out
        assert "campaign degraded" in captured.err
        assert first_month in captured.err

    def test_injected_crash_strict_fails(self, rotated_dir, first_month, capsys):
        code = main(self._argv(
            rotated_dir, "--jobs", "2", "--max-attempts", "2",
            "--inject-crash", first_month,
        ))
        assert code == 1
        err = capsys.readouterr().err
        assert "exhausted its retry budget" in err
        assert first_month in err

    def test_run_health_table_view(self, rotated_dir, capsys):
        code = main(self._argv(rotated_dir, "--table", "run-health"))
        assert code == 0
        out = capsys.readouterr().out
        assert "Run health" in out
        assert "Coverage (%)" in out

    def test_resume_after_strict_abort(
        self, rotated_dir, first_month, tmp_path, capsys
    ):
        """Simulated parent kill + `--resume`: the rerun must finish
        and print exactly what an uninterrupted run prints."""
        run_dir = tmp_path / "run"
        code = main(self._argv(rotated_dir, "--jobs", "2"))
        assert code == 0
        uninterrupted = capsys.readouterr().out

        code = main(self._argv(
            rotated_dir, "--jobs", "2", "--max-attempts", "2",
            "--inject-crash", first_month, "--resume", str(run_dir),
        ))
        assert code == 1
        capsys.readouterr()
        assert (run_dir / "manifest.json").exists()

        code = main(self._argv(
            rotated_dir, "--jobs", "2", "--resume", str(run_dir),
        ))
        assert code == 0
        assert capsys.readouterr().out == uninterrupted
