"""IngestOptions / RecordSource API: coercion and the one spelling."""

import io
import warnings

import pytest

from repro.core.parallel import ShardExecutor, analyze_directory
from repro.core.streaming import StreamingAnalyzer
from repro.core.study import CampusStudy
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import (
    ErrorPolicy,
    FastPath,
    IngestOptions,
    IngestReport,
    RecordSource,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
)
from repro.zeek.files import TsvDirectorySource, read_logs_directory


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(seed=3, months=2, connections_per_month=60)
    ).generate()


@pytest.fixture(scope="module")
def ssl_text(simulation):
    return ssl_log_to_string(simulation.logs.ssl)


class TestIngestOptions:
    def test_coerces_strings(self):
        options = IngestOptions(on_error="skip", fast_path="off")
        assert options.on_error is ErrorPolicy.SKIP
        assert options.fast_path is FastPath.OFF

    def test_for_path_keeps_policies(self):
        report = IngestReport()
        base = IngestOptions(on_error="quarantine")
        derived = base.for_path("ssl.log", report)
        assert derived.on_error is ErrorPolicy.QUARANTINE
        assert derived.path == "ssl.log"
        assert derived.report is report

    def test_identity_excludes_fast_path(self):
        fast = IngestOptions(fast_path="batch")
        slow = IngestOptions(fast_path="off")
        assert fast.identity() == slow.identity()
        assert IngestOptions(on_error="skip").identity() != fast.identity()

    def test_options_path_is_silent(self, ssl_text):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            read_ssl_log(io.StringIO(ssl_text), IngestOptions())

    def test_sources_satisfy_protocol(self, tmp_path, simulation):
        from repro.zeek.files import write_rotated_logs

        write_rotated_logs(simulation.logs, tmp_path)
        assert isinstance(TsvDirectorySource(tmp_path), RecordSource)


class TestLegacySpellings:
    """The pre-``IngestOptions`` keywords and the positional bundle are
    gone: each old spelling is now a plain ``TypeError``."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda sim, text: read_ssl_log(io.StringIO(text), on_error="skip"),
            lambda sim, text: read_ssl_log(
                io.StringIO(text), IngestOptions(), on_error="skip"
            ),
            lambda sim, text: read_ssl_log(io.StringIO(text), report=IngestReport()),
            lambda sim, text: read_ssl_log(io.StringIO(text), path="ssl.log"),
            lambda sim, text: read_x509_log(io.StringIO(text), fast_path="off"),
            lambda sim, text: read_logs_directory(".", on_error="skip"),
            lambda sim, text: ShardExecutor(sim.trust_bundle, on_error="skip"),
            lambda sim, text: ShardExecutor(sim.trust_bundle, fast_path="off"),
            lambda sim, text: analyze_directory(
                ".", bundle=sim.trust_bundle, on_error="skip"
            ),
            lambda sim, text: analyze_directory(
                ".", bundle=sim.trust_bundle, fast_path="off"
            ),
            lambda sim, text: analyze_directory(".", sim.trust_bundle),
            lambda sim, text: CampusStudy(seed=1, months=1, on_error="skip"),
            lambda sim, text: CampusStudy(seed=1, months=1, fast_path="off"),
            lambda sim, text: CampusStudy(1, 1, 10, None, True, "skip"),
            lambda sim, text: StreamingAnalyzer(sim.trust_bundle, fast_path="off"),
        ],
        ids=[
            "read_ssl_log-on_error", "read_ssl_log-mixed", "read_ssl_log-report",
            "read_ssl_log-path", "read_x509_log-fast_path",
            "read_logs_directory-on_error",
            "ShardExecutor-on_error", "ShardExecutor-fast_path",
            "analyze_directory-on_error", "analyze_directory-fast_path",
            "analyze_directory-positional",
            "CampusStudy-on_error", "CampusStudy-fast_path",
            "CampusStudy-positional",
            "StreamingAnalyzer-fast_path",
        ],
    )
    def test_type_error(self, call, simulation, ssl_text):
        with pytest.raises(TypeError, match="argument"):
            call(simulation, ssl_text)

    def test_fast_path_on_is_gone(self):
        with pytest.raises(ValueError, match="unknown fast-path mode"):
            IngestOptions(fast_path="on")
        with pytest.raises(ValueError, match="unknown fast-path mode"):
            IngestOptions(fast_path=True)


class TestAnalyzeDirectorySignature:
    def test_bundle_required(self, tmp_path):
        with pytest.raises(TypeError, match="bundle"):
            analyze_directory(tmp_path)

    def test_too_many_positionals_rejected(self, simulation, tmp_path):
        with pytest.raises(TypeError, match="positional"):
            analyze_directory(
                tmp_path, simulation.trust_bundle, simulation.ct_log, object()
            )

    def test_duplicated_positional_and_keyword_rejected(
        self, simulation, tmp_path
    ):
        # ``bundle`` is keyword-only, so the positional copy is the one
        # Python's own signature check rejects.
        with pytest.raises(TypeError, match="positional argument"):
            analyze_directory(
                tmp_path, simulation.trust_bundle,
                bundle=simulation.trust_bundle,
            )
