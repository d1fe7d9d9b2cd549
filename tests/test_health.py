"""Tests for operational health: SLO policies, trace correlation, the
/health route, and the flight recorder.

Covers SloPolicy validation and the DatabaseConfig.slo knob, the
deterministic verdict semantics of evaluate_health (hard vs soft
breaches), end-to-end DEGRADED -> FAILING transitions on a live sharded
database (including the HTTP status codes /health answers with),
per-shard label hygiene (no shard="?" bucket, ever), trace correlation
(every shard_apply span nests under the ingest that produced its
window), the flight-recorder tape/cooldown/bundle
format, incident dumps on auditor violations and shard-worker errors,
and concurrent scrapes while a writer thread drives the sharded engine.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import ChronicleDatabase, DatabaseConfig
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.errors import (
    ConfigError,
    EngineError,
    MaintenanceAuditError,
    ObservabilityError,
)
from repro.obs import (
    FlightRecorder,
    HealthReport,
    Observability,
    SloPolicy,
    Tracer,
    evaluate_health,
)
from repro.obs import runtime as obs_runtime


@pytest.fixture(autouse=True)
def _clean_runtime():
    assert obs_runtime.ACTIVE is None
    yield
    obs_runtime.ACTIVE = None


def make_db(**kwargs):
    """A database (serial by default) with one partitionable view."""
    db = ChronicleDatabase(config=DatabaseConfig(**kwargs))
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
    db.define_view(
        "DEFINE VIEW usage AS "
        "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
    )
    return db


def make_sharded(**kwargs):
    kwargs.setdefault("engine", "sharded")
    kwargs.setdefault("shards", 2)
    return make_db(**kwargs)


def _append_some(db, n=8):
    for i in range(n):
        db.append("calls", {"caller": i % 4, "minutes": 1 + i})


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read()


# ---------------------------------------------------------------------------
# SloPolicy + DatabaseConfig.slo
# ---------------------------------------------------------------------------


class TestSloPolicy:
    def test_defaults_and_dict_roundtrip(self):
        policy = SloPolicy()
        d = policy.as_dict()
        assert d["max_maintain_p99_seconds"] == 0.25
        assert d["max_auditor_violations"] == 0
        assert SloPolicy(**d) == policy

    def test_zero_limits_are_legal(self):
        # Tests and drills use zero limits to inject deterministic breaches.
        SloPolicy(max_maintain_p99_seconds=0, max_auditor_violations=0)

    def test_negative_limit_rejected(self):
        with pytest.raises(ConfigError, match="must be >= 0"):
            SloPolicy(max_maintain_p99_seconds=-1.0)

    def test_nan_limit_rejected(self):
        # No observation is <= nan: a NaN limit would breach forever.
        for field in ("max_maintain_p99_seconds", "max_engine_errors"):
            with pytest.raises(ConfigError, match="must be >= 0"):
                SloPolicy(**{field: float("nan")})
        # +inf stays legal: no limit.
        unlimited = SloPolicy(max_maintain_p99_seconds=float("inf"))
        obs = Observability(audit="off")
        obs.metrics.observe("view_maintain_seconds", 10.0, view="v", engine="x")
        assert evaluate_health(obs, unlimited).status == "OK"

    def test_non_number_rejected(self):
        with pytest.raises(ConfigError, match="must be a number"):
            SloPolicy(max_auditor_violations="lots")
        with pytest.raises(ConfigError, match="must be a number"):
            SloPolicy(max_engine_errors=True)

    def test_config_carries_policy_to_handle(self):
        policy = SloPolicy(max_maintain_p99_seconds=1.5)
        db = make_db(observe=True, slo=policy)
        try:
            assert db.observability.slo == policy
        finally:
            db.observability.uninstall()

    def test_config_rejects_wrong_slo_type(self):
        with pytest.raises(ConfigError, match="slo must be an SloPolicy"):
            DatabaseConfig(slo={"max_maintain_p99_seconds": 1.0})

    def test_config_replace_swaps_policy(self):
        config = DatabaseConfig()
        strict = config.replace(slo=SloPolicy(max_engine_errors=0))
        assert strict.slo is not None and config.slo is None


# ---------------------------------------------------------------------------
# evaluate_health verdict semantics
# ---------------------------------------------------------------------------


class TestEvaluateHealth:
    def test_fresh_handle_is_ok(self):
        report = evaluate_health(Observability(audit="off"))
        assert report.status == "OK"
        assert not report.breaches
        assert {c.name for c in report.checks} == {
            "maintain_p99_seconds",
            "auditor_violations",
            "engine_errors",
        }

    def test_one_soft_breach_is_degraded(self):
        obs = Observability(audit="off")
        obs.metrics.observe("view_maintain_seconds", 0.01, view="v", engine="x")
        report = evaluate_health(obs, SloPolicy(max_maintain_p99_seconds=0))
        assert report.status == "DEGRADED"
        assert [c.name for c in report.breaches] == ["maintain_p99_seconds"]

    def test_hard_breach_alone_is_failing(self):
        obs = Observability(audit="off")
        obs.metrics.inc("engine_errors_total")
        report = evaluate_health(obs, SloPolicy())
        assert report.status == "FAILING"
        breach = report.breaches[0]
        assert breach.name == "engine_errors" and breach.hard

    def test_format_renders_verdict_and_shards(self):
        obs = Observability(audit="off")
        obs.metrics.observe("view_maintain_seconds", 0.01, view="v", engine="x")
        text = evaluate_health(obs, SloPolicy(max_maintain_p99_seconds=0)).format()
        assert text.startswith("health: DEGRADED")
        assert "[degraded] maintain_p99_seconds: observed" in text

    def test_report_dict_is_json_ready(self):
        report = evaluate_health(Observability(audit="off"))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["status"] == "OK"
        assert payload["policy"]["max_engine_errors"] == 0
        assert all(c["ok"] for c in payload["checks"])


# ---------------------------------------------------------------------------
# End-to-end health on a live database
# ---------------------------------------------------------------------------


class TestDatabaseHealth:
    def test_health_requires_observability(self):
        db = make_db()
        with pytest.raises(ObservabilityError, match="health requires"):
            db.health()
        with pytest.raises(ObservabilityError, match="dump_incident requires"):
            db.dump_incident()

    def test_healthy_database_reports_ok(self):
        db = make_sharded(observe=True)
        try:
            _append_some(db)
            report = db.health()
            assert isinstance(report, HealthReport)
            assert report.status == "OK"
        finally:
            db.observability.uninstall()

    def test_injected_breach_degrades_then_fails(self):
        """The acceptance drill: DEGRADED on a soft breach, FAILING once a
        hard one lands, visible through db.health() and /health."""
        db = make_sharded(observe=True, slo=SloPolicy(max_maintain_p99_seconds=0))
        server = db.serve_metrics(port=0)
        try:
            _append_some(db)
            # Any maintenance latency at all breaches the zero p99 limit.
            assert db.health().status == "DEGRADED"
            status, body = _get(server.url + "/health")
            payload = json.loads(body)
            assert status == 200 and payload["status"] == "DEGRADED"

            # A shard-worker failure is a hard breach: FAILING, 503.
            original = db._shards.backend.run

            def exploding(tasks):
                raise EngineError("injected worker failure")

            db._shards.backend.run = exploding
            with pytest.raises(EngineError):
                db.append("calls", {"caller": 1, "minutes": 1})
            db._shards.backend.run = original

            assert db.health().status == "FAILING"
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(server.url + "/health")
            assert info.value.code == 503
            assert json.loads(info.value.read())["status"] == "FAILING"
        finally:
            db.close()
            db.observability.uninstall()

    def test_no_unknown_shard_bucket(self):
        """Label hygiene: a shard="?" series must never be emitted."""
        db = make_sharded(observe=True)
        try:
            _append_some(db, 12)
            db.ingest("calls", [[{"caller": i, "minutes": 1}] for i in range(4)])
            text = db.observability.metrics.to_prometheus()
            snap = db.observability.metrics.as_dict()
        finally:
            db.observability.uninstall()
        assert 'shard="?"' not in text
        for name in ("shard_batches_total", "shard_records_total", "shard_apply_seconds"):
            assert all("?" not in key for key in snap[name]["series"])

    def test_show_health_cli(self):
        from repro.cli import Session

        session = Session(config=DatabaseConfig(engine="sharded", shards=2))
        session.execute("CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0")
        session.execute(
            "DEFINE VIEW usage AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        session.execute('APPEND calls {"caller": 1, "minutes": 5}')
        out = session.execute("SHOW HEALTH")
        assert "health: OK" in out
        assert "maintain_p99_seconds" in out


# ---------------------------------------------------------------------------
# Trace correlation
# ---------------------------------------------------------------------------


class TestTraceCorrelation:
    def _spans(self, obs):
        out = []
        for root in obs.tracer.traces():
            out.extend(root.walk())
        return out

    def test_every_shard_apply_carries_producer_trace_id(self):
        db = make_sharded(observe=True, executor="serial")
        try:
            _append_some(db, 10)
            db.ingest("calls", [[{"caller": i, "minutes": 2}] for i in range(6)])
            spans = self._spans(db.observability)
        finally:
            db.observability.uninstall()
        ingest_ids = {s.trace_id for s in spans if s.name == "ingest"}
        applies = [s for s in spans if s.name == "shard_apply"]
        assert applies, "expected shard_apply spans"
        for span in applies:
            assert span.trace_id in ingest_ids
            assert span.parent_id is not None

    def test_linked_spans_reference_ingest_span_id(self):
        db = make_sharded(observe=True, executor="serial")
        try:
            _append_some(db, 10)
            spans = self._spans(db.observability)
        finally:
            db.observability.uninstall()
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.name != "shard_apply":
                continue
            parent = by_id.get(span.parent_id)
            assert parent is not None
            assert parent.name == "ingest"
            assert parent.trace_id == span.trace_id

    def test_trace_ids_survive_jsonl_export(self):
        import io

        db = make_sharded(observe=True)
        try:
            _append_some(db, 4)
            buffer = io.StringIO()
            db.observability.tracer.export_jsonl(buffer)
            lines = buffer.getvalue().splitlines()
        finally:
            db.observability.uninstall()
        assert lines
        for line in lines:
            payload = json.loads(line)
            assert "trace_id" in payload and "span_id" in payload

    def test_serial_engine_spans_share_one_trace(self):
        db = make_db(observe=True)
        try:
            db.append("calls", {"caller": 1, "minutes": 5})
            root = db.observability.tracer.last()
        finally:
            db.observability.uninstall()
        assert root.trace_id == root.span_id and root.parent_id is None
        for span in root.walk():
            assert span.trace_id == root.trace_id


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self, tmp_path):
        # The tape is read from the tracer's ring: Observability(ring=)
        # bounds it.
        db = make_db()
        with Observability(audit="off", ring=4) as obs:
            _append_some(db, 10)
            path = obs.incident("drill", path=str(tmp_path / "bundle.json"))
        events = json.loads(open(path).read())["events"]
        assert [e["kind"] for e in events] == ["span"] * 4 + ["trigger"]
        assert [e["span_id"] for e in events[:4]] == [t.span_id for t in obs.tracer.traces()]
        assert [e["at"] for e in events] == sorted(e["at"] for e in events)

    def test_trigger_without_directory_stays_in_memory(self):
        recorder = FlightRecorder()
        assert recorder.trigger("drill") is None
        assert recorder.triggered == 1 and recorder.dumped == 0
        assert [t["reason"] for t in recorder.triggers_since(0)] == ["drill"]

    def test_explicit_path_dump(self, tmp_path):
        recorder = FlightRecorder()
        tracer = Tracer()
        with tracer.span("append", group="g"):
            pass
        path = recorder.trigger(
            "manual",
            {"extra": "context"},
            path=str(tmp_path / "bundle.json"),
            traces=tracer.traces(),
        )
        bundle = json.loads(open(path).read())
        assert bundle["reason"] == "manual"
        assert bundle["context"] == {"extra": "context"}
        assert [(e["kind"], e.get("name")) for e in bundle["events"]] == [
            ("span", "append"),
            ("trigger", None),
        ]

    def test_directory_dump_with_cooldown(self, tmp_path):
        recorder = FlightRecorder(directory=str(tmp_path), cooldown_seconds=3600)
        first = recorder.trigger("auditor-violation")
        second = recorder.trigger("auditor-violation")  # debounced
        third = recorder.trigger("slo-breach")  # different reason: dumps
        assert first is not None and second is None and third is not None
        assert recorder.triggered == 3 and recorder.dumped == 2
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "incident-0001-auditor-violation.json",
            "incident-0003-slo-breach.json",
        ]

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(cooldown_seconds=-1)


class TestIncidents:
    def test_auditor_violation_triggers_recorder(self):
        db = make_db()
        view = db.view("usage")
        original = view.apply_delta

        def leaky(delta):
            GLOBAL_COUNTERS.count("chronicle_read")
            return original(delta)

        view.apply_delta = leaky
        with db.enable_observability(audit="warn"):
            with pytest.warns(Warning):
                db.append("calls", {"caller": 1, "minutes": 5})
        recorder = db.observability.recorder
        assert recorder.triggered == 1
        assert [t["reason"] for t in recorder.triggers_since(0)] == ["auditor-violation"]

    def test_raise_mode_writes_bundle_before_aborting(self, tmp_path):
        db = make_db()
        view = db.view("usage")
        original = view.apply_delta

        def leaky(delta):
            GLOBAL_COUNTERS.count("chronicle_read")
            return original(delta)

        view.apply_delta = leaky
        with db.enable_observability(audit="raise", incident_dir=str(tmp_path)):
            with pytest.raises(MaintenanceAuditError):
                db.append("calls", {"caller": 1, "minutes": 5})
        bundles = list(tmp_path.glob("incident-*-auditor-violation.json"))
        assert len(bundles) == 1
        bundle = json.loads(bundles[0].read_text())
        assert "no-chronicle-access" in bundle["context"]["error"]
        assert "watermarks" in bundle["context"]
        assert "snapshot" in bundle["context"]

    def test_shard_worker_error_bundle_is_readable(self, tmp_path):
        db = make_sharded(executor="serial")
        obs = db.enable_observability(audit="off", incident_dir=str(tmp_path))
        try:
            _append_some(db, 6)

            def exploding(tasks):
                raise EngineError("injected worker failure")

            db._shards.backend.run = exploding
            with pytest.raises(EngineError):
                db.append("calls", {"caller": 9, "minutes": 9})
        finally:
            obs.uninstall()
        bundles = list(tmp_path.glob("incident-*-shard-worker-error.json"))
        assert len(bundles) == 1
        bundle = json.loads(bundles[0].read_text())
        assert "injected worker failure" in bundle["context"]["error"]
        # The tape: recent root spans with trace ids, plus watermarks.
        spans = [e for e in bundle["events"] if e["kind"] == "span"]
        assert spans and all("trace_id" in s for s in spans)
        marks = bundle["context"]["watermarks"]
        assert any(key.startswith("kc0:") for key in marks)
        assert obs.metrics.value("engine_errors_total") == 1

    def test_manual_dump_incident(self, tmp_path):
        db = make_db(observe=True)
        try:
            db.append("calls", {"caller": 1, "minutes": 5})
            path = db.dump_incident(path=str(tmp_path / "manual.json"))
        finally:
            db.observability.uninstall()
        bundle = json.loads(open(path).read())
        assert bundle["reason"] == "manual"
        assert bundle["context"]["registry_stats"]["events"] == 1
        assert any(e["kind"] == "span" for e in bundle["events"])

    def test_snapshot_reports_recorder_and_health(self):
        db = make_db(observe=True)
        try:
            db.append("calls", {"caller": 1, "minutes": 5})
            db.health()
            snap = db.observability.snapshot()
        finally:
            db.observability.uninstall()
        assert snap["health"] == "OK"
        assert snap["recorder"]["events"] >= 1
        assert snap["recorder"]["triggered"] == 0


# ---------------------------------------------------------------------------
# Concurrent scrape while maintenance runs (a writer thread, inline executor)
# ---------------------------------------------------------------------------


class TestConcurrentScrape:
    def test_endpoints_answer_mid_maintenance(self):
        db = make_sharded(observe=True, executor="serial", shards=2)
        server = db.serve_metrics(port=0)
        errors = []
        done = threading.Event()

        def writer():
            try:
                for round_ in range(30):
                    db.ingest(
                        "calls",
                        [
                            [{"caller": (round_ * 7 + i) % 16, "minutes": 1}]
                            for i in range(4)
                        ],
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            scrapes = 0
            while not done.is_set() or scrapes < 3:
                status, body = _get(server.url + "/metrics")
                assert status == 200 and b"shard_" in body
                status, body = _get(server.url + "/costs")
                assert status == 200 and "entries" in json.loads(body)
                status, body = _get(server.url + "/certificates")
                assert status == 200 and json.loads(body) == {}
                status, body = _get(server.url + "/health")
                assert json.loads(body)["status"] in ("OK", "DEGRADED")
                scrapes += 1
                if scrapes > 200:  # pragma: no cover - watchdog
                    break
        finally:
            thread.join(timeout=30)
            db.close()
            db.observability.uninstall()
        assert not errors
        assert db.observability.recorder.triggered == 0
        assert db.view("usage").maintenance_count > 0
