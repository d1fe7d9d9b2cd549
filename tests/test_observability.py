"""Tests for the observability subsystem (repro.obs).

Covers the tracer (span nesting, counter attribution), the metrics
registry (bucket math, Prometheus exposition golden text), the
no-chronicle-access auditor (including a provoked violation), the
runtime install/uninstall discipline, and — the property the whole layer
exists to keep honest — that disabled observability mutates nothing.
"""

import io
import json
import threading
import warnings

import pytest

from repro import ChronicleDatabase, DatabaseConfig
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.errors import MaintenanceAuditError, ObservabilityError
from repro.obs import (
    AuditWarning,
    Auditor,
    Histogram,
    MetricsRegistry,
    Observability,
    Tracer,
)
from repro.obs import runtime as obs_runtime


@pytest.fixture(autouse=True)
def _clean_runtime():
    """No test may leak an installed Observability into the next."""
    assert obs_runtime.ACTIVE is None
    yield
    obs_runtime.ACTIVE = None


def make_db(**kwargs):
    db = ChronicleDatabase(config=DatabaseConfig(**kwargs))
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
    db.define_view(
        "DEFINE VIEW usage AS "
        "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
    )
    return db


# ---------------------------------------------------------------------------
# CostCounters.scope (satellite: thread-safe scoped counting)
# ---------------------------------------------------------------------------


class TestCounterScopes:
    def test_scope_captures_only_inside(self):
        GLOBAL_COUNTERS.count("tuple_op")
        with GLOBAL_COUNTERS.scope() as scoped:
            GLOBAL_COUNTERS.count("tuple_op", 3)
        GLOBAL_COUNTERS.count("tuple_op")
        assert scoped.counts["tuple_op"] == 3

    def test_scopes_nest_additively(self):
        with GLOBAL_COUNTERS.scope() as outer:
            GLOBAL_COUNTERS.count("index_probe")
            with GLOBAL_COUNTERS.scope() as inner:
                GLOBAL_COUNTERS.count("index_probe", 2)
            GLOBAL_COUNTERS.count("index_probe")
        assert inner.counts["index_probe"] == 2
        assert outer.counts["index_probe"] == 4

    def test_scope_still_feeds_global_totals(self):
        before = GLOBAL_COUNTERS.counts["aggregate_step"]
        with GLOBAL_COUNTERS.scope():
            GLOBAL_COUNTERS.count("aggregate_step", 5)
        assert GLOBAL_COUNTERS.counts["aggregate_step"] == before + 5

    def test_scopes_are_thread_isolated(self):
        seen = {}

        def other_thread():
            with GLOBAL_COUNTERS.scope() as mine:
                GLOBAL_COUNTERS.count("view_read", 7)
                seen["other"] = mine.counts["view_read"]

        with GLOBAL_COUNTERS.scope() as ours:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            GLOBAL_COUNTERS.count("view_read")
        assert seen["other"] == 7
        assert ours.counts["view_read"] == 1  # the other thread's 7 stayed out

    def test_disabled_counting_skips_scopes(self):
        with GLOBAL_COUNTERS.scope() as scoped:
            with GLOBAL_COUNTERS.disabled():
                GLOBAL_COUNTERS.count("tuple_op", 9)
        assert scoped.counts["tuple_op"] == 0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        registry.inc("events_total", 2, view="v")
        registry.inc("events_total", view="v")
        assert registry.value("events_total", view="v") == 3
        with pytest.raises(ValueError):
            registry.counter("events_total", view="v").inc(-1)

    def test_gauge_set_and_move(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("rows")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert registry.value("rows") == 13

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.inc("m_total", view="v", engine="e")
        registry.inc("m_total", engine="e", view="v")
        assert registry.value("m_total", engine="e", view="v") == 2

    def test_histogram_bucket_math(self):
        h = Histogram(buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 7.0, 100.0):
            h.observe(value)
        # bisect_left: <=1.0 -> bucket 0, (1,5] -> 1, (5,10] -> 2, +Inf -> 3
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.cumulative() == [2, 3, 4, 5]
        assert h.count == 5
        assert h.sum == pytest.approx(111.5)
        assert h.quantile(0.0) <= 1.0
        # rank 2.5 against cumulative [2, 3, 4] lands in the (1, 5] bucket
        assert h.quantile(0.5) == 5.0
        assert h.quantile(1.0) == float("inf")

    def test_histogram_median_bound(self):
        h = Histogram(buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.6, 0.7, 7.0):
            h.observe(value)
        assert h.quantile(0.5) == 1.0

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_as_dict_and_json_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("a_total", 4, k="x")
        registry.observe("lat_seconds", 0.2)
        data = json.loads(registry.to_json())
        assert data["a_total"]["series"]["k=x"] == 4
        assert data["lat_seconds"]["series"][""]["count"] == 1

    def test_prometheus_export_golden(self):
        registry = MetricsRegistry()
        registry.counter(
            "view_maintained_total", help="Views maintained.", view="v0", engine="compiled"
        ).inc(3)
        registry.gauge("registered_views").set(2)
        h = registry.histogram("append_seconds", buckets=(0.001, 0.01), group="g")
        h.observe(0.0005)
        h.observe(0.5)
        expected = (
            "# TYPE append_seconds histogram\n"
            'append_seconds_bucket{group="g",le="0.001"} 1\n'
            'append_seconds_bucket{group="g",le="0.01"} 1\n'
            'append_seconds_bucket{group="g",le="+Inf"} 2\n'
            'append_seconds_sum{group="g"} 0.5005\n'
            'append_seconds_count{group="g"} 2\n'
            "# TYPE registered_views gauge\n"
            "registered_views 2\n"
            "# HELP view_maintained_total Views maintained.\n"
            "# TYPE view_maintained_total counter\n"
            'view_maintained_total{engine="compiled",view="v0"} 3\n'
        )
        assert registry.to_prometheus() == expected

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("a_total")
        registry.reset()
        assert registry.value("a_total") is None
        assert registry.as_dict() == {}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_and_attribution(self):
        tracer = Tracer()
        with tracer.span("append", group="g") as root:
            with tracer.span("maintain", view="v") as maintain:
                with tracer.span("delta", operator="Select"):
                    GLOBAL_COUNTERS.count("tuple_op", 2)
                GLOBAL_COUNTERS.count("index_lookup")
        assert [s.name for s in root.walk()] == ["append", "maintain", "delta"]
        assert root.find("delta")[0].counters == {"tuple_op": 2}
        # Parents include their children's counts (scopes nest additively).
        assert maintain.counters == {"tuple_op": 2, "index_lookup": 1}
        assert root.counters == {"tuple_op": 2, "index_lookup": 1}
        assert root.duration >= maintain.duration

    def test_only_roots_enter_the_ring(self):
        tracer = Tracer()
        with tracer.span("append"):
            with tracer.span("maintain"):
                pass
        assert tracer.completed_count == 1
        assert [s.name for s in tracer.traces()] == ["append"]

    def test_ring_capacity_bounds_memory(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            with tracer.span("append", n=i):
                pass
        traces = tracer.traces()
        assert len(traces) == 3
        assert [s.attrs["n"] for s in traces] == [7, 8, 9]
        assert tracer.completed_count == 10
        assert tracer.last().attrs["n"] == 9
        assert [s.attrs["n"] for s in tracer.traces(2)] == [8, 9]

    def test_on_span_end_fires_for_every_span(self):
        names = []
        tracer = Tracer(on_span_end=lambda s: names.append(s.name))
        with tracer.span("append"):
            with tracer.span("maintain"):
                pass
        assert names == ["maintain", "append"]  # inner finishes first

    def test_jsonl_export(self, tmp_path):
        tracer = Tracer()
        with tracer.span("append", group="g"):
            with tracer.span("maintain", view="v"):
                GLOBAL_COUNTERS.count("tuple_op")
        line = tracer.to_jsonl().strip()
        record = json.loads(line)
        assert record["name"] == "append"
        assert record["children"][0]["attrs"] == {"view": "v"}
        assert record["children"][0]["counters"] == {"tuple_op": 1}

        path = str(tmp_path / "traces.jsonl")
        assert tracer.export_jsonl(path) == 1
        with open(path) as handle:
            assert json.loads(handle.readline())["name"] == "append"

        buffer = io.StringIO()
        tracer.export_jsonl(buffer)
        assert buffer.getvalue() == tracer.to_jsonl()

    def test_format_renders_tree(self):
        tracer = Tracer()
        with tracer.span("append", group="g"):
            with tracer.span("maintain", view="v"):
                pass
        text = tracer.last().format()
        lines = text.splitlines()
        assert lines[0].startswith("append [group=g]")
        assert lines[1].startswith("  maintain [view=v]")

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


# ---------------------------------------------------------------------------
# Auditor
# ---------------------------------------------------------------------------


class TestAuditor:
    def _violating_span(self, tracer):
        with tracer.span("maintain", view="v", engine="compiled") as span:
            GLOBAL_COUNTERS.count("chronicle_read", 2)
        return span

    def test_warn_mode_warns_and_records(self):
        registry = MetricsRegistry()
        auditor = Auditor(mode="warn", metrics=registry)
        tracer = Tracer()
        span = self._violating_span(tracer)
        with pytest.warns(AuditWarning, match="no-chronicle-access"):
            found = auditor.check_span(span)
        assert [v.rule for v in found] == ["no-chronicle-access"]
        assert found[0].observed == 2
        assert registry.value("audit_violations_total", rule="no-chronicle-access") == 1
        assert auditor.summary() == {
            "mode": "warn",
            "checked_spans": 1,
            "violations": 1,
        }

    def test_raise_mode_raises(self):
        auditor = Auditor(mode="raise")
        span = self._violating_span(Tracer())
        with pytest.raises(MaintenanceAuditError, match="no-chronicle-access"):
            auditor.check_span(span)

    def test_off_mode_ignores(self):
        auditor = Auditor(mode="off")
        span = self._violating_span(Tracer())
        assert auditor.check_span(span) == []
        assert auditor.summary()["checked_spans"] == 0

    def test_clean_span_passes(self):
        auditor = Auditor(mode="raise")
        tracer = Tracer()
        with tracer.span("maintain", view="v") as span:
            GLOBAL_COUNTERS.count("index_probe", 3)
        assert auditor.check_span(span) == []

    def test_view_read_limit(self):
        # The limit is 0: any read beyond the locate step is a violation.
        auditor = Auditor(mode="raise")
        tracer = Tracer()
        with tracer.span("maintain", view="v") as span:
            GLOBAL_COUNTERS.count("index_lookup", 1)
        assert auditor.check_span(span) == []
        with tracer.span("maintain", view="v") as span:
            GLOBAL_COUNTERS.count("view_read", 1)
        with pytest.raises(MaintenanceAuditError, match=r"bounded-view-read: observed 1 \(limit 0\)"):
            auditor.check_span(span)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ObservabilityError):
            Auditor(mode="loud")


# ---------------------------------------------------------------------------
# Runtime install discipline
# ---------------------------------------------------------------------------


class TestRuntime:
    def test_install_uninstall(self):
        obs = Observability()
        assert not obs.installed
        obs.install()
        assert obs_runtime.ACTIVE is obs and obs.installed
        obs.uninstall()
        assert obs_runtime.ACTIVE is None

    def test_uninstall_is_owner_checked(self):
        first, second = Observability(), Observability()
        first.install()
        second.uninstall()  # not installed: must not evict `first`
        assert obs_runtime.ACTIVE is first
        first.uninstall()

    def test_installed_contextmanager_restores(self):
        outer, inner = Observability(), Observability()
        with obs_runtime.installed(outer):
            with obs_runtime.installed(inner):
                assert obs_runtime.ACTIVE is inner
            assert obs_runtime.ACTIVE is outer
        assert obs_runtime.ACTIVE is None


# ---------------------------------------------------------------------------
# End-to-end: the database under observation
# ---------------------------------------------------------------------------


class TestDatabaseIntegration:
    def test_every_append_trace_shows_no_chronicle_access(self):
        """The paper's no-access rule, observed live on a real workload."""
        db = make_db()
        db.define_view(
            "DEFINE VIEW minutes_by_caller AS "
            "SELECT caller, COUNT(*) AS calls FROM calls GROUP BY caller"
        )
        with db.enable_observability(audit="raise"):
            for i in range(20):
                db.append("calls", {"caller": i % 4, "minutes": i})
            obs = db.observability
            traces = obs.tracer.traces()
            assert len(traces) == 20
            maintains = [m for t in traces for m in t.find("maintain")]
            assert len(maintains) == 40  # two views per append
            for span in maintains:
                assert span.counters.get("chronicle_read", 0) == 0
            assert obs.auditor.checked_spans == 40
            assert obs.auditor.summary()["violations"] == 0
        assert obs_runtime.ACTIVE is None

    def test_span_tree_shape(self):
        db = make_db()
        with db.enable_observability():
            db.append("calls", {"caller": 1, "minutes": 5})
            trace = db.observability.tracer.last()
        assert trace.name == "append"
        assert [s.name for s in trace.children] == ["prefilter", "maintain"]
        maintain = trace.find("maintain")[0]
        assert maintain.attrs["engine"] == "compiled"
        assert maintain.attrs["view"] == "usage"
        assert maintain.attrs["rows"] == 1
        assert [s.attrs["engine"] for s in trace.find("delta")] == ["compiled"]

    def test_single_view_hook_emits_the_registry_span_model(self):
        """attach_view (no registry) and the registry emit the same
        ``maintain`` subtree: same engine label, same ``delta`` steps."""
        from repro.views.registry import attach_view
        from repro.sca.view import PersistentView

        db = make_db()
        hooked = PersistentView("usage", db.view("usage").summary)
        group = db.chronicle("calls").group
        attach_view(hooked, group)
        with db.enable_observability():
            db.append("calls", {"caller": 1, "minutes": 5})
            trace = db.observability.tracer.last()
        by_registry, by_hook = trace.find("maintain")
        shapes = [
            [
                (s.name, s.attrs.get("view"), s.attrs.get("engine"), s.attrs.get("rows"))
                for s in maintain.walk()
            ]
            for maintain in (by_registry, by_hook)
        ]
        assert shapes[0] == shapes[1]
        assert [name for name, *_ in shapes[0]] == ["maintain", "delta"]
        assert list(hooked) == list(db.view("usage"))

    def test_metrics_accumulate_per_append(self):
        db = make_db()
        with db.enable_observability():
            for i in range(3):
                db.append("calls", {"caller": 1, "minutes": i})
            metrics = db.observability.metrics
        assert metrics.value("append_events_total", group="default") == 3
        assert metrics.value("chronicle_appends_total", chronicle="calls") == 3
        assert (
            metrics.value("view_maintained_total", view="usage", engine="compiled")
            == 3
        )
        hist = metrics.value("view_maintain_seconds", view="usage", engine="compiled")
        assert hist["count"] == 3
        assert metrics.value("view_prefilter_total", outcome="miss") == 3
        assert metrics.value("cost_tuple_op_total", group="default") >= 3

    def test_registry_stats_surface_prefilter(self):
        db = make_db()
        db.create_chronicle("other", [("x", "INT")], retention=0)
        db.define_view(
            "DEFINE VIEW xs AS SELECT x, COUNT(*) AS n FROM other GROUP BY x"
        )
        db.append("calls", {"caller": 1, "minutes": 5})
        stats = db.registry.stats
        assert stats["events"] == 1
        # `xs` reads `other` only: the dependency index keeps it out of
        # the candidate set entirely, so one candidate and no prefilter hit.
        assert stats["candidate_views"] == 1
        assert stats["maintained_views"] == 1
        assert stats["prefilter_hits"] + stats["prefilter_misses"] == 1

    def test_auditor_catches_injected_chronicle_read(self):
        """A maintenance path that sneaks a chronicle read must be caught."""
        db = make_db()
        view = db.view("usage")
        original = view.apply_delta

        def leaky(delta):
            GLOBAL_COUNTERS.count("chronicle_read")  # the smuggled read
            return original(delta)

        view.apply_delta = leaky
        with db.enable_observability(audit="raise"):
            with pytest.raises(MaintenanceAuditError, match="no-chronicle-access"):
                db.append("calls", {"caller": 1, "minutes": 5})
            assert db.observability.auditor.summary()["violations"] == 1

    def test_warn_mode_keeps_appends_flowing(self):
        db = make_db()
        view = db.view("usage")
        original = view.apply_delta

        def leaky(delta):
            GLOBAL_COUNTERS.count("chronicle_read")
            return original(delta)

        view.apply_delta = leaky
        with db.enable_observability(audit="warn"):
            with pytest.warns(AuditWarning):
                db.append("calls", {"caller": 1, "minutes": 5})
        assert db.view_value("usage", (1,), "total") == 5

    def test_snapshot_shape(self):
        db = make_db()
        with db.enable_observability():
            db.append("calls", {"caller": 1, "minutes": 5})
            snap = db.observability.snapshot()
        assert snap["audit"]["checked_spans"] == 1
        assert snap["traces"]["completed"] == 1
        assert "append_events_total" in snap["metrics"]

    def test_disable_observability(self):
        db = make_db()
        db.enable_observability()
        assert obs_runtime.ACTIVE is db.observability
        db.disable_observability()
        assert obs_runtime.ACTIVE is None


# ---------------------------------------------------------------------------
# Disabled mode: the zero-cost contract
# ---------------------------------------------------------------------------


class TestDisabledMode:
    def test_uninstalled_observability_sees_nothing(self):
        """With no installed handle, appends mutate no obs state at all."""
        obs = Observability()  # constructed but never installed
        db = make_db()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any AuditWarning would fail
            for i in range(5):
                db.append("calls", {"caller": 1, "minutes": i})
        assert obs.tracer.completed_count == 0
        assert obs.tracer.traces() == []
        assert obs.metrics.as_dict() == {}
        assert obs.auditor.checked_spans == 0
        assert db.view_value("usage", (1,), "total") == 10

    def test_append_results_identical_with_and_without(self):
        observed, plain = make_db(), make_db()
        with observed.enable_observability():
            for i in range(10):
                observed.append("calls", {"caller": i % 3, "minutes": i})
        for i in range(10):
            plain.append("calls", {"caller": i % 3, "minutes": i})
        for caller in range(3):
            assert observed.view_value("usage", (caller,), "total") == plain.view_value(
                "usage", (caller,), "total"
            )

    def test_no_scope_overhead_when_disabled(self):
        """The tracer's counter scopes are fully unwound after each event."""
        db = make_db()
        with db.enable_observability():
            db.append("calls", {"caller": 1, "minutes": 5})
        assert GLOBAL_COUNTERS._scopes == 0
        assert getattr(GLOBAL_COUNTERS._local, "stack", []) == []


# ---------------------------------------------------------------------------
# Satellites: per-view audit counter, per-view registry stats
# ---------------------------------------------------------------------------


class TestAuditorViolationsMetric:
    def test_warn_mode_violation_shows_in_metrics_by_view(self):
        """Warn-mode failures must be scrapeable, labeled by view and mode."""
        db = make_db()
        view = db.view("usage")
        original = view.apply_delta

        def leaky(delta):
            GLOBAL_COUNTERS.count("chronicle_read")
            return original(delta)

        view.apply_delta = leaky
        with db.enable_observability(audit="warn"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AuditWarning)
                db.append("calls", {"caller": 1, "minutes": 5})
                db.append("calls", {"caller": 2, "minutes": 3})
            metrics = db.observability.metrics
            assert metrics.value("auditor_violations_total", view="usage", mode="warn") == 2
            # The per-rule counter keeps its original shape alongside.
            assert metrics.value("audit_violations_total", rule="no-chronicle-access") == 2
            prometheus = metrics.to_prometheus()
        assert 'auditor_violations_total{mode="warn",view="usage"} 2' in prometheus

    def test_clean_run_emits_no_violation_series(self):
        db = make_db()
        with db.enable_observability(audit="warn"):
            db.append("calls", {"caller": 1, "minutes": 5})
            assert db.observability.metrics.value(
                "auditor_violations_total", view="usage", mode="warn"
            ) is None


class TestPerViewRegistryStats:
    def test_stats_gain_per_view_under_observability(self):
        db = make_db()
        db.define_view(
            "DEFINE VIEW talkers AS SELECT caller, COUNT(*) AS n "
            "FROM calls GROUP BY caller"
        )
        assert "per_view" not in db.stats  # nothing observed yet
        with db.enable_observability(audit="off"):
            db.append("calls", {"caller": 1, "minutes": 5})
            db.append("calls", {"caller": 1, "minutes": 2})
        assert "per_view" not in db.registry.stats  # the handle's, not a copy
        per_view = db.stats["per_view"]
        assert per_view["usage"]["spans"] == 2
        assert per_view["talkers"]["spans"] == 2
        assert per_view["usage"]["last_append_seconds"] > 0.0

    def test_uninstrumented_appends_do_not_count(self):
        db = make_db()
        db.append("calls", {"caller": 1, "minutes": 5})
        assert "per_view" not in db.stats
        with db.enable_observability(audit="off"):
            db.append("calls", {"caller": 1, "minutes": 2})
        assert db.stats["per_view"]["usage"]["spans"] == 1

    def test_stats_copy_is_isolated(self):
        db = make_db()
        with db.enable_observability(audit="off"):
            db.append("calls", {"caller": 1, "minutes": 5})
        stats = db.stats
        stats["per_view"]["usage"]["spans"] = 999
        assert db.stats["per_view"]["usage"]["spans"] == 1

    @pytest.mark.parametrize("engine", ["serial", "sharded"])
    def test_redefined_view_starts_clean(self, engine):
        """drop → re-define under the same name: the new view's stats are its own."""
        from repro.cli import Session

        session = Session(config=DatabaseConfig(engine=engine, shards=2))
        db = session.db
        session.execute("CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0")
        usage = "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        session.execute(usage)
        for minutes in (5, 2):
            session.execute(f'APPEND calls [{{"caller": 1, "minutes": {minutes}}}]')
        assert db.stats["per_view"]["usage"]["spans"] == 2
        with obs_runtime.installed(db.observability):  # the shell has no DROP VIEW
            db.drop_view("usage")
        assert "per_view" not in db.stats
        session.execute(usage)
        assert "per_view" not in db.stats
        # SHOW STATS lists the facade registry's views: the partitioned
        # ones of the sharded engine live on the shard units.
        facade = engine == "serial"
        assert "usage:" not in session.execute("SHOW STATS").split("== audit ==")[0]
        session.execute('APPEND calls [{"caller": 1, "minutes": 9}]')
        assert db.stats["per_view"]["usage"]["spans"] == 1
        assert ("usage: 1 maintain spans" in session.execute("SHOW STATS")) is facade
        # The counter itself never shrinks: it still counts all three.
        maintained = db.observability.metrics.series("view_maintained_total")
        assert sum(counter.value for _, counter in maintained) == 3


class TestStateSeries:
    """The series read from database state rather than pushed by writes."""

    @staticmethod
    def _db():
        db = make_db()
        db.create_chronicle("kept", [("x", "INT")])
        return db

    def test_appends_before_enabling_are_not_counted(self):
        db = self._db()
        db.append("kept", [{"x": 1}, {"x": 2}])
        with db.enable_observability(audit="off"):
            db.append("kept", {"x": 3})
            db.append("calls", {"caller": 1, "minutes": 5})
            metrics = db.observability.metrics
        assert metrics.value("chronicle_appends_total", chronicle="kept") == 1
        assert metrics.value("chronicle_stored_rows", chronicle="kept") == 3
        assert metrics.value("chronicle_appends_total", chronicle="calls") == 1
        assert metrics.value("chronicle_stored_rows", chronicle="calls") == 0

    def test_unobserved_chronicle_has_no_series(self):
        db = self._db()
        db.append("kept", {"x": 1})
        with db.enable_observability(audit="off"):
            db.append("calls", {"caller": 1, "minutes": 5})
            families = db.observability.metrics.as_dict()
        assert list(families["chronicle_appends_total"]["series"]) == ["chronicle=calls"]
        assert list(families["chronicle_stored_rows"]["series"]) == ["chronicle=calls"]

    def test_state_series_follow_the_bound_database(self):
        """Bound, not installed: the gauges and the counter still read state."""
        db = self._db()
        with db.enable_observability(audit="off") as obs:
            db.append("kept", {"x": 1})
        db.append("kept", {"x": 2})
        assert obs.metrics.value("chronicle_appends_total", chronicle="kept") == 2
        assert obs.metrics.value("chronicle_stored_rows", chronicle="kept") == 2
        # Span-derived series only count what happened while installed.
        assert obs.metrics.value("chronicle_records_admitted_total", chronicle="kept") == 1

    def test_rebinding_the_same_database_keeps_counting(self):
        db = self._db()
        obs = db.enable_observability(audit="off")
        db.append("kept", {"x": 1})
        db.disable_observability()
        db.enable_observability()
        db.append("kept", {"x": 2})
        assert obs.metrics.value("chronicle_appends_total", chronicle="kept") == 2
        obs.uninstall()

    def test_unbound_installed_handle_reads_no_state(self):
        """A handle installed without a database derives every span series
        but has no state to read."""
        db = self._db()
        obs = Observability(audit="off")
        with obs_runtime.installed(obs):
            db.append("kept", {"x": 1})
        families = obs.metrics.as_dict()
        assert families["append_events_total"]["series"] == {"group=default": 1}
        assert families["chronicle_records_admitted_total"]["series"] == {"chronicle=kept": 1}
        assert "chronicle_appends_total" not in families
        assert "chronicle_stored_rows" not in families


class TestIncidentCounters:
    def test_manual_dump_counts_no_error(self, tmp_path):
        """Only the library's own failure sites count: a manual dump named
        like one leaves the error counters and the hard health check alone."""
        db = make_db(observe=True)
        try:
            for reason in ("shard-worker-error", "recovery-failure"):
                db.dump_incident(reason, path=str(tmp_path / f"{reason}.json"))
            metrics = db.observability.metrics
            assert metrics.value("engine_errors_total") is None
            assert metrics.value("recovery_failures_total") is None
            assert db.health().status != "FAILING"
        finally:
            db.disable_observability()

    def test_failure_incident_counts_its_reason(self):
        obs = Observability(audit="off")
        obs.incident("shard-worker-error", failure=True)
        obs.incident("recovery-failure", failure=True)
        obs.incident("slo-breach", failure=True)  # not an error counter
        assert obs.metrics.value("engine_errors_total") == 1
        assert obs.metrics.value("recovery_failures_total") == 1
