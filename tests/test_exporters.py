"""Tests for the live exporters (repro.obs.exporters).

Covers the HTTP endpoint (ephemeral-port smoke: /metrics content type
and text-0.0.4 payload, /certificates, 404), the route registry the
handler dispatches through (exactly four routes, the
unanswerable-/health contract), JSONL span streaming with the rotation
boundary, and the flame-style cost attribution tree.
"""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro import ChronicleDatabase, DatabaseConfig
from repro.errors import ObservabilityError
from repro.obs import (
    JsonlSpanSink,
    MetricsServer,
    Observability,
    Tracer,
    attribution_tree,
    format_attribution,
)
from repro.obs import runtime as obs_runtime
from repro.obs.conformance import ConformanceProfiler


@pytest.fixture(autouse=True)
def _clean_runtime():
    assert obs_runtime.ACTIVE is None
    yield
    obs_runtime.ACTIVE = None


def make_db(**kwargs):
    db = ChronicleDatabase(config=DatabaseConfig(**kwargs))
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
    db.define_view(
        "DEFINE VIEW usage AS "
        "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
    )
    return db


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------


class TestMetricsServer:
    def test_endpoint_smoke_on_ephemeral_port(self):
        db = make_db(observe=True)
        try:
            db.append("calls", {"caller": 1, "minutes": 5})
            server = db.observability.serve(port=0)
            try:
                assert server.port != 0  # a real port was bound
                status, content_type, body = _get(server.url + "/metrics")
                assert status == 200
                assert content_type.startswith("text/plain; version=0.0.4")
                text = body.decode()
                assert 'append_events_total{group="default"} 1' in text
                assert "# TYPE append_seconds histogram" in text
            finally:
                db.observability.stop_serving()
        finally:
            db.disable_observability()

    def test_certificates_route_serves_profiler_output(self):
        db = make_db(observe=True)
        try:
            ConformanceProfiler(db, samples=2).certify(
                "usage", c_sizes=(32, 64, 128), u_sizes=None
            )
            server = db.observability.serve(port=0)
            try:
                status, content_type, body = _get(server.url + "/certificates")
                assert status == 200
                assert content_type == "application/json"
                certs = json.loads(body)
                assert certs["usage"]["conformant"] is True
                assert certs["usage"]["claimed_class"] == "IM-Constant"
            finally:
                db.observability.stop_serving()
        finally:
            db.disable_observability()

    def test_unknown_route_404(self):
        obs = Observability(audit="off")
        server = MetricsServer(obs, port=0).start()
        try:
            for path in ("/nope", "/snapshot", "/timeline", "/dashboard"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(server.url + path)
                assert excinfo.value.code == 404, path
        finally:
            server.stop()

    def test_double_serve_rejected(self):
        obs = Observability(audit="off")
        obs.serve(port=0)
        try:
            with pytest.raises(ObservabilityError, match="already running"):
                obs.serve(port=0)
        finally:
            obs.stop_serving()
        assert obs.server is None
        obs.stop_serving()  # idempotent

    def test_stop_releases_port(self):
        obs = Observability(audit="off")
        server = obs.serve(port=0)
        port = server.port
        obs.stop_serving()
        # The port can be bound again immediately.
        rebound = MetricsServer(obs, port=port).start()
        try:
            assert rebound.port == port
        finally:
            rebound.stop()


# ---------------------------------------------------------------------------
# Route registry
# ---------------------------------------------------------------------------


class TestRoutes:
    def test_registry_covers_every_endpoint(self):
        from repro.obs.exporters import ROUTES

        assert set(ROUTES) == {"/metrics", "/certificates", "/costs", "/health"}

    def test_trailing_slash_and_query_normalization(self):
        obs = Observability(audit="off")
        server = obs.serve(port=0)
        try:
            status, _, _ = _get(server.url + "/metrics/")
            assert status == 200
            status, _, _ = _get(server.url + "/metrics?foo=bar")
            assert status == 200
        finally:
            obs.stop_serving()

    def test_unanswerable_health_still_answers_503(self):
        obs = Observability(audit="off")
        obs.health = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        server = obs.serve(port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/health")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read())
            assert payload["status"] == "FAILING"
            assert "boom" in payload["error"]
        finally:
            obs.stop_serving()

    def test_broken_route_answers_500_not_hang(self):
        from repro.obs.exporters import ROUTES

        def broken(obs):
            raise RuntimeError("route died")

        ROUTES["/broken-test-route"] = broken
        obs = Observability(audit="off")
        server = obs.serve(port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/broken-test-route")
            assert excinfo.value.code == 500
            assert "route died" in json.loads(excinfo.value.read())["error"]
            # The serving thread survived: the next scrape still works.
            status, _, _ = _get(server.url + "/metrics")
            assert status == 200
        finally:
            obs.stop_serving()
            del ROUTES["/broken-test-route"]


# ---------------------------------------------------------------------------
# JSONL span streaming + rotation
# ---------------------------------------------------------------------------


class TestJsonlSpanSink:
    def test_streams_root_spans_only(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        sink = JsonlSpanSink(path)
        tracer = Tracer(on_span_end=sink)
        with tracer.span("append", group="g"):
            with tracer.span("maintain", view="v"):
                pass
        sink.close()
        lines = [json.loads(line) for line in open(path)]
        assert len(lines) == 1  # one trace, not one line per span
        assert lines[0]["name"] == "append"
        assert lines[0]["children"][0]["name"] == "maintain"

    def test_rotation_boundary(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        sink = JsonlSpanSink(path, max_bytes=300, max_files=2)
        tracer = Tracer(on_span_end=sink)
        for i in range(12):
            with tracer.span("append", group="g", i=i):
                pass
        sink.close()
        assert sink.written == 12
        assert sink.rotations > 0
        assert os.path.exists(path)
        assert os.path.exists(path + ".1")
        assert not os.path.exists(path + f".{sink.max_files + 1}")
        # Every line in every file is valid JSON; no trace lost or torn.
        total = 0
        for candidate in (path, path + ".1", path + ".2"):
            if os.path.exists(candidate):
                for line in open(candidate):
                    json.loads(line)
                    total += 1
        assert 0 < total <= 12
        # The current file respects the size bound.
        assert os.path.getsize(path) <= 300

    def test_live_pipeline_via_listener(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        db = make_db(observe=True)
        try:
            sink = JsonlSpanSink(path)
            db.observability.add_span_listener(sink)
            db.append("calls", {"caller": 1, "minutes": 5})
            db.append("calls", {"caller": 2, "minutes": 3})
            db.observability.remove_span_listener(sink)
            db.append("calls", {"caller": 3, "minutes": 1})
            sink.close()
        finally:
            db.disable_observability()
        lines = [json.loads(line) for line in open(path)]
        assert len(lines) == 2  # the third append came after removal
        assert all(line["name"] == "append" for line in lines)

    def test_bad_limits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSpanSink(str(tmp_path / "s.jsonl"), max_bytes=0)
        with pytest.raises(ValueError):
            JsonlSpanSink(str(tmp_path / "s.jsonl"), max_files=-1)

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSpanSink(str(tmp_path / "s.jsonl"))
        assert not sink.closed
        sink.close()
        sink.close()  # second close must not raise
        assert sink.closed

    def test_closed_sink_is_a_noop_listener(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        sink = JsonlSpanSink(path)
        tracer = Tracer(on_span_end=sink)
        with tracer.span("append", group="g"):
            pass
        sink.close()
        with tracer.span("append", group="g"):
            pass  # must neither raise nor write
        assert sink.written == 1
        assert len(open(path).readlines()) == 1


# ---------------------------------------------------------------------------
# Span-listener fault isolation
# ---------------------------------------------------------------------------


class TestListenerGuard:
    def test_listener_exception_swallowed_and_counted(self):
        db = make_db(observe=True)

        class Broken:
            calls = 0

            def __call__(self, span):
                Broken.calls += 1
                raise RuntimeError("exporter died")

        try:
            db.observability.add_span_listener(Broken())
            db.append("calls", {"caller": 1, "minutes": 5})
            db.append("calls", {"caller": 2, "minutes": 3})
            counted = db.observability.metrics.value(
                "span_listener_errors_total", listener="Broken"
            )
        finally:
            db.disable_observability()
        assert Broken.calls > 0
        assert counted == Broken.calls
        # The appends themselves were never disturbed.
        assert db.view_value("usage", (1,), "total") == 5

    def test_closed_sink_attached_as_listener_counts_no_errors(self, tmp_path):
        db = make_db(observe=True)
        try:
            sink = JsonlSpanSink(str(tmp_path / "s.jsonl"))
            db.observability.add_span_listener(sink)
            sink.close()  # closed while still attached: silent no-op
            db.append("calls", {"caller": 1, "minutes": 5})
            counted = db.observability.metrics.value(
                "span_listener_errors_total", listener="JsonlSpanSink"
            )
        finally:
            db.disable_observability()
        assert counted is None
        assert sink.written == 0


# ---------------------------------------------------------------------------
# Cost attribution trees
# ---------------------------------------------------------------------------


class TestAttribution:
    def _traces(self):
        db = make_db(observe=True)
        try:
            for i in range(5):
                db.append("calls", {"caller": i % 2, "minutes": 10})
            return db.observability.tracer.traces()
        finally:
            db.disable_observability()

    def test_tree_merges_spans_by_position(self):
        traces = self._traces()
        root = attribution_tree(traces)
        (append_node,) = root.children.values()
        assert append_node.label.startswith("append")
        assert append_node.count == 5
        maintain = [
            child
            for child in append_node.children.values()
            if child.label.startswith("maintain")
        ]
        assert len(maintain) == 1  # one view → one merged position
        assert maintain[0].count == 5
        assert maintain[0].counters.get("tuple_op", 0) >= 5

    def test_format_renders_percentages(self):
        text = format_attribution(self._traces())
        first = text.splitlines()[0]
        assert first.startswith("append")
        assert "100.0%" in first
        assert "n=5" in first
        assert "maintain view=usage" in text

    def test_counter_mode_and_empty(self):
        traces = self._traces()
        text = format_attribution(traces, counter="tuple_op")
        assert "tuple_op" in text
        assert format_attribution([]) == "(no traces)"

    def test_tree_dict_export(self):
        root = attribution_tree(self._traces())
        data = root.to_dict()
        assert data["label"] == "total"
        assert data["children"][0]["count"] == 5
