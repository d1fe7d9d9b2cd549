"""Tests for the metrics history sampler (repro.obs.history).

Covers the histogram windowing primitive, the bounded sample ring and
its derived series, the timeline/format read paths, sampler lifecycle
(started with the database, stopped on close and context exit, inert
when observability is off), incident context embedding, and a live
concurrency smoke: /dashboard + /timeline + /metrics scraped while a
sharded database ingests.
"""

import json
import threading
import urllib.request

import pytest

from repro import ChronicleDatabase, DatabaseConfig
from repro.core.config import HistoryConfig
from repro.errors import ConfigError, ObservabilityError
from repro.obs import Observability
from repro.obs import runtime as obs_runtime
from repro.obs.history import (
    INCIDENT_TIMELINE_SAMPLES,
    SCALAR_SERIES,
    MetricsHistory,
    render_dashboard,
)
from repro.obs.metrics import HistogramWindow, MetricsRegistry


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
# HistogramWindow: per-interval deltas of cumulative histograms
# ---------------------------------------------------------------------------


class TestHistogramWindow:
    def test_delta_isolates_the_interval(self):
        registry = MetricsRegistry()
        registry.observe("maintain_seconds", 0.010)
        window = HistogramWindow(registry, "maintain_seconds")
        first = window.delta()
        assert first.count == 1
        registry.observe("maintain_seconds", 0.020)
        registry.observe("maintain_seconds", 0.030)
        second = window.delta()
        assert second.count == 2
        assert second.sum == pytest.approx(0.050)
        # An idle interval reads as empty, not as the lifetime total.
        assert window.delta().count == 0

    def test_missing_family_returns_none(self):
        window = HistogramWindow(MetricsRegistry(), "nope_seconds")
        assert window.delta() is None

    def test_rebaselines_after_registry_reset(self):
        registry = MetricsRegistry()
        for _ in range(5):
            registry.observe("maintain_seconds", 0.010)
        window = HistogramWindow(registry, "maintain_seconds")
        assert window.delta().count == 5
        registry.reset()
        registry.observe("maintain_seconds", 0.010)
        # The cumulative count shrank: the window must not go negative.
        assert window.delta().count == 1


# ---------------------------------------------------------------------------
# Sampling and the bounded ring
# ---------------------------------------------------------------------------


class TestSampling:
    def test_rejects_bad_parameters(self):
        obs = Observability(audit="off")
        with pytest.raises(ValueError):
            MetricsHistory(obs, interval=0)
        with pytest.raises(ValueError):
            MetricsHistory(obs, capacity=1)

    def test_sample_carries_every_scalar_series(self):
        obs = Observability(audit="off")
        history = MetricsHistory(obs)
        sample = history.sample_now()
        for name in SCALAR_SERIES:
            assert name in sample
        assert "at" in sample and "health" in sample
        assert sample["shards"] == {}
        assert sample["incidents"] == []

    def test_rates_derive_from_counter_deltas(self):
        db = make_db(observe=True)
        try:
            history = MetricsHistory(db.observability)
            history.sample_now()  # baseline: no window yet
            for i in range(10):
                db.append("calls", {"caller": i, "minutes": 1})
            sample = history.sample_now()
            assert sample["records_per_sec"] > 0
            assert sample["events_per_sec"] > 0
            assert sample["maintain_events"] > 0
            assert sample["maintain_p99_seconds"] is not None
            # Idle interval: rates fall back to zero, p99 to None.
            idle = history.sample_now()
            assert idle["records_per_sec"] == 0.0
            assert idle["maintain_p99_seconds"] is None
        finally:
            db.disable_observability()

    def test_first_sample_never_spikes(self):
        db = make_db(observe=True)
        try:
            for i in range(50):
                db.append("calls", {"caller": i, "minutes": 1})
            # History created *after* the counters grew: the first
            # sample has no window and must read 0, not 50/epsilon.
            history = MetricsHistory(db.observability)
            assert history.sample_now()["records_per_sec"] == 0.0
        finally:
            db.disable_observability()

    def test_ring_is_bounded(self):
        obs = Observability(audit="off")
        history = MetricsHistory(obs, capacity=8)
        for _ in range(30):
            history.sample_now()
        assert len(history.samples()) == 8
        assert history.timeline()["count"] == 8

    def test_samples_window_and_limit(self):
        obs = Observability(audit="off")
        history = MetricsHistory(obs, capacity=16)
        for _ in range(10):
            history.sample_now()
        assert len(history.samples(limit=3)) == 3
        # The window is measured back from the newest sample.
        newest = history.samples()[-1]["at"]
        oldest = history.samples()[0]["at"]
        span = newest - oldest
        assert len(history.samples(window_seconds=span + 1)) == 10


# ---------------------------------------------------------------------------
# Timeline read path
# ---------------------------------------------------------------------------


class TestTimeline:
    def test_shape_and_series_filter(self):
        obs = Observability(audit="off")
        history = MetricsHistory(obs)
        history.sample_now()
        history.sample_now()
        full = history.timeline()
        assert full["count"] == 2
        assert len(full["at"]) == 2
        assert set(full["series"]) == set(SCALAR_SERIES)
        narrow = history.timeline(series=["records_per_sec"])
        assert set(narrow["series"]) == {"records_per_sec"}
        assert len(narrow["health"]) == 2  # always travels

    def test_unknown_series_rejected(self):
        obs = Observability(audit="off")
        history = MetricsHistory(obs)
        with pytest.raises(ValueError, match="unknown timeline series"):
            history.timeline(series=["bogus_series"])

    def test_format_renders_sparklines_and_health(self):
        db = make_db(observe=True)
        try:
            history = MetricsHistory(db.observability)
            history.sample_now()
            db.append("calls", {"caller": 1, "minutes": 5})
            history.sample_now()
            text = history.format()
            assert text.startswith("timeline: last 2 sample(s)")
            assert "records/s" in text
            assert "health" in text
        finally:
            db.disable_observability()

    def test_format_before_any_sample(self):
        obs = Observability(audit="off")
        assert "no samples" in MetricsHistory(obs).format()


# ---------------------------------------------------------------------------
# Lifecycle: tied to the database, inert when observability is off
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_observe_starts_sampler_and_close_stops_it(self):
        db = make_db(observe=True)
        try:
            history = db.observability.history
            assert history is not None
            assert history.running
            assert any(
                t.name == "repro-history" for t in threading.enumerate()
            )
        finally:
            db.disable_observability()
        db.close()
        assert not history.running
        # The ring stays readable after the thread stopped.
        history.timeline()

    def test_context_exit_stops_sampler(self):
        with make_db(observe=True) as db:
            history = db.observability.history
            assert history.running
            db.disable_observability()
        assert not history.running

    def test_observe_off_means_no_sampler_anywhere(self):
        before = {t.name for t in threading.enumerate()}
        db = make_db()  # observe=False: the default
        db.append("calls", {"caller": 1, "minutes": 5})
        db.close()
        assert obs_runtime.ACTIVE is None
        assert db._observability is None
        after = {t.name for t in threading.enumerate()}
        assert "repro-history" not in after - before

    def test_history_config_disabled_skips_sampler(self):
        db = make_db(observe=True, history=HistoryConfig(enabled=False))
        try:
            assert db.observability.history is None
        finally:
            db.disable_observability()
            db.close()

    def test_double_start_rejected_and_stop_idempotent(self):
        obs = Observability(audit="off")
        history = obs.start_history(interval=60.0)
        try:
            with pytest.raises(ObservabilityError, match="already running"):
                obs.start_history()
        finally:
            obs.stop_history()
        obs.stop_history()  # idempotent
        assert not history.running

    def test_history_config_validation(self):
        with pytest.raises(ConfigError):
            HistoryConfig(sample_interval_seconds=0)
        with pytest.raises(ConfigError):
            HistoryConfig(capacity=1)
        with pytest.raises(ConfigError):
            HistoryConfig(enabled="yes")
        with pytest.raises(ConfigError):
            DatabaseConfig(history="nope")
        assert DatabaseConfig(history=None).history == HistoryConfig()


# ---------------------------------------------------------------------------
# Incident bundles embed the trailing window
# ---------------------------------------------------------------------------


class TestIncidentContext:
    def test_bundle_carries_timeline(self, tmp_path):
        db = make_db(observe=True)
        try:
            db.append("calls", {"caller": 1, "minutes": 5})
            db.observability.history.sample_now()
            path = str(tmp_path / "incident.json")
            db.observability.incident("test-incident", path=path)
            bundle = json.load(open(path))
            timeline = bundle["context"]["timeline"]
            assert timeline["count"] >= 1
            assert timeline["count"] <= INCIDENT_TIMELINE_SAMPLES
            assert "records_per_sec" in timeline["series"]
        finally:
            db.disable_observability()
            db.close()


# ---------------------------------------------------------------------------
# Dashboard rendering
# ---------------------------------------------------------------------------


class TestDashboard:
    def test_renders_without_history(self):
        obs = Observability(audit="off")
        html = render_dashboard(obs)
        assert "<!doctype html>" in html.lower()
        assert "metrics history is off" in html

    def test_renders_tiles_and_health_band(self):
        db = make_db(observe=True)
        try:
            history = db.observability.history
            for i in range(3):
                db.append("calls", {"caller": i, "minutes": 2})
                history.sample_now()
            html = render_dashboard(db.observability)
            assert "<svg" in html
            assert "throughput" in html
            assert "maintain p99" in html
            assert "health" in html
        finally:
            db.disable_observability()
            db.close()


# ---------------------------------------------------------------------------
# Concurrency: live scrapes during sharded ingest
# ---------------------------------------------------------------------------


class TestConcurrentScrapes:
    def test_dashboard_timeline_metrics_during_ingest(self):
        db = make_db(engine="sharded", shards=2, observe=True)
        try:
            history = db.observability.history
            server = db.observability.serve(port=0)
            errors = []

            def scrape(path):
                try:
                    for _ in range(5):
                        status, _, body = _get(server.url + path)
                        assert status == 200
                        assert body
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append((path, exc))

            threads = [
                threading.Thread(target=scrape, args=(path,))
                for path in ("/dashboard", "/timeline", "/metrics")
            ]
            # /metrics renders an empty body until the first series exists.
            db.append("calls", {"caller": 0, "minutes": 1})
            for t in threads:
                t.start()
            for i in range(200):
                db.append("calls", {"caller": i % 7, "minutes": 1})
                if i % 50 == 0:
                    history.sample_now()
            for t in threads:
                t.join(timeout=10)
            assert not errors
            payload = history.timeline()
            assert payload["count"] >= 1
            # Shard lag series appear once a sharded sample landed.
            assert payload["shards"]
        finally:
            db.observability.stop_serving()
            db.disable_observability()
            db.close()
