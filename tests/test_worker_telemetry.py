"""Cross-process telemetry: the relay, trace stitching, IPC accounting.

Covers the PR-7 contract from both ends of the process boundary:

* in-process primitives (no spawn): span record compaction and its cap,
  ``span_records`` / ``Tracer.graft`` identity rules, metric
  ``to_deltas`` / ``merge_deltas`` round trips, and the worker entry
  points driven directly against a module-global replica;
* the zero-overhead contract: with observability off the process
  executor submits exactly the minimal ``worker_apply`` payload,
  byte-identical under pickle — the
  throughput half of that contract is measured by the ``bulk_process``
  workload of ``benchmarks/e2e``, which runs with observability off;
* end-to-end spawn tests: stitched traces (worker ``maintain`` spans
  parented under ``shard_apply``, sharing the ingest ``trace_id``),
  JSONL export round trips, the ``ipc_*`` and worker-labeled series,
  crash bundles carrying the failed window's summary, the
  ``SHOW WORKERS`` CLI view, and ``SHOW COSTS`` listing the workers'
  ``maintain`` spans.
"""

import json
import os
import pickle
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChronicleDatabase, DatabaseConfig
from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.cli import Session
from repro.errors import EngineError
from repro.obs import runtime as obs_runtime
from repro.obs.core import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, span_records
from repro.core.group import ChronicleGroup
from repro.parallel.engine import ProcessShardBackend, ShardTask, ShardUnit
from repro.parallel.worker import (
    RELAY_MAX_SPANS,
    WindowTelemetry,
    worker_apply,
    worker_apply_relay,
    worker_install,
)
from repro.sca.summarize import GroupBySummary


@pytest.fixture(autouse=True)
def _clean_runtime():
    assert obs_runtime.ACTIVE is None
    yield
    obs_runtime.ACTIVE = None


def _process_config(shards=2, **overrides):
    return DatabaseConfig(
        engine="sharded", shards=shards, executor="process", **overrides
    )


def _process_db(shards=2, **overrides):
    db = ChronicleDatabase(config=_process_config(shards, **overrides))
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
    chron = db.chronicle("calls")
    db.define_view(
        GroupBySummary(scan(chron), ["caller"], [spec(SUM, "minutes"), spec(COUNT)]),
        name="usage",
    )
    return db


def _windows(db, count=3, batches=6):
    for window in range(count):
        db.ingest(
            "calls",
            [
                [{"caller": (window * batches + i) % 8, "minutes": i + 1}]
                for i in range(batches)
            ],
        )


# ---------------------------------------------------------------------------
# In-process primitives (no worker spawn)
# ---------------------------------------------------------------------------


class TestSpanRecords:
    def _tree(self):
        tracer = Tracer()
        with tracer.span("window_apply", shard="kc0:0") as root:
            with tracer.span("append", group="g"):
                with tracer.span("maintain", view="v1"):
                    pass
                with tracer.span("maintain", view="v2"):
                    pass
        return root

    def test_to_record_omits_ids_and_keeps_structure(self):
        root = self._tree()
        (record,), dropped = span_records([root], RELAY_MAX_SPANS)
        assert dropped == 0
        assert record["name"] == "window_apply"
        assert "span_id" not in record and "trace_id" not in record
        children = record["children"][0]["children"]
        assert [c["name"] for c in children] == ["maintain", "maintain"]
        assert record["duration"] == root.duration

    def test_graft_adopts_parent_identity(self):
        records, _ = span_records([self._tree()], RELAY_MAX_SPANS)
        tracer = Tracer()
        with tracer.span("shard_apply", shard="kc0:0") as parent:
            grafted = tracer.graft(parent, records, worker="3")
        root = tracer.last()
        assert root.name == "shard_apply"
        descendants = list(root.walk())[1:]
        assert descendants, "grafted spans must land under the parent"
        assert all(s.trace_id == root.trace_id for s in descendants)
        assert grafted[0].parent_id == root.span_id
        # The worker stamp goes on top-level grafted spans only.
        assert grafted[0].attrs["worker"] == "3"
        assert "worker" not in grafted[0].children[0].attrs
        # Fresh local ids, no collisions with the parent's.
        ids = [s.span_id for s in root.walk()]
        assert len(ids) == len(set(ids))

    def test_compact_spans_caps_and_counts_drops(self):
        tracer = Tracer()
        with tracer.span("window_apply") as root:
            for i in range(10):
                with tracer.span("maintain", view=f"v{i}"):
                    pass
        records, dropped = span_records([root], 4)
        kept = [records[0]["name"]] + [
            c["name"] for c in records[0].get("children", ())
        ]
        assert len(kept) == 4
        assert dropped == 7  # 11 spans total, 4 kept
        full, none_dropped = span_records([root], RELAY_MAX_SPANS)
        assert none_dropped == 0
        assert len(full[0]["children"]) == 10


class TestMetricDeltas:
    def test_round_trip_with_extra_labels(self):
        source = MetricsRegistry()
        source.inc("view_maintained_total", 3, view="v", engine="compiled")
        source.set("some_gauge", 7.5, kind="x")
        source.observe("view_maintain_seconds", 0.25, view="v", engine="compiled")
        deltas = source.to_deltas()
        target = MetricsRegistry()
        merged = target.merge_deltas(deltas, shard="kc0:1", worker="0")
        assert merged == 3
        assert (
            target.counter(
                "view_maintained_total",
                view="v",
                engine="compiled",
                shard="kc0:1",
                worker="0",
            ).value
            == 3
        )
        assert target.value("some_gauge", kind="x", shard="kc0:1", worker="0")
        histogram = target.histogram(
            "view_maintain_seconds", view="v", engine="compiled",
            shard="kc0:1", worker="0",
        )
        assert histogram.count == 1 and histogram.sum == pytest.approx(0.25)

    def test_merge_is_additive_for_counters_and_histograms(self):
        source = MetricsRegistry()
        source.inc("c_total", 2, shard="s")
        source.observe("h_seconds", 0.1, shard="s")
        target = MetricsRegistry()
        target.merge_deltas(source.to_deltas())
        target.merge_deltas(source.to_deltas())
        assert target.counter("c_total", shard="s").value == 4
        assert target.histogram("h_seconds", shard="s").count == 2

    def test_none_extra_labels_are_skipped(self):
        source = MetricsRegistry()
        source.inc("c_total", 1)
        target = MetricsRegistry()
        target.merge_deltas(source.to_deltas(), shard="s", worker=None)
        assert target.counter("c_total", shard="s").value == 1


class TestWorkerEntryPoints:
    """Drive the worker module in-process against a real replica."""

    def _install(self, db):
        shard_group = db.shard_groups[0]
        unit = shard_group.units[0]
        label = worker_install(unit.spec())
        return label

    def _window(self, values=((1, 1, 5), (2, 3, 7))):
        # Value tuples carry the chronicle's full schema, including the
        # leading ``sn`` sequence column the shard group stamps on.
        return {"calls": [tuple(v) for v in values]}

    def test_worker_apply_payload_has_no_telemetry(self):
        db = ChronicleDatabase(config=_process_config())
        try:
            db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
            chron = db.chronicle("calls")
            db.define_view(
                GroupBySummary(scan(chron), ["caller"], [spec(SUM, "minutes")]),
                name="usage",
            )
            label = self._install(db)
            result = worker_apply(label, self._window(), 1)
            assert len(result) == 4  # PR 6's tuple: items, records, elapsed, stats
            items, records, elapsed, stats = result
            assert records == 2 and elapsed >= 0
            assert not any(
                isinstance(part, WindowTelemetry) for part in result
            )
        finally:
            db.close()

    def test_worker_apply_relay_piggybacks_bounded_telemetry(self):
        db = ChronicleDatabase(config=_process_config())
        try:
            db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
            chron = db.chronicle("calls")
            db.define_view(
                GroupBySummary(scan(chron), ["caller"], [spec(SUM, "minutes")]),
                name="usage",
            )
            label = self._install(db)
            blob = pickle.dumps(
                (self._window(), 1), protocol=pickle.HIGHEST_PROTOCOL
            )
            result_blob, decode_s, encode_s = worker_apply_relay(label, blob)
            assert decode_s >= 0 and encode_s >= 0
            items, records, elapsed, stats, telemetry = pickle.loads(result_blob)
            assert records == 2
            assert isinstance(telemetry, WindowTelemetry)
            assert telemetry.spans, "the window must produce a span tree"
            root = telemetry.spans[0]
            assert root["name"] == "window_apply"
            names = set()

            def collect(record):
                names.add(record["name"])
                for child in record.get("children", ()):
                    collect(child)

            collect(root)
            assert {"window_apply", "append", "maintain"} <= names
            assert len(telemetry.spans) <= RELAY_MAX_SPANS
            assert telemetry.series and telemetry.spans_dropped == 0
            # Relaying must not leak the capture handle into the runtime.
            assert obs_runtime.ACTIVE is None
        finally:
            db.close()


# ---------------------------------------------------------------------------
# The zero-overhead contract (payload byte-identity)
# ---------------------------------------------------------------------------


class TestZeroOverheadContract:
    def _capture_submissions(self, db):
        backend = db._shards.backend
        captured = []
        original = backend._encode_task

        def recording(task):
            out = original(task)
            captured.append((task, out))
            return out

        backend._encode_task = recording
        return captured

    def test_payload_is_byte_identical_without_observability(self):
        db = _process_db()
        try:
            captured = self._capture_submissions(db)
            _windows(db, count=2)
            assert captured
            for task, (fn, args, ipc_meta) in captured:
                assert fn is worker_apply
                assert ipc_meta is None
                expected = (
                    task.unit.label,
                    {
                        name: [row.values for row in rows]
                        for name, rows in task.event.items()
                    },
                    task.watermark,
                )
                assert pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL) == (
                    pickle.dumps(expected, protocol=pickle.HIGHEST_PROTOCOL)
                )
        finally:
            db.close()

    def test_relay_engages_only_with_observability_installed(self):
        backend = ProcessShardBackend(2)
        task = ShardTask(ShardUnit(0, "kc0:0", ChronicleGroup("g")), {}, 0, None)
        try:
            assert backend._encode_task(task)[0] is worker_apply
            with obs_runtime.installed(Observability(audit="off")):
                assert backend._encode_task(task)[0] is worker_apply_relay
            assert backend._encode_task(task)[0] is worker_apply
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# End-to-end: stitched traces, IPC series, crash bundles, CLI
# ---------------------------------------------------------------------------


class TestRelayEndToEnd:
    def test_stitched_traces_metrics_and_jsonl(self):
        db = _process_db()
        obs = db.enable_observability(audit="off")
        try:
            _windows(db, count=3)

            # Stitching: the last ingest trace holds worker-side spans,
            # every one sharing the root's trace_id.
            root = obs.tracer.last()
            assert root.name == "ingest"
            window_spans = root.find("window_apply")
            assert window_spans, "worker spans must graft under shard_apply"
            assert root.find("maintain"), "worker maintain spans must arrive"
            assert all(s.trace_id == root.trace_id for s in root.walk())
            for span in window_spans:
                parent = next(
                    s for s in root.walk() if span.parent_id == s.span_id
                )
                assert parent.name == "shard_apply"
                assert "worker" in span.attrs

            # IPC accounting: bytes both directions, four histogram
            # series per shard (encode/decode x down/up), worker gauges.
            metrics = obs.metrics
            for name in ("ipc_bytes_down_total", "ipc_bytes_up_total"):
                series = metrics.series(name)
                assert series and all(i.value > 0 for _, i in series)
                assert all("shard" in labels for labels, _ in series)
            for name in ("ipc_encode_seconds", "ipc_decode_seconds"):
                directions = {
                    labels["direction"] for labels, _ in metrics.series(name)
                }
                assert directions == {"down", "up"}
            workers = {
                labels["worker"]
                for labels, _ in metrics.series("worker_cpu_seconds")
            }
            assert workers, "worker resource gauges must be labeled by slot"
            rss = metrics.series("worker_rss_bytes")
            assert all(i.value > 0 for _, i in rss)

            # Relayed worker metrics arrive with shard+worker labels.
            relayed = [
                labels
                for labels, _ in metrics.series("view_maintained_total")
                if "worker" in labels
            ]
            assert relayed and all("shard" in labels for labels in relayed)

            # JSONL round trip: the exported trace reparses with the
            # worker spans still inside the ingest tree.
            lines = obs.tracer.to_jsonl().strip().splitlines()
            parsed = [json.loads(line) for line in lines]
            ingest_docs = [d for d in parsed if d["name"] == "ingest"]
            assert ingest_docs

            def walk(doc):
                yield doc
                for child in doc.get("children", ()):
                    yield from walk(child)

            stitched = ingest_docs[-1]
            names = [d["name"] for d in walk(stitched)]
            assert "window_apply" in names and "maintain" in names
            assert all(
                d["trace_id"] == stitched["trace_id"] for d in walk(stitched)
            )
        finally:
            obs.uninstall()
            db.close()

    @settings(max_examples=2, deadline=None)
    @given(
        batch_sizes=st.lists(
            st.integers(min_value=1, max_value=5), min_size=1, max_size=5
        ),
        callers=st.integers(min_value=2, max_value=8),
    )
    def test_every_worker_span_shares_its_ingest_trace_id(
        self, batch_sizes, callers
    ):
        # Small example budget: every example spawns worker processes.
        db = _process_db()
        obs = db.enable_observability(audit="off")
        try:
            for index, size in enumerate(batch_sizes):
                db.ingest(
                    "calls",
                    [
                        [{"caller": (index + i) % callers, "minutes": 1 + i}]
                        for i in range(size)
                    ],
                )
            roots = [t for t in obs.tracer.traces() if t.name == "ingest"]
            assert roots
            seen_worker_spans = 0
            for root in roots:
                for span in root.walk():
                    assert span.trace_id == root.trace_id
                    if span.name == "window_apply":
                        seen_worker_spans += 1
            assert seen_worker_spans >= len(roots)
        finally:
            obs.uninstall()
            db.close()

    def test_crash_bundle_carries_window_summary_and_worker_spans(
        self, tmp_path
    ):
        db = _process_db()
        obs = db.enable_observability(audit="off", incident_dir=str(tmp_path))
        try:
            _windows(db, count=1, batches=8)
            backend = db._shards.backend
            for pool in backend._pools:
                if pool is not None:
                    for pid in list(pool._processes):
                        os.kill(pid, signal.SIGKILL)
            time.sleep(0.3)
            with pytest.raises(EngineError, match="worker process died"):
                db.ingest(
                    "calls",
                    [[{"caller": c, "minutes": 9}] for c in range(4)],
                )
            bundles = list(tmp_path.glob("incident-*-shard-worker-error.json"))
            assert len(bundles) == 1
            context = json.loads(bundles[0].read_text())["context"]
            window = context["window"]
            assert window is not None, "bundle must carry the failed window"
            assert window["chronicles"].get("calls")
            assert window["records"] >= 1
            assert window["watermark"] >= 0
            assert window["shard"].startswith("kc0:")
            spans = context["worker_spans"]
            assert spans, "bundle must carry the worker's last spans"
            assert spans[0]["name"] == "window_apply"
        finally:
            obs.uninstall()
            db.close()


class TestShowWorkersCli:
    def test_serial_engine_has_no_workers(self):
        session = Session()
        try:
            out = session.execute("SHOW WORKERS")
            assert "engine=serial" in out
        finally:
            session.db.close()

    def test_process_executor_renders_fleet_and_ipc(self):
        session = Session(config=_process_config())
        try:
            session.execute(
                "CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0"
            )
            session.execute(
                "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
                "FROM calls GROUP BY caller"
            )
            before = session.execute("SHOW WORKERS")
            assert "executor=process" in before
            assert "no worker telemetry" in before
            for i in range(6):
                session.execute(
                    'APPEND calls {"caller": %d, "minutes": %d}' % (i % 3, i)
                )
            out = session.execute("SHOW WORKERS")
            assert "== ipc ==" in out
            assert "shard kc0:" in out and "down " in out and "up " in out
            assert "== workers ==" in out
            assert "rss" in out and "cpu" in out
            assert "slot 0 [ok]" in out
        finally:
            session.db.close()

    def test_show_costs_lists_the_workers_maintenance(self):
        # Grafted spans bypass the span table and the worker's ledger is
        # not relayed: landing the relay folds them into the ledger.
        session = Session(config=_process_config())
        db = session.db
        try:
            session.execute("CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0")
            session.execute(
                "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
                "FROM calls GROUP BY caller"
            )
            with obs_runtime.installed(db.observability):
                db.ingest(
                    "calls",
                    [[{"caller": 6 * b + i, "minutes": i + 1} for i in range(6)] for b in range(4)],
                )
            windows = sum(unit.windows_applied for group in db.shard_groups for unit in group.units)
            assert windows == 2
            rollups = [e for e in db.observability.cost_ledger.entries() if e.operator == "maintain"]
            assert [(e.view, e.shape, e.calls) for e in rollups] == [("usage", "compiled", windows)]
            out = session.execute("SHOW COSTS")
            assert "usage" in out and "maintain" in out
        finally:
            db.close()
