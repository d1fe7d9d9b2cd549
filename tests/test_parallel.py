"""Tests for the sharded parallel maintenance engine and the config facade.

Covers partition inference (copy lineage -> PartitionSpec, the
UNPARTITIONABLE cases), the shard-determinism property (sharded N-worker
state must equal serial state after arbitrary interleaved batch appends,
for every workload generator — under the inline *and* the process
executor), stable hash-routing (identical across interpreter runs and
hash seeds), portable plan/summary/snapshot specs (pickle round-trips,
worker replica reconstruction), the process executor's crash contract
(engine_errors_total + incident bundle + consistent watermarks), sharded
checkpoint/restore (including cross-engine), the serial-shard fallback
(warning + metric, for unpartitionable and non-portable views), snapshot
reads through MergedView, DatabaseConfig validation and the
deprecated-keyword shim, engine selection, and exporter lifetime
(close(), context manager, GC finalizer).
"""

import dataclasses
import gc
import json
import os
import pickle
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BankingWorkload,
    ChronicleDatabase,
    CreditCardWorkload,
    DatabaseConfig,
    FrequentFlyerWorkload,
    SensorWorkload,
    StockWorkload,
    TelecomWorkload,
)
from repro.aggregates import COUNT, MAX, SUM, spec
from repro.algebra.ast import scan
from repro.algebra.plan import UNPARTITIONABLE, PartitionSpec, infer_partition
from repro.core.config import DatabaseConfig as ConfigAlias
from repro.errors import ConfigError, EngineError, ViewRegistrationError
from repro.obs import runtime as obs_runtime
from repro.algebra.plan import (
    build_schema,
    build_summary,
    is_portable,
    schema_spec,
    summary_spec,
)
from repro.aggregates.base import IncrementalAggregate
from repro.parallel import (
    NonPortableViewWarning,
    ShardRouter,
    ShardUnitSpec,
    UnitReplica,
    UnpartitionableViewWarning,
    stable_hash,
)
from repro.relational.predicate import attr_cmp, attr_eq
from repro.sca.summarize import GroupBySummary


@pytest.fixture(autouse=True)
def _clean_runtime():
    assert obs_runtime.ACTIVE is None
    yield
    obs_runtime.ACTIVE = None


#: (workload class, grouping attribute, summed attribute) — one entry
#: per application domain shipped with the repro.
WORKLOADS = [
    (BankingWorkload, "acct", "cents"),
    (TelecomWorkload, "caller", "seconds"),
    (CreditCardWorkload, "card", "cents"),
    (FrequentFlyerWorkload, "acct", "miles"),
    (StockWorkload, "symbol", "shares"),
    (SensorWorkload, "sensor", "milli"),
]

VIEW_NAMES = ("by_key", "filtered", "grand")


def _build(workload_cls, key, value, config=None):
    """A database over *workload_cls*'s chronicle with three views:
    grouped, filtered-grouped (both partitionable), and a global
    aggregate (unpartitionable -> serial-shard fallback)."""
    db = ChronicleDatabase(config=config)
    workload = workload_cls(seed=7)
    db.create_chronicle(workload.NAME, workload.CHRONICLE_SCHEMA)
    chron = db.chronicle(workload.NAME)
    db.define_view(
        GroupBySummary(scan(chron), [key], [spec(SUM, value), spec(COUNT)]),
        name="by_key",
    )
    db.define_view(
        GroupBySummary(
            scan(chron).select(attr_cmp(value, ">", 10)),
            [key],
            [spec(COUNT), spec(MAX, value)],
        ),
        name="filtered",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnpartitionableViewWarning)
        db.define_view(
            GroupBySummary(scan(chron), [], [spec(SUM, value), spec(COUNT)]),
            name="grand",
        )
    return db, workload


def _state(db):
    return {
        name: sorted(tuple(row.values) for row in db.view(name).rows())
        for name in VIEW_NAMES
    }


# ---------------------------------------------------------------------------
# Partition inference
# ---------------------------------------------------------------------------


class TestPartitionInference:
    def _chronicles(self):
        db = ChronicleDatabase()
        db.create_chronicle("a", [("acct", "INT"), ("cents", "INT")])
        db.create_chronicle("b", [("acct", "INT"), ("fee", "INT")])
        return db.chronicle("a"), db.chronicle("b")

    def test_grouped_view_partitions_on_copied_key(self):
        a, _ = self._chronicles()
        summary = GroupBySummary(scan(a), ["acct"], [spec(SUM, "cents")])
        part = infer_partition(summary)
        assert isinstance(part, PartitionSpec)
        assert part.keys == {"a": ("acct",)}

    def test_select_and_union_preserve_lineage(self):
        a, b = self._chronicles()
        node = (
            scan(a)
            .select(attr_cmp("cents", ">", 0))
            .project(["sn", "acct", "cents"])
        )
        part = infer_partition(GroupBySummary(node, ["acct"], [spec(COUNT)]))
        assert part.keys == {"a": ("acct",)}
        union = scan(a).project(["sn", "acct"]).union(scan(b).project(["sn", "acct"]))
        part = infer_partition(GroupBySummary(union, ["acct"], [spec(COUNT)]))
        assert part.keys == {"a": ("acct",), "b": ("acct",)}

    def test_global_aggregate_is_unpartitionable(self):
        a, _ = self._chronicles()
        summary = GroupBySummary(scan(a), [], [spec(SUM, "cents")])
        assert infer_partition(summary) is UNPARTITIONABLE

    def test_seq_join_is_unpartitionable(self):
        a, b = self._chronicles()
        summary = GroupBySummary(
            scan(a).join(scan(b)), ["acct"], [spec(COUNT)]
        )
        assert infer_partition(summary) is UNPARTITIONABLE

    def test_aggregate_sourced_key_is_unpartitionable(self):
        # The grouping key must have copy lineage to the base; a key
        # that is itself an aggregate output cannot route records.
        a, _ = self._chronicles()
        summary = GroupBySummary(scan(a), ["cents"], [spec(COUNT)])
        part = infer_partition(summary)
        assert part is not UNPARTITIONABLE  # cents IS copied
        assert part.keys == {"a": ("cents",)}

    def test_spec_equality_and_canonical(self):
        s1 = PartitionSpec({"a": ("acct",), "b": ("acct",)})
        s2 = PartitionSpec({"b": ("acct",), "a": ("acct",)})
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert s1.canonical() == s2.canonical()


class TestShardRouter:
    def test_same_key_same_shard(self):
        spec_ = PartitionSpec({"a": ("acct",)})
        router = ShardRouter(spec_, shards=4)
        assert router.shard_of_key((42,)) == router.shard_of_key((42,))
        assert 0 <= router.shard_of_key((42,)) < 4


# ---------------------------------------------------------------------------
# Shard determinism (the ISSUE's property test)
# ---------------------------------------------------------------------------


class TestShardDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(
        workload_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
        shards=st.integers(min_value=1, max_value=4),
        batch_sizes=st.lists(
            st.integers(min_value=1, max_value=7), min_size=1, max_size=10
        ),
        window_cut=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_sharded_equals_serial(
        self, workload_index, shards, batch_sizes, window_cut, data
    ):
        self._check(workload_index, shards, "serial", batch_sizes, window_cut, data)

    @settings(max_examples=3, deadline=None)
    @given(
        workload_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
        shards=st.integers(min_value=1, max_value=2),
        batch_sizes=st.lists(
            st.integers(min_value=1, max_value=5), min_size=1, max_size=6
        ),
        window_cut=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_sharded_equals_serial_process(
        self, workload_index, shards, batch_sizes, window_cut, data
    ):
        # Small example budget: every example spawns worker processes.
        self._check(workload_index, shards, "process", batch_sizes, window_cut, data)

    def _check(self, workload_index, shards, executor, batch_sizes, window_cut, data):
        workload_cls, key, value = WORKLOADS[workload_index]
        serial, workload = _build(workload_cls, key, value)
        sharded, _ = _build(
            workload_cls,
            key,
            value,
            config=DatabaseConfig(
                engine="sharded", shards=shards, executor=executor
            ),
        )
        try:
            records = list(workload.records(sum(batch_sizes)))
            batches, offset = [], 0
            for size in batch_sizes:
                batches.append(records[offset : offset + size])
                offset += size
            # Serial: one maintenance event per batch.  Sharded: the
            # same batches, but delivered through an arbitrary mix of
            # per-batch appends and coalesced ingest windows.
            for batch in batches:
                serial.append(workload.NAME, batch)
            offset = 0
            while offset < len(batches):
                size = data.draw(
                    st.integers(min_value=1, max_value=window_cut),
                    label="window",
                )
                window = batches[offset : offset + size]
                if len(window) == 1 and data.draw(st.booleans(), label="direct"):
                    sharded.append(workload.NAME, window[0])
                else:
                    sharded.ingest(workload.NAME, window)
                offset += size

            assert _state(serial) == _state(sharded)
            # Key-routed point reads agree with the serial engine.
            for row in serial.view("by_key").rows():
                view_key = row.values[: len([key])]
                assert sharded.view_value(
                    "by_key", view_key, f"sum_{value}"
                ) == serial.view_value("by_key", view_key, f"sum_{value}")
                break
            watermarks = sharded.watermarks()
            (serial_wm,) = [
                wm for k, wm in watermarks.items() if k.startswith("serial/")
            ]
            # A unit's watermark is the sequence number of the last
            # event routed to it: never ahead of admission, and the
            # final record's shard has absorbed exactly up to it.
            unit_wms = [
                wm for k, wm in watermarks.items() if not k.startswith("serial/")
            ]
            assert all(wm <= serial_wm for wm in unit_wms)
            assert max(unit_wms) == serial_wm
        finally:
            serial.close()
            sharded.close()


# ---------------------------------------------------------------------------
# Serial-shard fallback
# ---------------------------------------------------------------------------


class TestFallback:
    def test_unpartitionable_view_warns_and_counts(self):
        db = ChronicleDatabase(
            config=DatabaseConfig(engine="sharded", shards=2, observe=True)
        )
        try:
            db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
            chron = db.chronicle("calls")
            with pytest.warns(UnpartitionableViewWarning):
                db.define_view(
                    GroupBySummary(scan(chron), [], [spec(SUM, "minutes")]),
                    name="grand",
                )
            assert db.fallback_views == ("grand",)
            assert (
                db.observability.metrics.value("shard_fallback_total", view="grand")
                == 1
            )
            # The fallback view is maintained by the serial registry.
            db.append("calls", {"caller": 1, "minutes": 5})
            db.append("calls", {"caller": 2, "minutes": 7})
            assert db.view_value("grand", (), "sum_minutes") == 12
        finally:
            db.close()

    def test_fallback_warning_is_not_a_deprecation(self):
        # CI runs with -W error::DeprecationWarning; the fallback must
        # not trip that gate.
        assert not issubclass(UnpartitionableViewWarning, DeprecationWarning)
        assert issubclass(UnpartitionableViewWarning, UserWarning)

    def test_serial_engine_never_warns(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        chron = db.chronicle("calls")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnpartitionableViewWarning)
            db.define_view(
                GroupBySummary(scan(chron), [], [spec(COUNT)]), name="grand"
            )


    def test_fallback_set_follows_drop_and_failed_definitions(self):
        """define -> drop -> re-define -> duplicate define: the fallback
        set names each live fallback view once, and a refused definition
        neither warns nor counts."""
        db = ChronicleDatabase(
            config=DatabaseConfig(engine="sharded", shards=2, observe=True)
        )
        try:
            db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
            grand = GroupBySummary(
                scan(db.chronicle("calls")), [], [spec(SUM, "minutes")]
            )
            with pytest.warns(UnpartitionableViewWarning):
                db.define_view(grand, name="grand")
            db.drop_view("grand")
            assert db.fallback_views == ()
            with pytest.warns(UnpartitionableViewWarning):
                db.define_view(grand, name="grand")
            assert db.fallback_views == ("grand",)
            with warnings.catch_warnings():
                warnings.simplefilter("error", UnpartitionableViewWarning)
                with pytest.raises(ViewRegistrationError):
                    db.define_view(grand, name="grand")
            assert db.fallback_views == ("grand",)
            metrics = db.observability.metrics
            assert metrics.value("shard_fallback_total", view="grand") == 2
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Key-class lifetime, close-then-write, a refused batch inside a window
# ---------------------------------------------------------------------------


def _usage_db(executor, shards=2, engine="sharded"):
    db = ChronicleDatabase(
        config=DatabaseConfig(engine=engine, shards=shards, executor=executor)
    )
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
    return db


def _define_usage(db):
    db.define_view(
        GroupBySummary(
            scan(db.chronicle("calls")), ["caller"], [spec(SUM, "minutes"), spec(COUNT)]
        ),
        name="usage",
    )


def _usage_rows(db):
    return sorted(tuple(row.values) for row in db.view("usage").rows())


@pytest.mark.parametrize("executor", ["serial", "process"])
class TestEngineLifecycle:
    def test_key_class_retires_with_its_last_view(self, executor):
        """Nothing is routed (or shipped to a worker) for a key class no
        view is left in; re-defining the view builds a fresh one."""
        serial = _usage_db("serial", engine="serial")
        db = _usage_db(executor)
        try:
            for each in (serial, db):
                _define_usage(each)
                each.ingest("calls", [[{"caller": c % 3, "minutes": c}] for c in range(6)])
            (retired,) = db.shard_groups
            applied = [unit.windows_applied for unit in retired.units]
            for each in (serial, db):
                each.drop_view("usage")
                each.append("calls", {"caller": 1, "minutes": 50})
            assert db.shard_groups == ()
            assert [unit.windows_applied for unit in retired.units] == applied
            assert set(db.watermarks()) == {"serial/default"}
            for each in (serial, db):
                _define_usage(each)
                each.ingest("calls", [[{"caller": c % 3, "minutes": 1}] for c in range(6)])
            (fresh,) = db.shard_groups
            assert fresh is not retired and fresh.name != retired.name
            assert _usage_rows(db) == _usage_rows(serial)
        finally:
            serial.close()
            db.close()

    def test_close_then_write_and_double_close(self, executor):
        """close() ends the workers but the database stays usable: the
        next window reinstalls the replicas from the absorbed state."""
        serial = _usage_db("serial", engine="serial")
        db = _usage_db(executor)
        try:
            for each in (serial, db):
                _define_usage(each)
                each.ingest("calls", [[{"caller": c % 4, "minutes": c}] for c in range(8)])
            pids = _worker_pids(db)
            assert bool(pids) == (executor == "process")
            db.close()
            db.close()
            assert _wait_ended(pids) == []
            for each in (serial, db):
                each.ingest("calls", [[{"caller": c % 4, "minutes": 100}] for c in range(8)])
                each.append("calls", {"caller": 9, "minutes": 9})
            assert _usage_rows(db) == _usage_rows(serial)
            marks = db.watermarks()
            assert max(marks.values()) == marks["serial/default"] == 16
            pids = _worker_pids(db)
        finally:
            serial.close()
            db.close()
        assert _wait_ended(pids) == []

    def test_refused_batch_leaves_the_admitted_ones_maintained(self, executor):
        """A batch refused mid-window ends the ingest, but what the group
        admitted before it is maintained on the shards as on the serial
        engine."""
        serial = _usage_db("serial", engine="serial")
        db = _usage_db(executor)
        window = [
            [{"caller": 1, "minutes": 5}],
            [{"caller": 2, "nonsense": 1}],
            [{"caller": 3, "minutes": 7}],
        ]
        try:
            for each in (serial, db):
                _define_usage(each)
                with pytest.raises(Exception) as refused:
                    each.ingest("calls", window)
                assert "nonsense" in str(refused.value)
                each.append("calls", {"caller": 1, "minutes": 1})
            assert _usage_rows(serial) == [(1, 6, 2)]
            assert _usage_rows(db) == _usage_rows(serial)
        finally:
            serial.close()
            db.close()


# ---------------------------------------------------------------------------
# Merged reads
# ---------------------------------------------------------------------------


class TestMergedView:
    def test_reads_union_all_shards(self):
        db, workload = _build(
            BankingWorkload,
            "acct",
            "cents",
            config=DatabaseConfig(engine="sharded", shards=3),
        )
        try:
            db.ingest("transactions", [list(workload.records(40))])
            view = db.view("by_key")
            rows = list(view.rows())
            assert len(rows) == len(view)
            assert {tuple(r.values) for r in iter(view)} == {
                tuple(r.values) for r in rows
            }
            some_key = rows[0].values[:1]
            assert view.lookup(some_key) is not None
            assert db.view_row("by_key", some_key) is not None
            table = view.to_table()
            assert len(table.rows) == len(rows)
        finally:
            db.close()

    def test_partitioned_views_listed(self):
        db, _ = _build(
            BankingWorkload,
            "acct",
            "cents",
            config=DatabaseConfig(engine="sharded", shards=2),
        )
        try:
            assert db.partitioned_views == ("by_key", "filtered")
            assert db.fallback_views == ("grand",)
            assert isinstance(db.stats, dict)
        finally:
            db.close()

    def test_late_view_materializes_from_history(self):
        db = ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=2))
        try:
            db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
            chron = db.chronicle("calls")
            db.append("calls", [{"caller": 1, "minutes": 5}, {"caller": 2, "minutes": 3}])
            db.append("calls", {"caller": 1, "minutes": 2})
            db.define_view(
                GroupBySummary(scan(chron), ["caller"], [spec(SUM, "minutes")]),
                name="usage",
            )
            assert db.view_value("usage", (1,), "sum_minutes") == 7
            db.append("calls", {"caller": 1, "minutes": 1})
            assert db.view_value("usage", (1,), "sum_minutes") == 8
        finally:
            db.close()


# ---------------------------------------------------------------------------
# DatabaseConfig and the facade
# ---------------------------------------------------------------------------


class TestDatabaseConfig:
    def test_defaults(self):
        config = DatabaseConfig()
        assert config.engine == "serial"
        assert config.shards == 4
        assert config.executor == "serial"
        assert config.prefilter_views
        assert not config.observe

    def test_frozen(self):
        with pytest.raises(Exception):
            DatabaseConfig().engine = "sharded"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "quantum"},
            {"shards": 0},
            {"shards": -1},
            {"executor": "fork"},
            {"audit_mode": "loud"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            DatabaseConfig(**kwargs)

    def test_replace(self):
        config = DatabaseConfig().replace(engine="sharded", shards=2)
        assert (config.engine, config.shards) == ("sharded", 2)
        with pytest.raises(ConfigError):
            DatabaseConfig().replace(nonsense=True)

    def test_reexported_from_package_root(self):
        assert DatabaseConfig is ConfigAlias

    def test_database_exposes_config(self):
        config = DatabaseConfig(prefilter_views=False)
        db = ChronicleDatabase(config=config)
        assert db.config is config


class TestConstructorSurface:
    """The facade takes a config and an observability handle, nothing else."""

    @pytest.mark.parametrize(
        "keyword", ["prefilter_views", "compile_views", "aggregates", "observe"]
    )
    @pytest.mark.parametrize("engine", ["serial", "sharded"])
    def test_pre_config_keywords_are_rejected(self, engine, keyword):
        config = DatabaseConfig(engine=engine, executor="serial")
        with pytest.raises(TypeError, match=keyword):
            ChronicleDatabase(config=config, **{keyword: False})

    def test_one_engine_no_switch(self):
        assert "compile_views" not in {f.name for f in dataclasses.fields(DatabaseConfig)}
        with pytest.raises(ConfigError):
            DatabaseConfig().replace(compile_views=False)
        assert not hasattr(ChronicleDatabase, "query_view")


class TestEngineSelection:
    def test_sharded_config_builds_the_one_database_class(self):
        db = ChronicleDatabase(config=DatabaseConfig(engine="sharded"))
        try:
            assert type(db) is ChronicleDatabase
            assert db.config.engine == "sharded"
            assert db.shard_health() is not None
        finally:
            db.close()

    def test_serial_database_has_the_sharded_surface_empty(self):
        db = ChronicleDatabase()
        assert db.config.engine == "serial"
        assert db.shard_groups == ()
        assert db.partitioned_views == ()
        assert db.fallback_views == ()
        assert db.shard_health() is None

    def test_thread_executor_is_a_config_error_naming_the_replacement(self):
        with pytest.raises(ConfigError, match='"serial"'):
            DatabaseConfig(engine="sharded", executor="thread")

    def test_ingest_on_serial_engine(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        db.define_view(
            "DEFINE VIEW usage AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
        )
        admitted = db.ingest(
            "calls",
            [
                [{"caller": 1, "minutes": 5}],
                [{"caller": 1, "minutes": 2}, {"caller": 2, "minutes": 1}],
            ],
        )
        assert admitted == 3
        assert db.view_value("usage", (1,), "total") == 7


# ---------------------------------------------------------------------------
# Stable routing (PYTHONHASHSEED-independent)
# ---------------------------------------------------------------------------


_ROUTING_PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.parallel import ShardRouter, stable_hash
from repro.algebra.plan import PartitionSpec
router = ShardRouter(PartitionSpec({{"a": ("acct",)}}), shards=8)
keys = [("alice",), ("bob",), (42,), (3.5, "x"), (None,), (True, 7)]
print(",".join(str(router.shard_of_key(k)) for k in keys))
"""


class TestStableRouting:
    def test_routing_identical_across_interpreter_runs(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = set()
        for seed in ("0", "12345", "random"):
            result = subprocess.run(
                [sys.executable, "-c", _ROUTING_PROBE.format(src=os.path.abspath(src))],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, outputs

    def test_cross_type_equal_keys_hash_identically(self):
        # The builtin hash guarantees hash(1) == hash(1.0) == hash(True);
        # routing must preserve that so lookups keyed either way agree.
        assert stable_hash((1,)) == stable_hash((1.0,)) == stable_hash((True,))
        assert stable_hash((0,)) == stable_hash((0.0,)) == stable_hash((False,))
        assert stable_hash((1.5,)) != stable_hash((1,))

    def test_stable_hash_is_deterministic_value(self):
        # Pin a few values: a change here silently strands every existing
        # checkpoint's shard placement.
        import zlib

        assert stable_hash(("alice",)) == zlib.crc32(b"('alice',)")
        assert stable_hash((42,)) == zlib.crc32(b"(42,)")


# ---------------------------------------------------------------------------
# Portable specs (pickle round-trips) and worker replicas
# ---------------------------------------------------------------------------


class TestPortableSpecs:
    def test_partition_spec_pickles(self):
        spec_ = PartitionSpec({"a": ("acct",), "b": ("acct", "branch")})
        clone = pickle.loads(pickle.dumps(spec_))
        assert clone == spec_
        assert clone.canonical() == spec_.canonical()

    def test_schema_spec_round_trips(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        schema = db.chronicle("calls").schema
        spec_ = pickle.loads(pickle.dumps(schema_spec(schema)))
        rebuilt = build_schema(spec_)
        assert rebuilt.names == schema.names
        assert rebuilt.sequence_attribute == schema.sequence_attribute
        assert [a.domain for a in rebuilt.attributes] == [
            a.domain for a in schema.attributes
        ]

    def test_summary_spec_round_trips(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        chron = db.chronicle("calls")
        summary = GroupBySummary(
            scan(chron).select(attr_cmp("minutes", ">", 3)),
            ["caller"],
            [spec(SUM, "minutes"), spec(COUNT)],
        )
        assert is_portable(summary)
        payload = pickle.loads(pickle.dumps(summary_spec(summary)))
        rebuilt = build_summary(payload, {"calls": chron})
        assert rebuilt.output_schema.names == summary.output_schema.names
        assert [s.output for s in rebuilt.aggregates] == [
            s.output for s in summary.aggregates
        ]

    def test_shard_snapshot_round_trips_through_a_replica(self):
        db = ChronicleDatabase(
            config=DatabaseConfig(engine="sharded", shards=2, executor="serial")
        )
        try:
            db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
            chron = db.chronicle("calls")
            db.define_view(
                GroupBySummary(
                    scan(chron), ["caller"], [spec(SUM, "minutes"), spec(COUNT)]
                ),
                name="usage",
            )
            for i in range(30):
                db.append("calls", {"caller": i % 5, "minutes": i})
            (shard_group,) = db.shard_groups
            for unit in shard_group.units:
                snapshot = pickle.loads(pickle.dumps(unit.spec()))
                assert isinstance(snapshot, ShardUnitSpec)
                assert snapshot.watermark == unit.watermark
                replica = UnitReplica(snapshot)
                original = unit.registry.view("usage")
                rebuilt = replica.registry.view("usage")
                assert sorted(
                    tuple(r.values) for r in rebuilt.rows()
                ) == sorted(tuple(r.values) for r in original.rows())
                assert sorted(rebuilt.state_export()) == sorted(
                    original.state_export()
                )
        finally:
            db.close()


# ---------------------------------------------------------------------------
# The process executor
# ---------------------------------------------------------------------------


def _sharded_process_db(shards=2):
    db = _usage_db("process", shards=shards)
    _define_usage(db)
    return db


def _worker_pids(db):
    """Live worker pids (the inline executor has no pools, so none)."""
    return [
        pid
        for pool in getattr(db._shards.backend, "_pools", ())
        if pool is not None
        for pid in pool._processes
    ]


def _running(pid):
    """Whether *pid* is a live (not merely unreaped) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_ended(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if _running(pid)]


_ORPHANING_CHILD = """
import sys, time
from repro import ChronicleDatabase, DatabaseConfig
from repro.aggregates import SUM, spec
from repro.algebra.ast import scan
from repro.sca.summarize import GroupBySummary

def main():
    db = ChronicleDatabase(
        config=DatabaseConfig(engine="sharded", shards=2, executor="process")
    )
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
    db.define_view(
        GroupBySummary(scan(db.chronicle("calls")), ["caller"], [spec(SUM, "minutes")]),
        name="usage",
    )
    db.ingest("calls", [[{"caller": c, "minutes": 1}] for c in range(8)])
    pids = [
        pid
        for pool in db._shards.backend._pools
        if pool is not None
        for pid in pool._processes
    ]
    print(" ".join(map(str, pids)), flush=True)
    time.sleep(60)

if __name__ == "__main__":
    main()
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestWorkerLifetime:
    """Worker processes never outlive the database that started them."""

    def test_dropped_database_reaps_its_workers(self):
        db = _sharded_process_db()
        db.ingest("calls", [[{"caller": c, "minutes": 1}] for c in range(8)])
        pids = _worker_pids(db)
        assert pids and all(_running(pid) for pid in pids)
        del db  # no close()
        gc.collect()
        assert _wait_ended(pids) == []

    def test_workers_end_when_the_parent_is_killed(self, tmp_path):
        script = tmp_path / "child.py"
        script.write_text(_ORPHANING_CHILD)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            pids = [int(pid) for pid in line.split()]
            assert pids, proc.stderr.read()
            assert all(_running(pid) for pid in pids)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert _wait_ended(pids) == []


class TestProcessExecutor:
    def test_process_executor_is_accepted(self):
        db = ChronicleDatabase(
            config=DatabaseConfig(engine="sharded", shards=2, executor="process")
        )
        try:
            assert db._shards.backend.name == "process"
        finally:
            db.close()

    def test_maintains_views_and_reads_merge(self):
        db = _sharded_process_db()
        try:
            for i in range(20):
                db.append("calls", {"caller": i % 4, "minutes": i})
            assert db.view_value("usage", (1,), "sum_minutes") == 1 + 5 + 9 + 13 + 17
            assert len(db.view("usage")) == 4
            marks = db.watermarks()
            assert marks["kc0:0"] == marks["serial/default"] or (
                marks["kc0:1"] == marks["serial/default"]
            )
        finally:
            db.close()

    def test_worker_crash_contract(self, tmp_path):
        db = _sharded_process_db()
        obs = db.enable_observability(audit="off", incident_dir=str(tmp_path))
        try:
            db.ingest("calls", [[{"caller": i % 4, "minutes": i}] for i in range(8)])
            marks_before = dict(db.watermarks())
            backend = db._shards.backend
            for pool in backend._pools:
                if pool is not None:
                    for pid in list(pool._processes):
                        os.kill(pid, signal.SIGKILL)
            time.sleep(0.3)
            with pytest.raises(EngineError, match="worker process died"):
                db.append("calls", {"caller": 1, "minutes": 99})
            assert obs.metrics.value("engine_errors_total") == 1
            bundles = list(tmp_path.glob("incident-*-shard-worker-error.json"))
            assert len(bundles) == 1
            bundle = json.loads(bundles[0].read_text())
            assert "worker process died" in bundle["context"]["error"]
            # The failed window never became visible: shard watermarks
            # stand where they were, admission has moved ahead (lag).
            marks_after = db.watermarks()
            for label in ("kc0:0", "kc0:1"):
                assert marks_after[label] == marks_before[label]
            assert marks_after["serial/default"] > marks_before["serial/default"]
            # The replica's state died with the process: later windows
            # routed there must refuse rather than diverge silently —
            # first discovering the remaining dead slot, then refusing
            # outright once every slot is marked broken.
            with pytest.raises(EngineError, match="worker process died"):
                db.ingest(
                    "calls", [[{"caller": c, "minutes": 1}] for c in range(4)]
                )
            with pytest.raises(EngineError, match="died previously"):
                db.ingest(
                    "calls", [[{"caller": c, "minutes": 1}] for c in range(4)]
                )
        finally:
            obs.uninstall()
            db.close()

    def test_nonportable_view_falls_back_to_serial_shard(self):
        class LocalSum(IncrementalAggregate):
            # A process-local class: its summary spec cannot unpickle in
            # a worker, so the view must stay on the serial shard.
            name = "LOCALSUM"

            def initial(self):
                return 0

            def step(self, state, value):
                return state + value

            def merge(self, left, right):
                return left + right

            def finalize(self, state):
                return state

        db = ChronicleDatabase(
            config=DatabaseConfig(engine="sharded", shards=2, executor="process")
        )
        try:
            db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
            chron = db.chronicle("calls")
            summary = GroupBySummary(
                scan(chron), ["caller"], [spec(LocalSum(), "minutes")]
            )
            assert not is_portable(summary)
            with pytest.warns(NonPortableViewWarning):
                db.define_view(summary, name="local")
            assert "local" in db.fallback_views
            db.append("calls", {"caller": 1, "minutes": 5})
            db.append("calls", {"caller": 1, "minutes": 2})
            assert db.view_value("local", (1,), "localsum_minutes") == 7
        finally:
            db.close()

    def test_views_added_and_dropped_after_workers_install(self):
        db = _sharded_process_db()
        try:
            for i in range(10):
                db.append("calls", {"caller": i % 3, "minutes": i})
            chron = db.chronicle("calls")
            # Workers hold replicas now; the late view's materialized
            # state (from retained history) must ship to them too.
            db.define_view(
                GroupBySummary(
                    scan(chron).select(attr_cmp("minutes", ">", 4)),
                    ["caller"],
                    [spec(COUNT)],
                ),
                name="late",
            )
            # History: caller 0 saw minutes {0, 3, 6, 9}; two exceed 4.
            assert db.view_value("late", (0,), "count") == 2
            db.append("calls", {"caller": 0, "minutes": 9})
            assert db.view_value("late", (0,), "count") == 3
            db.drop_view("late")
            db.append("calls", {"caller": 0, "minutes": 11})
            assert "late" not in db.partitioned_views
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Sharded checkpoint/restore (un-gated by stable routing)
# ---------------------------------------------------------------------------


class TestShardedCheckpoint:
    def _fill(self, db):
        for i in range(24):
            db.append("calls", {"caller": i % 5, "minutes": i})

    def _usage(self, db):
        return sorted(tuple(r.values) for r in db.view("usage").rows())

    def _fresh(self, executor=None, engine="sharded"):
        if engine == "sharded":
            config = DatabaseConfig(engine="sharded", shards=2, executor=executor)
        else:
            config = DatabaseConfig(engine="serial")
        db = ChronicleDatabase(config=config)
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        chron = db.chronicle("calls")
        db.define_view(
            GroupBySummary(
                scan(chron), ["caller"], [spec(SUM, "minutes"), spec(COUNT)]
            ),
            name="usage",
        )
        return db

    def test_round_trip_same_engine(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        db = self._fresh("serial")
        try:
            self._fill(db)
            before = self._usage(db)
            count = db.view("usage").maintenance_count
            db.checkpoint(path)
        finally:
            db.close()
        db2 = self._fresh("serial")
        try:
            db2.restore(path)
            assert self._usage(db2) == before
            assert db2.view("usage").maintenance_count == count
            # The restored database continues: watermark advanced, new
            # appends route to the same shards the keys lived on.
            db2.append("calls", {"caller": 2, "minutes": 100})
            assert db2.view_value("usage", (2,), "sum_minutes") == sum(
                i for i in range(24) if i % 5 == 2
            ) + 100
        finally:
            db2.close()

    def test_cross_engine_both_directions(self, tmp_path):
        sharded_path = str(tmp_path / "sharded.json")
        serial_path = str(tmp_path / "serial.json")
        db = self._fresh("serial")
        try:
            self._fill(db)
            expected = self._usage(db)
            db.checkpoint(sharded_path)
        finally:
            db.close()
        # sharded checkpoint -> serial engine
        serial_db = self._fresh(engine="serial")
        try:
            serial_db.restore(sharded_path)
            assert self._usage(serial_db) == expected
            serial_db.checkpoint(serial_path)
        finally:
            serial_db.close()
        # serial checkpoint -> sharded engine
        back = self._fresh("serial")
        try:
            back.restore(serial_path)
            assert self._usage(back) == expected
        finally:
            back.close()

    def test_restore_reinstalls_process_replicas(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        db = self._fresh("process")
        try:
            self._fill(db)
            before = self._usage(db)
            db.checkpoint(path)
            db2 = self._fresh("process")
            try:
                db2.restore(path)
                db2.append("calls", {"caller": 3, "minutes": 50})
                db.append("calls", {"caller": 3, "minutes": 50})
                assert self._usage(db2) == self._usage(db)
                assert self._usage(db2) != before
            finally:
                db2.close()
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Exporter lifetime (the serve_metrics leak fix)
# ---------------------------------------------------------------------------


def _assert_down(url):
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(url + "/metrics", timeout=2)


class TestExporterLifetime:
    def test_close_stops_serving_thread(self):
        db = ChronicleDatabase(config=DatabaseConfig(observe=True))
        server = db.serve_metrics(port=0)
        with urllib.request.urlopen(server.url + "/metrics", timeout=5) as response:
            assert response.status == 200
        db.close()
        _assert_down(server.url)

    def test_close_is_idempotent(self):
        db = ChronicleDatabase(config=DatabaseConfig(observe=True))
        db.serve_metrics(port=0)
        db.close()
        db.close()

    def test_context_manager_scopes_exporter(self):
        with ChronicleDatabase(config=DatabaseConfig(observe=True)) as db:
            server = db.serve_metrics(port=0)
            with urllib.request.urlopen(server.url + "/metrics", timeout=5) as r:
                assert r.status == 200
        _assert_down(server.url)

    def test_gc_stops_abandoned_exporter(self):
        db = ChronicleDatabase(config=DatabaseConfig(observe=True))
        server = db.serve_metrics(port=0)
        url = server.url
        obs_runtime.ACTIVE = None  # drop the runtime's reference too
        del server
        del db
        gc.collect()
        _assert_down(url)
