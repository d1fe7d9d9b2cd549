"""Tests for the chronicle-model kernel: sequences, chronicles, groups,
deltas — the Section 2 rules."""

import collections
import types
from collections.abc import Mapping

import pytest

from repro.core.chronicle import Chronicle, in_maintenance, maintenance_guard
from repro.core.delta import Delta
from repro.core.group import ChronicleGroup, chronicle_schema
from repro.core.sequence import (
    IdentityChronons,
    LinearChronons,
    RecordedChronons,
    SequenceIssuer,
)
from repro.errors import (
    ChronicleAccessError,
    ChronicleGroupError,
    RetentionError,
    SchemaError,
    SequenceOrderError,
    TypeMismatchError,
)
from repro.relational.schema import Schema
from repro.relational.tuples import Row


class TestSequenceIssuer:
    def test_issue_is_monotone(self):
        issuer = SequenceIssuer()
        assert [issuer.issue() for _ in range(3)] == [0, 1, 2]
        assert issuer.watermark == 2

    def test_custom_start(self):
        issuer = SequenceIssuer(start=100)
        assert issuer.watermark == 99
        assert issuer.issue() == 100

    def test_accept_valid(self):
        issuer = SequenceIssuer()
        issuer.issue()
        assert issuer.accept(10) == 10
        assert issuer.watermark == 10

    def test_accept_stale_rejected(self):
        issuer = SequenceIssuer()
        issuer.accept(5)
        with pytest.raises(SequenceOrderError):
            issuer.accept(5)
        with pytest.raises(SequenceOrderError):
            issuer.accept(3)

    def test_sparse_numbers_allowed(self):
        issuer = SequenceIssuer()
        issuer.accept(7)
        issuer.accept(1000)  # no density requirement (Section 2.1)
        assert issuer.watermark == 1000


class TestChronons:
    def test_identity(self):
        assert IdentityChronons().chronon(42) == 42.0

    def test_linear(self):
        mapper = LinearChronons(origin=100.0, step=0.5)
        assert mapper.chronon(4) == 102.0

    def test_linear_rejects_bad_step(self):
        with pytest.raises(ValueError):
            LinearChronons(step=0)

    def test_recorded_lookup(self):
        mapper = RecordedChronons()
        mapper.record(0, 10.0)
        mapper.record(5, 20.0)
        assert mapper.chronon(0) == 10.0
        assert mapper.chronon(3) == 10.0  # last recording at or before
        assert mapper.chronon(5) == 20.0
        assert mapper.chronon(100) == 20.0

    def test_recorded_before_first(self):
        mapper = RecordedChronons()
        mapper.record(5, 20.0)
        with pytest.raises(SequenceOrderError):
            mapper.chronon(4)

    def test_recorded_monotone_sn(self):
        mapper = RecordedChronons()
        mapper.record(5, 20.0)
        with pytest.raises(SequenceOrderError):
            mapper.record(5, 30.0)

    def test_recorded_monotone_instants(self):
        mapper = RecordedChronons()
        mapper.record(5, 20.0)
        with pytest.raises(SequenceOrderError):
            mapper.record(6, 19.0)


class TestChronicleSchemaHelper:
    def test_adds_sequence_column(self):
        schema = chronicle_schema(("acct", "INT"))
        assert schema.names == ("sn", "acct")
        assert schema.sequence_attribute == "sn"

    def test_custom_sequence_name(self):
        schema = chronicle_schema(("acct", "INT"), sequence_attribute="seq")
        assert schema.sequence_attribute == "seq"

    def test_plain_schema_rejected_by_chronicle(self):
        with pytest.raises(SchemaError):
            Chronicle("c", Schema.build(("a", "INT")))


class TestGroupAppends:
    def make(self, retention=None):
        group = ChronicleGroup("g")
        chronicle = group.create_chronicle(
            "c", [("acct", "INT"), ("v", "INT")], retention=retention
        )
        return group, chronicle

    def test_append_stamps_sequence(self):
        group, chronicle = self.make()
        rows = group.append(chronicle, {"acct": 1, "v": 10})
        assert rows[0].sequence_number == 0
        rows = group.append("c", {"acct": 2, "v": 20})
        assert rows[0].sequence_number == 1

    def test_append_positional_without_sn(self):
        group, chronicle = self.make()
        rows = group.append(chronicle, (7, 70))
        assert rows[0].values == (0, 7, 70)

    def test_append_batch_shares_sequence_number(self):
        group, chronicle = self.make()
        rows = group.append(chronicle, [{"acct": 1, "v": 1}, {"acct": 2, "v": 2}])
        assert [r.sequence_number for r in rows] == [0, 0]

    def test_explicit_sequence_number(self):
        group, chronicle = self.make()
        group.append(chronicle, {"acct": 1, "v": 1}, sequence_number=10)
        assert group.watermark == 10
        with pytest.raises(SequenceOrderError):
            group.append(chronicle, {"acct": 1, "v": 1}, sequence_number=10)

    def test_record_supplying_conflicting_sn_rejected(self):
        group, chronicle = self.make()
        with pytest.raises(SchemaError):
            group.append(chronicle, {"sn": 99, "acct": 1, "v": 1})

    def test_record_supplying_matching_sn_allowed(self):
        group, chronicle = self.make()
        rows = group.append(chronicle, {"sn": 0, "acct": 1, "v": 1})
        assert rows[0].sequence_number == 0

    def test_simultaneous_appends_share_sn(self):
        group = ChronicleGroup("g")
        a = group.create_chronicle("a", [("x", "INT")])
        b = group.create_chronicle("b", [("y", "INT")])
        stamped = group.append_simultaneous({a: {"x": 1}, b: {"y": 2}})
        assert stamped["a"][0].sequence_number == stamped["b"][0].sequence_number == 0

    def test_sequential_appends_across_chronicles_strictly_increase(self):
        group = ChronicleGroup("g")
        a = group.create_chronicle("a", [("x", "INT")])
        b = group.create_chronicle("b", [("y", "INT")])
        group.append(a, {"x": 1})
        rows = group.append(b, {"y": 2})
        assert rows[0].sequence_number == 1

    def test_foreign_chronicle_rejected(self):
        group1 = ChronicleGroup("g1")
        group2 = ChronicleGroup("g2")
        foreign = group2.create_chronicle("c", [("x", "INT")])
        with pytest.raises(ChronicleGroupError):
            group1.append(foreign, {"x": 1})

    def test_duplicate_chronicle_name_rejected(self):
        group, _ = self.make()
        with pytest.raises(ChronicleGroupError):
            group.create_chronicle("c", [("x", "INT")])

    def test_listener_receives_event(self):
        group, chronicle = self.make()
        events = []
        group.subscribe(lambda g, event: events.append(event))
        group.append(chronicle, {"acct": 1, "v": 10})
        assert len(events) == 1
        assert set(events[0]) == {"c"}

    def test_unsubscribe(self):
        group, chronicle = self.make()
        events = []
        listener = lambda g, event: events.append(event)
        group.subscribe(listener)
        group.unsubscribe(listener)
        group.append(chronicle, {"acct": 1, "v": 10})
        assert events == []

    def test_chronon_recording_on_append(self):
        group = ChronicleGroup("g", chronons=RecordedChronons())
        chronicle = group.create_chronicle("c", [("x", "INT")])
        group.append(chronicle, {"x": 1}, instant=100.0)
        assert group.chronons.chronon(0) == 100.0

    def test_adopt_external_chronicle(self):
        group = ChronicleGroup("g")
        chronicle = Chronicle("ext", chronicle_schema(("x", "INT")))
        group.adopt(chronicle)
        assert chronicle.group is group
        group.append("ext", {"x": 1})


class TestRetention:
    def make(self, retention):
        group = ChronicleGroup("g")
        chronicle = group.create_chronicle("c", [("v", "INT")], retention=retention)
        return group, chronicle

    def test_retention_none_stores_all(self):
        group, chronicle = self.make(None)
        for i in range(100):
            group.append(chronicle, {"v": i})
        assert len(chronicle) == 100

    def test_retention_zero_stores_nothing(self):
        group, chronicle = self.make(0)
        for i in range(100):
            group.append(chronicle, {"v": i})
        assert chronicle.appended_count == 100
        assert len(chronicle) == 0

    def test_retention_window(self):
        group, chronicle = self.make(10)
        for i in range(100):
            group.append(chronicle, {"v": i})
        stored = list(chronicle.rows())
        assert len(stored) == 10
        assert stored[0]["v"] == 90

    def test_window_query(self):
        group, chronicle = self.make(None)
        for i in range(20):
            group.append(chronicle, {"v": i})
        rows = chronicle.window(5, 8)
        assert [r["v"] for r in rows] == [5, 6, 7, 8]

    def test_window_before_retained_range_rejected(self):
        group, chronicle = self.make(10)
        for i in range(100):
            group.append(chronicle, {"v": i})
        with pytest.raises(RetentionError):
            chronicle.window(0, 5)

    def test_window_on_unstored_chronicle_rejected(self):
        group, chronicle = self.make(0)
        group.append(chronicle, {"v": 1})
        with pytest.raises(RetentionError):
            chronicle.window()

    def test_last_sequence_number(self):
        group, chronicle = self.make(None)
        assert chronicle.last_sequence_number() is None
        group.append(chronicle, {"v": 1})
        assert chronicle.last_sequence_number() == 0

    def test_negative_retention_rejected(self):
        with pytest.raises(ValueError):
            self.make(-1)


class TestNoAccessGuard:
    def test_reads_blocked_during_maintenance(self):
        group = ChronicleGroup("g")
        chronicle = group.create_chronicle("c", [("v", "INT")])
        group.append(chronicle, {"v": 1})
        assert not in_maintenance()
        with maintenance_guard():
            assert in_maintenance()
            with pytest.raises(ChronicleAccessError):
                list(chronicle.rows())
            with pytest.raises(ChronicleAccessError):
                chronicle.window()
            with pytest.raises(ChronicleAccessError):
                len(chronicle)
        assert not in_maintenance()
        assert len(chronicle) == 1  # readable again

    def test_guard_nests(self):
        with maintenance_guard():
            with maintenance_guard():
                assert in_maintenance()
            assert in_maintenance()
        assert not in_maintenance()


class TestDelta:
    def schema(self):
        return chronicle_schema(("v", "INT"))

    def test_dedup(self):
        schema = self.schema()
        rows = [Row(schema, [1, 5]), Row(schema, [1, 5]), Row(schema, [1, 6])]
        delta = Delta(schema, rows)
        assert len(delta) == 2

    def test_empty(self):
        delta = Delta.empty(self.schema())
        assert delta.is_empty
        assert len(delta) == 0

    def test_sequence_numbers(self):
        schema = self.schema()
        delta = Delta(schema, [Row(schema, [3, 1]), Row(schema, [3, 2]), Row(schema, [4, 1])])
        assert delta.sequence_numbers() == (3, 4)

    def test_assert_fresh_accepts_new(self):
        schema = self.schema()
        delta = Delta(schema, [Row(schema, [5, 1])])
        delta.assert_fresh(watermark_before=4)

    def test_assert_fresh_rejects_stale(self):
        schema = self.schema()
        delta = Delta(schema, [Row(schema, [5, 1])])
        with pytest.raises(SequenceOrderError):
            delta.assert_fresh(watermark_before=5)


# ---------------------------------------------------------------------------
# Record shapes: which inputs append and insert accept (the mapping tests are
# collections.abc's, so any Mapping — subclass or registered — counts)
# ---------------------------------------------------------------------------


class CustomMapping(Mapping):
    def __init__(self, values):
        self._values = dict(values)

    def __getitem__(self, key):
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


class VirtualMapping:
    """A mapping by registration only, not by inheritance."""

    def __init__(self, values):
        self._values = dict(values)

    def __getitem__(self, key):
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def __contains__(self, key):
        return key in self._values

    def get(self, key, default=None):
        return self._values.get(key, default)


Mapping.register(VirtualMapping)


class DictSubclass(dict):
    pass


RECORD = {"caller": 1, "minutes": 5}
SECOND = {"caller": 2, "minutes": 6}


def record_shapes():
    row = Row(Schema.build(("sn", "SEQ"), ("caller", "INT"), ("minutes", "INT")), (0, 1, 5))
    return {
        "dict": (RECORD, [(1, 5)]),
        "ordered-dict": (collections.OrderedDict(RECORD), [(1, 5)]),
        "mapping-proxy": (types.MappingProxyType(RECORD), [(1, 5)]),
        "mapping-subclass": (CustomMapping(RECORD), [(1, 5)]),
        "registered-mapping": (VirtualMapping(RECORD), [(1, 5)]),
        "dict-subclass": (DictSubclass(RECORD), [(1, 5)]),
        "list-of-dicts": ([RECORD, SECOND], [(1, 5), (2, 6)]),
        "tuple-of-dicts": ((RECORD,), [(1, 5)]),
        "list-of-mapping-proxies": ([types.MappingProxyType(SECOND)], [(2, 6)]),
        "positional-tuple": ((1, 5), [(1, 5)]),
        "positional-list": ([1, 5], [(1, 5)]),
        "list-of-tuples": ([(1, 5), (2, 6)], [(1, 5), (2, 6)]),
        "list-of-lists": ([[1, 5]], [(1, 5)]),
        "generator": ((r for r in [RECORD]), [(1, 5)]),
        "row": (row, [(1, 5)]),
        "list-of-rows": ([row], [(1, 5)]),
        "empty": ([], []),
        "set-record": ([{1, 5}], SchemaError),
        "string": ("ab", TypeMismatchError),
    }


class TestRecordShapes:
    @pytest.mark.parametrize("shape", list(record_shapes()))
    def test_append_accepts_the_same_shapes(self, shape):
        records, expected = record_shapes()[shape]
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        if isinstance(expected, type):
            with pytest.raises(expected):
                group.append(calls, records)
            assert calls.appended_count == 0
        else:
            rows = group.append(calls, records)
            assert [row.values[1:] for row in rows] == expected

    def test_relation_insert_accepts_mappings_and_sequences(self):
        from repro.relational.relation import Relation

        schema = Schema.build(("number", "INT"), ("state", "STR"), key=["number"])
        relation = Relation("r", schema)
        for value in (
            {"number": 1, "state": "NJ"},
            types.MappingProxyType({"number": 2, "state": "NY"}),
            CustomMapping({"number": 3, "state": "CA"}),
            VirtualMapping({"number": 4, "state": "TX"}),
            (5, "WA"),
            [6, "OR"],
            Row(schema, (7, "ME")),
        ):
            relation.insert(value)
        assert sorted(row.values for row in relation.rows()) == [
            (1, "NJ"), (2, "NY"), (3, "CA"), (4, "TX"), (5, "WA"), (6, "OR"), (7, "ME"),
        ]
