"""Tests for repro.relational.relation.Relation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, KeyViolationError, UnknownAttributeError
from repro.relational.predicate import attr_cmp, attr_eq
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import Row
from repro.relational.versioned import VersionedRelation


def customers():
    relation = Relation(
        "customers",
        Schema.build(("acct", "INT"), ("name", "STR"), ("state", "STR"), key=["acct"]),
    )
    relation.insert({"acct": 1, "name": "alice", "state": "NJ"})
    relation.insert({"acct": 2, "name": "bob", "state": "NY"})
    relation.insert({"acct": 3, "name": "carol", "state": "NJ"})
    return relation


class TestInsert:
    def test_insert_mapping(self):
        relation = customers()
        assert len(relation) == 3

    def test_insert_positional(self):
        relation = Relation("r", Schema.build(("a", "INT"), ("b", "STR")))
        relation.insert([1, "x"])
        assert list(relation)[0].values == (1, "x")

    def test_insert_row(self):
        schema = Schema.build(("a", "INT"))
        relation = Relation("r", schema)
        relation.insert(Row(schema, [5]))
        assert len(relation) == 1

    def test_duplicate_key_rejected(self):
        relation = customers()
        with pytest.raises(KeyViolationError):
            relation.insert({"acct": 1, "name": "dup", "state": "CA"})

    def test_insert_many(self):
        relation = Relation("r", Schema.build(("a", "INT")))
        relation.insert_many([{"a": 1}, {"a": 2}])
        assert len(relation) == 2


class TestLookup:
    def test_lookup_key(self):
        assert customers().lookup_key((2,))["name"] == "bob"

    def test_lookup_key_missing(self):
        assert customers().lookup_key((99,)) is None

    def test_lookup_key_without_key(self):
        relation = Relation("r", Schema.build(("a", "INT")))
        with pytest.raises(IntegrityError):
            relation.lookup_key((1,))

    def test_lookup_via_scan(self):
        rows = customers().lookup(["state"], "NJ")
        assert sorted(r["name"] for r in rows) == ["alice", "carol"]

    def test_lookup_via_secondary_index(self):
        relation = customers()
        relation.create_index(["state"])
        rows = relation.lookup(["state"], "NJ")
        assert sorted(r["name"] for r in rows) == ["alice", "carol"]

    def test_lookup_key_path(self):
        rows = customers().lookup(["acct"], 3)
        assert [r["name"] for r in rows] == ["carol"]

    def test_select(self):
        rows = customers().select(attr_cmp("acct", ">=", 2))
        assert len(rows) == 2


class TestDelete:
    def test_delete_key(self):
        relation = customers()
        assert relation.delete_key((1,))
        assert len(relation) == 2
        assert relation.lookup_key((1,)) is None

    def test_delete_key_missing(self):
        assert not customers().delete_key((42,))

    def test_delete_where(self):
        relation = customers()
        deleted = relation.delete_where(attr_eq("state", "NJ"))
        assert deleted == 2
        assert len(relation) == 1

    def test_reinsert_after_delete(self):
        relation = customers()
        relation.delete_key((1,))
        relation.insert({"acct": 1, "name": "alice2", "state": "CA"})
        assert relation.lookup_key((1,))["name"] == "alice2"

    def test_compaction_preserves_contents(self):
        relation = Relation("r", Schema.build(("a", "INT"), key=["a"]))
        for i in range(200):
            relation.insert({"a": i})
        for i in range(0, 200, 2):
            relation.delete_key((i,))
        assert sorted(r["a"] for r in relation) == list(range(1, 200, 2))
        assert relation.lookup_key((151,))["a"] == 151


class TestUpdate:
    def test_update_key(self):
        relation = customers()
        assert relation.update_key((1,), state="CA")
        assert relation.lookup_key((1,))["state"] == "CA"

    def test_update_key_missing(self):
        assert not customers().update_key((42,), state="CA")

    def test_update_where(self):
        relation = customers()
        assert relation.update_where(attr_eq("state", "NJ"), state="DE") == 2
        assert len(relation.lookup(["state"], "DE")) == 2

    def test_update_changes_key(self):
        relation = customers()
        relation.update_key((1,), acct=10)
        assert relation.lookup_key((1,)) is None
        assert relation.lookup_key((10,))["name"] == "alice"

    def test_update_to_duplicate_key_rejected(self):
        relation = customers()
        with pytest.raises(KeyViolationError):
            relation.update_key((1,), acct=2)

    def test_update_maintains_secondary_index(self):
        relation = customers()
        relation.create_index(["state"])
        relation.update_key((1,), state="TX")
        assert [r["name"] for r in relation.lookup(["state"], "TX")] == ["alice"]
        assert sorted(r["name"] for r in relation.lookup(["state"], "NJ")) == ["carol"]


class TestIndexes:
    def test_create_index_on_existing_rows(self):
        relation = customers()
        relation.create_index(["name"])
        assert relation.has_index(["name"])
        assert relation.lookup(["name"], "bob")[0]["acct"] == 2

    def test_create_index_unknown_attr(self):
        with pytest.raises(UnknownAttributeError):
            customers().create_index(["zzz"])

    def test_create_index_idempotent(self):
        relation = customers()
        relation.create_index(["state"])
        relation.create_index(["state"])
        assert relation.has_index(["state"])

    def test_ordered_index(self):
        relation = customers()
        relation.create_index(["acct"], ordered=True)
        assert relation.lookup(["acct"], 2)[0]["name"] == "bob"

    def test_has_unique_index_via_key(self):
        assert customers().has_unique_index(["acct"])

    def test_has_unique_index_via_secondary(self):
        relation = customers()
        assert not relation.has_unique_index(["name"])
        relation.create_index(["name"], unique=True)
        assert relation.has_unique_index(["name"])

    def test_non_unique_index_not_advertised(self):
        relation = customers()
        relation.create_index(["state"])
        assert not relation.has_unique_index(["state"])

    def test_index_maintained_on_delete(self):
        relation = customers()
        relation.create_index(["state"])
        relation.delete_key((1,))
        assert sorted(r["name"] for r in relation.lookup(["state"], "NJ")) == ["carol"]


class TestMisc:
    def test_clear(self):
        relation = customers()
        relation.clear()
        assert len(relation) == 0
        relation.insert({"acct": 1, "name": "x", "state": "NJ"})
        assert len(relation) == 1

    def test_contains_row(self):
        relation = customers()
        row = relation.lookup_key((1,))
        assert row in relation

    def test_to_set(self):
        assert len(customers().to_set()) == 3


# -- a refused mutation changes nothing ------------------------------------------------


def unique_b(ordered):
    """A keyed relation with a unique index on b holding (1, 7) and (2, 8)."""
    relation = Relation("r", Schema.build(("a", "INT"), ("b", "INT"), key=["a"]))
    relation.create_index(["b"], ordered=ordered, unique=True)
    relation.insert({"a": 1, "b": 7})
    relation.insert({"a": 2, "b": 8})
    return relation


def observed(relation):
    """Rows in order, the length and every lookup a refusal could disturb."""
    return (
        [row.values for row in relation.rows()],
        len(relation),
        [relation.lookup_key((a,)) for a in range(5)],
        [relation.lookup(["b"], b) for b in range(6, 10)],
    )


REFUSED = {
    "insert": lambda r: r.insert({"a": 3, "b": 7}),
    "update_key": lambda r: r.update_key((2,), a=3, b=7),
    "update_where": lambda r: r.update_where(attr_eq("a", 2), b=7),
    "update_where_collision": lambda r: r.update_where(attr_cmp("a", ">", 0), b=9),
    "update_where_key_collision": lambda r: r.update_where(attr_cmp("a", ">", 0), a=4),
}


class TestRefusedMutation:
    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("call", sorted(REFUSED))
    def test_changes_nothing(self, call, ordered):
        relation = unique_b(ordered)
        before = observed(relation)
        with pytest.raises(KeyViolationError):
            REFUSED[call](relation)
        assert observed(relation) == before
        assert relation.lookup_key((3,)) is None
        assert [row.values for row in relation.lookup(["b"], 8)] == [(2, 8)]

    @pytest.mark.parametrize("call", sorted(REFUSED))
    def test_versioned_log_does_not_grow(self, call):
        relation = VersionedRelation(
            "r", Schema.build(("a", "INT"), ("b", "INT"), key=["a"])
        )
        relation.create_index(["b"], unique=True)
        relation.insert({"a": 1, "b": 7})
        relation.insert({"a": 2, "b": 8})
        before = (observed(relation.current), len(relation._log))
        with pytest.raises(KeyViolationError):
            REFUSED[call](relation)
        assert (observed(relation.current), len(relation._log)) == before

    def test_a_freed_unique_value_can_be_taken(self):
        relation = unique_b(ordered=False)
        relation.update_key((1,), b=9)
        relation.update_where(attr_eq("a", 2), b=7)
        assert [row.values for row in relation.rows()] == [(1, 9), (2, 7)]
        assert relation.lookup(["b"], 7)[0]["a"] == 2
        assert relation.lookup(["b"], 8) == []

    def test_mutating_while_iterating_rows_raises(self):
        relation = customers()
        with pytest.raises(RuntimeError):
            for row in relation.rows():
                relation.delete_key((row["acct"],))


# -- model-based: a keyed relation against a plain list of dicts ------------------------

_small = st.integers(0, 4)
_changes = st.dictionaries(st.sampled_from("abc"), _small, min_size=1, max_size=2)
_attrs = st.sampled_from([("b",), ("c",), ("b", "c")])
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.fixed_dictionaries(dict.fromkeys("abc", _small))),
        st.tuples(st.just("delete_key"), _small),
        st.tuples(st.just("update_key"), _small, _changes),
        st.tuples(st.just("update_where"), st.sampled_from("abc"), _small, _changes),
        st.tuples(st.just("delete_where"), st.sampled_from("abc"), _small),
        st.tuples(st.just("create_index"), _attrs, st.booleans(), st.booleans()),
    ),
    min_size=4,
    max_size=40,
)
_seed_rows = st.lists(st.tuples(_small, _small), max_size=4)


def _unique_ok(model, indexes):
    """Whether the key and every unique index hold one row per value."""
    for attrs in [("a",)] + [attrs for attrs, unique in indexes.items() if unique]:
        values = [tuple(row[name] for name in attrs) for row in model]
        if len(values) != len(set(values)):
            return False
    return True


def _agrees(relation, model, indexes):
    assert [row.values for row in relation.rows()] == [(r["a"], r["b"], r["c"]) for r in model]
    assert len(relation) == len(model)
    for a in range(5):
        found = relation.lookup_key((a,))
        expected = [(r["a"], r["b"], r["c"]) for r in model if r["a"] == a]
        assert (found.values if found is not None else None) == (expected[0] if expected else None)
    for attrs in [("a",), ("b",), ("c",), ("b", "c")]:
        pairs = [(b, c) for b in range(5) for c in range(5)]
        for value in range(5) if len(attrs) == 1 else pairs:
            key = value if isinstance(value, tuple) else (value,)
            expected = sorted(
                (r["a"], r["b"], r["c"]) for r in model
                if tuple(r[name] for name in attrs) == key
            )
            assert sorted(row.values for row in relation.lookup(list(attrs), value)) == expected
    for attrs, unique in indexes.items():
        assert relation.has_index(attrs)
        assert relation.has_unique_index(attrs) == unique


def _expected(model, indexes, step):
    """The model's rows, its indexes and the call's result after *step*."""
    kind, *args = step
    if kind == "create_index":
        attrs, _, unique = args
        return model, {attrs: unique, **indexes}, None
    if kind == "insert":
        (row,) = args
        return model + [row], indexes, (row["a"], row["b"], row["c"])
    attr, value = ("a", args[0]) if kind.endswith("_key") else args[:2]
    hit = [row[attr] == value for row in model]
    if kind.startswith("delete"):
        return [row for row, h in zip(model, hit) if not h], indexes, sum(hit)
    changes = args[-1]
    return [dict(row, **changes) if h else row for row, h in zip(model, hit)], indexes, sum(hit)


def _run(relation, step):
    kind, *args = step
    if kind == "create_index":
        return relation.create_index(*args)
    if kind == "insert":
        return relation.insert(args[0]).values
    if kind == "delete_key":
        return relation.delete_key((args[0],))
    if kind == "update_key":
        return relation.update_key((args[0],), **args[1])
    if kind == "delete_where":
        return relation.delete_where(attr_eq(*args))
    return relation.update_where(attr_eq(args[0], args[1]), **args[2])


@settings(max_examples=200, deadline=None)
@given(_seed_rows, _steps)
def test_relation_matches_list_model(seed_rows, steps):
    """Property: every mutation agrees with a list-of-dicts model, and a
    step the model refuses raises and changes neither side."""
    relation = Relation("r", Schema.build(("a", "INT"), ("b", "INT"), ("c", "INT"), key=["a"]))
    model = [{"a": a, "b": b, "c": c} for a, (b, c) in enumerate(seed_rows)]
    relation.insert_many(model)
    indexes = {}
    for step in steps:
        after, new_indexes, result = _expected(model, indexes, step)
        if _unique_ok(after, new_indexes):
            assert _run(relation, step) == result
            model, indexes = after, new_indexes
        else:
            with pytest.raises(KeyViolationError):
                _run(relation, step)
        _agrees(relation, model, indexes)
