"""Select once: the dispatch index hands each selection view its delta.

A view whose χ is a selection chain over one chronicle scan
(σ…σ(scan C)) is *seeded*: the rows its dispatch entry accepts are its
delta, the registry puts them into the per-event delta cache under the
view's interned root, and its compiled plan reads them there instead of
testing the rows again.  These tests pin that:

* the residual test of a seeded view runs once per (row, filed entry) per
  event, never again in the plan;
* a differential property over generated catalogs (the recipes of
  ``tests/test_one_walk.py``): the seeded registry and the batch oracle
  agree, with ``chronicle_read == 0``,
  across NULLs, a σ root registered twice, a seeded root shared inside a
  join view, ``append_simultaneous``, ``ingest`` windows and drop →
  re-define;
* the compiled shape: seeded roots and chronicle scans are not wrapped in
  the delta cache, and EXPLAIN shows a seeded root as one step.
"""

import itertools
import os
import warnings
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChronicleDatabase, DatabaseConfig
from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.core.group import ChronicleGroup
from repro.obs.explain import explain_analyze
from repro.parallel import UnpartitionableViewWarning
from repro.relational.predicate import Comparison
from repro.relational.schema import Attribute
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView, evaluate_summary
from repro.views.registry import ViewRegistry, scan_prefilters
from tests.test_one_walk import _predicates, build, flat_recipes

# ---------------------------------------------------------------------------
# Exactly once
# ---------------------------------------------------------------------------


class CountingComparison(Comparison):
    """``attr op rhs`` whose compiled test counts its calls."""

    __slots__ = ("calls",)

    def __init__(self, attr, op, rhs):
        super().__init__(attr, op, rhs)
        self.calls = 0
        compare = self._fn

        def counting(left, right):
            self.calls += 1
            return compare(left, right)

        self._fn = counting


def calls_db():
    db = ChronicleDatabase()
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
    return db


@pytest.mark.parametrize("keyed", [False, True], ids=["always-entry", "dispatch-keyed"])
def test_a_seeded_residual_runs_once_per_row_and_entry(keyed):
    db = calls_db()
    calls = db.chronicle("calls")
    residual = CountingComparison("minutes", ">", 10)
    node = scan(calls)
    if keyed:  # filed under caller = 1; the residual tests that bucket's rows
        node = node.select(Comparison("caller", "=", 1))
    node = node.select(residual)
    view = db.define_view(
        GroupBySummary(node, ["caller"], [spec(SUM, "minutes", output="total")]), name="v"
    )
    assert db.registry._views["v"].seeded
    events = [
        [{"caller": 1, "minutes": 20}],
        [{"caller": 1, "minutes": 20}, {"caller": 1, "minutes": 30}, {"caller": 1, "minutes": 5}],
        [{"caller": 1, "minutes": 3}],
        [{"caller": 2, "minutes": 40}, {"caller": 1, "minutes": 50}],
    ]
    for records in events:
        residual.calls = 0
        with GLOBAL_COUNTERS.measure() as cost:
            db.append("calls", records)
        tested = [r for r in records if not keyed or r["caller"] == 1]
        assert residual.calls == len(tested), records
        assert cost["chronicle_read"] == 0
    assert view.value((1,), "total") == 20 + 20 + 30 + 50
    expected_caller_2 = None if keyed else 40
    assert (view.value((2,), "total") if view.lookup((2,)) else None) == expected_caller_2


# ---------------------------------------------------------------------------
# The compiled shape
# ---------------------------------------------------------------------------


def join_db():
    db = calls_db()
    db.create_relation("subscribers", [("number", "INT"), ("plan", "STR")], key=["number"])
    for number in range(4):
        db.relation("subscribers").insert({"number": number, "plan": "ab"[number % 2]})
    db.define_view(
        "DEFINE VIEW long_calls AS SELECT caller, COUNT(*) AS n FROM calls "
        "WHERE minutes > 10 GROUP BY caller"
    )
    db.define_view(
        "DEFINE VIEW long_by_plan AS SELECT plan, SUM(minutes) AS m FROM calls "
        "JOIN subscribers ON calls.caller = subscribers.number WHERE minutes > 10 GROUP BY plan"
    )
    db.define_view("DEFINE VIEW usage AS SELECT caller, COUNT(*) AS n FROM calls GROUP BY caller")
    return db


def test_a_seeded_root_shared_inside_a_join_is_read_not_recomputed():
    db = join_db()
    registry = db.registry
    seeded_root = registry.interned_expression("long_calls")
    # The join view's chronicle side is the same interned σ(scan) node.
    assert registry.interned_expression("long_by_plan").children[0] is seeded_root
    assert [name for name, r in registry._views.items() if r.seeded] == ["long_calls"]
    with GLOBAL_COUNTERS.measure() as cost:
        db.append("calls", [{"caller": 1, "minutes": 20}, {"caller": 2, "minutes": 5}])
    # No step is served from the cache: the seeded root is read as a seed,
    # and the shared scan under `usage` is not a cache point.
    assert cost["delta_cache_hit"] == 0
    assert cost["chronicle_read"] == 0
    assert db.view_value("long_calls", (1,), "n") == 1
    assert db.view_value("long_by_plan", ("b",), "m") == 20
    assert db.view_value("usage", (2,), "n") == 1


def test_explain_shows_a_seeded_root_as_one_step():
    db = join_db()
    seeded = db.explain("long_calls")
    assert seeded.plan.to_dict() == {
        "kind": "Select",
        "detail": "σ (minutes > 10)",
        "fused": ["scan calls"],
        "seeded": True,
    }
    assert "Select σ (minutes > 10) ⨟ scan calls [seeded by dispatch]" in seeded.format()
    joined = db.explain("long_by_plan").plan
    (child,) = joined.children
    assert child.seeded and child.children == []
    # The scan is referenced by all three plans, but it is not a cache point.
    usage = db.explain("usage").plan
    assert usage.kind == "ChronicleScan" and usage.refs == 3 and not usage.shared


def test_explain_analyze_matches_the_seeded_span():
    db = join_db()
    report = explain_analyze(
        db,
        "long_calls",
        events=3,
        batch=2,
        record_factory=lambda i: {"caller": i % 4, "minutes": 11 + i},
    )
    # One delta span per maintained event, and no nested scan span.
    assert set(report.measurements) == {"compiled/Select"}
    select = report.measurements["compiled/Select"]
    assert (select.calls, select.rows) == (3, 6)


# ---------------------------------------------------------------------------
# Differential property
# ---------------------------------------------------------------------------

#: The recipes' ``a`` and ``b``, nullable, and ``k``, each record's own
#: number: views group by ``k`` (the fold keeps no NULL keys), so a view
#: row is one χ row and its count the row's multiplicity.
ATTRIBUTES = [
    Attribute("k", "INT"),
    Attribute("a", "INT", nullable=True),
    Attribute("b", "INT", nullable=True),
]
CHRONICLES = ("c1", "c2")
#: The non-nullable attributes a generated χ can carry (``state`` comes
#: with the key join).
GROUPING = ("k", "state")


class Side:
    """One database over the recipe environment of ``test_one_walk``."""

    def __init__(self, config=None):
        self.db = ChronicleDatabase(config=config)
        for name in CHRONICLES:
            self.db.create_chronicle(name, ATTRIBUTES)
        customers = self.db.create_relation(
            "customers", [("acct", "INT"), ("state", "STR")], key=["acct"]
        )
        plans = self.db.create_relation("plans", [("plan", "STR"), ("rate", "INT")], key=["plan"])
        for acct in (-1, 0, 2):
            customers.insert({"acct": acct, "state": "s%d" % (acct % 2)})
        for plan, rate in (("p", 1), ("q", 2)):
            plans.insert({"plan": plan, "rate": rate})
        self.env = SimpleNamespace(
            chronicles={name: self.db.chronicle(name) for name in CHRONICLES},
            relations={"customers": customers, "plans": plans},
        )

    def define(self, name, recipe):
        node = build(recipe, self.env)
        grouping = [n for n in node.schema.names if n in GROUPING]
        self.db.define_view(GroupBySummary(node, grouping, [spec(COUNT)]), name=name)

    def rows(self, name):
        return sorted(map(repr, (r.values for r in self.db.view(name))))


#: A seeded chain: one to three selections over one scan.
scans = st.tuples(st.just("scan"), st.sampled_from(CHRONICLES))
seeded_chains = st.recursive(
    st.tuples(st.just("select"), scans, _predicates()),
    lambda inner: st.tuples(st.just("select"), inner, _predicates()),
    max_leaves=3,
)
#: How a drawn chain is registered: alone, twice, under a key join, under
#: a projection, or beside an arbitrary flat tree over it.
placements = st.sampled_from(["alone", "twice", "keyjoin", "project", "union"])
catalogs = st.lists(st.tuples(seeded_chains, placements, flat_recipes), min_size=1, max_size=3)

values = st.sampled_from([None, -2, -1, 0, 1, 2])
records = st.fixed_dictionaries({"a": values, "b": values})
batches = st.lists(records, min_size=1, max_size=3)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.sampled_from(CHRONICLES), batches),
        st.tuples(st.just("simultaneous"), batches, batches),
        st.tuples(
            st.just("ingest"), st.sampled_from(CHRONICLES), st.lists(batches, min_size=1, max_size=3)
        ),
        st.tuples(st.just("redefine"), st.integers(min_value=0)),
    ),
    min_size=1,
    max_size=8,
)


def expand(catalog):
    """``(name, recipe)`` for every view a drawn catalog registers."""
    views = []
    for index, (chain, placement, other) in enumerate(catalog):
        views.append((f"s{index}", chain))
        if placement == "twice":
            views.append((f"t{index}", chain))
        elif placement == "keyjoin":
            views.append((f"j{index}", ("keyjoin", chain)))
        elif placement == "project":
            views.append((f"p{index}", ("project", chain, ("sn", "k", "a"))))
        elif placement == "union":
            views.append((f"u{index}", ("union", chain, other)))
    return views


def numbered(op, numbers):
    """*op* with every record given the next ``k``."""

    def batch(records):
        return [dict(record, k=next(numbers)) for record in records]

    if op[0] == "append":
        return op[0], op[1], batch(op[2])
    if op[0] == "simultaneous":
        return op[0], batch(op[1]), batch(op[2])
    return op[0], op[1], [batch(records) for records in op[2]]


def write(side, op):
    kind = op[0]
    if kind == "append":
        side.db.append(op[1], op[2])
    elif kind == "simultaneous":
        side.db.append_simultaneous({"c1": op[1], "c2": op[2]})
    else:
        side.db.ingest(op[1], op[2])


@settings(max_examples=300, deadline=None)
@given(catalogs, operations)
def test_seeded_equals_the_batch_oracle(catalog, ops):
    seeded = Side()
    views = expand(catalog)
    for name, recipe in views:
        seeded.define(name, recipe)
    assert any(r.seeded for r in seeded.db.registry._views.values())
    numbers = itertools.count()
    for op in ops:
        if op[0] == "redefine":  # drop → re-define, materialized from history
            name, recipe = views[op[1] % len(views)]
            seeded.db.drop_view(name)
            seeded.define(name, recipe)
            continue
        with GLOBAL_COUNTERS.measure() as cost:
            write(seeded, numbered(op, numbers))
        assert cost["chronicle_read"] == 0
    for name, _ in views:
        summary = seeded.db.view(name).summary
        oracle = sorted(map(repr, (r.values for r in evaluate_summary(summary))))
        assert seeded.rows(name) == oracle, name


# ---------------------------------------------------------------------------
# Key classes: one fold per class, against the batch oracle
# ---------------------------------------------------------------------------

#: Every view a class catalog can hold: a seeded chain (alone, under a key
#: join, under a projection, or beside a flat tree) grouped by ``k`` — one
#: class per chronicle set —, or by ``state`` or nothing, which fold alone.
class_views = st.tuples(
    st.one_of(
        seeded_chains,
        st.tuples(st.just("keyjoin"), seeded_chains),
        st.tuples(st.just("project"), seeded_chains, st.just(("sn", "k", "a"))),
        st.tuples(st.just("union"), seeded_chains, flat_recipes),
    ),
    st.sampled_from(["k", "k", "global", "state"]),
)
class_operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.sampled_from(CHRONICLES), batches),
        st.tuples(st.just("simultaneous"), batches, batches),
        st.tuples(
            st.just("ingest"),
            st.sampled_from(CHRONICLES),
            st.lists(batches, min_size=1, max_size=3),
        ),
        st.tuples(st.just("define"), class_views, st.booleans()),
        st.tuples(st.just("drop"), st.integers(min_value=0)),
        st.tuples(st.just("restore")),
    ),
    min_size=1,
    max_size=10,
)


class ClassWorld:
    """A database under test beside an oracle world fed the same writes.

    The oracle stores every record and holds no view; a view's expected
    rows are :func:`evaluate_summary` over the oracle's history from the
    first sequence number the view covers."""

    def __init__(self, config, tmp):
        self.config = config
        self.tmp = tmp
        self.db = Side(config).db
        self.oracle = Side()
        self.views = {}  # name -> (view recipe, first covered sequence number)
        self.floor = 0  # first sequence number the store under test holds
        self.numbers = itertools.count()
        self.restores = 0

    @staticmethod
    def summary(env, view):
        recipe, key = view
        node = build(recipe, env)
        if key == "global" or (key == "state" and "state" not in node.schema.names):
            grouping = []
        else:
            grouping = [key]
        return GroupBySummary(node, grouping, [spec(COUNT), spec(SUM, "k", output="total")])

    def define(self, name, view, materialize):
        db = self.db
        env = SimpleNamespace(
            chronicles={n: db.chronicle(n) for n in CHRONICLES},
            relations={n: db.relation(n) for n in ("customers", "plans")},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnpartitionableViewWarning)
            db.define_view(self.summary(env, view), name=name, materialize=materialize)

    def apply(self, op):
        kind = op[0]
        if kind == "define":
            name = f"v{len(self.views)}_{next(self.numbers)}"
            since = self.floor if op[2] else self.db.group().watermark + 1
            self.define(name, op[1], op[2])
            self.views[name] = (op[1], since)
        elif kind == "drop":
            if self.views:
                name = sorted(self.views)[op[1] % len(self.views)]
                self.db.drop_view(name)
                del self.views[name]
        elif kind == "restore":
            path = os.path.join(self.tmp, f"state{self.restores}.ckpt")
            self.restores += 1
            self.db.checkpoint(path)
            self.db.close()
            self.db = Side(self.config).db
            for name, (view, _) in self.views.items():
                self.define(name, view, materialize=False)
            self.db.restore(path)
            self.floor = self.db.group().watermark + 1
        else:
            op = numbered(op, self.numbers)
            with GLOBAL_COUNTERS.measure() as cost:
                write(SimpleNamespace(db=self.db), op)
            assert cost["chronicle_read"] == 0
            write(self.oracle, op)

    def check(self):
        for name, (view, since) in self.views.items():
            summary = self.summary(self.oracle.env, view)
            covered = summary.expression.select(Comparison("sn", ">=", since))
            expected = evaluate_summary(summary.over(covered))
            rows = sorted(map(repr, (r.values for r in self.db.view(name))))
            assert rows == sorted(map(repr, (r.values for r in expected))), name


@pytest.mark.parametrize(
    "config",
    [None, DatabaseConfig(engine="sharded", shards=2)],
    ids=["serial", "sharded-inline"],
)
@settings(max_examples=150, deadline=None)
@given(st.lists(class_views, min_size=2, max_size=5), class_operations)
def test_key_classes_equal_the_batch_oracle(tmp_path_factory, config, catalog, ops):
    """Views sharing a chronicle set and ``k`` fold as one class; every
    DDL interleaving — defining into a class mid-stream, materialized or
    not, dropping members down to the last, checkpoint → restore — keeps
    every view equal to the batch oracle, with no chronicle read."""
    world = ClassWorld(config, str(tmp_path_factory.mktemp("classes")))
    try:
        for view in catalog:
            world.apply(("define", view, False))
        for op in ops:
            world.apply(op)
            world.check()
    finally:
        world.db.close()


def test_a_key_class_folds_once_per_event():
    """Three views of one class and one of another key: one apply_delta
    call per class per event, one index probe per key per class, and the
    class's counts of rows, steps and lookups as per-view folds would
    count them."""
    db = calls_db()
    db.create_chronicle("fees", [("caller", "INT"), ("minutes", "INT")], retention=0)
    for name, where in (("all", ""), ("long", "WHERE minutes > 10"), ("one", "WHERE caller = 1")):
        db.define_view(
            f"DEFINE VIEW {name} AS SELECT caller, SUM(minutes) AS m, COUNT(*) AS n "
            f"FROM calls {where} GROUP BY caller"
        )
    db.define_view("DEFINE VIEW fees AS SELECT caller, COUNT(*) AS n FROM fees GROUP BY caller")
    registered = db.registry._views
    key_class = registered["all"].key_class
    assert key_class is not None and key_class is registered["long"].key_class
    assert [view.name for view in key_class.members] == ["all", "long", "one"]
    assert registered["fees"].key_class is None
    calls = []
    original = PersistentView.apply_delta

    def counted(self, delta):
        calls.append(self.name)
        return original(self, delta)

    PersistentView.apply_delta = counted
    try:
        with GLOBAL_COUNTERS.measure() as cost:
            db.append_simultaneous(
                {
                    "calls": [{"caller": 1, "minutes": 20}, {"caller": 2, "minutes": 30}],
                    "fees": [{"caller": 1, "minutes": 1}],
                }
            )
    finally:
        PersistentView.apply_delta = original
    assert calls == ["all", "fees"]
    # all: 2 rows, long: 2 rows, one: 1 row; 2 distinct keys in the class.
    assert cost["tuple_op"] == 5 + 1
    assert cost["aggregate_step"] == 2 * 5 + 1
    assert cost["index_lookup"] == 5 + 1
    assert cost["index_probe"] == 2 + 1
    assert cost["chronicle_read"] == 0
    assert [view.maintenance_count for view in key_class.members] == [1, 1, 1]
    assert db.view_value("one", (1,), "m") == 20 and db.view("one").lookup((2,)) is None


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_sharded_key_classes_absorb_touched_states(tmp_path, executor):
    """A shard unit's views fold as one class, in the parent or in a
    worker (whose touched states the parent absorbs); defining into the
    class, dropping members and checkpoint → restore agree with the
    serial engine."""

    def catalog(db, names):
        for name in names:
            where = {
                "all": "",
                "low": "WHERE minutes < 10",
                "k1": "WHERE kind = 1 AND minutes >= 5",
                "late": "WHERE minutes > 20",
            }[name]
            db.define_view(
                f"DEFINE VIEW {name} AS SELECT caller, SUM(minutes) AS m, COUNT(*) AS n "
                f"FROM calls {where} GROUP BY caller"
            )

    def fresh(config):
        db = ChronicleDatabase(config=config)
        db.create_chronicle("calls", [("caller", "INT"), ("kind", "INT"), ("minutes", "INT")])
        return db

    def window(start):
        return [
            [{"caller": (start + i) % 5, "kind": i % 3, "minutes": (7 * (start + i)) % 31}]
            for i in range(6)
        ]

    sharded_config = DatabaseConfig(engine="sharded", shards=2, executor=executor)
    serial, sharded = fresh(DatabaseConfig()), fresh(sharded_config)
    try:
        for db in (serial, sharded):
            catalog(db, ["all", "low", "k1"])
            db.ingest("calls", window(0))
            catalog(db, ["late"])  # into the class, materialized from the store
            db.ingest("calls", window(6))
            db.drop_view("low")
            db.ingest("calls", window(12))
        path = str(tmp_path / "state.ckpt")
        sharded.checkpoint(path)
        sharded.close()
        sharded = fresh(sharded_config)
        catalog(sharded, ["all", "k1", "late"])
        sharded.restore(path)
        for db in (serial, sharded):
            for name in ("all", "k1"):
                db.drop_view(name)  # down to the class's last member
            db.ingest("calls", window(18))
        rows = sorted(r.values for r in serial.view("late").rows())
        assert rows and sorted(r.values for r in sharded.view("late").rows()) == rows
    finally:
        serial.close()
        sharded.close()


# ---------------------------------------------------------------------------
# The threshold index: one bisect per row, the linear scan's hits
# ---------------------------------------------------------------------------

#: Range constants of every kind a comparison can hold, NaN included.
range_constants = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1.5, 0.0, 0.5, 2.5, float("nan"), True, False]),
)
range_atoms = st.tuples(
    st.sampled_from(["x", "f"]), st.sampled_from(["<", "<=", ">", ">="]), range_constants
)
#: One scan conjunction: an optional ``g = const`` atom and a range atom,
#: or two range atoms (no threshold: the residual is tested).
conjunctions = st.tuples(
    st.one_of(st.none(), st.integers(0, 2)),
    range_atoms,
    st.one_of(st.none(), range_atoms),
)
#: A view: one seeded chain, or the union of two chains (not seeded).
dispatch_views = st.one_of(
    st.tuples(st.just("seeded"), conjunctions),
    st.tuples(st.just("union"), conjunctions, conjunctions),
)
dispatch_rows = st.lists(
    st.fixed_dictionaries(
        {
            "g": st.integers(0, 2),
            "x": st.one_of(st.none(), st.integers(-4, 4)),
            "f": st.one_of(
                st.none(), st.sampled_from([-2.0, -1.5, 0.0, 0.5, 1.0, 3.0, float("nan")])
            ),
        }
    ),
    min_size=1,
    max_size=6,
)


def conjunction_node(chronicle, conjunction):
    equality, first, second = conjunction
    node = scan(chronicle)
    if equality is not None:
        node = node.select(Comparison("g", "=", equality))
    for atom in (first, second):
        if atom is not None:
            node = node.select(Comparison(*atom))
    return node


@settings(max_examples=300, deadline=None)
@given(st.lists(dispatch_views, min_size=1, max_size=8), dispatch_rows)
def test_threshold_hits_equal_the_linear_scan(views, records):
    """Routing by sorted thresholds finds what testing every filed
    conjunction against every row finds, rows in the same order, over
    int, float and bool constants, NULL row values and NaN on both
    sides; a NaN constant stays out of the sorted lists."""
    group = ChronicleGroup("g")
    chronicle = group.create_chronicle(
        "c",
        [
            Attribute("g", "INT"),
            Attribute("x", "INT", nullable=True),
            Attribute("f", "FLOAT", nullable=True),
        ],
        retention=0,
    )
    registry = ViewRegistry()
    conjunction_lists = []
    for index, view in enumerate(views):
        nodes = [conjunction_node(chronicle, c) for c in view[1:]]
        node = nodes[0] if len(nodes) == 1 else nodes[0].union(nodes[1])
        registry.register(PersistentView(f"v{index}", GroupBySummary(node, ["g"], [spec(COUNT)])))
        conjunction_lists.append((view[0] == "seeded", scan_prefilters(node)["c"]))
    rows = group.append(chronicle, records)
    dispatch = registry._by_chronicle["c"]
    hit = {}
    dispatch.route(rows, hit, set())
    expected = {}
    for rank, (seeded, conjunctions) in enumerate(conjunction_lists):
        accepted = [row for row in rows if any(c.evaluate(row) for c in conjunctions)]
        if accepted:
            expected[rank] = accepted if seeded else None
    assert hit == expected
    buckets = [dispatch.always, *(b for table in dispatch.tables.values() for b in table.values())]
    for bucket in buckets:
        for _, _, constants, _, _ in bucket.ranges:
            assert all(c == c for c in constants)
            assert constants == sorted(constants)
