"""One walk over the plan: what "no behaviour change" means, pinned.

Every structural job on a chronicle-algebra tree — rebuilding a node
over new operands, interning, portable specs, shard rebinding, EXPLAIN,
classification, partition inference — derives from one declaration per
operator (its spec ``tag`` and ``params``) and one table per consumer.
These tests pin what those jobs produce:

* a hypothesis property over random CA trees covering every CA operator
  (the relation operators included): a rebuild keeps schema and repr,
  specs round-trip, and two trees intern to one node exactly when they
  are structurally equal;
* goldens for the four benchmark catalogs and a catalog exercising
  union, difference, sequence join, key join, product, fused chains,
  sharing, HAVING and a non-portable aggregate: EXPLAIN text and dict,
  ``classify``, the partition decision, portability, the pickled
  ``summary_spec`` (the dict and the bytes by SHA-256) and the
  interners' sizes;
* ``view_spec`` catalog operations as the write-ahead log stores them,
  which decode and re-encode to the same bytes;
* the extension operators' refusals and every validator's verdict.

The goldens live in ``one_walk_golden.json`` beside this module.  To
re-capture them after a change that is *meant* to alter one of these
results, run ``PYTHONPATH=src python -m tests.test_one_walk >
tests/one_walk_golden.json`` from the repository root.
"""

import hashlib
import json
import pathlib
import pickle
import random
import sys
import tempfile
from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e import workloads
from repro import ChronicleDatabase, DatabaseConfig
from repro.aggregates import COUNT, MAX, SUM, spec
from repro.aggregates.base import IncrementalAggregate
from repro.algebra.ast import ChronicleProduct, NonEquiSeqJoin, scan
from repro.algebra.classify import classify
from repro.algebra.plan import (
    Interner,
    build_node,
    build_summary,
    infer_partition,
    is_portable,
    node_spec,
    summary_spec,
)
from repro.algebra.validate import validate_ca, validate_ca1, validate_ca_join
from repro.core.group import ChronicleGroup
from repro.errors import AlgebraError, EngineError, LanguageViolationError
from repro.parallel import rebind
from repro.relational.predicate import Not, Or, attr_cmp, attr_eq
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sca.summarize import GroupBySummary, ProjectSummary

GOLDEN = pathlib.Path(__file__).with_name("one_walk_golden.json")


# ---------------------------------------------------------------------------
# Random CA trees
# ---------------------------------------------------------------------------
#
# A tree is drawn as a *recipe* — nested tuples of plain values — and
# built into live nodes on demand, so the same recipe yields two
# independently constructed, structurally equal trees.


class Env:
    """One chronicle group (two same-typed chronicles) and two relations."""

    def __init__(self) -> None:
        group = ChronicleGroup("g")
        self.chronicles = {
            name: group.create_chronicle(name, [("a", "INT"), ("b", "INT")])
            for name in ("c1", "c2")
        }
        customers = Relation(
            "customers", Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"])
        )
        plans = Relation("plans", Schema.build(("plan", "STR"), ("rate", "INT"), key=["plan"]))
        self.relations = {"customers": customers, "plans": plans}


def _comparisons(attrs):
    return st.tuples(
        st.just("cmp"),
        st.sampled_from(attrs),
        st.sampled_from(["=", "<", ">", "!="]),
        st.integers(-2, 2),
    )


def _predicates(attrs=("a", "b")):
    cmp = _comparisons(list(attrs))
    return st.one_of(cmp, st.tuples(st.just("or"), st.lists(cmp, min_size=2, max_size=3).map(tuple)))


#: Trees over the base schema (a, b, sn): scans, selections, ∪ and −.
flat_recipes = st.recursive(
    st.tuples(st.just("scan"), st.sampled_from(["c1", "c2"])),
    lambda inner: st.one_of(
        st.tuples(st.just("select"), inner, _predicates()),
        st.tuples(st.just("union"), inner, inner),
        st.tuples(st.just("difference"), inner, inner),
    ),
    max_leaves=4,
)

#: Any CA tree: a flat tree, or one reshaping operator over flat trees,
#: optionally under a selection on ``a`` (which every shape keeps).
shaped_recipes = st.one_of(
    flat_recipes,
    st.tuples(
        st.just("project"),
        flat_recipes,
        st.sampled_from([("sn", "a"), ("a", "sn"), ("sn", "a", "b")]),
    ),
    st.tuples(st.just("seqjoin"), flat_recipes, flat_recipes),
    st.tuples(st.just("groupby_sn"), flat_recipes, st.sampled_from(["b", "a"])),
    st.tuples(st.just("product"), flat_recipes),
    st.tuples(st.just("keyjoin"), flat_recipes),
)
recipes = st.one_of(
    shaped_recipes,
    st.tuples(st.just("select"), shaped_recipes, _predicates(("a",))),
)


def build_predicate(recipe):
    if recipe[0] == "or":
        return Or(*(build_predicate(term) for term in recipe[1]))
    _, attr, op, rhs = recipe
    return attr_cmp(attr, op, rhs)


def build(recipe, env: Env):
    kind = recipe[0]
    if kind == "scan":
        return scan(env.chronicles[recipe[1]])
    child = build(recipe[1], env)
    if kind == "select":
        return child.select(build_predicate(recipe[2]))
    if kind == "union":
        return child.union(build(recipe[2], env))
    if kind == "difference":
        return child.minus(build(recipe[2], env))
    if kind == "seqjoin":
        return child.join(build(recipe[2], env))
    if kind == "project":
        return child.project(list(recipe[2]))
    if kind == "groupby_sn":
        return child.groupby_sn(["sn", "a"], [spec(SUM, recipe[2], "total")])
    if kind == "product":
        return child.product(env.relations["plans"])
    assert kind == "keyjoin"
    return child.keyjoin(env.relations["customers"], [("a", "acct")])


def subrecipes(recipe, into):
    """Every distinct subtree of *recipe* (predicates are not subtrees)."""
    into.add(recipe)
    if recipe[0] != "scan":
        subrecipes(recipe[1], into)
        if recipe[0] in ("union", "difference", "seqjoin"):
            subrecipes(recipe[2], into)
    return into


def uses_relation(recipe) -> bool:
    return any(sub[0] in ("product", "keyjoin") for sub in subrecipes(recipe, set()))


@settings(max_examples=150, deadline=None)
@given(recipes)
def test_rebuild_keeps_schema_and_repr(recipe):
    tree = build(recipe, Env())
    for node in tree.walk():
        if not node.children:
            continue
        rebuilt = node.with_children(node.children)
        assert type(rebuilt) is type(node)
        assert rebuilt.schema == node.schema
        assert repr(rebuilt) == repr(node)


@settings(max_examples=150, deadline=None)
@given(recipes)
def test_node_spec_round_trips(recipe):
    env = Env()
    tree = build(recipe, env)
    if uses_relation(recipe):
        # Relations are live, process-local objects: never encoded.
        with pytest.raises(AlgebraError):
            node_spec(tree)
        return
    encoded = node_spec(tree)
    rebuilt = build_node(encoded, env.chronicles)
    assert repr(rebuilt) == repr(tree)
    assert rebuilt.schema == tree.schema
    assert node_spec(rebuilt) == encoded
    # Specs carry plain data only: they survive a pickle round trip.
    assert repr(build_node(pickle.loads(pickle.dumps(encoded)), env.chronicles)) == repr(tree)


@settings(max_examples=150, deadline=None)
@given(recipes, recipes)
def test_interning_merges_exactly_the_equal_trees(first, second):
    env = Env()
    interner = Interner()
    canonical = interner.intern(build(first, env))
    assert interner.intern(build(first, env)) is canonical
    assert len(interner) == len(subrecipes(first, set()))
    other = interner.intern(build(second, env))
    assert (other is canonical) == (first == second)
    assert len(interner) == len(subrecipes(first, subrecipes(second, set())))


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------


class Opaque(IncrementalAggregate):
    """A user aggregate closed over a lambda: its view cannot be shipped."""

    name = "OPAQUE"

    def __init__(self) -> None:
        self.add = lambda state, value: state + value

    def initial(self):
        return 0

    def step(self, state, value):
        return self.add(state, value)

    def merge(self, left, right):
        return left + right

    def finalize(self, state):
        return state


def operators_catalog() -> ChronicleDatabase:
    """Union, difference, seq join, key join, product, fused chains, sharing."""
    db = ChronicleDatabase()
    columns = [("caller", "INT"), ("minutes", "INT"), ("kind", "STR")]
    calls = db.create_chronicle("calls", columns, retention=0)
    fees = db.create_chronicle("fees", columns, retention=0)
    customers = db.create_relation(
        "customers", [("acct", "INT"), ("state", "STR")], key=["acct"]
    )
    plans = db.create_relation("plans", [("plan", "STR"), ("rate", "INT")], key=["plan"])
    customers.insert({"acct": 1, "state": "NJ"})
    customers.insert({"acct": 2, "state": "NY"})
    plans.insert({"plan": "basic", "rate": 3})
    local = attr_eq("kind", "local")
    definitions = {
        "by_union": GroupBySummary(
            scan(calls).union(scan(fees)), ["caller"], [spec(SUM, "minutes")]
        ),
        "by_difference": GroupBySummary(
            scan(calls).minus(scan(fees)), ["caller"], [spec(COUNT)]
        ),
        "by_seqjoin": GroupBySummary(
            scan(calls).join(scan(fees).select(attr_cmp("minutes", ">", 1))),
            ["caller"],
            [spec(SUM, "r_minutes")],
        ),
        "by_state": GroupBySummary(
            scan(calls).keyjoin(customers, [("caller", "acct")]),
            ["state"],
            [spec(SUM, "minutes"), spec(COUNT)],
        ),
        "by_plan": GroupBySummary(
            scan(calls).product(plans), ["plan"], [spec(MAX, "rate")]
        ),
        "fused": ProjectSummary(
            scan(calls)
            .select(local)
            .project(["sn", "caller", "minutes"])
            .select(Or(attr_cmp("minutes", ">", 5), attr_eq("caller", 7))),
            ["caller"],
        ),
        "short_fees": GroupBySummary(
            scan(fees).select(attr_cmp("minutes", "<", 3)).project(["sn", "caller", "minutes"]),
            ["caller"],
            [spec(SUM, "minutes")],
        ),
        "shared_local": GroupBySummary(
            scan(calls).select(local), ["caller"], [spec(COUNT)]
        ),
        "per_event": GroupBySummary(
            scan(calls).groupby_sn(["sn", "caller"], [spec(SUM, "minutes", "event_minutes")]),
            ["caller"],
            [spec(MAX, "event_minutes")],
        ),
        "everything": GroupBySummary(scan(calls), [], [spec(COUNT)]),
        "opaque": GroupBySummary(scan(fees), ["caller"], [spec(Opaque(), "minutes")]),
    }
    for name, summary in definitions.items():
        db.define_view(summary, name=name)
    db.define_view(
        "DEFINE VIEW busy AS SELECT caller, COUNT(*) AS n FROM calls "
        "WHERE kind = 'local' OR minutes > 30 GROUP BY caller HAVING n > 2"
    )
    db.define_view(
        "DEFINE VIEW by_state_text AS SELECT state, SUM(minutes) AS minutes "
        "FROM calls JOIN customers ON calls.caller = customers.acct GROUP BY state"
    )
    return db


def _workload(name: str):
    return workloads.WORKLOADS[name]("smoke", random.Random(0))


def catalogs(directory: str) -> Dict[str, ChronicleDatabase]:
    """Every golden catalog, freshly built (callers close them)."""
    return {
        "atm_wide": _workload("atm_wide").build(directory),
        "wide_state": _workload("wide_state").build(directory),
        # The benchmark's catalog on the inline executor: the same plans,
        # without spawning worker processes.
        "bulk_process": workloads._banded_catalog(
            DatabaseConfig(engine="sharded", shards=2), workloads._no_lap
        ),
        "durable_join": _workload("durable_join").build(directory),
        "operators": operators_catalog(),
    }


def _registries(db: ChronicleDatabase) -> List[Any]:
    registries = [db.registry]
    for shard_group in db.shard_groups:
        registries.extend(unit.registry for unit in shard_group.units)
    return registries


def _digest(payload: Any) -> str:
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def _spec_bytes(summary) -> str:
    try:
        payload = summary_spec(summary)
    except AlgebraError as exc:
        return f"AlgebraError: {exc}"
    try:
        return _digest(pickle.dumps(payload))
    except Exception as exc:  # a user aggregate closed over a lambda
        return f"unpicklable: {type(exc).__name__}"


def capture_catalog(db: ChronicleDatabase) -> Dict[str, Any]:
    names = sorted(
        {view.name for view in db.registry.views()} | set(db.partitioned_views)
    )
    views = {}
    for name in names:
        summary = db.view(name).summary
        report = db.explain(name)
        result = classify(summary.expression)
        views[name] = {
            "explain": report.format(),
            # The text form is the readable one; the dict is pinned by digest.
            "explain_dict": _digest(json.dumps(report.to_dict(), sort_keys=True).encode()),
            "classify": [
                result.language.value,
                result.unions,
                result.joins,
                result.max_relation_size,
            ],
            "partition": repr(infer_partition(summary)),
            "portable": is_portable(summary),
            "summary_spec": _spec_bytes(summary),
        }
    return {
        "interned_nodes": [len(registry._compiler.interner) for registry in _registries(db)],
        "views": views,
    }


def view_spec_ops(db: ChronicleDatabase) -> Dict[str, str]:
    """The ``view_spec`` DDL the log would hold for each portable view."""
    ops = {}
    for view in db.registry.views():
        if is_portable(view.summary):
            op = ("view_spec", view.name, summary_spec(view.summary), True)
            ops[view.name] = pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL).hex()
    return ops


def validator_cases() -> Dict[str, Any]:
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
    fees = group.create_chronicle("fees", [("acct", "INT"), ("mins", "INT")])
    customers = Relation(
        "customers", Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"])
    )
    keyjoin = scan(calls).keyjoin(customers, [("acct", "acct")])
    negated = scan(calls).select(Not(attr_eq("acct", 1)))
    return {
        "ca1": scan(calls).union(scan(fees)).select(attr_eq("acct", 1)),
        "or_of_comparisons": scan(calls).select(Or(attr_eq("acct", 1), attr_eq("mins", 2))),
        "keyjoin": keyjoin,
        "product": scan(calls).product(customers),
        "keyjoin_then_product": keyjoin.product(customers),
        "product_then_keyjoin": scan(calls).product(customers).keyjoin(
            customers, [("acct", "acct")]
        ),
        "negated": negated,
        "negated_under_keyjoin": negated.keyjoin(customers, [("acct", "acct")]),
        "chronicle_product": ChronicleProduct(scan(calls), scan(fees)),
        "non_equi_join": NonEquiSeqJoin(scan(calls), scan(fees), "<"),
        "extension_over_product": ChronicleProduct(
            scan(calls).product(customers), scan(fees)
        ),
        "negated_over_extension": NonEquiSeqJoin(scan(calls), scan(fees), "<").select(
            Not(attr_eq("acct", 1))
        ),
    }


VALIDATORS = {"ca": validate_ca, "ca_join": validate_ca_join, "ca1": validate_ca1}


def validator_verdicts() -> Dict[str, Dict[str, Any]]:
    verdicts: Dict[str, Dict[str, Any]] = {}
    for label, node in validator_cases().items():
        verdicts[label] = {}
        for name, validate in VALIDATORS.items():
            try:
                validate(node)
            except LanguageViolationError as exc:
                verdicts[label][name] = str(exc)
            else:
                verdicts[label][name] = None
    return verdicts


def capture() -> Dict[str, Any]:
    with tempfile.TemporaryDirectory() as directory:
        built = catalogs(directory)
        try:
            return {
                "catalogs": {name: capture_catalog(db) for name, db in built.items()},
                "view_spec": view_spec_ops(built["operators"]),
                "validators": validator_verdicts(),
            }
        finally:
            for db in built.values():
                db.close()


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def captured() -> Dict[str, Any]:
    # JSON round trip: the golden file stores lists where tuples were.
    return json.loads(json.dumps(capture()))


@pytest.mark.parametrize(
    "catalog", ["atm_wide", "wide_state", "bulk_process", "durable_join", "operators"]
)
def test_catalog_matches_golden(golden, captured, catalog):
    expected = golden["catalogs"][catalog]
    actual = captured["catalogs"][catalog]
    assert actual["interned_nodes"] == expected["interned_nodes"]
    assert sorted(actual["views"]) == sorted(expected["views"])
    for name, entry in expected["views"].items():
        for field, value in entry.items():
            assert actual["views"][name][field] == value, (name, field)


def test_golden_operators_catalog_covers_every_ca_operator(golden):
    text = "\n".join(
        entry["explain"] for entry in golden["catalogs"]["operators"]["views"].values()
    )
    for kind in (
        "ChronicleScan", "Select", "Project", "Union", "Difference", "SeqJoin",
        "GroupBySeq", "RelProduct", "RelKeyJoin",
    ):
        assert kind in text
    assert "⨟" in text  # a fused select/project chain
    assert "[shared ×" in text


def test_logged_view_spec_ops_decode_and_reencode_identically(golden):
    db = operators_catalog()
    try:
        chronicles = {name: db.chronicle(name) for name in ("calls", "fees")}
        for name, blob in golden["view_spec"].items():
            encoded = bytes.fromhex(blob)
            kind, view, spec_, materialize = pickle.loads(encoded)
            assert (kind, view) == ("view_spec", name)
            summary = build_summary(spec_, chronicles)
            assert repr(summary) == repr(db.view(name).summary)
            op = (kind, view, summary_spec(summary), materialize)
            assert pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL) == encoded
    finally:
        db.close()


def test_validators_accept_and_reject_the_same_cases(golden):
    verdicts = validator_verdicts()
    for label, messages in verdicts.items():
        for name, message in messages.items():
            expected = golden["validators"][label][name]
            assert message == expected, (label, name)
    # With two offenders the message names the first one the walk meets.
    for message in verdicts["negated_over_extension"].values():
        assert message.startswith("selection predicate")


def test_extension_operators_have_no_spec_and_no_rebind():
    cases = validator_cases()
    for label in ("chronicle_product", "non_equi_join"):
        node = cases[label]
        with pytest.raises(AlgebraError):
            node_spec(node)
        mirrors = {c.name: c for c in node.chronicles()}
        with pytest.raises(EngineError):
            rebind(node, mirrors)


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, ensure_ascii=False, sort_keys=True)
    sys.stdout.write("\n")
