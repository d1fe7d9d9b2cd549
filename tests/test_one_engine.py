"""Guard: one maintenance path, one database class, one write path, one
snapshot path, one walk over the plan, one way to hook telemetry, one
admission step.

The literal Theorem 4.1 interpreter (:mod:`repro.algebra.reference`) is
an oracle for tests, benchmarks and the conformance profiler.  If any
other module under ``src/repro`` imports it, or the switch that used to
select it comes back under one of its old names, a second engine is
growing again — fail here, before it has users.  The same goes for a
second database class: the sharded engine is a stage the facade holds,
so nothing subclasses :class:`ChronicleDatabase`, the write methods are
written once, and the shard executors number two.  Persistence likewise:
:mod:`repro.storage.checkpoint` builds and loads every snapshot document
(base or delta), ``DurabilityManager.snapshot`` is the one writer of
snapshot rows, and the storage layer takes no switch from the
environment; the log assigns its own row ids (no AUTOINCREMENT table
in a new file).  And the plan: every operator declares its parameters and
spec tag once (``Node.param_names``/``Node.tag``), so rebuilding,
interning keys, portable specs and shard rebinding are each one generic
function, and per-operator rules are one ``{operator class: rule}``
table per consumer.  A ``with_children`` override, an operator class
named inside one of the generic functions, or a new ``isinstance`` test
against an operator class is a ladder growing back.  Telemetry, finally:
outside :mod:`repro.obs` code only opens spans, so no module there
writes a metric and none but the shell (which renders what it reads)
names a metric family, every span-derived
metric is one row of ``SPAN_RULES`` in ``obs/core.py``, the
observability knobs nobody set stay deleted, and each observation is
folded or stored once: ``CostLedger`` is the one fold of ``delta`` span
trees (EXPLAIN ANALYZE folds through it), the tracer's ring is the one
store of finished traces (the flight recorder reads it at dump time),
and the ledger keeps no load path.  Admission, last: each
chronicle admits through the step compiled when it is created (no
per-record ``_admit``, no ``check_values`` in the group or the
chronicle), an event is deduplicated once, by the group, and none of it
grew a switch.  And no surface without a reader: the metrics-history
stack (its sampler thread, ``/timeline``, ``/dashboard``, ``SHOW
TIMELINE``, ``HistoryConfig``) and the ``/snapshot`` route stay deleted,
so the exporter serves four routes and observing starts no thread.
Maintenance, finally: the view registry is the one maintainer — views,
periodic view sets and a single view wired by ``attach_view`` alike — so
``sca/maintenance.py``, ``PersistentView.apply_event`` and a periodic
set's own group listener stay deleted; a registry event enters the
no-access guard once, whatever the number of views and sets it
maintains, and each view folds through the step compiled when it is
built (no ``_fold_groups`` or ``_fold_projection`` interpreted per
event).  And one measurement
driver: every conformance sweep point and EXPLAIN ANALYZE window runs
through :func:`repro.obs.conformance.drive`, and the second sweep
harness (``complexity.harness.Sweep`` and friends) stays deleted.  And
one commit point: a batch reaches the log only from the facade's
``DurabilityManager.batch_committed``, after maintenance, and
``"wal+snapshot"`` is the one durable mode.
"""

import ast
import dataclasses
import importlib.util
import inspect
import json
import pathlib
import threading

import pytest

import repro
from repro.algebra.ast import Node
from repro.core.chronicle import in_maintenance
from repro.core.config import EXECUTORS, DatabaseConfig, DurabilityConfig
from repro.core.database import ChronicleDatabase
from repro.errors import ConfigError
from repro.obs import explain
from repro.obs.auditor import Auditor
from repro.obs.core import INCIDENT_COUNTERS, SPAN_RULES, Observability
from repro.obs.costmodel import CostLedger
from repro.obs.exporters import ROUTES
from repro.obs.recorder import FlightRecorder
from repro.sca.view import PersistentView
from repro.views.calendar import PeriodicCalendar
from repro.views.periodic import PeriodicViewSet
from repro.views.registry import ViewRegistry, attach_view

SRC = pathlib.Path(repro.__file__).resolve().parent
REFERENCE = "repro.algebra.reference"
#: The one module allowed to import the reference rules: it measures what
#: the Theorem 4.3 extension operators would cost (certify_expression).
ALLOWED = {SRC / "obs" / "conformance.py"}
FORBIDDEN_NAMES = (
    "compile_views",
    "compile_plans",
    "attach_compiled_view",
    "ShardedDatabase",
    "ParallelMaintainer",
    "ThreadShardBackend",
    "ThreadPoolExecutor",
)
WRITE_METHODS = ("append", "append_simultaneous", "ingest")


def imported_modules(path):
    """Absolute dotted names of every module *path* imports."""
    package = ("repro",) + path.relative_to(SRC).parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            if node.module:
                base.append(node.module)
            module = ".".join(base)
            yield module
            for alias in node.names:  # from .algebra import reference
                yield f"{module}.{alias.name}"


def test_reference_rules_are_imported_only_by_the_conformance_profiler():
    sources = sorted(SRC.rglob("*.py"))
    assert SRC / "algebra" / "reference.py" in sources
    offenders = [
        str(path.relative_to(SRC))
        for path in sources
        if path not in ALLOWED and REFERENCE in set(imported_modules(path))
    ]
    assert offenders == []
    # The walk does resolve relative imports: the allowed module is seen.
    assert all(REFERENCE in set(imported_modules(path)) for path in ALLOWED)


def test_the_engine_switch_does_not_reappear():
    offenders = [
        (str(path.relative_to(SRC)), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in FORBIDDEN_NAMES
        if name in path.read_text()
    ]
    assert offenders == []


def test_constructor_surfaces():
    def parameters(function):
        return [name for name in inspect.signature(function).parameters if name != "self"]

    assert parameters(ViewRegistry.__init__) == []
    assert parameters(ChronicleDatabase.__init__) == ["config", "observability"]
    assert parameters(attach_view) == ["view", "group"]
    assert parameters(PeriodicViewSet.maintain) == ["deltas"]


def _classes():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                yield path, node


def test_one_database_class_and_no_dispatch_in_new():
    subclasses = [
        (str(path.relative_to(SRC)), node.name)
        for path, node in _classes()
        if any("ChronicleDatabase" in ast.unparse(base) for base in node.bases)
    ]
    assert subclasses == []
    assert "__new__" not in ChronicleDatabase.__dict__
    sharded = ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=1))
    assert type(sharded) is ChronicleDatabase


def test_write_methods_are_written_once():
    """Outside ``ChronicleGroup`` (admission), each write method has one body."""
    owners = {name: [] for name in WRITE_METHODS}
    for path, node in _classes():
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name in owners:
                owners[item.name].append(node.name)
    for name in WRITE_METHODS:
        assert [o for o in owners[name] if o != "ChronicleGroup"] == ["ChronicleDatabase"], name


def test_no_new_knob():
    assert EXECUTORS == ("serial", "process")
    assert len(dataclasses.fields(DatabaseConfig)) == 8
    assert len(dataclasses.fields(DurabilityConfig)) == 4


STORAGE = SRC / "storage"
CHECKPOINT = STORAGE / "checkpoint.py"
DURABILITY = STORAGE / "durability.py"
#: The hooks through which state enters or leaves a snapshot document.
STATE_HOOKS = {
    "state_export", "export_state", "state_import", "import_state", "restore_rows",
    "take_touched", "take_dirty", "record_touched", "record_dirty",
    "encode_value", "decode_value", "dumps", "loads",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _called(node):
    """Names of the functions and methods called anywhere under *node*."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Attribute):
                yield func.attr
            elif isinstance(func, ast.Name):
                yield func.id


def test_storage_reads_no_environment():
    offenders = [
        (str(path.relative_to(SRC)), node.lineno)
        for path in sorted(STORAGE.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
    ]
    assert offenders == []


def test_checkpoint_module_is_the_one_document_codec():
    # Documents are dicts tagged with a "format": only the checkpoint
    # module builds them, and only it applies them to a database.
    builders = {
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value == "format" for k in node.keys)
    }
    assert builders == {"storage/checkpoint.py"}
    loaders = {
        str(path.relative_to(SRC))
        for path in sorted(STORAGE.rglob("*.py"))
        if {"restore_rows", "import_state", "state_import"} & set(_called(_tree(path)))
    }
    assert loaders == {"storage/checkpoint.py"}
    # The durability manager decides what to write and when; it never
    # encodes state itself.
    imported = set(imported_modules(DURABILITY))
    assert not imported & {"json", "pickle", "marshal", "repro.storage.codec"}
    assert not STATE_HOOKS & set(_called(_tree(DURABILITY)))


def test_one_snapshot_builder():
    """One function builds every snapshot document, base or delta, and
    the sharded engine's merged handle saves and loads state through the
    methods (and signatures) every persistent view has."""
    from repro.parallel.engine import MergedView

    def builds_a_document(function):
        return any(
            isinstance(node, ast.Dict)
            and any(isinstance(k, ast.Constant) and k.value == "format" for k in node.keys)
            for node in ast.walk(function)
        )

    builders = [
        node.name
        for node in ast.walk(_tree(CHECKPOINT))
        if isinstance(node, ast.FunctionDef) and builds_a_document(node)
    ]
    assert builders == ["_document"]
    assert not hasattr(MergedView, "export_state")
    assert not hasattr(MergedView, "import_state")
    for name in ("state_export", "state_import"):
        merged = inspect.signature(getattr(MergedView, name)).parameters
        persistent = inspect.signature(getattr(PersistentView, name)).parameters
        assert list(merged.values()) == list(persistent.values()), name


def _functions(path):
    """``(owner, function)`` for each module- and class-level function."""
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef):
            yield path.stem, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item


def test_the_log_assigns_its_own_ids(tmp_path):
    """A new file's ``log`` table has no AUTOINCREMENT, whose counter row
    was a second page per commit (no setting came with the change:
    ``test_no_new_knob``)."""
    import sqlite3

    from repro.storage.wal import ChronicleWal, wal_path

    ChronicleWal(str(tmp_path), fsync="off").close()
    conn = sqlite3.connect(wal_path(str(tmp_path)))
    try:
        (ddl,) = conn.execute("SELECT sql FROM sqlite_master WHERE name = 'log'").fetchone()
    finally:
        conn.close()
    assert "id INTEGER PRIMARY KEY," in ddl and "AUTOINCREMENT" not in ddl


def test_only_the_snapshot_method_writes_snapshots():
    writers = [
        (owner, function.name)
        for path in sorted(SRC.rglob("*.py"))
        for owner, function in _functions(path)
        if "write_snapshot" in set(_called(function))
    ]
    assert writers == [("DurabilityManager", "snapshot")]


# -- one walk over the plan ------------------------------------------------------

ALGEBRA = SRC / "algebra"
OPERATORS = {cls.__name__ for cls in Node.__subclasses__()}
#: The functions derived from the operators' declarations alone.
GENERIC = {
    "algebra/plan.py": {"_key", "node_spec", "build_node", "summary_spec", "build_summary"},
    "parallel/engine.py": {"rebind"},
}
#: Every operator-class ``isinstance`` test left under ``src/repro``, by
#: (module, enclosing function), and why it is not a table row.
ISINSTANCE_SITES = [
    # A fused chain *is* a run of select/project nodes.
    ("algebra/plan.py", "fused_chain"),
    # Within a fused chain a selection adds a test, a projection permutes.
    ("algebra/plan.py", "_compile_pipeline"),
    # Prefilters are the selections directly above a chronicle scan: the
    # descent stops at the first node that is neither.
    ("views/registry.py", "descend"),
    ("views/registry.py", "descend"),
]


def _operator_names(tree):
    """Local names bound to operator classes in a module (aliases included)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("ast"):
            names |= {alias.asname or alias.name for alias in node.names if alias.name in OPERATORS}
    return names | OPERATORS


def _enclosed(tree):
    """``(innermost enclosing function name, node)`` for every node of a module."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            yield owner, child
            yield from visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    yield from visit(tree, None)


def test_no_operator_overrides_the_generic_rebuild():
    overrides = [
        (str(path.relative_to(SRC)), node.name)
        for path in sorted(ALGEBRA.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(i, ast.FunctionDef) and i.name == "with_children" for i in node.body)
    ]
    assert overrides == [("algebra/ast.py", "Node")]


def test_generic_functions_name_no_operator_class():
    for relative, wanted in GENERIC.items():
        tree = _tree(SRC / relative)
        operators = _operator_names(tree)
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in wanted:
                found.add(node.name)
                named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                assert not named & operators, (relative, node.name, named & operators)
        assert found == wanted, relative


def test_operator_isinstance_tests_stay_counted():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = _tree(path)
        operators = _operator_names(tree)
        for owner, node in _enclosed(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)} & operators
            ):
                sites.append((str(path.relative_to(SRC)), owner))
    remaining = list(ISINSTANCE_SITES)
    for site in sites:
        assert site in remaining, f"new operator-class isinstance test in {site}"
        remaining.remove(site)


# -- one way to hook telemetry ---------------------------------------------------

OBS = SRC / "obs"
GOLDEN = pathlib.Path(__file__).with_name("one_hook_golden.json")


def _metric_families():
    """Every metric family the telemetry golden runs produce."""
    golden = json.loads(GOLDEN.read_text())
    runs = [run for name, run in golden.items() if name != "durable"]
    runs += list(golden["durable"].values())
    return {family for run in runs for family in run["metrics"]} | set(INCIDENT_COUNTERS.values())


#: The metrics registry's write methods.
REGISTRY_WRITES = {"inc", "set", "observe", "counter", "gauge", "histogram", "reset"}


def _is_registry(node):
    """``<x>.metrics``, ``<x>._metrics`` or a local named ``metrics``."""
    return (isinstance(node, ast.Attribute) and node.attr in ("metrics", "_metrics")) or (
        isinstance(node, ast.Name) and node.id == "metrics"
    )


def test_only_obs_writes_metrics():
    """No metric write and no private registry access outside obs/."""
    offenders = [
        (str(path.relative_to(SRC)), node.lineno)
        for path in sorted(SRC.rglob("*.py"))
        if OBS not in path.parents
        for node in ast.walk(_tree(path))
        if (
            isinstance(node, ast.Attribute)
            and node.attr in REGISTRY_WRITES
            and _is_registry(node.value)
        )
        or (isinstance(node, ast.Attribute) and node.attr == "_metrics")
    ]
    assert offenders == []


def test_only_obs_names_metric_families():
    """The write path never names a metric.  The shell is the one reader
    outside obs/ that does: it renders SHOW output from the registry."""
    families = _metric_families()
    assert "view_maintained_total" in families and "chronicle_stored_rows" in families
    offenders = [
        (str(path.relative_to(SRC)), node.lineno, node.value)
        for path in sorted(SRC.rglob("*.py"))
        if OBS not in path.parents and path != SRC / "cli.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and node.value in families
    ]
    assert offenders == []


def test_span_rules_are_one_table():
    # The bridge looks the rule up; no comparison names a span anywhere
    # in the module (the if/elif ladder it replaced did).
    core = _tree(OBS / "core.py")
    compared = {
        node.value
        for compare in ast.walk(core)
        if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, ast.Constant)
    }
    assert not compared & set(SPAN_RULES)


# -- admit once -------------------------------------------------------------------

CORE = SRC / "core"
#: Modules on the admission and event-delta path.
ADMISSION_PATH = (
    CORE / "chronicle.py",
    CORE / "group.py",
    CORE / "delta.py",
    SRC / "views" / "registry.py",
    ALGEBRA / "plan.py",
)


def _function(path, owner, name):
    found = [f for o, f in _functions(path) if (o, f.name) == (owner, name)]
    assert len(found) == 1, (path, owner, name)
    return found[0]


def _constructs_delta(node):
    """Whether *node* calls ``Delta(...)``, the deduplicating constructor."""
    return any(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "Delta"
        for call in ast.walk(node)
    )


def test_admission_is_one_compiled_step():
    """Each chronicle admits through the closure compiled when it is
    created; the interpretive per-record paths stay deleted."""
    chronicle = [node for path, node in _classes() if node.name == "Chronicle"]
    assert len(chronicle) == 1
    methods = {item.name for item in chronicle[0].body if isinstance(item, ast.FunctionDef)}
    assert not methods & {"_admit", "_admit_batch", "_reject_unknown"}
    for path in (CORE / "chronicle.py", CORE / "group.py"):
        assert "check_values" not in set(_called(_tree(path))), path
    assert "admit" in set(_called(_function(CORE / "group.py", "ChronicleGroup", "_append_impl")))


def test_an_event_is_deduplicated_once():
    """The group deduplicates an admitted batch; event deltas, coalesced
    windows and replayed batches are built without a second pass."""
    append = _function(CORE / "group.py", "ChronicleGroup", "_append_impl")
    assert list(_called(append)).count("fromkeys") == 1
    for name in ("ingest_stamped", "_ingest_stamped_impl"):
        function = _function(CORE / "group.py", "ChronicleGroup", name)
        assert not {"fromkeys", "set"} & set(_called(function)), name
        assert not _constructs_delta(function), name
    event_deltas = _function(SRC / "views" / "registry.py", "registry", "event_deltas")
    assert "unchecked" in set(_called(event_deltas))
    assert not _constructs_delta(event_deltas)


def test_admission_adds_no_knob():
    def parameters(function):
        return [name for name in inspect.signature(function).parameters if name != "self"]

    from repro.core.chronicle import Chronicle
    from repro.core.group import ChronicleGroup

    assert parameters(Chronicle.__init__) == ["name", "schema", "retention"]
    assert parameters(ChronicleGroup.__init__) == ["name", "chronons", "start"]
    assert len(dataclasses.fields(DatabaseConfig)) == 8
    offenders = [
        (str(path.relative_to(SRC)), node.lineno)
        for path in ADMISSION_PATH
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
    ]
    assert offenders == []


def test_observability_knobs_stay_deleted():
    parameters = list(inspect.signature(Observability.__init__).parameters)[1:]
    assert parameters == ["trace_operators", "audit", "ring", "slo", "incident_dir"]
    assert not hasattr(Observability(), "trace")
    assert not hasattr(ViewRegistry(), "_per_view")


def test_one_fold_per_observation():
    def parameters(cls):
        return list(inspect.signature(cls.__init__).parameters)[1:]

    assert parameters(CostLedger) == []
    assert parameters(FlightRecorder) == ["directory", "cooldown_seconds"]
    assert parameters(Auditor) == ["mode", "metrics"]
    assert len(dataclasses.fields(DatabaseConfig)) == 8
    assert not hasattr(explain, "OperatorMeasurement")
    for name in ("record_span", "note", "events"):
        assert not hasattr(FlightRecorder, name), name
    for name in ("from_dict", "from_json", "to_json", "save", "load", "SCHEMA"):
        assert not hasattr(CostLedger, name), name
    on_span_end = _function(OBS / "core.py", "Observability", "on_span_end")
    assert "summarize_span" not in set(_called(on_span_end))
    # Only the ledger walks delta spans: nothing else in obs/ compares a
    # span name with "delta" or finds "delta" spans.
    walkers = {
        str(path.relative_to(SRC))
        for path in sorted(OBS.glob("*.py"))
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Compare) or (isinstance(node, ast.Call) and "find" in _called(node)))
        and any(isinstance(c, ast.Constant) and c.value == "delta" for c in ast.walk(node))
    }
    assert walkers == {"obs/costmodel.py"}


# -- no surface without a reader ---------------------------------------------------


def test_the_metrics_history_stays_deleted():
    assert importlib.util.find_spec("repro.obs.history") is None
    assert len(dataclasses.fields(DatabaseConfig)) == 8
    assert set(ROUTES) == {"/metrics", "/certificates", "/costs", "/health"}
    for owner in (ChronicleDatabase, Observability):
        for name in ("start_history", "stop_history"):
            assert not hasattr(owner, name), (owner.__name__, name)


@pytest.mark.parametrize("engine", ["serial", "sharded"])
def test_observing_starts_no_thread(engine):
    before = {thread.name for thread in threading.enumerate()}
    db = ChronicleDatabase(config=DatabaseConfig(engine=engine, observe=True))
    try:
        assert {thread.name for thread in threading.enumerate()} == before
    finally:
        db.close()
        db.disable_observability()


# -- maintain once --------------------------------------------------------------------


def _counting(monkeypatch, owner, name):
    """Patch *owner.name* to count its calls; returns the count list."""
    calls = []
    original = getattr(owner, name)

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_the_interpreted_fold_stays_deleted():
    for name in ("_fold_groups", "_fold_projection"):
        assert not hasattr(PersistentView, name), name
    view_source = (SRC / "sca" / "view.py").read_text()
    assert "_fold_groups" not in view_source and "_fold_projection" not in view_source


def _define_periodic_sets(db):
    """Two periodic sets over ``calls``; no record here passes the second's
    ``WHERE``, so the prefilter skips it on every event."""
    for name, where in (("monthly", ""), ("huge", "WHERE minutes > 1000 ")):
        db.define_view(
            f"DEFINE PERIODIC VIEW {name} OVER EVERY 30 AS "
            f"SELECT caller, SUM(minutes) AS t FROM calls {where}GROUP BY caller"
        )


@pytest.mark.parametrize("observe", [False, True], ids=["off", "observed"])
@pytest.mark.parametrize(
    "survivors, periodic",
    [(1, False), (6, False), (41, False), (1, True)],
    ids=["1", "6", "41", "1+periodic"],
)
def test_one_guard_extent_per_registry_event(monkeypatch, survivors, periodic, observe):
    from repro.core.chronicle import maintenance_guard

    db = ChronicleDatabase(config=DatabaseConfig(observe=observe))
    try:
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
        for index in range(survivors):
            aggregate = ("SUM(minutes)", "COUNT(*)", "MAX(minutes)")[index % 3]
            db.define_view(
                f"DEFINE VIEW v{index} AS SELECT caller, {aggregate} AS out "
                f"FROM calls WHERE minutes > {index} GROUP BY caller"
            )
        if periodic:
            _define_periodic_sets(db)
        entries = _counting(monkeypatch, maintenance_guard, "__enter__")
        for event in range(5):
            records = [{"caller": event % 2, "minutes": 100 + event}, {"caller": 7, "minutes": 50}]
            db.append("calls", records)
            assert len(entries) == event + 1
        assert db.registry.stats["maintained_views"] == 5 * (survivors + periodic)
    finally:
        db.close()
        db.disable_observability()


def test_periodic_maintenance_is_audited_and_prefiltered():
    db = ChronicleDatabase()
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
    db.define_view(
        "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS t FROM calls GROUP BY caller"
    )
    _define_periodic_sets(db)
    with db.enable_observability(audit="raise"):
        obs = db.observability
        for event in range(25):
            db.append("calls", {"caller": event % 3, "minutes": event + 1})
        assert obs.auditor.checked_spans == 2 * 25  # usage and monthly
        assert obs.auditor.summary()["violations"] == 0
        monthly = [
            span for trace in obs.tracer.traces() for span in trace.find("maintain")
            if span.attrs["view"] == "monthly"
        ]
        assert len(monthly) == 25
    stats = db.registry.stats
    assert stats["candidate_views"] == 3 * 25
    assert stats["prefilter_hits"] == 25  # huge, every event
    assert db.periodic_view("monthly").view(0).value((0,), "t") == sum(range(1, 26, 3))
    # The skipped set still places rows: interval 0 opened, empty.
    assert db.periodic_view("huge").active_indices() == [0]
    assert list(db.periodic_view("huge").view(0).rows()) == []
    db.close()


def test_on_expire_runs_outside_the_maintenance_extent():
    """Expiry follows the event's extent, so a callback may read the
    chronicle (here: the detail window of the expired interval)."""
    db = ChronicleDatabase()
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")])
    statements = {}

    def bill(index, view):
        assert not in_maintenance()
        statements[index] = (view.value((1,), "t"), len(db.detail_window("calls")))

    db.define_periodic_view(
        "monthly",
        "DEFINE VIEW monthly AS SELECT caller, SUM(minutes) AS t FROM calls GROUP BY caller",
        PeriodicCalendar(0, 30),
        chronon_of=lambda row: float(row["day"]),
        expire_after=0.0,
        on_expire=bill,
    )
    db.append("calls", {"caller": 1, "minutes": 5, "day": 3})
    db.append("calls", {"caller": 1, "minutes": 7, "day": 10})
    assert statements == {}
    db.append("calls", {"caller": 1, "minutes": 9, "day": 31})  # interval 0 ends
    assert statements == {0: (12, 3)}
    db.close()


def test_skipped_periodic_set_still_expires():
    """Rows failing a set's WHERE still move its clock, so expiry (and
    ``on_expire``) does not depend on the prefilter."""
    db = ChronicleDatabase()
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT"), ("day", "INT")])
    expired = []
    db.define_periodic_view(
        "big",
        "DEFINE VIEW big AS SELECT caller, SUM(minutes) AS t FROM calls "
        "WHERE minutes > 100 GROUP BY caller",
        PeriodicCalendar(0, 30),
        chronon_of=lambda row: float(row["day"]),
        expire_after=0.0,
        on_expire=lambda index, view: expired.append((index, view.value((1,), "t"))),
    )
    db.append("calls", {"caller": 1, "minutes": 200, "day": 3})
    db.append("calls", {"caller": 1, "minutes": 5, "day": 10})
    assert expired == []
    db.append("calls", {"caller": 1, "minutes": 5, "day": 31})  # interval 0 ends
    assert expired == [(0, 200)]
    assert db.periodic_view("big").active_indices() == [1]
    assert db.registry.stats["prefilter_hits"] == 2
    db.close()


def test_the_prefilter_switch_stays_deleted():
    """Every registry routes through the dispatch index: no switch turns
    routing off, in the config or in any registry the source builds."""
    assert "prefilter_views" not in {f.name for f in dataclasses.fields(DatabaseConfig)}
    with pytest.raises(TypeError, match="prefilter_views"):
        DatabaseConfig(prefilter_views=False)
    with pytest.raises(ConfigError, match="prefilter_views"):
        DatabaseConfig().replace(prefilter_views=False)
    assert "prefilter" not in inspect.signature(ViewRegistry).parameters
    offenders = [
        (str(path.relative_to(SRC)), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in ("prefilter=", "prefilter_views")
        if name in path.read_text()
    ]
    assert offenders == []


def test_defining_a_sharded_view_is_not_maintenance():
    """Replaying stored history into a new view's partitions is untraced."""
    db = ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=2))
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
    db.append("calls", [{"caller": c, "minutes": 10 + c} for c in range(6)])
    with db.enable_observability():
        obs = db.observability
        db.define_view(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS t FROM calls GROUP BY caller"
        )
        assert [s for trace in obs.tracer.traces() for s in trace.find("maintain")] == []
        assert db.view_value("usage", (5,), "t") == 15
        db.append("calls", {"caller": 5, "minutes": 1})
        assert len([s for trace in obs.tracer.traces() for s in trace.find("maintain")]) == 1
    db.close()


def test_one_maintainer():
    assert importlib.util.find_spec("repro.sca.maintenance") is None
    assert not hasattr(PersistentView, "apply_event")
    for name in ("attach", "detach", "_listener", "route_event"):
        assert not hasattr(PeriodicViewSet, name), name
    subscribers = sorted(
        (str(path.relative_to(SRC)), owner, function.name)
        for path in sorted(SRC.rglob("*.py"))
        for owner, function in _functions(path)
        if "subscribe" in set(_called(function))
    )
    assert subscribers == [
        ("baselines/recompute.py", "RecomputeMaintainer", "attach"),
        ("baselines/trigger.py", "TriggerStyleUpdater", "attach"),
        ("core/database.py", "ChronicleDatabase", "create_group"),
        ("parallel/engine.py", "ShardUnit", "__init__"),
        ("parallel/worker.py", "UnitReplica", "__init__"),
        ("views/registry.py", "ViewRegistry", "attach"),
    ]


def test_the_fold_is_compiled_once_per_view(monkeypatch):
    compiled = _counting(monkeypatch, PersistentView, "_compile_fold")
    db = ChronicleDatabase()
    db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
    db.define_view(
        "DEFINE VIEW total AS SELECT caller, SUM(minutes) AS t FROM calls GROUP BY caller"
    )
    db.define_view("DEFINE VIEW seen AS SELECT caller FROM calls")
    assert len(compiled) == 2
    for event in range(20):
        db.append("calls", {"caller": event % 3, "minutes": event})
    assert len(compiled) == 2
    assert db.view_value("total", (1,), "t") == sum(range(1, 20, 3))
    assert len(db.view("seen")) == 3


# -- one measurement driver -----------------------------------------------------------


def test_the_second_sweep_harness_stays_deleted():
    from repro import complexity
    from repro.complexity import fitting, harness
    from repro.obs.conformance import ConformanceProfiler

    for name in ("Sweep", "measure", "Measurement", "report"):
        assert not hasattr(harness, name), name
        assert not hasattr(complexity, name), name
    for name in ("growth_ratio", "mad"):
        assert not hasattr(fitting, name), name
        assert not hasattr(complexity, name), name
    assert not hasattr(fitting.Fit, "predict")
    for name in ("_sweep_chronicle", "_sweep_relations", "_sweep_batch", "_measure"):
        assert not hasattr(ConformanceProfiler, name), name


def test_every_measurement_goes_through_the_one_drive_loop(monkeypatch):
    from repro.obs import conformance

    windows = []
    drive = conformance.drive

    def spy(db, obs, chronicle, view, records, batch, appends):
        windows.append((view, batch, appends))
        return drive(db, obs, chronicle, view, records, batch, appends)

    monkeypatch.setattr(conformance, "drive", spy)
    db = ChronicleDatabase()
    db.create_chronicle("flights", [("acct", "INT"), ("miles", "INT")])
    db.create_relation("customers", [("acct", "INT"), ("state", "STR")], key=["acct"])
    db.define_view(
        "DEFINE VIEW by_state AS SELECT state, SUM(miles) AS total "
        "FROM flights JOIN customers ON flights.acct = customers.acct GROUP BY state"
    )
    cert = db.certify_view(
        "by_state", samples=2, c_sizes=(8, 16, 32), r_sizes=(8, 16, 32), u_sizes=(1, 2, 4)
    )
    # One window per sweep point: |C| and |R| at batch 1, then u = 1, 2, 4.
    assert [s.parameter for s in cert.sweeps] == ["|C|", "|R|", "|R|", "u"]
    assert windows == [("by_state", 1, 2)] * 6 + [("by_state", u, 2) for u in (1, 2, 4)]
    windows.clear()
    report = db.explain("by_state", analyze=True, events=3, batch=2)
    assert windows == [("by_state", 2, 3)]
    assert report.maintain.calls == 3


# -- one wire protocol to the shard workers ------------------------------------------

#: Names of the deleted telemetry relay and of every surface only it fed.
RELAY_NAMES = (
    "relay",
    "graft",
    "ipc_",
    "worker_rss",
    "worker_cpu",
    "WindowTelemetry",
    "span_records",
    "to_deltas",
    "merge_deltas",
    "max_ipc_overhead_fraction",
    "WORKERS",
    "remote_spans",
    "worker_spans",
)


def test_the_telemetry_relay_stays_deleted():
    from repro.cli import CliError, Session
    from repro.obs import tracer
    from repro.obs.health import SloPolicy
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import engine, worker

    found = [
        (str(path.relative_to(SRC)), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in RELAY_NAMES
        if name in path.read_text()
    ]
    assert found == []
    for name in ("WindowTelemetry", "worker_apply_relay", "RELAY_MAX_SPANS", "RELAY_MAX_SERIES"):
        assert not hasattr(worker, name), name
    for name in ("drain_relay", "land_relay"):
        assert not hasattr(Observability, name), name
    assert not hasattr(tracer, "span_records")
    assert not hasattr(tracer.Tracer, "graft")
    for name in ("to_deltas", "merge_deltas"):
        assert not hasattr(MetricsRegistry, name), name
    assert [f.name for f in dataclasses.fields(SloPolicy)] == [
        "max_maintain_p99_seconds",
        "max_auditor_violations",
        "max_engine_errors",
    ]
    assert "remote_spans" not in engine.ShardUnit.__slots__
    # Six positional parameters, read by position by the benchmark's tracer.
    assert list(inspect.signature(engine.ShardUnit.absorb).parameters) == [
        "self",
        "per_view_items",
        "watermark",
        "window",
        "records",
        "worker_seconds",
        "stats",
    ]
    with pytest.raises(CliError, match="unknown target 'WORKERS'"):
        Session().execute("SHOW WORKERS")


# -- shards are maintained before the write returns ----------------------------------

#: Names of the freshness bookkeeping that synchronous dispatch made
#: constant: lag gauges, queue depth, their SLO checks and the
#: cross-thread span link.
FRESHNESS_NAMES = (
    "ShardWindow",
    "ShardLag",
    "ShardHealth",
    "start_linked",
    "shard_health",
    "shard_lag",
    "queue_depth",
    "mark_applied",
    "dispatched_at",
    "last_lag_seconds",
    "last_apply_at",
    "windows_applied",
    "records_applied",
    "max_shard_lag_batches",
    "max_shard_lag_seconds",
    "max_queue_depth",
)


def test_the_freshness_bookkeeping_stays_deleted():
    from repro.obs import tracer
    from repro.parallel import engine

    found = [
        (str(path.relative_to(SRC)), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in FRESHNESS_NAMES
        if name in path.read_text()
    ]
    assert found == []
    assert not hasattr(tracer.Tracer, "current")
    assert not hasattr(engine.ShardEngine, "health")
    assert not hasattr(ChronicleDatabase, "shard_health")
    assert list(engine.ShardTask.__slots__) == ["unit", "event", "watermark"]
    assert "dispatched" not in engine.ShardUnit.__slots__


# -- one store per view ----------------------------------------------------------------


def test_a_view_keeps_one_store():
    from repro.relational.relation import Relation

    db = ChronicleDatabase()
    db.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")], retention=0)
    db.define_view(
        "DEFINE VIEW v AS SELECT acct, SUM(mins) AS total FROM calls GROUP BY acct"
    )
    db.append("calls", [{"acct": 1, "mins": 5}])
    view = db.view("v")
    assert isinstance(view, PersistentView)
    assert not hasattr(view, "relation")
    assert not hasattr(Relation, "replace_at")
    assert not hasattr(Relation, "insert_at_key")
    names = {
        name.rsplit(".", 1)[-1] for name in imported_modules(SRC / "sca" / "view.py")
    }
    assert {"Relation", "BPlusTree"} & names == set()
    # The walk does see the names view.py imports by name.
    assert {"Row", "Table"} <= names


# -- one hash map ----------------------------------------------------------------------


def test_one_hash_map():
    from repro.relational.relation import Relation
    from repro.storage import BPlusTree, HashIndex

    for cls in (HashIndex, BPlusTree):
        assert "counters" not in inspect.signature(cls).parameters
    assert "initial_buckets" not in inspect.signature(HashIndex).parameters
    for name in ("_slots", "_tombstones", "_maybe_compact"):
        assert not hasattr(Relation, name)
    counting_dicts = [
        (str(path.relative_to(SRC)), node.name)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "dict" for base in node.bases)
        and any(
            isinstance(leaf, ast.Constant) and leaf.value == "index_lookup"
            for leaf in ast.walk(node)
        )
    ]
    assert counting_dicts == [("storage/hash_index.py", "HashMap")]
    assert "_StateMap" not in (SRC / "sca" / "view.py").read_text()


# -- one commit point, one durable mode --------------------------------------------------


def test_one_commit_point_and_one_durable_mode():
    """A batch reaches the log in one place — the facade's commit point,
    after every registry and shard maintained the call — and every
    durable database snapshots: the group's append-ahead hook, the ingest
    window's commit-on-raise and plain ``"wal"`` stay deleted."""
    from repro.core.config import DURABILITY_MODES
    from repro.core.group import ChronicleGroup
    from repro.storage.durability import DurabilityManager
    from repro.storage.wal import ChronicleWal

    assert DURABILITY_MODES == ("off", "wal+snapshot")
    with pytest.raises(ConfigError, match=r"wal\+snapshot"):
        DurabilityConfig(mode="wal", dir="unused")
    assert not hasattr(ChronicleGroup("g"), "wal_sink")
    for name in ("window", "attach_group", "_detach"):
        assert not hasattr(DurabilityManager, name), name
    for name in ("begin", "commit"):
        assert not hasattr(ChronicleWal, name), name
    assert [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "wal_sink" in path.read_text()
    ] == []
    # The benchmark's tracer wraps admission_sink by name: it stays a
    # class attribute, reached from batch_committed alone.
    assert "admission_sink" in DurabilityManager.__dict__
    reached_from = sorted(
        (str(path.relative_to(SRC)), owner, function.name)
        for path in sorted(SRC.rglob("*.py"))
        for owner, function in _functions(path)
        if any(
            isinstance(node, ast.Attribute) and node.attr == "admission_sink"
            for node in ast.walk(function)
        )
    )
    assert reached_from == [
        ("storage/durability.py", "DurabilityManager", "batch_committed")
    ]
