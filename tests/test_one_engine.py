"""Guard: one maintenance path, one database class, one write path.

The literal Theorem 4.1 interpreter (:mod:`repro.algebra.reference`) is
an oracle for tests, benchmarks and the conformance profiler.  If any
other module under ``src/repro`` imports it, or the switch that used to
select it comes back under one of its old names, a second engine is
growing again — fail here, before it has users.  The same goes for a
second database class: the sharded engine is a stage the facade holds,
so nothing subclasses :class:`ChronicleDatabase`, the write methods are
written once, and the shard executors number two.
"""

import ast
import dataclasses
import inspect
import pathlib

import repro
from repro.core.config import EXECUTORS, DatabaseConfig
from repro.core.database import ChronicleDatabase
from repro.sca.view import PersistentView
from repro.views.registry import ViewRegistry

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

    assert parameters(ViewRegistry.__init__) == ["prefilter"]
    assert parameters(ChronicleDatabase.__init__) == ["config", "observability"]
    assert parameters(PersistentView.apply_event) == ["deltas"]


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
    assert len(dataclasses.fields(DatabaseConfig)) == 11
