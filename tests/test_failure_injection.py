"""Systematic failure injection across the model's rule boundaries.

Each test forces one way the chronicle model's guarantees could be
violated and asserts the library refuses with the right error — the
"bug-free by construction" story the paper sells against hand-written
update code.
"""

import pytest

from repro import errors
from repro.aggregates import COUNT, SUM, spec
from repro.aggregates.base import NonIncrementalAggregate
from repro.algebra.ast import ChronicleProduct, scan
from repro.core.chronicle import maintenance_guard
from repro.core.database import ChronicleDatabase
from repro.core.group import ChronicleGroup
from repro.relational.predicate import Not, attr_eq
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView


@pytest.fixture
def db():
    database = ChronicleDatabase()
    database.create_chronicle(
        "calls", [("caller", "INT"), ("minutes", "INT")], retention=0
    )
    database.create_relation(
        "subscribers", [("number", "INT"), ("state", "STR")], key=["number"]
    )
    return database


class TestSequenceRules:
    def test_sequence_regression_rejected(self, db):
        db.append("calls", {"caller": 1, "minutes": 1}, sequence_number=10)
        with pytest.raises(errors.SequenceOrderError):
            db.append("calls", {"caller": 1, "minutes": 1}, sequence_number=9)

    def test_sequence_reuse_rejected(self, db):
        db.append("calls", {"caller": 1, "minutes": 1}, sequence_number=10)
        with pytest.raises(errors.SequenceOrderError):
            db.append("calls", {"caller": 1, "minutes": 1}, sequence_number=10)

    def test_cross_chronicle_regression_rejected(self, db):
        db.create_chronicle("texts", [("sender", "INT")])
        db.append("calls", {"caller": 1, "minutes": 1}, sequence_number=10)
        # Same group, different chronicle: the watermark is shared.
        with pytest.raises(errors.SequenceOrderError):
            db.append("texts", {"sender": 2}, sequence_number=5)


class TestProactivityRules:
    def test_retroactive_update_rejected_after_appends(self, db):
        db.relation("subscribers").insert({"number": 1, "state": "NJ"})
        db.append("calls", {"caller": 1, "minutes": 1})
        with pytest.raises(errors.RetroactiveUpdateError):
            db.relation("subscribers").update_key((1,), effective_from=0, state="NY")

    def test_views_never_see_retroactive_state(self, db):
        subscribers = db.relation("subscribers")
        subscribers.insert({"number": 1, "state": "NJ"})
        view = db.define_view(
            "DEFINE VIEW by_state AS SELECT state, COUNT(*) AS n "
            "FROM calls JOIN subscribers ON calls.caller = subscribers.number "
            "GROUP BY state"
        )
        db.append("calls", {"caller": 1, "minutes": 1})
        # A (failed) retroactive attempt must leave the view untouched.
        with pytest.raises(errors.RetroactiveUpdateError):
            subscribers.update_key((1,), effective_from=0, state="NY")
        assert view.value(("NJ",), "n") == 1
        assert view.value(("NY",), "n") is None


class TestNoAccessRule:
    def test_user_listener_cannot_read_chronicle_during_maintenance(self, db):
        """Even user code invoked from the maintenance path is barred."""
        chronicle = db.chronicle("calls")
        seen = []

        with maintenance_guard():
            with pytest.raises(errors.ChronicleAccessError):
                seen.extend(chronicle.rows())

    def test_view_over_unstored_chronicle_blocks_initialization_reads(self, db):
        # initialize_from_store on an unstored chronicle yields nothing
        # (there is nothing stored), and the view starts empty.
        view = db.define_view(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        assert len(view) == 0


class TestLanguageRules:
    def test_not_predicate_rejected_for_view(self, db):
        calls = db.chronicle("calls")
        expression = scan(calls).select(Not(attr_eq("caller", 1)))
        summary = GroupBySummary(expression, ["caller"], [spec(COUNT)])
        with pytest.raises(errors.ViewError):
            PersistentView("v", summary)

    def test_chronicle_product_view_rejected(self, db):
        db.create_chronicle("texts", [("sender", "INT")])
        calls, texts = db.chronicle("calls"), db.chronicle("texts")
        expression = ChronicleProduct(scan(calls), scan(texts))
        with pytest.raises(errors.ViewError):
            PersistentView(
                "v", GroupBySummary(expression, ["caller"], [spec(COUNT)])
            )

    def test_non_incremental_aggregate_rejected_in_sca(self, db):
        calls = db.chronicle("calls")
        median = NonIncrementalAggregate(
            "MEDIAN", lambda vs: sorted(vs)[len(vs) // 2]
        )
        with pytest.raises(errors.NotIncrementalError):
            GroupBySummary(scan(calls), ["caller"], [spec(median, "minutes")])

    def test_key_join_without_guarantee_rejected(self, db):
        calls = db.chronicle("calls")
        loose = Relation("loose", Schema.build(("number", "INT"), ("x", "INT")))
        with pytest.raises(errors.KeyJoinGuaranteeError):
            scan(calls).keyjoin(loose, [("caller", "number")])

    def test_cross_group_operations_rejected(self, db):
        other = ChronicleGroup("other")
        foreign = other.create_chronicle("calls2", [("caller", "INT"), ("minutes", "INT")])
        calls = db.chronicle("calls")
        with pytest.raises(errors.ChronicleGroupError):
            scan(calls).union(scan(foreign))


class TestRetentionRules:
    def test_window_query_beyond_retention_rejected(self):
        db = ChronicleDatabase()
        db.create_chronicle("calls", [("m", "INT")], retention=3)
        for i in range(10):
            db.append("calls", {"m": i})
        with pytest.raises(errors.RetentionError):
            db.detail_window("calls", 0, 9)

    def test_recompute_baseline_fails_honestly_without_storage(self):
        """The baseline *needs* the chronicle; with retention it silently
        computes over the window — here we check the honest failure of
        an oracle comparison instead: evaluate over retention=0 sees
        nothing."""
        from repro.algebra.evaluate import evaluate

        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("m", "INT")], retention=0)
        group.append(calls, {"m": 1})
        assert len(evaluate(scan(calls))) == 0  # nothing stored, nothing seen


class TestErrorHierarchy:
    def test_all_errors_derive_from_chronicle_error(self):
        roots = [
            errors.SchemaError,
            errors.IntegrityError,
            errors.ChronicleModelError,
            errors.AlgebraError,
            errors.ViewError,
            errors.QueryError,
        ]
        for root in roots:
            assert issubclass(root, errors.ChronicleError)

    def test_one_clause_catches_everything(self, db):
        try:
            db.append("nowhere", {"x": 1})
        except errors.ChronicleError:
            pass
        else:
            pytest.fail("expected a ChronicleError")

    def test_lex_error_positions(self):
        from repro.query.lexer import tokenize

        with pytest.raises(errors.LexError) as excinfo:
            tokenize("SELECT\n  @")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 3

    def test_checkpoint_rejects_unserializable_state(self, db, tmp_path):
        """A user aggregate with exotic state is caught, not silently
        mangled."""

        class Weird(NonIncrementalAggregate):
            incremental = True  # lie to get past SCA validation

            def __init__(self):
                super().__init__("WEIRD", lambda vs: 0)

            def initial(self):
                return object()  # not JSON-serializable

            def step(self, state, value):
                return state

        calls = db.chronicle("calls")
        summary = GroupBySummary(scan(calls), ["caller"], [spec(Weird(), "minutes")])
        view = PersistentView("weird", summary)
        db.registry.register(view)
        db.append("calls", {"caller": 1, "minutes": 1})
        from repro.storage.checkpoint import CheckpointError

        with pytest.raises(CheckpointError):
            db.checkpoint(str(tmp_path / "x.ckpt"))
