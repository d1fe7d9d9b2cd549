"""Tests for the plan observability layer: EXPLAIN and the cost ledger.

Covers :mod:`repro.obs.explain` (plan rendering, instrumented EXPLAIN
ANALYZE windows) and :mod:`repro.obs.costmodel` (the continuously
aggregated per-(view, operator, shape) CostLedger), plus their surfaces:
``db.explain``, ``SHOW COSTS`` / ``EXPLAIN`` CLI statements, the
``/costs`` exporter route, and the zero-overhead contract when
observability is off.
"""

import json
import urllib.request

import pytest

from repro import ChronicleDatabase, DatabaseConfig
from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.errors import ObservabilityError
from repro.obs import CostLedger, Observability, costmodel
from repro.obs import runtime as obs_runtime
from repro.obs.explain import ExplainReport, explain, explain_analyze
from repro.relational.predicate import attr_cmp
from repro.sca.summarize import GroupBySummary


@pytest.fixture(autouse=True)
def _clean_runtime():
    """No test may leak an installed Observability into the next."""
    assert obs_runtime.ACTIVE is None
    yield
    obs_runtime.ACTIVE = None


def make_banking_db(**kwargs):
    """An E12-style banking database: filtered group-by over deposits."""
    db = ChronicleDatabase(config=DatabaseConfig(**kwargs))
    db.create_chronicle("deposits", [("acct", "INT"), ("amount", "INT")], retention=0)
    db.define_view(
        "DEFINE VIEW balance AS "
        "SELECT acct, SUM(amount) AS balance FROM deposits "
        "WHERE amount > 10 GROUP BY acct"
    )
    return db


def projected_deposits(db):
    """``π[sn, acct, amount] σ(amount > 10)(deposits)``: a reshaping step,
    so the plan (not the dispatch index) computes its delta."""
    return (
        scan(db.chronicle("deposits"))
        .select(attr_cmp("amount", ">", 10))
        .project(["sn", "acct", "amount"])
    )


def drive(db, events=10):
    for i in range(events):
        db.append("deposits", {"acct": i % 3, "amount": i * 5})


# ---------------------------------------------------------------------------
# CostLedger mechanics
# ---------------------------------------------------------------------------


class TestCostLedger:
    def test_observe_accumulates(self):
        ledger = CostLedger()
        ledger.observe("v", "Select", "compiled/Select", 0.001, rows=3, counters={"tuple_op": 4})
        ledger.observe("v", "Select", "compiled/Select", 0.003, rows=5, counters={"tuple_op": 6})
        (entry,) = ledger.entries()
        assert entry.calls == 2
        assert entry.rows == 8
        assert entry.counters["tuple_op"] == 10
        assert entry.seconds == pytest.approx(0.004)
        assert entry.mean_seconds == pytest.approx(0.002)

    def test_ewma_tracks_recent_values(self):
        ledger = CostLedger()
        ledger.observe("v", "op", "s", 0.002)
        assert ledger.entries()[0].ewma_seconds == pytest.approx(0.002)
        ledger.observe("v", "op", "s", 0.004)
        # first call seeds the EWMA; then ewma += alpha * (x - ewma), alpha 0.1
        assert ledger.entries()[0].ewma_seconds == pytest.approx(0.0022)
        assert ledger.entries()[0].max_seconds == pytest.approx(0.004)

    def test_bounded_cardinality_drops_new_keys(self, monkeypatch):
        monkeypatch.setattr(costmodel, "MAX_ENTRIES", 2)
        ledger = CostLedger()
        ledger.observe("v", "a", "s1", 0.001)
        ledger.observe("v", "b", "s2", 0.001)
        ledger.observe("v", "c", "s3", 0.001)  # over the cap: dropped
        ledger.observe("v", "a", "s1", 0.001)  # existing key: still folds
        assert len(ledger) == 2
        assert ledger.dropped == 1
        assert ledger.get("v", "a", "s1").calls == 2
        assert ledger.get("v", "c", "s3") is None

    def test_format_empty_and_filtered(self):
        ledger = CostLedger()
        assert "cost ledger empty" in ledger.format()
        ledger.observe("a", "op", "s", 0.001)
        ledger.observe("b", "op", "s", 0.001)
        table = ledger.format("a")
        assert "a" in table and "b" not in table


# ---------------------------------------------------------------------------
# Ledger fed from live maintain spans (normal ingest traffic)
# ---------------------------------------------------------------------------


class TestLedgerFromIngest:
    def test_populated_from_normal_appends(self):
        db = make_banking_db()
        obs = Observability(audit="off")
        with obs_runtime.installed(obs):
            drive(db, events=8)
        views = obs.cost_ledger.views()
        assert "balance" in views
        rollup = obs.cost_ledger.get("balance", "maintain", "compiled")
        # amounts are i*5: only i in 3..7 pass the WHERE amount > 10
        # prefilter, so exactly those five appends reach maintenance.
        assert rollup is not None and rollup.calls == 5
        # Per-operator entries under the engine-prefixed shape path.
        shapes = {e.shape for e in obs.cost_ledger.entries() if e.view == "balance"}
        assert any(shape.startswith("compiled/") for shape in shapes)

    def test_operator_entries_carry_counters(self):
        db = make_banking_db()
        # balance's selection is computed by the dispatch index; this
        # view's plan step does its own work.
        db.define_view(
            GroupBySummary(projected_deposits(db), ["acct"], [spec(SUM, "amount")]),
            name="projected",
        )
        obs = Observability(audit="off")
        with obs_runtime.installed(obs):
            drive(db, events=8)
        op_entries = [
            e
            for e in obs.cost_ledger.entries()
            if e.view == "projected" and e.operator != "maintain"
        ]
        assert op_entries
        assert any(e.counters for e in op_entries)

    def test_cost_snapshot_round_trips(self):
        db = make_banking_db()
        obs = Observability(audit="off")
        with obs_runtime.installed(obs):
            drive(db, events=5)
        snapshot = obs.cost_snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot == obs.cost_ledger.as_dict()
        assert {e["view"] for e in snapshot["entries"]} == {"balance"}

    def test_snapshot_reports_ledger_stats(self):
        db = make_banking_db()
        obs = Observability(audit="off")
        with obs_runtime.installed(obs):
            drive(db, events=3)
        snap = obs.snapshot()
        assert snap["costs"]["entries"] == len(obs.cost_ledger)
        assert snap["costs"]["dropped"] == 0

    def test_link_certificates_stamps_entries(self):
        ledger = CostLedger()
        ledger.observe("balance", "maintain", "compiled", 0.001)
        ledger.observe("other", "maintain", "compiled", 0.001)
        stamped = ledger.link_certificates(
            {
                "balance": {
                    "claimed_class": "IM-Constant",
                    "conformant": True,
                    "sweeps": [
                        {"parameter": "C", "metric": "work", "model": "constant"}
                    ],
                }
            }
        )
        assert stamped == 1
        entry = ledger.get("balance", "maintain", "compiled")
        assert entry.claimed_class == "IM-Constant"
        assert entry.conformant is True
        assert entry.fitted == {"C work": "constant"}
        assert ledger.get("other", "maintain", "compiled").claimed_class is None


# ---------------------------------------------------------------------------
# Zero-overhead contract: observability off ⇒ no ledger hooks execute
# ---------------------------------------------------------------------------


class TestDisabledMode:
    def test_no_runtime_no_ledger(self):
        db = make_banking_db()  # observe not set: nothing installed
        drive(db, events=6)
        assert obs_runtime.ACTIVE is None

    def test_uninstalled_handle_records_nothing(self):
        obs = Observability(audit="off")
        db = make_banking_db()
        drive(db, events=6)
        assert len(obs.cost_ledger) == 0
        assert obs.tracer.completed_count == 0


# ---------------------------------------------------------------------------
# EXPLAIN: the static plan tree
# ---------------------------------------------------------------------------


class TestExplain:
    def test_reports_plan_shape(self):
        db = make_banking_db()
        report = db.explain("balance")
        assert isinstance(report, ExplainReport)
        text = report.format()
        assert "balance" in text
        assert "scan deposits" in text
        assert "σ" in text  # the WHERE amount > 10 select
        assert "group by" in text

    def test_unknown_view_raises(self):
        db = make_banking_db()
        with pytest.raises(ObservabilityError):
            explain(db, "nope")

    def test_shared_step_annotated(self):
        db = make_banking_db()
        db.define_view(
            "DEFINE VIEW deposits_count AS "
            "SELECT acct, COUNT(*) AS n FROM deposits GROUP BY acct"
        )
        # The interned scan serves every view but is one dict read, so it
        # is not a cache point; a shared reshaping step is.
        assert "shared" not in explain(db, "deposits_count").format()
        node = projected_deposits(db)
        for name, aggregate in (("p_sum", spec(SUM, "amount")), ("p_count", spec(COUNT))):
            db.define_view(GroupBySummary(node, ["acct"], [aggregate]), name=name)
        assert "[shared ×2]" in explain(db, "p_count").format()

    def test_dispatch_key_and_residual_shown(self):
        db = make_banking_db()
        db.define_view(
            "DEFINE VIEW acct7 AS SELECT acct, SUM(amount) AS total FROM deposits "
            "WHERE acct = 7 AND amount > 10 GROUP BY acct"
        )
        db.define_view(
            "DEFINE VIEW everything AS SELECT acct, COUNT(*) AS n FROM deposits GROUP BY acct"
        )
        assert "dispatch[deposits]: (acct = 7); residual (amount > 10)" in (
            db.explain("acct7").format()
        )
        # No equality atom: tested on every event of the chronicle.
        assert "dispatch[deposits]: always; residual (amount > 10)" in (
            db.explain("balance").format()
        )
        assert "dispatch[deposits]: always; residual none" in db.explain("everything").format()
        assert db.explain("acct7").to_dict()["dispatch"] == {
            "deposits": [{"key": "(acct = 7)", "residual": "(amount > 10)"}]
        }

    def test_to_dict_serializable(self):
        db = make_banking_db()
        payload = db.explain("balance").to_dict()
        json.dumps(payload)  # must be JSON-safe
        assert payload["view"] == "balance"
        assert payload["plan"]


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE: the instrumented window
# ---------------------------------------------------------------------------


def banking_factory(index):
    """Records that always pass the balance view's amount > 10 filter."""
    return {"acct": index % 3, "amount": 20 + index}


class TestExplainAnalyze:
    def test_measured_columns_present(self):
        db = make_banking_db()
        report = db.explain(
            "balance", analyze=True, events=4, batch=2, record_factory=banking_factory
        )
        text = report.format()
        assert "measured" in text
        assert "calls=" in text
        assert "rows=" in text
        assert "mean=" in text
        assert "work=" in text

    def test_analyze_leaves_runtime_clean(self):
        db = make_banking_db()
        db.explain(
            "balance", analyze=True, events=2, batch=1, record_factory=banking_factory
        )
        assert obs_runtime.ACTIVE is None

    def test_analyze_appends_drive_records(self):
        db = make_banking_db()
        before = db.chronicle("deposits").appended_count
        db.explain(
            "balance", analyze=True, events=3, batch=2, record_factory=banking_factory
        )
        # warm-up batch + 3 measured batches of 2
        assert db.chronicle("deposits").appended_count == before + 8

    def test_window_kwargs_require_analyze(self):
        db = make_banking_db()
        with pytest.raises(TypeError):
            db.explain("balance", events=4)

    def test_default_factory_failing_prefilter_raises(self):
        # The synthesized records' amounts are index % keyspace; with a
        # tiny window none exceed 10, so the prefilter starves the view
        # and EXPLAIN ANALYZE must say so rather than return zeros.
        db = make_banking_db()
        with pytest.raises(ObservabilityError):
            explain_analyze(db, "balance", events=2, batch=2)

    def test_explain_analyze_function_direct(self):
        db = make_banking_db()
        report = explain_analyze(
            db, "balance", events=2, batch=2, record_factory=banking_factory
        )
        assert any(m.calls for m in report.measurements.values())


# ---------------------------------------------------------------------------
# Surfaces: CLI statements and the /costs exporter route
# ---------------------------------------------------------------------------


class TestSurfaces:
    def _session(self):
        from repro.cli import Session

        s = Session()
        s.execute("CREATE CHRONICLE deposits (acct INT, amount INT) RETENTION 0")
        s.execute(
            "DEFINE VIEW balance AS SELECT acct, SUM(amount) AS balance "
            "FROM deposits WHERE amount > 10 GROUP BY acct"
        )
        return s

    def test_cli_show_costs_empty_then_populated(self):
        s = self._session()
        assert "cost ledger empty" in s.execute("SHOW COSTS")
        s.execute('APPEND deposits {"acct": 1, "amount": 50}')
        s.execute('APPEND deposits {"acct": 1, "amount": 5}')
        out = s.execute("SHOW COSTS")
        assert "balance" in out
        assert "maintain" in out

    def test_cli_show_costs_filtered(self):
        s = self._session()
        s.execute('APPEND deposits {"acct": 2, "amount": 30}')
        out = s.execute("SHOW COSTS balance")
        assert "balance" in out

    def test_cli_explain(self):
        s = self._session()
        out = s.execute("EXPLAIN balance")
        assert "scan deposits" in out
        out = s.execute("EXPLAIN VIEW balance")
        assert "scan deposits" in out

    def test_cli_explain_analyze(self):
        s = self._session()
        out = s.execute("EXPLAIN ANALYZE balance")
        assert "calls=" in out and "mean=" in out

    def test_cli_explain_bad_syntax(self):
        from repro.cli import CliError

        s = self._session()
        with pytest.raises(CliError):
            s.execute("EXPLAIN")
        with pytest.raises(CliError):
            s.execute("EXPLAIN balance extra")

    def test_costs_route_serves_ledger_json(self):
        db = make_banking_db(observe=True)
        try:
            drive(db, events=4)
            server = db.observability.serve(port=0)
            try:
                with urllib.request.urlopen(server.url + "/costs", timeout=5) as resp:
                    assert resp.status == 200
                    assert resp.headers.get("Content-Type") == "application/json"
                    payload = json.loads(resp.read())
            finally:
                db.observability.stop_serving()
            assert payload == json.loads(json.dumps(db.observability.cost_snapshot()))
            assert "balance" in {entry["view"] for entry in payload["entries"]}
        finally:
            db.disable_observability()
