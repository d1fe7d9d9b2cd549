"""Tests for the command-line session (repro.cli)."""

import io

import pytest

from repro.cli import CliError, Session
from repro.errors import ChronicleError


@pytest.fixture
def session():
    s = Session()
    s.execute("CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0")
    s.execute("CREATE RELATION subscribers (number INT, state STR) KEY (number)")
    return s


class TestCatalogStatements:
    def test_create_chronicle(self):
        s = Session()
        out = s.execute("CREATE CHRONICLE calls (caller INT, minutes INT)")
        assert "calls" in out and "retention=all" in out

    def test_create_chronicle_with_retention(self):
        s = Session()
        out = s.execute("CREATE CHRONICLE calls (caller INT) RETENTION 5")
        assert "retention=5" in out
        assert s.db.chronicle("calls").retention == 5

    def test_create_relation_with_key(self, session):
        assert session.db.relation("subscribers").schema.key == ("number",)

    def test_create_relation_without_key(self):
        s = Session()
        out = s.execute("CREATE RELATION r (a INT, b STR)")
        assert "created" in out

    def test_bad_attribute_spec(self):
        s = Session()
        with pytest.raises(CliError):
            s.execute("CREATE CHRONICLE calls (caller)")

    def test_missing_attr_list(self):
        s = Session()
        with pytest.raises(CliError):
            s.execute("CREATE CHRONICLE calls")


class TestDataStatements:
    def test_insert_single(self, session):
        out = session.execute('INSERT subscribers {"number": 1, "state": "NJ"}')
        assert "1 row(s)" in out
        assert session.db.relation("subscribers").lookup_key((1,))["state"] == "NJ"

    def test_insert_list(self, session):
        out = session.execute(
            'INSERT subscribers [{"number": 1, "state": "NJ"}, {"number": 2, "state": "NY"}]'
        )
        assert "2 row(s)" in out

    def test_insert_bad_json(self, session):
        with pytest.raises(CliError):
            session.execute("INSERT subscribers {bad json}")

    def test_append(self, session):
        out = session.execute('APPEND calls {"caller": 1, "minutes": 5}')
        assert "sequence 0" in out
        out = session.execute('APPEND calls {"caller": 1, "minutes": 5}')
        assert "sequence 1" in out

    def test_append_missing_payload(self, session):
        with pytest.raises(CliError):
            session.execute("APPEND calls")


class TestViewsAndQueries:
    def test_define_and_query(self, session):
        out = session.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        assert "IM-Constant" in out
        session.execute('APPEND calls {"caller": 7, "minutes": 5}')
        session.execute('APPEND calls {"caller": 7, "minutes": 3}')
        out = session.execute("QUERY usage 7")
        assert "total=8" in out

    def test_query_missing_key(self, session):
        session.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        out = session.execute("QUERY usage 99")
        assert "no row" in out

    def test_query_all_rows(self, session):
        session.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        session.execute('APPEND calls {"caller": 1, "minutes": 5}')
        session.execute('APPEND calls {"caller": 2, "minutes": 6}')
        out = session.execute("QUERY usage")
        assert out.count("caller=") == 2

    def test_show_view(self, session):
        session.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        session.execute('APPEND calls {"caller": 1, "minutes": 5}')
        out = session.execute("SHOW VIEW usage")
        assert "caller=1" in out

    def test_show_catalog(self, session):
        session.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        out = session.execute("SHOW CATALOG")
        assert "chronicle calls" in out
        assert "relation subscribers" in out
        assert "view usage" in out

    def test_unknown_statement(self, session):
        with pytest.raises(CliError):
            session.execute("FROBNICATE everything")


class TestObservabilityStatements:
    def _load(self, session):
        session.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        session.execute('APPEND calls {"caller": 7, "minutes": 5}')
        session.execute('APPEND calls {"caller": 7, "minutes": 3}')

    def test_show_stats_sections(self, session):
        self._load(session)
        out = session.execute("SHOW STATS")
        assert "== registry ==" in out
        assert "== audit ==" in out
        assert "== metrics ==" in out
        assert "maintained_views: 2" in out
        assert "violations: 0" in out
        assert "append_events_total{group=default} 2" in out
        assert "view_maintained_total{engine=compiled,view=usage} 2" in out

    def test_show_stats_before_any_event(self, session):
        out = session.execute("SHOW STATS")
        assert "(no metrics recorded yet)" in out

    def test_trace_renders_span_tree(self, session):
        self._load(session)
        out = session.execute("TRACE 2")
        assert out.count("append [") == 2
        assert "maintain [view=usage engine=compiled" in out
        assert "delta [operator=" in out
        # The no-access rule holds: no chronicle_read in any counter diff.
        assert "chronicle_read" not in out

    def test_trace_defaults_to_one(self, session):
        self._load(session)
        out = session.execute("TRACE")
        assert out.count("append [") == 1

    def test_trace_before_any_event(self, session):
        assert "no traces" in session.execute("TRACE 5")

    def test_trace_bad_count(self, session):
        with pytest.raises(CliError):
            session.execute("TRACE zero")
        with pytest.raises(CliError):
            session.execute("TRACE 0")
        with pytest.raises(CliError):
            session.execute("TRACE 1 2")

    def test_observe_false_disables_commands(self):
        s = Session(observe=False)
        s.execute("CREATE CHRONICLE calls (caller INT) RETENTION 0")
        with pytest.raises(CliError):
            s.execute("SHOW STATS")
        with pytest.raises(CliError):
            s.execute("TRACE 1")

    def test_show_timeline_is_an_unknown_target(self, session):
        with pytest.raises(CliError, match="SHOW: unknown target 'TIMELINE'"):
            session.execute("SHOW TIMELINE")

    def test_observability_does_not_leak_between_statements(self, session):
        from repro.obs import runtime as obs_runtime

        self._load(session)
        assert obs_runtime.ACTIVE is None


class TestCheckpointStatements:
    def test_checkpoint_restore(self, tmp_path, session):
        session.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        session.execute('APPEND calls {"caller": 1, "minutes": 9}')
        path = str(tmp_path / "cli.ckpt")
        session.execute(f"CHECKPOINT {path}")

        fresh = Session()
        fresh.execute("CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0")
        fresh.execute("CREATE RELATION subscribers (number INT, state STR) KEY (number)")
        fresh.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        fresh.execute(f"RESTORE {path}")
        assert "total=9" in fresh.execute("QUERY usage 1")


class TestScripts:
    SCRIPT = """
    -- a comment;
    CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0;
    DEFINE VIEW usage AS
        SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller;
    APPEND calls {"caller": 1, "minutes": 5};
    QUERY usage 1;
    """

    def test_split_statements_respects_strings(self):
        statements = Session.split_statements("A 'x;y'; B")
        assert statements == ["A 'x;y'", "B"]

    def test_run_script(self):
        out = io.StringIO()
        failures = Session().run_script(self.SCRIPT, out)
        assert failures == 0
        assert "total=5" in out.getvalue()

    def test_run_script_reports_errors_and_continues(self):
        out = io.StringIO()
        failures = Session().run_script(
            "APPEND nowhere {\"x\": 1}; CREATE CHRONICLE c (a INT);", out
        )
        assert failures == 1
        assert "error:" in out.getvalue()
        assert "created" in out.getvalue()

    def test_run_script_explains_a_periodic_view_and_continues(self):
        out = io.StringIO()
        failures = Session().run_script(
            "CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0;"
            "DEFINE PERIODIC VIEW monthly OVER EVERY 30 AS "
            "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller;"
            "EXPLAIN monthly; EXPLAIN ANALYZE monthly;"
            'APPEND calls {"caller": 1, "minutes": 5}; SHOW CATALOG;',
            out,
        )
        text = out.getvalue()
        assert failures == 1  # ANALYZE: a periodic set is not one view
        assert "EXPLAIN view 'monthly'" in text and "periodic view set" in text
        assert "error:" in text and "appended" in text


class TestConformanceStatements:
    def _define(self, session):
        session.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )

    def test_certify_prints_certificate(self, session):
        self._define(session)
        out = session.execute("CERTIFY usage")
        assert "conformance certificate: view 'usage'" in out
        assert "IM-Constant" in out
        assert "|C| work: fitted constant" in out
        assert "verdict: CONFORMANT" in out
        # The certificate also lands on the session's handle, where the
        # /certificates route would serve it.
        assert "usage" in session.db.observability.certificates

    def test_certify_requires_view_name(self, session):
        with pytest.raises(CliError, match="CERTIFY"):
            session.execute("CERTIFY")

    def test_serve_metrics_and_stop(self, session):
        self._define(session)
        session.execute('APPEND calls {"caller": 1, "minutes": 5}')
        out = session.execute("SERVE METRICS 0")
        assert "serving metrics at http://127.0.0.1:" in out
        import urllib.request

        url = out.split("serving metrics at ")[1].strip()
        body = urllib.request.urlopen(url, timeout=5).read().decode()
        assert "append_events_total" in body
        stopped = session.execute("SERVE STOP")
        assert "stopped" in stopped
        assert session.execute("SERVE STOP") == "no metrics server running"

    def test_serve_bad_arguments(self, session):
        with pytest.raises(CliError, match="SERVE"):
            session.execute("SERVE")
        with pytest.raises(CliError, match="bad port"):
            session.execute("SERVE METRICS nope")

    def test_show_stats_renders_per_view_latency(self, session):
        self._define(session)
        session.execute('APPEND calls {"caller": 1, "minutes": 5}')
        out = session.execute("SHOW STATS")
        assert "== views ==" in out
        assert "usage: 1 maintain spans, last append" in out


class TestShardStatements:
    """SHOW SHARDS must degrade gracefully, never traceback."""

    def _sharded(self):
        from repro.core.config import DatabaseConfig

        s = Session(config=DatabaseConfig(engine="sharded", shards=2))
        s.execute("CREATE CHRONICLE calls (caller INT, minutes INT)")
        s.execute(
            "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
            "FROM calls GROUP BY caller"
        )
        return s

    def test_show_shards_on_serial_engine(self, session):
        out = session.execute("SHOW SHARDS")
        assert "engine=serial" in out
        assert "engine='sharded'" in out  # points at the fix

    def test_show_shards_before_first_ingest(self):
        s = self._sharded()
        out = s.execute("SHOW SHARDS")
        assert "engine=sharded shards=2" in out
        assert "watermark=-1" in out  # shards exist, nothing routed yet

    def test_show_shards_names_the_executor(self):
        s = self._sharded()
        out = s.execute("SHOW SHARDS")
        assert "engine=sharded shards=2 executor=serial" in out
        assert "slot=" not in out  # the inline executor has no pool slots

    def test_show_shards_names_each_units_slot_on_the_process_executor(self):
        import os
        import signal
        import time

        from repro.core.config import DatabaseConfig
        from repro.errors import EngineError

        s = Session(config=DatabaseConfig(engine="sharded", shards=2, executor="process"))
        try:
            s.execute("CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0")
            s.execute(
                "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total "
                "FROM calls GROUP BY caller"
            )
            before = s.execute("SHOW SHARDS")
            assert "executor=process" in before
            assert before.count("slot=-") == 2  # no window yet, no slot
            for i in range(6):
                s.execute('APPEND calls {"caller": %d, "minutes": %d}' % (i % 3, i))
            out = s.execute("SHOW SHARDS")
            assert "slot=-" not in out and "[BROKEN]" not in out
            assert sorted(line.split("slot=")[1] for line in out.splitlines() if "slot=" in line) == [
                "0",
                "1",
            ]
            backend = s.db._shards.backend
            for pool in backend._pools:
                for pid in list(pool._processes):
                    os.kill(pid, signal.SIGKILL)
            time.sleep(0.3)
            with pytest.raises(EngineError, match="worker process died"):
                s.db.ingest("calls", [[{"caller": c, "minutes": 1}] for c in range(4)])
            assert "[BROKEN]" in s.execute("SHOW SHARDS")
        finally:
            s.db.close()

    def test_show_shards_before_any_views(self):
        from repro.core.config import DatabaseConfig

        s = Session(config=DatabaseConfig(engine="sharded", shards=2))
        s.execute("CREATE CHRONICLE calls (caller INT, minutes INT)")
        out = s.execute("SHOW SHARDS")
        assert "engine=sharded" in out
