"""One fold per observation: what "same measurements" means, pinned.

``EXPLAIN ANALYZE`` folds its measured window through
:meth:`CostLedger.observe_maintain <repro.obs.costmodel.CostLedger
.observe_maintain>` (the ledger's fold, not a copy of it), and an
incident bundle's tape is read from the tracer's ring at dump time (not
from a second ring filled as spans finish).  These tests pin what both
produce, against ``one_fold_golden.json``:

* EXPLAIN ANALYZE, with a fixed ``record_factory``, of three views — a
  filtered GROUP BY, a second view sharing its filter, and a relation
  join — on the serial engine, on ``engine="sharded"`` with the inline
  executor, and on two worker processes: per plan path
  ``calls``/``rows``/``work``/``cache_hits``, the ``maintain`` rollup,
  and the rendered text with its timings masked.  The process workers
  trace nothing, so there the two partitioned views record the typed
  error ANALYZE raises, and the relation join, which stays on the
  parent, is measured;
* the ``events`` of an incident bundle dumped after fewer root spans
  than the tracer's ring holds, on the serial and the process engine,
  with timings masked and span ids renumbered by first appearance.

The capture runs in a child interpreter under ``PYTHONHASHSEED=0``.  To
re-capture after a change that is *meant* to alter one of these
results, run ``PYTHONHASHSEED=0 PYTHONPATH=src python -m
tests.test_one_fold > tests/one_fold_golden.json`` from the repository
root.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings
from typing import Any, Dict, List

import pytest

from repro import ChronicleDatabase, DatabaseConfig
from repro.errors import ObservabilityError
from repro.obs.explain import explain_analyze

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("one_fold_golden.json")

ENGINES = {
    "serial": {},
    "sharded_inline": {"engine": "sharded", "shards": 2},
    "sharded_process": {"engine": "sharded", "shards": 2, "executor": "process"},
}

CATALOG = {
    "balance": "DEFINE VIEW balance AS SELECT acct, SUM(amount) AS balance "
    "FROM deposits WHERE amount > 10 GROUP BY acct",
    "big_deposits": "DEFINE VIEW big_deposits AS SELECT acct, COUNT(*) AS n "
    "FROM deposits WHERE amount > 10 GROUP BY acct",
    "by_tier": "DEFINE VIEW by_tier AS SELECT tier, SUM(amount) AS total "
    "FROM deposits JOIN accounts ON deposits.acct = accounts.number GROUP BY tier",
}

#: Span-summary keys that read a clock.
TIMINGS = ("at", "duration_us")
#: Span-summary keys holding process-unique span ids.
IDS = ("trace_id", "span_id", "parent_id")


def record_factory(index: int) -> Dict[str, int]:
    """Deposits that pass ``amount > 10`` and hit every account."""
    return {"acct": index % 4, "amount": 20 + index}


def build(engine: str, observe: bool = False) -> ChronicleDatabase:
    db = ChronicleDatabase(config=DatabaseConfig(observe=observe, **ENGINES[engine]))
    db.create_chronicle("deposits", [("acct", "INT"), ("amount", "INT")], retention=0)
    db.create_relation("accounts", [("number", "INT"), ("tier", "STR")], key=["number"])
    for number in range(4):
        db.relation("accounts").insert({"number": number, "tier": "ab"[number % 2]})
    for definition in CATALOG.values():
        db.define_view(definition)
    return db


_TIMING = re.compile(r"\d+\.\d+us\b")


def explain_run(engine: str) -> Dict[str, Any]:
    db = build(engine)
    try:
        out = {}
        for view in CATALOG:
            try:
                report = explain_analyze(db, view, events=4, batch=3, record_factory=record_factory)
            except ObservabilityError as exc:
                out[view] = {"error": str(exc)}
                continue
            analyze = report.to_dict()["analyze"]
            out[view] = {
                "maintain": measured(analyze["maintain"]),
                "operators": {path: measured(m) for path, m in analyze["operators"].items()},
                "text": _TIMING.sub("#us", report.format()),
            }
        return out
    finally:
        db.close()


def measured(measurement: Dict[str, Any]) -> Dict[str, int]:
    return {
        "calls": measurement["calls"],
        "rows": measurement["rows"],
        "work": measurement["work"],
        "cache_hits": measurement.get("counters", {}).get("delta_cache_hit", 0),
    }


def drive(db: ChronicleDatabase) -> None:
    for i in range(5):
        db.append("deposits", {"acct": i % 4, "amount": 5 * i})
    db.ingest("deposits", [[record_factory(4 * w + b) for b in range(3)] for w in range(4)])
    db.append("deposits", [{"acct": 1, "amount": 99}] * 2)


def tape_run(engine: str) -> List[Dict[str, Any]]:
    db = build(engine, observe=True)
    try:
        drive(db)
        with tempfile.TemporaryDirectory() as directory:
            path = db.dump_incident("golden", path=os.path.join(directory, "bundle.json"))
            with open(path) as handle:
                events = json.load(handle)["events"]
    finally:
        db.close()
        db.disable_observability()
    numbering: Dict[int, int] = {}
    for event in events:
        for key in TIMINGS:
            event[key] = "#"
        for key in IDS:
            if key in event:
                event[key] = numbering.setdefault(event[key], len(numbering))
    return events


def capture() -> Dict[str, Any]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {
            "explain_analyze": {engine: explain_run(engine) for engine in ENGINES},
            "tape": {engine: tape_run(engine) for engine in ("serial", "sharded_process")},
        }


def capture_in_child() -> Dict[str, Any]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "tests.test_one_fold"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def captured() -> Dict[str, Any]:
    return capture_in_child()


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("engine", list(ENGINES))
def test_explain_analyze_measures_as_the_golden(captured, golden, engine):
    assert captured["explain_analyze"][engine] == golden["explain_analyze"][engine]


@pytest.mark.parametrize("engine", ["serial", "sharded_process"])
def test_incident_tape_is_the_golden(captured, golden, engine):
    assert captured["tape"][engine] == golden["tape"][engine]


def test_the_goldens_measure_something(golden):
    """Operators are measured inline; on the process executor the parent's
    fallback view is measured and the partitioned ones are refused."""
    process = golden["explain_analyze"]["sharded_process"]
    assert process["by_tier"]["maintain"]["calls"] > 0
    assert all("executor='serial'" in process[view]["error"] for view in ("balance", "big_deposits"))
    inline = golden["explain_analyze"]["sharded_inline"]["balance"]
    assert any(m["calls"] for m in inline["operators"].values())
    assert any("views" in event for event in golden["tape"]["sharded_process"])


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, ensure_ascii=False, sort_keys=True)
    sys.stdout.write("\n")
