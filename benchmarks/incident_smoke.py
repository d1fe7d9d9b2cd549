"""Incident smoke drill — force failures, verify the flight recorder.

CI's black-box check: deliberately break the two invariants the health
layer guards and assert that each produces a **readable incident
bundle** (the files the workflow uploads as artifacts):

1. **auditor violation** — a view's maintenance path smuggles a
   chronicle read under ``audit_mode="raise"``; the append aborts with
   :class:`~repro.errors.MaintenanceAuditError` and the recorder dumps
   ``incident-*-auditor-violation.json`` *before* the exception
   propagates;
2. **shard-worker error** — the sharded engine's dispatch fan-out
   raises :class:`~repro.errors.EngineError`; the recorder dumps
   ``incident-*-shard-worker-error.json`` with per-shard watermarks,
   and the subsequent health evaluation reports ``FAILING`` with
   ``engine_errors`` as its only breach, dumping
   ``incident-*-slo-breach.json`` whose report lists exactly the three
   checks of :class:`~repro.obs.health.SloPolicy`.

Each bundle is then re-read and validated: parseable JSON, the ring's
recent spans carry trace ids, and the context holds watermarks plus
the metrics snapshot.  Exits non-zero on any missing piece.

Set ``INCIDENT_DIR`` to choose the artifact directory (default
``incident-artifacts``).
"""

import json
import os
import sys

from repro import ChronicleDatabase, DatabaseConfig
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.errors import EngineError, MaintenanceAuditError
from repro.obs.health import SloPolicy


def build_db(incident_dir, **config):
    db = ChronicleDatabase(config=DatabaseConfig(**config))
    db.create_chronicle(
        "calls", [("caller", "INT"), ("minutes", "INT")], retention=0
    )
    db.define_view(
        "DEFINE VIEW usage AS "
        "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
    )
    db.enable_observability(
        audit=db.config.audit_mode, incident_dir=incident_dir
    )
    return db


def drill_auditor_violation(incident_dir):
    """A leaky maintenance path under audit_mode='raise'."""
    db = build_db(incident_dir, audit_mode="raise")
    try:
        for i in range(16):
            db.append("calls", {"caller": i % 4, "minutes": i + 1})

        view = db.view("usage")
        original = view.apply_delta

        def leaky(delta):
            GLOBAL_COUNTERS.count("chronicle_read")  # the smuggled read
            return original(delta)

        view.apply_delta = leaky
        try:
            db.append("calls", {"caller": 9, "minutes": 9})
        except MaintenanceAuditError as exc:
            print(f"auditor drill: append aborted as expected ({exc})")
        else:
            raise SystemExit("auditor drill: expected MaintenanceAuditError")
    finally:
        db.observability.uninstall()
        db.close()


def drill_shard_worker_error(incident_dir):
    """A worker failure in the sharded dispatch fan-out."""
    db = build_db(
        incident_dir,
        engine="sharded",
        shards=2,
        executor="serial",
        slo=SloPolicy(),
        audit_mode="off",
    )
    try:
        for i in range(16):
            db.append("calls", {"caller": i % 4, "minutes": i + 1})

        def exploding(tasks):
            raise EngineError("injected worker failure (incident drill)")

        db._shards.backend.run = exploding
        try:
            db.append("calls", {"caller": 9, "minutes": 9})
        except EngineError as exc:
            print(f"worker drill: append aborted as expected ({exc})")
        else:
            raise SystemExit("worker drill: expected EngineError")

        report = db.health()
        breaches = [check.name for check in report.breaches]
        print(f"worker drill: health now {report.status} (breaches {breaches})")
        if report.status != "FAILING" or breaches != ["engine_errors"]:
            raise SystemExit(
                f"worker drill: expected FAILING on engine_errors alone, "
                f"got {report.status} on {breaches}"
            )
        check_slo_breach_bundle(incident_dir)
    finally:
        db.observability.uninstall()
        db.close()


def check_slo_breach_bundle(incident_dir):
    """The latest ``slo-breach`` bundle's report names exactly the checks."""
    names = sorted(
        name for name in os.listdir(incident_dir) if name.endswith("-slo-breach.json")
    )
    if not names:
        raise SystemExit("worker drill: no slo-breach bundle was dumped")
    with open(os.path.join(incident_dir, names[-1])) as handle:
        checks = [c["name"] for c in json.load(handle)["context"]["health"]["checks"]]
    expected = ["maintain_p99_seconds", "auditor_violations", "engine_errors"]
    if checks != expected:
        raise SystemExit(f"worker drill: slo-breach report checks {checks}, expected {expected}")


def validate_bundle(path):
    with open(path) as handle:
        bundle = json.load(handle)
    for key in ("reason", "at", "sequence", "events", "context"):
        if key not in bundle:
            raise SystemExit(f"{path}: missing bundle key {key!r}")
    spans = [e for e in bundle["events"] if e.get("kind") == "span"]
    if not spans:
        raise SystemExit(f"{path}: no spans on the flight-recorder tape")
    if not all("trace_id" in span for span in spans):
        raise SystemExit(f"{path}: spans without trace ids")
    context = bundle["context"]
    if "watermarks" not in context or "snapshot" not in context:
        raise SystemExit(f"{path}: context missing watermarks/snapshot")
    print(
        f"  {os.path.basename(path)}: reason={bundle['reason']!r} "
        f"events={len(bundle['events'])} spans={len(spans)} "
        f"watermarks={context['watermarks']}"
    )


def main():
    incident_dir = os.environ.get("INCIDENT_DIR", "incident-artifacts")
    drill_auditor_violation(incident_dir)
    drill_shard_worker_error(incident_dir)

    bundles = sorted(
        os.path.join(incident_dir, name)
        for name in os.listdir(incident_dir)
        if name.startswith("incident-") and name.endswith(".json")
    )
    reasons = {os.path.basename(b).split("-", 2)[2].rsplit(".", 1)[0] for b in bundles}
    expected = {"auditor-violation", "shard-worker-error"}
    if not expected <= reasons:
        raise SystemExit(
            f"expected bundles for {sorted(expected)}, found {sorted(reasons)}"
        )
    print(f"validating {len(bundles)} bundle(s) in {incident_dir}/")
    for bundle in bundles:
        validate_bundle(bundle)
    print("incident smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
