"""Recovery drill — kill a live ingesting process, verify recovery.

CI's black-box check for the durability subsystem, the counterpart of
``incident_smoke.py``:

1. **kill -9 drill** — a child process opens a durable database
   (``wal`` mode, ``fsync="always"``), builds the banking catalog, and
   ingests batches, printing a marker line after each durable commit.
   The parent SIGKILLs it mid-stream, then recovers the directory via
   ``ChronicleDatabase.open`` and cross-checks the recovered views
   against the batch count read straight off the SQLite log (every
   printed marker must be on disk — ``fsync="always"``), plus
   cross-view consistency (per-key sums/counts vs the global view).
2. **chain drill** — the same, under ``wal+snapshot``: the child
   snapshots every few batches, and is SIGKILLed once at least three
   delta snapshots have committed after the chain's base.  The parent
   counts the deltas and the committed batches straight off the SQLite
   file, recovers, and requires the recovered views to equal — exactly —
   a non-durable run of the same committed batches.
3. **corruption drill** — a logged batch payload is overwritten in
   place; reopening must raise :class:`RecoveryError` and leave a
   readable ``recovery-failure.json`` incident bundle in the durable
   directory.

Exits non-zero on any missing piece.  Set ``RECOVERY_DIR`` to choose
the artifact directory (default ``recovery-artifacts``).
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import time

from repro import BankingWorkload, ChronicleDatabase, DatabaseConfig, DurabilityConfig
from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.errors import ChronicleError
from repro.sca.summarize import GroupBySummary
from repro.storage.durability import RecoveryError
from repro.storage.wal import wal_path

BATCH = 4
KILL_AFTER = 8  # marker lines before the SIGKILL
CHAIN_INTERVAL = 4  # chain drill: snapshot every this many batches
CHAIN_DELTAS = 3  # chain drill: committed deltas before the SIGKILL

_CHILD = textwrap.dedent(
    """
    import sys

    sys.path.insert(0, sys.argv[4])

    from recovery_drill import BATCH, build
    from repro import ChronicleDatabase, DatabaseConfig, DurabilityConfig


    def main():
        directory, mode, interval = sys.argv[1], sys.argv[2], int(sys.argv[3])
        config = DatabaseConfig(
            durability=DurabilityConfig(
                mode=mode,
                dir=directory,
                fsync="always",
                snapshot_interval_batches=interval,
            )
        )
        db = ChronicleDatabase.open(directory, config=config)
        workload = build(db)
        for n in range(1000000):
            db.append(workload.NAME, list(workload.records(BATCH)))
            deltas = db.durability.status()["chain_deltas"]
            print(f"BATCH {n} {deltas}", flush=True)


    if __name__ == "__main__":
        main()
    """
)


def build(db):
    """The drills' catalog: per-account and global sums over banking."""
    workload = BankingWorkload(seed=7)
    db.create_chronicle(workload.NAME, workload.CHRONICLE_SCHEMA)
    chron = db.chronicle(workload.NAME)
    db.define_view(
        GroupBySummary(scan(chron), ["acct"], [spec(SUM, "cents"), spec(COUNT)]),
        name="by_key",
    )
    db.define_view(
        GroupBySummary(scan(chron), [], [spec(SUM, "cents"), spec(COUNT)]),
        name="grand",
    )
    return workload


def _reference_views(batches):
    """The drills' catalog, not durable, fed its first *batches* batches."""
    db = ChronicleDatabase()
    try:
        workload = build(db)
        for _ in range(batches):
            db.append(workload.NAME, list(workload.records(BATCH)))
        return _views(db)
    finally:
        db.close()


def _views(db):
    return {
        name: sorted(tuple(row.values) for row in db.view(name).rows())
        for name in ("by_key", "grand")
    }


def _run_child(artifact_dir, name, mode, interval, done):
    """Start the child on ``<name>-db``, read its markers until
    ``done(seen, deltas)``, SIGKILL it; returns ``(directory, seen)``."""
    directory = os.path.join(artifact_dir, f"{name}-db")
    script = os.path.join(artifact_dir, "child.py")
    with open(script, "w") as handle:
        handle.write(_CHILD)
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.Popen(
        [sys.executable, script, directory, mode, str(interval), here],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    seen = 0
    finished = False
    started = time.time()
    try:
        for line in proc.stdout:
            if line.startswith("BATCH"):
                seen += 1
                if done(seen, int(line.split()[2])):
                    finished = True
                    break
        if not finished:
            raise SystemExit(
                f"{name} drill: child died early after {seen} batches: "
                f"{proc.stderr.read()}"
            )
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print(
        f"{name} drill: SIGKILL after {seen} durable batches "
        f"({time.time() - started:.1f}s)"
    )
    return directory, seen


def _logged_batches(directory):
    """Durably committed batches, read straight off the SQLite file."""
    conn = sqlite3.connect(wal_path(directory))
    try:
        return conn.execute(
            "SELECT COUNT(*) FROM log WHERE kind = 'batch'"
        ).fetchone()[0]
    finally:
        conn.close()


def drill_kill9(artifact_dir):
    directory, seen = _run_child(
        artifact_dir, "kill9", "wal", 512, lambda seen, _: seen >= KILL_AFTER
    )
    logged = _logged_batches(directory)
    if logged < seen:
        raise SystemExit(
            f"kill9 drill: log holds {logged} batches but the child "
            f"printed {seen} durable commits"
        )

    config = DatabaseConfig(
        durability=DurabilityConfig(mode="wal", dir=directory, fsync="off")
    )
    db = ChronicleDatabase.open(directory, config=config)
    try:
        report = db.durability.last_recovery
        if report.replayed_batches != logged:
            raise SystemExit(
                f"kill9 drill: recovery replayed {report.replayed_batches} "
                f"of {logged} logged batches"
            )
        (grand,) = db.view("grand").rows()
        grand_sum, grand_count = grand.values
        if grand_count != logged * BATCH:
            raise SystemExit(
                f"kill9 drill: recovered global count {grand_count} != "
                f"{logged} batches x {BATCH} records"
            )
        by_key = list(db.view("by_key").rows())
        if sum(row.values[-1] for row in by_key) != grand_count:
            raise SystemExit("kill9 drill: per-key counts disagree with grand")
        if sum(row.values[-2] for row in by_key) != grand_sum:
            raise SystemExit("kill9 drill: per-key sums disagree with grand")
        print(
            f"kill9 drill: recovered {logged} batches "
            f"({grand_count} records) in {report.seconds * 1000:.1f}ms, "
            f"views consistent"
        )
    finally:
        db.close()


def drill_chain(artifact_dir):
    # Killed half-way through an interval, so the log tail holds batches
    # to replay on top of the chain.
    directory, seen = _run_child(
        artifact_dir,
        "chain",
        "wal+snapshot",
        CHAIN_INTERVAL,
        lambda seen, deltas: deltas >= CHAIN_DELTAS and seen % CHAIN_INTERVAL == 2,
    )
    # Ground truth straight off the SQLite file: the chain's kinds, and
    # every committed batch (sequence numbers start at 0, one per batch).
    conn = sqlite3.connect(wal_path(directory))
    try:
        formats = [
            json.loads(text)["format"]
            for (text,) in conn.execute("SELECT document FROM snapshots ORDER BY id")
        ]
        (chain_end,) = conn.execute("SELECT MAX(watermark) FROM snapshots").fetchone()
        tail, last = conn.execute(
            "SELECT COUNT(*), MAX(watermark) FROM log WHERE kind = 'batch'"
        ).fetchone()
    finally:
        conn.close()
    deltas = formats.count("delta-1")
    if formats[:1] != [1] or deltas != len(formats) - 1 or deltas < CHAIN_DELTAS:
        raise SystemExit(
            f"chain drill: expected a base and >= {CHAIN_DELTAS} deltas on disk, "
            f"found formats {formats}"
        )
    committed = max(chain_end, last if last is not None else -1) + 1
    if committed < seen:
        raise SystemExit(
            f"chain drill: {committed} batches committed but the child "
            f"printed {seen} durable commits"
        )

    config = DatabaseConfig(
        durability=DurabilityConfig(
            mode="wal+snapshot", dir=directory, fsync="off",
            snapshot_interval_batches=CHAIN_INTERVAL,
        )
    )
    db = ChronicleDatabase.open(directory, config=config)
    try:
        report = db.durability.last_recovery
        if report.replayed_batches != tail:
            raise SystemExit(
                f"chain drill: recovery replayed {report.replayed_batches} "
                f"of {tail} tail batches"
            )
        if _views(db) != _reference_views(committed):
            raise SystemExit(
                f"chain drill: recovered views differ from an uninterrupted "
                f"run of the {committed} committed batches"
            )
        print(
            f"chain drill: base + {deltas} deltas + {tail} tail batches "
            f"recovered in {report.seconds * 1000:.1f}ms, equal to an "
            f"uninterrupted run of {committed} batches"
        )
    finally:
        db.close()


def drill_corruption(artifact_dir):
    directory = os.path.join(artifact_dir, "corrupt-db")
    config = DatabaseConfig(
        durability=DurabilityConfig(mode="wal", dir=directory, fsync="off")
    )
    db = ChronicleDatabase.open(directory, config=config)
    db.create_chronicle("t", [("k", "INT")])
    for i in range(4):
        db.append("t", {"k": i})
    db.durability.abort()

    conn = sqlite3.connect(wal_path(directory))
    conn.execute(
        "UPDATE log SET payload = X'DEADBEEF' WHERE kind = 'batch' "
        "AND id = (SELECT MAX(id) FROM log WHERE kind = 'batch')"
    )
    conn.commit()
    conn.close()

    try:
        ChronicleDatabase.open(directory, config=config)
    except RecoveryError as exc:
        print(f"corruption drill: open failed as expected ({exc})")
    except ChronicleError as exc:
        raise SystemExit(
            f"corruption drill: expected RecoveryError, got {type(exc).__name__}"
        )
    else:
        raise SystemExit("corruption drill: expected RecoveryError")

    bundle_path = os.path.join(directory, "recovery-failure.json")
    if not os.path.exists(bundle_path):
        raise SystemExit(f"corruption drill: no incident bundle at {bundle_path}")
    with open(bundle_path) as handle:
        bundle = json.load(handle)
    for key in ("reason", "at", "context"):
        if key not in bundle:
            raise SystemExit(f"{bundle_path}: missing bundle key {key!r}")
    if bundle["reason"] != "recovery-failure":
        raise SystemExit(
            f"{bundle_path}: reason {bundle['reason']!r} != 'recovery-failure'"
        )
    print(
        f"corruption drill: bundle {os.path.basename(bundle_path)} "
        f"reason={bundle['reason']!r} readable"
    )


def main():
    artifact_dir = os.environ.get("RECOVERY_DIR", "recovery-artifacts")
    os.makedirs(artifact_dir, exist_ok=True)
    drill_kill9(artifact_dir)
    drill_chain(artifact_dir)
    drill_corruption(artifact_dir)
    print("recovery drill: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
