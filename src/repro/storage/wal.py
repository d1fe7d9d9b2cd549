"""The chronicle append-ahead log: SQLite-backed batches + snapshots.

One SQLite file per database (``chronicle.db`` inside the configured
durability directory), opened in ``wal`` journal mode.  Two
schema-versioned tables carry the durable state:

``log``
    One row per event, in admission order (the id is the recovery
    order).  Kinds: ``batch`` (an admitted append event — the chronicle
    name → stamped value tuples map of PR 6's cross-process dispatch,
    pickled, plus the event watermark), ``ddl`` (a catalog operation:
    group/chronicle/relation/view definitions, interleaved with the
    batches so a view defined mid-stream replays at the right point),
    and ``relupdate`` (a proactive relation update).  The log assigns
    the ids itself: at open, the next id is one above both the largest
    id in the log and the largest id a snapshot covers, so an id of a
    truncated tail is never handed out again (recovery replays the ids
    above the last snapshot's).

``snapshots``
    A chain of watermark-stamped checkpoint documents (the JSON codec
    shared with :mod:`repro.storage.checkpoint`): one base, then the
    deltas written after it, in rowid order.  Each snapshot records the
    last log id it covers; writing one truncates the covered ``batch`` /
    ``relupdate`` tail (``ddl`` rows are kept — they rebuild the catalog
    shape before the chain's state is loaded).  Writing a base deletes
    the chain before it in the same transaction.

Schema version 2 (this build's new files): ``log.id`` is a plain
``INTEGER PRIMARY KEY`` and pages are :data:`PAGE_SIZE` bytes, so a
one-batch commit writes one small page to SQLite's WAL file.  Version 1
files (``AUTOINCREMENT``, whose counter row was a second page per
commit, and 4 KiB pages) open and continue with explicit ids; a build
that knows only version 1 refuses a version 2 file, whose implicit
rowids could reuse ids a snapshot covers.

Every write is one autocommitted statement, except a snapshot (one
transaction) and a durable ``ingest`` window, whose batches commit
together (:meth:`ChronicleWal.begin` / :meth:`ChronicleWal.commit`).
The fsync policy maps onto SQLite's ``synchronous`` pragma: ``always``
→ FULL (fsync per commit), ``batch`` → NORMAL (commit per batch or
window; in WAL mode this survives process crash without a per-commit
fsync — the file is fsynced at snapshot/flush/close), ``off`` → OFF.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import ChronicleError

#: Name of the single durability file inside ``DurabilityConfig.dir``.
WAL_FILENAME = "chronicle.db"

#: The version new files get; both open (module docstring).
SCHEMA_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

#: Page size of a new file: a one-batch commit appends one page-sized
#: frame to SQLite's WAL file.
PAGE_SIZE = 1024

_SYNCHRONOUS = {"always": "FULL", "batch": "NORMAL", "off": "OFF"}


class WalError(ChronicleError):
    """The append-ahead log could not be opened, written, or read."""


class WalSnapshot(NamedTuple):
    """One snapshot row: last covered log id, watermark, stored document."""

    snapshot_id: int
    log_id: int
    watermark: int
    text: str

    def decode(self) -> Dict[str, Any]:
        """The document (decoded on demand: a chain's documents need not
        all be in memory at once)."""
        try:
            return json.loads(self.text)
        except ValueError as exc:
            raise WalError(f"corrupt snapshot {self.snapshot_id}: {exc}") from exc


class WalEntry(NamedTuple):
    """One decoded log row, in admission order."""

    entry_id: int
    kind: str
    watermark: int
    payload: Any


def wal_path(directory: str) -> str:
    """The durability file path for a durability directory."""
    return os.path.join(directory, WAL_FILENAME)


class ChronicleWal:
    """The SQLite substrate of the durability subsystem.

    Thread-safe for the engine's single-admission discipline plus
    concurrent reads (a lock serializes statements); all writes are
    autocommitted per statement except snapshots, which commit the
    snapshot row, the chain it replaces, and the log-tail truncation
    atomically, and the rows logged between :meth:`begin` and
    :meth:`commit`.
    """

    def __init__(self, directory: str, fsync: str = "batch") -> None:
        if fsync not in _SYNCHRONOUS:
            raise WalError(f"unknown fsync policy {fsync!r}")
        os.makedirs(directory, exist_ok=True)
        self.path = wal_path(directory)
        self.fsync = fsync
        self._lock = threading.Lock()
        try:
            self._conn: Optional[sqlite3.Connection] = sqlite3.connect(
                self.path, isolation_level=None, check_same_thread=False
            )
            # Takes effect only on a new file; must precede journal_mode.
            self._conn.execute(f"PRAGMA page_size={PAGE_SIZE}")
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA synchronous={_SYNCHRONOUS[fsync]}")
            self._ensure_schema()
            self._next_id = self._first_free_id()
        except sqlite3.Error as exc:
            raise WalError(f"cannot open append-ahead log {self.path}: {exc}") from exc

    # -- schema ---------------------------------------------------------------

    def _ensure_schema(self) -> None:
        conn = self._require()
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS log ("
            " id INTEGER PRIMARY KEY,"
            " kind TEXT NOT NULL,"
            " watermark INTEGER NOT NULL,"
            " payload BLOB NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS snapshots ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " log_id INTEGER NOT NULL,"
            " watermark INTEGER NOT NULL,"
            " document TEXT NOT NULL)"
        )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        elif int(row[0]) not in SUPPORTED_VERSIONS:
            raise WalError(
                f"append-ahead log {self.path} has schema version {row[0]}, "
                f"this build supports {', '.join(map(str, SUPPORTED_VERSIONS))}"
            )

    def _first_free_id(self) -> int:
        """One above every log id ever committed: the rows still in the
        log, and the truncated tail the last snapshot covers."""
        row = self._require().execute(
            "SELECT MAX(COALESCE((SELECT MAX(id) FROM log), 0),"
            " COALESCE((SELECT MAX(log_id) FROM snapshots), 0))"
        ).fetchone()
        return int(row[0]) + 1

    def _require(self) -> sqlite3.Connection:
        if self._conn is None:
            raise WalError(f"append-ahead log {self.path} is closed")
        return self._conn

    @property
    def closed(self) -> bool:
        return self._conn is None

    # -- writes ---------------------------------------------------------------

    def log_batch(
        self, group: str, payload: Dict[str, list], watermark: int
    ) -> int:
        """Append one admitted batch; returns the encoded size in bytes."""
        blob = pickle.dumps((group, payload), protocol=pickle.HIGHEST_PROTOCOL)
        self._append("batch", watermark, blob)
        return len(blob)

    def log_ddl(self, op: Tuple[Any, ...], watermark: int) -> None:
        """Append one catalog operation, ordered against the batches."""
        self._append("ddl", watermark, pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL))

    def log_relation_update(
        self, name: str, key: Any, changes: Dict[str, Any], watermark: int
    ) -> None:
        """Append one proactive relation update, ordered against the batches."""
        blob = pickle.dumps((name, key, changes), protocol=pickle.HIGHEST_PROTOCOL)
        self._append("relupdate", watermark, blob)

    def _append(self, kind: str, watermark: int, blob: bytes) -> None:
        """Insert one log row under the next id; the id is spent only
        once the row is in."""
        with self._lock:
            entry_id = self._next_id
            self._require().execute(
                "INSERT INTO log (id, kind, watermark, payload) VALUES (?, ?, ?, ?)",
                (entry_id, kind, watermark, blob),
            )
            self._next_id = entry_id + 1

    def begin(self) -> None:
        """Open a transaction: the rows logged until :meth:`commit`
        commit together (one durable ``ingest`` window)."""
        with self._lock:
            self._require().execute("BEGIN")

    def commit(self) -> None:
        """Commit the transaction :meth:`begin` opened."""
        with self._lock:
            self._require().execute("COMMIT")

    def write_snapshot(
        self, document: Dict[str, Any], watermark: int, base: bool = True
    ) -> Tuple[int, int]:
        """Store a snapshot and truncate the covered log tail.

        A *base* replaces the whole chain; otherwise the document is a
        delta appended to it.  Returns ``(snapshot_bytes,
        truncated_rows)``.  The snapshot row, the deletion of the chain a
        base replaces, and the truncation of covered ``batch``/
        ``relupdate`` rows commit atomically; the WAL file is
        checkpointed (fsync) afterwards regardless of the fsync policy.
        """
        text = json.dumps(document)
        with self._lock:
            conn = self._require()
            conn.execute("BEGIN IMMEDIATE")
            try:
                log_id = self._next_id - 1
                if base:
                    conn.execute("DELETE FROM snapshots")
                conn.execute(
                    "INSERT INTO snapshots (log_id, watermark, document)"
                    " VALUES (?, ?, ?)",
                    (log_id, watermark, text),
                )
                cursor = conn.execute(
                    "DELETE FROM log WHERE id <= ? AND kind != 'ddl'", (log_id,)
                )
                truncated = cursor.rowcount
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("PRAGMA wal_checkpoint(FULL)")
        return len(text), truncated

    def flush(self) -> None:
        """Checkpoint the SQLite WAL file — an explicit fsync barrier."""
        with self._lock:
            self._require().execute("PRAGMA wal_checkpoint(FULL)")

    # -- meta (durable key/value side-state) ----------------------------------

    def set_meta(self, key: str, value: str) -> None:
        """Upsert one ``meta`` row (durable non-log side-state).

        The periodic-view clocks live here: they are not events (replay
        rebuilds nothing from them) but must survive a crash so
        programmatic periodic views resume their cadence after
        ``open()``.
        """
        with self._lock:
            self._require().execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, value),
            )

    def get_meta(self, key: str) -> Optional[str]:
        with self._lock:
            row = self._require().execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else str(row[0])

    def meta_items(self, prefix: str) -> Iterator[Tuple[str, str]]:
        """All ``meta`` rows whose key starts with *prefix*, key-ordered."""
        with self._lock:
            rows = self._require().execute(
                "SELECT key, value FROM meta WHERE key >= ? AND key < ?"
                " ORDER BY key",
                (prefix, prefix + "￿"),
            ).fetchall()
        for key, value in rows:
            yield str(key), str(value)

    # -- reads ----------------------------------------------------------------

    def is_fresh(self) -> bool:
        """Whether the log holds no events and no snapshot yet."""
        with self._lock:
            conn = self._require()
            has_log = conn.execute("SELECT 1 FROM log LIMIT 1").fetchone()
            has_snap = conn.execute("SELECT 1 FROM snapshots LIMIT 1").fetchone()
        return has_log is None and has_snap is None

    def snapshot_chain(self) -> List[WalSnapshot]:
        """Every snapshot row in the order written (empty when none)."""
        with self._lock:
            rows = self._require().execute(
                "SELECT id, log_id, watermark, document FROM snapshots ORDER BY id"
            ).fetchall()
        return [
            WalSnapshot(int(snapshot_id), int(log_id), int(watermark), str(text))
            for snapshot_id, log_id, watermark, text in rows
        ]

    def ddl_entries(self, up_to: int) -> Iterator[WalEntry]:
        """Catalog operations at or below log id *up_to*, in order."""
        with self._lock:
            rows = self._require().execute(
                "SELECT id, watermark, payload FROM log"
                " WHERE kind = 'ddl' AND id <= ? ORDER BY id",
                (up_to,),
            ).fetchall()
        for entry_id, watermark, blob in rows:
            yield WalEntry(entry_id, "ddl", watermark, pickle.loads(blob))

    def entries(self, after: int = 0) -> Iterator[WalEntry]:
        """All log rows above id *after*, decoded, in admission order."""
        with self._lock:
            rows = self._require().execute(
                "SELECT id, kind, watermark, payload FROM log"
                " WHERE id > ? ORDER BY id",
                (after,),
            ).fetchall()
        for entry_id, kind, watermark, blob in rows:
            try:
                payload = pickle.loads(blob)
            except Exception as exc:
                raise WalError(
                    f"corrupt log entry {entry_id} ({kind}): {exc}"
                ) from exc
            yield WalEntry(entry_id, kind, watermark, payload)

    def log_rows(self) -> int:
        with self._lock:
            row = self._require().execute("SELECT COUNT(*) FROM log").fetchone()
        return int(row[0])

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the underlying connection (idempotent)."""
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute("PRAGMA wal_checkpoint(FULL)")
            except sqlite3.Error:
                pass
            self._conn.close()
            self._conn = None

    def abort(self) -> None:
        """Fault injection: drop the connection as a crash would.

        No snapshot, no flush, no finalization — whatever SQLite already
        committed is what recovery will see.  Used by the crash-recovery
        tests and the ``durable_join`` benchmark workload's restart.
        """
        with self._lock:
            if self._conn is None:
                return
            self._conn.close()
            self._conn = None

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"fsync={self.fsync!r}"
        return f"ChronicleWal({self.path!r}, {state})"
